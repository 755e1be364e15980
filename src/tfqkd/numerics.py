"""Numerical primitives: entropy, Poisson statistics, folded photon-number
distributions, state fidelities, concentration deviations, and the
repeaterless linear bound.

All functions here are pure and stateless; they carry no protocol context.
Intensities are mean photon numbers per pulse; the two-pulse source obtained
when both parties emit intensity beta has Poisson mean 2*beta, and the
fidelity helpers apply that doubling internally.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Tail terms below this threshold are dropped once the running index has
# passed the distribution mean (error is orders of magnitude below the
# 1e-12 normalization targets).
TAIL_CUTOFF = 1e-30


class Deviation(NamedTuple):
    """A concentration-deviation magnitude plus a flag recording whether a
    negative trial count had to be clamped to zero."""

    value: float
    clamped: bool


def per_distinct(fn, keys: list) -> np.ndarray:
    """np.array([fn(k) for k in keys]), calling fn once per distinct key.

    A search round repeats few values (5 intensities of each kind, 5
    probabilities), and a scalar function called on them keeps every entry
    bit-identical to a call per entry, which numpy's own transcendental
    functions and powers do not."""
    index: dict = {}
    inverse = [index.setdefault(k, len(index)) for k in keys]
    values = np.array([fn(k) for k in index], dtype=float)
    return values if len(index) == len(keys) else values[inverse]


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy h(p) in bits, with 0*log2(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy: p={p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def poisson_pmf(k: int, mean: float) -> float:
    """P(X = k) for X ~ Poisson(mean).

    Evaluated in log space for k > 20 so that the large photon-number
    indices produced by folding (j + M*n) never overflow a factorial.
    """
    if mean < 0.0:
        raise ValueError(f"poisson_pmf: mean={mean} must be >= 0")
    if k < 0:
        return 0.0
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    if k <= 20:
        return math.exp(-mean) * mean**k / math.factorial(k)
    log_p = -mean + k * math.log(mean) - math.lgamma(k + 1.0)
    return math.exp(log_p) if log_p > -745.0 else 0.0


def _check_fold_args(j: int, m_phases: int) -> None:
    if m_phases < 2 or m_phases % 2 != 0:
        raise ValueError(f"number of phase slices must be even and >= 2, got {m_phases}")
    if not 0 <= j < m_phases:
        raise ValueError(f"phase class j={j} outside [0, {m_phases - 1}]")


def _class_terms(j: int, means: tuple[float, ...], m_phases: int) -> list[list[float]]:
    """The folded series of class j: one row [P(k) at each of `means`] for
    k = j, j + M, j + 2M, ..., ending with the first k that is past every
    mean and where every term is below TAIL_CUTOFF."""
    top = max(means)
    rows = []
    k = j
    while True:
        row = [poisson_pmf(k, mean) for mean in means]
        rows.append(row)
        if k > top and max(row) < TAIL_CUTOFF:
            return rows
        k += m_phases


def folded_poisson(j: int, mean: float, m_phases: int) -> float:
    """Total Poisson weight of the folded photon-number class j (mod M):
    P(j + M*n) summed over n = 0, 1, ... up to the truncation of
    _class_terms."""
    _check_fold_args(j, m_phases)
    total = 0.0
    for (term,) in _class_terms(j, (mean,), m_phases):
        total += term
    return total


def folded_fidelity(j: int, intensity_a: float, intensity_b: float, m_phases: int) -> float:
    """Fidelity between the two folded two-pulse states of class j prepared
    with per-pulse intensities a and b (Poisson means 2a and 2b).

    Equals 1 when the intensities coincide. Where a class weight vanishes
    (j > 0 at a zero intensity) or the product of the two weights
    underflows, returns 0, the value that matches folded_distinguishability's
    conservative 1 there.
    """
    _check_fold_args(j, m_phases)
    if intensity_a < 0.0 or intensity_b < 0.0:
        raise ValueError("intensities must be >= 0")
    if intensity_a == intensity_b:
        return 1.0
    wa = wb = overlap = 0.0
    for pa, pb in _class_terms(j, (2.0 * intensity_a, 2.0 * intensity_b), m_phases):
        wa += pa
        wb += pb
        overlap += math.sqrt(pa) * math.sqrt(pb)
    if wa * wb == 0.0:
        return 0.0
    return min(1.0, overlap / math.sqrt(wa * wb))


def folded_distinguishability(
    j: int, intensity_a: float, intensity_b: float, m_phases: int
) -> float:
    """sqrt(1 - F^2) for the folded_fidelity F of class j, computed without
    the catastrophic cancellation of squaring a fidelity that sits within
    1e-13 of 1.

    Writes F as a cosine between the amplitude vectors a_n = sqrt(P(j+Mn))
    and uses the Lagrange identity |a|^2|b|^2 - <a,b>^2 =
    sum_{n<m} (a_n b_m - a_m b_n)^2, a sum of nonnegative terms.
    """
    _check_fold_args(j, m_phases)
    if intensity_a < 0.0 or intensity_b < 0.0:
        raise ValueError("intensities must be >= 0")
    if intensity_a == intensity_b:
        return 0.0
    rows = _class_terms(j, (2.0 * intensity_a, 2.0 * intensity_b), m_phases)
    amp_a = [math.sqrt(pa) for pa, _ in rows]
    amp_b = [math.sqrt(pb) for _, pb in rows]
    norm_a = norm_b = 0.0
    for a, b in zip(amp_a, amp_b):
        norm_a += a * a
        norm_b += b * b
    norm_sq = norm_a * norm_b
    if norm_sq == 0.0:
        # A class weight vanishes (a zero intensity, j > 0) or the product
        # underflows (about 1e-200 each, e.g. j = 60 at intensity 0.005).
        # The class is then prepared with probability 0 or about 1e-200, so
        # its gap bound has n1 ~ 0 and s drops out; 1 is the conservative
        # value.
        return 1.0
    cross = 0.0
    for n in range(len(amp_a)):
        for m in range(n + 1, len(amp_a)):
            term = amp_a[n] * amp_b[m] - amp_a[m] * amp_b[n]
            cross += term * term
    return math.sqrt(min(1.0, cross / norm_sq))


def vacuum_distinguishability(intensity: float, m_phases: int) -> float:
    """sqrt(1 - F^2) for the overlap F between the vacuum and the folded
    class-0 two-pulse state: P(0) over the folded class-0 weight, both at
    Poisson mean 2*intensity. Cancellation-free: 1 - F is the folded tail
    weight over the class-0 weight, a ratio of directly summed positive
    terms of the same class-0 series."""
    if intensity < 0.0:
        raise ValueError("intensity must be >= 0")
    _check_fold_args(0, m_phases)
    mean = 2.0 * intensity
    if mean == 0.0:
        return 0.0
    (vacuum,), *tail_rows = _class_terms(0, (mean,), m_phases)
    tail, total = 0.0, vacuum
    for (term,) in tail_rows:
        tail += term
        total += term
    one_minus_f = tail / total
    return math.sqrt(one_minus_f * (2.0 - one_minus_f))


def chernoff_delta(x: float, y: float, z: float) -> Deviation:
    """Concentration deviation sqrt(3*x*y*ln(1/z)) for x trials at
    per-trial rate y and failure probability z.

    A negative x (which arises when forming residual trial counts from
    sampled data) is clamped to zero and flagged in the result.
    """
    value, clamped = chernoff_deltas(np.array([x], dtype=float), np.array([y], dtype=float), z)
    return Deviation(float(value[0]), bool(clamped[0]))


def chernoff_deltas(xs: np.ndarray, ys: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """chernoff_delta elementwise over arrays of trial counts xs and rates
    ys of one shape, at a shared failure probability z: the deviations and
    the clamp flags, as two arrays."""
    if not 0.0 < z < 1.0:
        raise ValueError(f"failure probability z={z} outside (0, 1)")
    inside = (ys >= 0.0) & (ys <= 1.0)
    if not inside.all():
        raise ValueError(f"per-trial rate y={ys[~inside][0]} outside [0, 1]")
    clamped = xs < 0.0
    xs = np.where(clamped, 0.0, xs)
    value = np.sqrt(3.0 * xs * ys * math.log(1.0 / z))
    value[(xs == 0.0) | (ys == 0.0)] = 0.0
    return value, clamped


def plob_bound(eta: float) -> float:
    """Repeaterless secret-key capacity bound -log2(1 - eta) in bits per
    pulse for end-to-end transmittance eta."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"plob_bound: eta={eta} outside (0, 1)")
    return -math.log2(1.0 - eta)
