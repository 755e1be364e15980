"""Assembles the phase-error linear program: per-class yield variables for
the signal and decoy intensities, count equalities, finite-statistics gap
bounds between nearly indistinguishable preparations, and box bounds, with
an explicit failure-probability ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ObservedCounts, ProtocolParams
from .numerics import (
    chernoff_deltas,
    folded_distinguishability,
    folded_poisson,
    vacuum_distinguishability,
)


@dataclass(frozen=True)
class SecurityBudget:
    """Failure-probability bookkeeping.

    eps_a is the per-bound failure probability; the phase-error estimate
    spends (8*M + 12) of them. Secrecy combines the phase-error budget with
    the privacy-amplification term; the total adds correctness.
    """

    eps_a: float
    eps_total_pe: float
    eps_cor: float
    eps_pa: float
    eps_sec: float
    eps_tol: float
    n_phases: int


def budget_multiplier(n_phases: int) -> int:
    """Number of eps_a units spent per phase-error estimation."""
    return 8 * n_phases + 12


def make_budget(
    n_phases: int,
    eps_cor: float,
    eps_pa: float,
    eps_a: float | None = None,
    eps_total_pe: float | None = None,
) -> SecurityBudget:
    """Build the budget from either the per-bound eps_a or the total
    phase-error failure probability (exactly one must be given)."""
    if n_phases < 2 or n_phases % 2 != 0:
        raise ValueError(f"n_phases={n_phases} must be even and >= 2")
    if (eps_a is None) == (eps_total_pe is None):
        raise ValueError("give exactly one of eps_a / eps_total_pe")
    mult = budget_multiplier(n_phases)
    if eps_a is None:
        if not 0.0 < eps_total_pe < 1.0:
            raise ValueError(f"eps_total_pe={eps_total_pe} outside (0, 1)")
        eps_a = eps_total_pe / mult
    else:
        if not 0.0 < eps_a < 1.0:
            raise ValueError(f"eps_a={eps_a} outside (0, 1)")
        eps_total_pe = mult * eps_a
    for name, val in (("eps_cor", eps_cor), ("eps_pa", eps_pa)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name}={val} outside (0, 1)")
    eps_sec = math.sqrt(eps_total_pe) + eps_pa
    eps_tol = eps_cor + eps_sec
    return SecurityBudget(
        eps_a=eps_a,
        eps_total_pe=eps_total_pe,
        eps_cor=eps_cor,
        eps_pa=eps_pa,
        eps_sec=eps_sec,
        eps_tol=eps_tol,
        n_phases=n_phases,
    )


@dataclass(frozen=True)
class GapBound:
    """Two-sided bound |coeff_left*left - coeff_right*right| <= delta between
    the yields of two nearly indistinguishable preparations.

    kind is "decoy_pair" (left = signal-class yield, right = decoy-class
    yield, both LP variables), "vacuum_mu" or "vacuum_nu" (left = the
    observed vacuum count, right = the class-0 yield variable). Exactly the
    member with the larger preparation probability carries the ratio
    coefficient; the other coefficient is 1. delta is clamped to >= 0; any
    clamping (of delta itself or of a negative residual trial count inside
    a deviation term) is recorded in clamp_events.
    """

    kind: str
    j: int
    coeff_left: float
    coeff_right: float
    delta: float
    clamp_events: tuple[str, ...] = ()

    @property
    def clamped(self) -> bool:
        return bool(self.clamp_events)


# Each gap bound charges three two-sided deviation bounds; each variable box
# charges one one-sided bound.
_CHARGES_PER_GAP = 6
_CHARGES_PER_BOX = 1


def _lemma_gaps(
    pairs: list[tuple[str, int, float, float, float, float, float]],
    n_total: float,
    eps_a: float,
) -> list[GapBound]:
    """Apply the finite-statistics bound to pairs of preparations, given as
    (kind, j, p1, p2, s, count_left, count_right): probabilities (p1, p2),
    distinguishability s = sqrt(1 - F^2), and observed totals. The
    deviations of every pair are evaluated together, in two rounds."""
    coeffs, p_small, ratio, count_last = [], [], [], []
    for _, _, p1, p2, _, count_left, count_right in pairs:
        if p1 > p2:
            coeffs.append((p2 / p1, 1.0))
            p_small.append(p2)
            ratio.append(p2 / p1)
            count_last.append(count_left)
        else:
            # Ties (including the degenerate 0 == 0) take this branch.
            r = p1 / p2 if p2 > 0.0 else 1.0
            coeffs.append((1.0, r))
            p_small.append(p1)
            ratio.append(r)
            count_last.append(count_right)

    k = len(pairs)
    # d_pair and d_last of every pair, then d_guess and d_flip, which need
    # the trial counts n1 and n2 that d_pair brackets.
    first = chernoff_deltas(
        [n_total] * k + count_last, [2.0 * p for p in p_small] + ratio, eps_a
    )
    n1 = [2.0 * n_total * p + d.value for p, d in zip(p_small, first)]
    n2 = [2.0 * n_total * p - d.value for p, d in zip(p_small, first)]
    second = chernoff_deltas(
        n1 + [n - left - right for n, (*_, left, right) in zip(n2, pairs)],
        [(1.0 + s) / 2.0 for _, _, _, _, s, _, _ in pairs] + [0.5] * k,
        eps_a,
    )

    bounds = []
    for i, (kind, j, _, _, s, _, _) in enumerate(pairs):
        d_guess, d_flip, d_last = second[i], second[k + i], first[k + i]
        events: list[str] = []
        if d_flip.clamped:
            events.append(f"{kind}[{j}]: residual trial count below zero")
        delta = n1[i] * s + 2.0 * d_guess.value - 2.0 * d_flip.value + d_last.value
        if delta < 0.0:
            events.append(f"{kind}[{j}]: delta {delta:.6g} clamped to 0")
            delta = 0.0
        bounds.append(GapBound(kind, j, *coeffs[i], delta, tuple(events)))
    return bounds


# Entries kept by each table cache. A search round draws 5-7 intensities of
# each kind, so a few hundred entries cover every round of a distance.
_TABLE_CACHE_SIZE = 512


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _intensity_table(intensity: float, m_phases: int) -> tuple[tuple[float, ...], float]:
    """Folded class weights of the two-pulse source at per-pulse intensity
    `intensity` (classes 0..M-1), and its vacuum distinguishability."""
    weights = tuple(folded_poisson(j, 2.0 * intensity, m_phases) for j in range(m_phases))
    return weights, vacuum_distinguishability(intensity, m_phases)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _pair_distinguishabilities(mu: float, nu: float, m_phases: int) -> tuple[float, ...]:
    """folded_distinguishability of classes 0..M-1 between intensities mu
    and nu."""
    return tuple(folded_distinguishability(j, mu, nu, m_phases) for j in range(m_phases))


def _class_probabilities(intensity: float, p_label: float, m_phases: int) -> list[float]:
    """Probability that a round prepares the matched-intensity folded class
    j, for j = 0..M-1 (both parties pick the label, phases match in- or
    anti-phase)."""
    weights, _ = _intensity_table(intensity, m_phases)
    factor = 2.0 * p_label**2 / m_phases
    return [factor * w for w in weights]


def _gap_bounds(
    protocol: ProtocolParams, counts: ObservedCounts, eps_a: float
) -> list[GapBound]:
    """Every gap bound of the phase-error LP, in LP order: vacuum_mu,
    vacuum_nu, then decoy_pair for classes 0..M-1."""
    m = protocol.n_phases
    q_mu = _class_probabilities(protocol.mu, protocol.p_mu, m)
    q_nu = _class_probabilities(protocol.nu, protocol.p_nu, m)
    _, s_mu = _intensity_table(protocol.mu, m)
    _, s_nu = _intensity_table(protocol.nu, m)
    s_pair = _pair_distinguishabilities(protocol.mu, protocol.nu, m)
    p_vac = protocol.p_o**2
    pairs = [
        ("vacuum_mu", 0, p_vac, q_mu[0], s_mu, counts.n_0, counts.n_2mu),
        ("vacuum_nu", 0, p_vac, q_nu[0], s_nu, counts.n_0, counts.n_2nu),
    ]
    pairs += [
        ("decoy_pair", j, q_mu[j], q_nu[j], s_pair[j], counts.n_2mu, counts.n_2nu)
        for j in range(m)
    ]
    return _lemma_gaps(pairs, float(protocol.n_total), eps_a)


def gap_bound_decoy(
    j: int, protocol: ProtocolParams, counts: ObservedCounts, eps_a: float
) -> GapBound:
    """Gap bound between the class-j yields of the signal and decoy
    intensities."""
    m = protocol.n_phases
    if not 0 <= j < m:
        raise ValueError(f"j={j} outside [0, {m - 1}]")
    return _gap_bounds(protocol, counts, eps_a)[2 + j]


def gap_bound_vacuum(
    which: str, protocol: ProtocolParams, counts: ObservedCounts, eps_a: float
) -> GapBound:
    """Gap bound anchoring the class-0 yield of intensity `which` ("mu" or
    "nu") to the observed vacuum count."""
    if which not in ("mu", "nu"):
        raise ValueError(f"which={which!r} must be 'mu' or 'nu'")
    return _gap_bounds(protocol, counts, eps_a)[0 if which == "mu" else 1]


def _upper_bounds(
    intensity: float, p_label: float, protocol: ProtocolParams, eps_a: float
) -> list[float]:
    """variable_upper_bound of classes 0..M-1 at the given intensity and
    label probability."""
    n_total = float(protocol.n_total)
    dev = 3.0 * math.log(1.0 / eps_a)
    means = [n_total * q for q in _class_probabilities(intensity, p_label, protocol.n_phases)]
    return [mean + math.sqrt(dev * mean) for mean in means]


def variable_upper_bound(
    j: int, which: str, protocol: ProtocolParams, eps_a: float
) -> float:
    """Mean-plus-deviation cap on the class-j yield of intensity `which`:
    a class cannot click more often than it is prepared."""
    m = protocol.n_phases
    if not 0 <= j < m:
        raise ValueError(f"j={j} outside [0, {m - 1}]")
    if which == "mu":
        beta, p_label = protocol.mu, protocol.p_mu
    elif which == "nu":
        beta, p_label = protocol.nu, protocol.p_nu
    else:
        raise ValueError(f"which={which!r} must be 'mu' or 'nu'")
    return _upper_bounds(beta, p_label, protocol, eps_a)[j]


@dataclass
class LinearProgram:
    """Dense maximization LP: max objective . x subject to a_eq x = b_eq,
    a_ub x <= b_ub, lower <= x <= upper.

    Phase-error instances are assembled in rescaled units (all counts
    divided by n_total) so matrix entries stay near unit magnitude; `scale`
    converts an optimum back to counts. gap_bounds / clamp_events /
    eps_charges carry the build report.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scale: float = 1.0
    gap_bounds: tuple[GapBound, ...] = ()
    clamp_events: tuple[str, ...] = ()
    eps_charges: int = 0

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    def validate(self) -> None:
        n = self.num_vars
        if self.a_eq.shape[1] != n or self.a_ub.shape[1] != n:
            raise ValueError("constraint matrices disagree with objective size")
        if self.a_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("equality rhs size mismatch")
        if self.a_ub.shape[0] != self.b_ub.shape[0]:
            raise ValueError("inequality rhs size mismatch")
        if self.lower.shape[0] != n or self.upper.shape[0] != n:
            raise ValueError("bound vector size mismatch")
        if np.any(self.lower < 0.0) or np.any(self.upper < self.lower):
            raise ValueError("need upper >= lower >= 0 for every variable")


def build_lp(
    protocol: ProtocolParams,
    counts: ObservedCounts,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> LinearProgram:
    """Assemble the phase-error LP for the given observations.

    Variables are ordered [class-0..M-1 signal yields, class-0..M-1 decoy
    yields], in units of n_total. The objective selects the even signal
    classes up to M-2. gap_scale multiplies every gap-bound delta (a test
    hook for tightening/loosening studies); 1.0 is the faithful build.
    """
    m = protocol.n_phases
    if budget.n_phases != m:
        raise ValueError("budget was built for a different number of phase slices")
    if gap_scale < 0.0:
        raise ValueError("gap_scale must be >= 0")
    n_total = float(protocol.n_total)
    eps_a = budget.eps_a
    nvars = 2 * m

    objective = np.zeros(nvars)
    objective[0 : m - 1 : 2] = 1.0

    a_eq = np.zeros((2, nvars))
    a_eq[0, :m] = 1.0
    a_eq[1, m:] = 1.0
    b_eq = np.array([counts.n_2mu, counts.n_2nu]) / n_total

    bounds = _gap_bounds(protocol, counts, eps_a)
    rows = []
    rhs = []
    n0_scaled = counts.n_0 / n_total
    for gb in bounds:
        delta_scaled = gap_scale * gb.delta / n_total
        if gb.kind == "decoy_pair":
            row = np.zeros(nvars)
            row[gb.j] = gb.coeff_left
            row[m + gb.j] = -gb.coeff_right
            rows.append(row)
            rhs.append(delta_scaled)
            rows.append(-row)
            rhs.append(delta_scaled)
        else:
            v = 0 if gb.kind == "vacuum_mu" else m
            row = np.zeros(nvars)
            row[v] = -gb.coeff_right
            rows.append(row)
            rhs.append(delta_scaled - gb.coeff_left * n0_scaled)
            rows.append(-row)
            rhs.append(delta_scaled + gb.coeff_left * n0_scaled)

    upper = np.array(
        _upper_bounds(protocol.mu, protocol.p_mu, protocol, eps_a)
        + _upper_bounds(protocol.nu, protocol.p_nu, protocol, eps_a)
    ) / n_total

    charges = _CHARGES_PER_GAP * len(bounds) + _CHARGES_PER_BOX * nvars
    lp = LinearProgram(
        objective=objective,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ub=np.array(rows),
        b_ub=np.array(rhs),
        lower=np.zeros(nvars),
        upper=upper,
        scale=n_total,
        gap_bounds=tuple(bounds),
        clamp_events=tuple(e for gb in bounds for e in gb.clamp_events),
        eps_charges=charges,
    )
    return lp


_DUMP_HEADER = "tfqkd-lp 1"


def _fmt(x: float) -> str:
    """17 significant digits: exact for binary64 round-trips."""
    return format(x, ".17g")


def dump_lp(lp: LinearProgram, path) -> None:
    """Write the LP as a plain-text tab-separated matrix file (17
    significant digits, exact binary64 round-trip) for external solvers."""
    lines = [_DUMP_HEADER, f"nvars\t{lp.num_vars}", f"scale\t{_fmt(lp.scale)}"]
    lines.append("objective\t" + "\t".join(_fmt(v) for v in lp.objective))
    for row, b in zip(lp.a_eq, lp.b_eq):
        lines.append("eq\t" + "\t".join(_fmt(v) for v in row) + "\t" + _fmt(b))
    for row, b in zip(lp.a_ub, lp.b_ub):
        lines.append("le\t" + "\t".join(_fmt(v) for v in row) + "\t" + _fmt(b))
    for lo, hi in zip(lp.lower, lp.upper):
        lines.append(f"bound\t{_fmt(lo)}\t{_fmt(hi)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
