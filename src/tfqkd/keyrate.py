"""Turns LP optima into the phase-error bound and the finite-key secret-key
length, and aggregates the per-distance report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelParams,
    CountArrays,
    ObservedCounts,
    ProtocolArrays,
    ProtocolParams,
    expected_observations,
    sample_observations,
)
from .constraints import LPBatch, SecurityBudget, build_lp, build_lps
from .numerics import binary_entropy, per_distinct, plob_bound
from .simplex import solve_max, solve_separable


@dataclass(frozen=True)
class Diagnostics:
    """Per-analysis bookkeeping: outcome status ("ok", "infeasible",
    "no_detections"), clamp events from the LP build, and solver effort."""

    status: str = "ok"
    clamp_events: tuple[str, ...] = ()
    lp_iterations: int = 0


@dataclass(frozen=True)
class KeyRateReport:
    """Full result of one finite-key analysis at one distance."""

    l_km: float
    protocol: ProtocolParams
    n_bit: float
    e_bit: float
    n_ph_upper: float
    e_ph_upper: float
    key_length: float
    key_rate: float
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


class _Outcome(NamedTuple):
    """The KeyRateReport fields that a candidate's observations and its
    phase-error LP fix."""

    n_bit: float
    e_bit: float
    n_ph_upper: float
    e_ph_upper: float
    key_length: float
    diagnostics: Diagnostics


class _Round(NamedTuple):
    """_evaluate's result: the _Outcome fields of every candidate as (B,)
    arrays, with the status in place of the diagnostics, and the batch of
    the detected candidates' LPs, in candidate order, which holds their
    clamp events."""

    n_bit: np.ndarray
    e_bit: np.ndarray
    n_ph_upper: np.ndarray
    e_ph_upper: np.ndarray
    key_length: np.ndarray
    status: np.ndarray
    batch: LPBatch
    detected: np.ndarray

    def outcome(self, k: int) -> _Outcome:
        """Candidate k's _Outcome; a batch member takes no pivots."""
        status = str(self.status[k])
        events = ()
        if status != "no_detections":
            events = self.batch.clamp_events(int(np.searchsorted(self.detected, k)))
        fields = (self.n_bit, self.e_bit, self.n_ph_upper, self.e_ph_upper, self.key_length)
        return _Outcome(*(float(f[k]) for f in fields), Diagnostics(status, events, 0))


def _phase_errors(value, scale, n_bit):
    """n_ph_upper and e_ph_upper from a phase-error LP optimum `value` in
    units of `scale` and the sifted bits: on floats or arrays alike."""
    n_ph = np.maximum(0.0, value * scale)
    return n_ph, np.minimum(1.0, np.maximum(0.0, n_ph / n_bit))


def _evaluate(
    protocols: ProtocolArrays,
    counts: CountArrays,
    channel: ChannelParams,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> _Round:
    """Phase-error bound and key length of each candidate protocol from its
    observations, as arrays.

    The candidates' LPs are built together as per-class arrays (build_lps)
    and solved exactly from that structure (solve_separable), with no
    pivots. A candidate without signal detections (n_bit = 0) or with an
    infeasible LP gets zero key, with the cause as its status.
    """
    n_bit, e_bit = counts.n_bit, counts.e_bit
    detected = np.flatnonzero(n_bit > 0.0)
    batch = build_lps(protocols.take(detected), counts.take(detected), budget, gap_scale=gap_scale)
    solved = solve_separable(batch)
    feasible = solved.status == "optimal"
    status = np.full(len(n_bit), "no_detections")
    status[detected] = np.where(feasible, "ok", "infeasible")
    ok = detected[feasible]
    n_ph, e_ph, key = (np.zeros(len(n_bit)) for _ in range(3))
    n_ph[ok], e_ph[ok] = _phase_errors(solved.value[feasible], batch.scale[feasible], n_bit[ok])
    key[ok] = key_lengths(n_bit[ok], e_bit[ok], e_ph[ok], channel, budget)
    return _Round(n_bit, e_bit, n_ph, e_ph, key, status, batch, detected)


def _analyzed(
    protocol: ProtocolParams,
    counts: ObservedCounts,
    channel: ChannelParams,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> _Outcome:
    """Phase-error bound and key length of one protocol from its
    observations: its LP is built by build_lp and solved by solve_max. If
    the simplex basis turns singular, it is solved like a batch member
    (_evaluate). Without signal detections or with an infeasible LP the key
    is zero, with the cause as the status."""
    n_bit, e_bit = counts.n_bit, counts.e_bit
    if not n_bit > 0.0:
        return _Outcome(n_bit, e_bit, 0.0, 0.0, 0.0, Diagnostics("no_detections"))
    # bench/tracing.py counts LP builds, optimize.lp_solves and
    # simplex.pivots only through build_lp and solve_max, so a lone LP
    # (optimize_point's final analyze included) takes both, until the
    # tracer counts batched solves (ROADMAP items 2 and 8).
    lp = build_lp(protocol, counts, budget, gap_scale=gap_scale)
    try:
        sol = solve_max(lp)
    except np.linalg.LinAlgError:
        one = ProtocolArrays.of([protocol], budget.n_phases)
        return _evaluate(one, CountArrays.of([counts]), channel, budget, gap_scale).outcome(0)
    if sol.status == "infeasible":
        diagnostics = Diagnostics("infeasible", lp.clamp_events, sol.iterations)
        return _Outcome(n_bit, e_bit, 0.0, 0.0, 0.0, diagnostics)
    if sol.status != "optimal":
        raise RuntimeError(f"unexpected LP status {sol.status!r}")
    n_ph, e_ph = (float(x) for x in _phase_errors(sol.objective_value, lp.scale, n_bit))
    key = key_length(n_bit, e_bit, e_ph, channel, budget)
    diagnostics = Diagnostics("ok", lp.clamp_events, sol.iterations)
    return _Outcome(n_bit, e_bit, n_ph, e_ph, key, diagnostics)


def _unclamped_key(n_bit, h_bit, h_ph, channel: ChannelParams, budget: SecurityBudget):
    """The secret-key length before its clamp at zero, from the binary
    entropies of the bit and phase error rates: on floats or arrays alike."""
    h_ec = n_bit * channel.f_ec * h_bit
    return (
        n_bit * (1.0 - h_ph)
        - h_ec
        - math.log2(2.0 / budget.eps_cor)
        - math.log2(1.0 / (4.0 * budget.eps_pa**2))
    )


def key_length(
    n_bit: float,
    e_bit: float,
    e_ph_upper: float,
    channel: ChannelParams,
    budget: SecurityBudget,
) -> float:
    """Extractable secret-key length, clamped at zero.

    The phase-error rate is clamped to [0, 0.5] before the entropy term;
    anything above 0.5 already yields no key.
    """
    e_ph = min(0.5, max(0.0, e_ph_upper))
    return max(0.0, _unclamped_key(
        n_bit, binary_entropy(e_bit), binary_entropy(e_ph), channel, budget
    ))


def key_lengths(
    n_bit: np.ndarray,
    e_bit: np.ndarray,
    e_ph_upper: np.ndarray,
    channel: ChannelParams,
    budget: SecurityBudget,
) -> np.ndarray:
    """key_length of each candidate, as an array. The entropies are
    evaluated by binary_entropy once per distinct rate, so every entry is
    bit-identical to key_length."""
    e_ph = np.minimum(0.5, np.maximum(0.0, e_ph_upper))
    h_bit = per_distinct(binary_entropy, e_bit.tolist())
    h_ph = per_distinct(binary_entropy, e_ph.tolist())
    return np.maximum(0.0, _unclamped_key(n_bit, h_bit, h_ph, channel, budget))


def end_to_end_plob(
    channel: ChannelParams, l_km: float, include_detector: bool = False
) -> float:
    """Repeaterless bound over the full separation; by default the bare
    fiber transmittance (the bound constrains the channel, not devices)."""
    eta = 10.0 ** (-channel.xi * l_km / 10.0)
    if include_detector:
        eta *= channel.eta_d
    if eta >= 1.0:
        return math.inf
    if eta <= 0.0:
        return 0.0
    return plob_bound(eta)


def observe(
    protocol: ProtocolParams,
    channel: ChannelParams,
    l_km: float,
    mode: str,
    seed: int,
    detector_in_eta: bool,
) -> ObservedCounts:
    """The observations analyze works from: the expected counts, or counts
    sampled with `seed`. A signal that cannot click gives zero counts."""
    if mode == "expected":
        return expected_observations(protocol, channel, l_km, detector_in_eta=detector_in_eta)
    if mode == "sampled":
        return sample_observations(protocol, channel, l_km, seed, detector_in_eta=detector_in_eta)
    raise ValueError(f"mode={mode!r} must be 'expected' or 'sampled'")


def analyze(
    protocol: ProtocolParams,
    channel: ChannelParams,
    l_km: float,
    budget: SecurityBudget,
    mode: str = "expected",
    seed: int = 0,
    detector_in_eta: bool = True,
    gap_scale: float = 1.0,
) -> KeyRateReport:
    """Full pipeline at one distance: observations, phase-error LP, key
    length. Degenerate observations and LP infeasibility are folded into a
    zero-key report with the cause recorded in the diagnostics."""
    counts = observe(protocol, channel, l_km, mode, seed, detector_in_eta)
    outcome = _analyzed(protocol, counts, channel, budget, gap_scale=gap_scale)
    return KeyRateReport(
        l_km=l_km,
        protocol=protocol,
        key_rate=outcome.key_length / float(protocol.n_total),
        **outcome._asdict(),
    )
