"""Turns LP optima into the phase-error bound and the finite-key secret-key
length, and aggregates the per-distance report."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .channel import (
    ChannelParams,
    NoDetections,
    ObservedCounts,
    ProtocolParams,
    expected_observations,
    sample_observations,
)
from .constraints import LinearProgram, SecurityBudget, build_lp
from .numerics import binary_entropy, plob_bound
from .simplex import LPSolution, solve_max, solve_max_batch


class PhaseErrorInfeasible(RuntimeError):
    """The phase-error LP has no feasible point; the protocol run must
    abort with zero key."""


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
    plob_rate: float
    budget: SecurityBudget
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


def _solve_phase_error(
    protocol: ProtocolParams,
    counts: ObservedCounts,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> tuple[LinearProgram, LPSolution]:
    if counts.n_bit <= 0.0:
        raise NoDetections("no signal detections: n_bit = 0")
    lp = build_lp(protocol, counts, budget, gap_scale=gap_scale)
    sol = solve_max(lp)
    if sol.status == "infeasible":
        raise PhaseErrorInfeasible(
            "phase-error LP infeasible; observations violate the gap bounds"
        )
    if sol.status != "optimal":
        raise RuntimeError(f"unexpected LP status {sol.status!r}")
    return lp, sol


def _phase_errors(objective_value: float, scale: float, n_bit: float) -> tuple[float, float]:
    """Phase-error count from a phase-error LP optimum in units of `scale`,
    and the rate over n_bit, both clamped (count >= 0, rate in [0, 1])."""
    n_ph = max(0.0, objective_value * scale)
    return n_ph, min(1.0, max(0.0, n_ph / n_bit))


def phase_error_upper_bound(
    protocol: ProtocolParams,
    counts: ObservedCounts,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> tuple[float, float]:
    """Maximum number of phase errors consistent with the observations, and
    the corresponding rate (clamped to [0, 1])."""
    lp, sol = _solve_phase_error(protocol, counts, budget, gap_scale=gap_scale)
    return _phase_errors(sol.objective_value, lp.scale, counts.n_bit)


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
    h_ec = n_bit * channel.f_ec * binary_entropy(e_bit)
    l = (
        n_bit * (1.0 - binary_entropy(e_ph))
        - h_ec
        - math.log2(2.0 / budget.eps_cor)
        - math.log2(1.0 / (4.0 * budget.eps_pa**2))
    )
    return max(0.0, l)


def key_lengths(
    candidates: Sequence[ProtocolParams],
    observations: Sequence[ObservedCounts | None],
    channel: ChannelParams,
    budget: SecurityBudget,
) -> list[float]:
    """Key length of each candidate protocol from its observations (None
    for a candidate without detections), as analyze would report it.

    A candidate whose key would be zero even without phase errors skips
    the LP. The phase-error LPs of the others are solved together by
    solve_max_batch; an infeasible LP yields zero key.
    """
    overhead = math.log2(2.0 / budget.eps_cor) + math.log2(1.0 / (4.0 * budget.eps_pa**2))
    todo = [
        i
        for i, counts in enumerate(observations)
        if counts is not None
        and counts.n_bit - counts.n_bit * channel.f_ec * binary_entropy(counts.e_bit) - overhead
        > 0.0
    ]
    scales = []

    def phase_error_lps():
        for i in todo:
            lp = build_lp(candidates[i], observations[i], budget)
            scales.append(lp.scale)
            yield lp

    solutions = solve_max_batch(phase_error_lps())
    keys = [0.0] * len(candidates)
    for i, scale, sol in zip(todo, scales, solutions):
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise RuntimeError(f"unexpected LP status {sol.status!r}")
        counts = observations[i]
        _, e_ph = _phase_errors(sol.objective_value, scale, counts.n_bit)
        keys[i] = key_length(counts.n_bit, counts.e_bit, e_ph, channel, budget)
    return keys


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


def analyze(
    protocol: ProtocolParams,
    channel: ChannelParams,
    l_km: float,
    budget: SecurityBudget,
    mode: str = "expected",
    seed: int = 0,
    detector_in_eta: bool = True,
    plob_with_detector: bool = False,
    gap_scale: float = 1.0,
) -> KeyRateReport:
    """Full pipeline at one distance: observations, phase-error LP, key
    length. Degenerate observations and LP infeasibility are folded into a
    zero-key report with the cause recorded in the diagnostics."""
    if mode not in ("expected", "sampled"):
        raise ValueError(f"mode={mode!r} must be 'expected' or 'sampled'")
    plob = end_to_end_plob(channel, l_km, include_detector=plob_with_detector)

    def zero_report(status, counts=None):
        return KeyRateReport(
            l_km=l_km,
            protocol=protocol,
            n_bit=counts.n_bit if counts else 0.0,
            e_bit=counts.e_bit if counts else 0.0,
            n_ph_upper=0.0,
            e_ph_upper=0.0,
            key_length=0.0,
            key_rate=0.0,
            plob_rate=plob,
            budget=budget,
            diagnostics=Diagnostics(status=status),
        )

    try:
        if mode == "sampled":
            counts = sample_observations(
                protocol, channel, l_km, seed, detector_in_eta=detector_in_eta
            )
        else:
            counts = expected_observations(
                protocol, channel, l_km, detector_in_eta=detector_in_eta
            )
    except NoDetections:
        return zero_report("no_detections")

    try:
        lp, sol = _solve_phase_error(protocol, counts, budget, gap_scale=gap_scale)
    except NoDetections:
        return zero_report("no_detections", counts)
    except PhaseErrorInfeasible:
        return zero_report("infeasible", counts)

    n_ph, e_ph = _phase_errors(sol.objective_value, lp.scale, counts.n_bit)
    l = key_length(counts.n_bit, counts.e_bit, e_ph, channel, budget)
    return KeyRateReport(
        l_km=l_km,
        protocol=protocol,
        n_bit=counts.n_bit,
        e_bit=counts.e_bit,
        n_ph_upper=n_ph,
        e_ph_upper=e_ph,
        key_length=l,
        key_rate=l / float(protocol.n_total),
        plob_rate=plob,
        budget=budget,
        diagnostics=Diagnostics(
            status="ok",
            clamp_events=lp.clamp_events,
            lp_iterations=sol.iterations,
        ),
    )
