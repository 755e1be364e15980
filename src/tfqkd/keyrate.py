"""Turns LP optima into the phase-error bound and the finite-key secret-key
length, and aggregates the per-distance report."""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelParams,
    ObservedCounts,
    ProtocolParams,
    expected_observations,
    sample_observations,
)
from .constraints import SecurityBudget, build_lp, build_lps
from .numerics import binary_entropy, plob_bound
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


def _evaluate(
    protocols: Sequence[ProtocolParams],
    observations: Sequence[ObservedCounts],
    channel: ChannelParams,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> list[_Outcome]:
    """Phase-error bound and key length of each candidate protocol from its
    observations.

    A single candidate's LP is built by build_lp and solved by solve_max;
    if the simplex basis turns singular, it is solved like a batch member.
    Several candidates' LPs are built together as per-class arrays
    (build_lps) and solved exactly from that structure (solve_separable),
    with no pivots. A candidate without signal detections (n_bit = 0) or
    with an infeasible LP gets zero key, with the cause as its status.
    """
    detected = [counts.n_bit > 0.0 for counts in observations]
    kept = [k for k, ok in enumerate(detected) if ok]
    solved = None
    if len(protocols) == 1:
        # bench/tracing.py counts LP builds, optimize.lp_solves and
        # simplex.pivots only through build_lp and solve_max, so a lone LP
        # (optimize_point's final analyze included) takes both. This branch
        # goes once the tracer counts batched solves (ROADMAP item 2).
        lps = [build_lp(protocols[0], observations[0], budget, gap_scale=gap_scale) for _ in kept]
        with contextlib.suppress(np.linalg.LinAlgError):
            solved = iter([(solve_max(lp), (lp.scale, lp.clamp_events)) for lp in lps])
    if solved is None:  # several candidates, or a singular simplex basis
        batch = build_lps(
            [protocols[k] for k in kept], [observations[k] for k in kept], budget,
            gap_scale=gap_scale,
        )
        built = [(scale, batch.clamp_events(i)) for i, scale in enumerate(batch.scale.tolist())]
        solved = zip(solve_separable(batch), built)
    outcomes = []
    for counts, ok in zip(observations, detected):
        n_bit, e_bit = counts.n_bit, counts.e_bit
        if not ok:
            outcomes.append(_Outcome(n_bit, e_bit, 0.0, 0.0, 0.0, Diagnostics("no_detections")))
            continue
        sol, (scale, clamp_events) = next(solved)
        if sol.status == "infeasible":
            diagnostics = Diagnostics("infeasible", clamp_events, sol.iterations)
            outcomes.append(_Outcome(n_bit, e_bit, 0.0, 0.0, 0.0, diagnostics))
            continue
        if sol.status != "optimal":
            raise RuntimeError(f"unexpected LP status {sol.status!r}")
        n_ph = max(0.0, sol.objective_value * scale)
        e_ph = min(1.0, max(0.0, n_ph / n_bit))
        key = key_length(n_bit, e_bit, e_ph, channel, budget)
        diagnostics = Diagnostics("ok", clamp_events, sol.iterations)
        outcomes.append(_Outcome(n_bit, e_bit, n_ph, e_ph, key, diagnostics))
    return outcomes


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
    (outcome,) = _evaluate([protocol], [counts], channel, budget, gap_scale=gap_scale)
    return KeyRateReport(
        l_km=l_km,
        protocol=protocol,
        key_rate=outcome.key_length / float(protocol.n_total),
        **outcome._asdict(),
    )
