"""Deterministic grid search with shrink-by-half refinement over the
protocol parameters (mu, nu, p_mu, p_nu), maximizing the secret-key length
at each distance."""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .channel import (
    ChannelParams,
    NoDetections,
    ProtocolParams,
    expected_observations,
)
from .constraints import SecurityBudget
from .keyrate import KeyRateReport, _evaluate, analyze


class EmptyFeasibleRegion(ValueError):
    """No grid point satisfies p_mu + p_nu <= 1."""


@dataclass(frozen=True)
class SearchSpace:
    """Search box for the four protocol parameters.

    Intensity grids are geometric (the useful scales span decades);
    probability grids are linear. Each refinement round halves the span
    around the incumbent, clipped into the original box.
    """

    mu_range: tuple[float, float] = (1e-4, 0.5)
    nu_range: tuple[float, float] = (1e-4, 0.5)
    p_mu_range: tuple[float, float] = (0.01, 0.98)
    p_nu_range: tuple[float, float] = (0.01, 0.98)
    grid_density: int = 7
    refinement_rounds: int = 5

    def __post_init__(self):
        for name in ("mu_range", "nu_range"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi:
                raise ValueError(f"{name}=({lo}, {hi}) must satisfy 0 < lo <= hi")
        for name in ("p_mu_range", "p_nu_range"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi < 1.0:
                raise ValueError(f"{name}=({lo}, {hi}) must lie inside (0, 1)")
        if self.grid_density < 3:
            raise ValueError(f"grid_density={self.grid_density} must be >= 3")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if self.p_mu_range[0] + self.p_nu_range[0] > 1.0:
            raise EmptyFeasibleRegion(
                "p_mu + p_nu > 1 everywhere in the search box"
            )


def _geom_grid(lo: float, hi: float, k: int) -> list[float]:
    if lo == hi:
        return [lo]
    step = (math.log(hi) - math.log(lo)) / (k - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(k)]


def _lin_grid(lo: float, hi: float, k: int) -> list[float]:
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (k - 1) for i in range(k)]


def _shrunk(center: float, lo: float, hi: float, outer: tuple[float, float], geometric: bool):
    """Halve the (lo, hi) window around `center`, clipped to `outer`."""
    olo, ohi = outer
    if geometric:
        half = (math.log(hi) - math.log(lo)) / 4.0
        c = math.log(center)
        new_lo = max(math.log(olo), c - half)
        new_hi = min(math.log(ohi), c + half)
        return math.exp(new_lo), math.exp(new_hi)
    half = (hi - lo) / 4.0
    new_lo = max(olo, center - half)
    new_hi = min(ohi, center + half)
    return new_lo, new_hi


def optimize_point(
    channel: ChannelParams,
    l_km: float,
    n_phases: int,
    n_total: int,
    budget: SecurityBudget,
    space: SearchSpace,
    detector_in_eta: bool = True,
    plob_with_detector: bool = False,
) -> tuple[ProtocolParams, KeyRateReport]:
    """Grid-then-refine search for the key-maximizing protocol parameters.

    Each grid round is evaluated as one batch (keyrate._evaluate), then
    scanned. Scan order is lexicographic in (mu, nu, p_mu, p_nu); an
    incumbent is replaced only by a strictly larger key length, so ties
    resolve to the first point in scan order. The report is analyze's for
    the winner.
    """
    windows = {
        "mu": space.mu_range,
        "nu": space.nu_range,
        "p_mu": space.p_mu_range,
        "p_nu": space.p_nu_range,
    }
    best: tuple[float, ProtocolParams] | None = None
    k = space.grid_density
    for round_idx in range(space.refinement_rounds + 1):
        grid = itertools.product(
            _geom_grid(*windows["mu"], k),
            _geom_grid(*windows["nu"], k),
            _lin_grid(*windows["p_mu"], k),
            _lin_grid(*windows["p_nu"], k),
        )
        candidates = []
        observations = []
        for mu, nu, p_mu, p_nu in grid:
            if p_mu + p_nu > 1.0 + 1e-12:
                continue
            p_o = max(0.0, 1.0 - p_mu - p_nu)
            cand = ProtocolParams(mu, nu, p_mu, p_nu, p_o, n_phases, int(n_total))
            try:
                counts = expected_observations(
                    cand, channel, l_km, detector_in_eta=detector_in_eta
                )
            except NoDetections:
                counts = None
            candidates.append(cand)
            observations.append(counts)
        for outcome, cand in zip(_evaluate(candidates, observations, channel, budget), candidates):
            if best is None or outcome.key_length > best[0]:
                best = (outcome.key_length, cand)
        if best is None:
            raise EmptyFeasibleRegion(
                f"every grid point has p_mu + p_nu > 1 at L={l_km}"
            )
        if round_idx < space.refinement_rounds:
            inc = best[1]
            windows = {
                "mu": _shrunk(inc.mu, *windows["mu"], space.mu_range, True),
                "nu": _shrunk(inc.nu, *windows["nu"], space.nu_range, True),
                "p_mu": _shrunk(inc.p_mu, *windows["p_mu"], space.p_mu_range, False),
                "p_nu": _shrunk(inc.p_nu, *windows["p_nu"], space.p_nu_range, False),
            }
    params = best[1]
    report = analyze(
        params, channel, l_km, budget,
        mode="expected", detector_in_eta=detector_in_eta, plob_with_detector=plob_with_detector,
    )
    return params, report


def _warmed_space(space: SearchSpace, incumbent: ProtocolParams) -> SearchSpace:
    """Center a half-span window on the previous incumbent (adjacent
    distances have similar optima, so refinement converges from closer)."""
    return replace(
        space,
        mu_range=_shrunk(incumbent.mu, *space.mu_range, space.mu_range, True),
        nu_range=_shrunk(incumbent.nu, *space.nu_range, space.nu_range, True),
        p_mu_range=_shrunk(incumbent.p_mu, *space.p_mu_range, space.p_mu_range, False),
        p_nu_range=_shrunk(incumbent.p_nu, *space.p_nu_range, space.p_nu_range, False),
    )


def _sweep_one(args) -> tuple[float, ProtocolParams, KeyRateReport]:
    (channel, l_km, n_phases, n_total, budget, space, det, plob_det) = args
    params, report = optimize_point(
        channel, l_km, n_phases, n_total, budget, space,
        detector_in_eta=det, plob_with_detector=plob_det,
    )
    return l_km, params, report


def sweep(
    channel: ChannelParams,
    distances: list[float],
    n_phases: int,
    n_total: int,
    budget: SecurityBudget,
    space: SearchSpace,
    detector_in_eta: bool = True,
    plob_with_detector: bool = False,
    threads: int = 1,
    warm_start: bool = True,
) -> list[tuple[float, ProtocolParams, KeyRateReport]]:
    """Per-distance optimization over a strictly increasing distance list.

    Sequential sweeps warm-start each distance from the previous incumbent;
    parallel sweeps run cold per distance. The grid search is not converged,
    so the two can pick different parameters: cold starts have given key
    rates 0.2-2 % below warm ones. Results are always in distance order.
    """
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly increasing")
    if not distances:
        return []
    if threads > 1:
        jobs = [
            (channel, l, n_phases, n_total, budget, space, detector_in_eta, plob_with_detector)
            for l in distances
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_sweep_one, jobs))
    out = []
    current = space
    for l_km in distances:
        params, report = optimize_point(
            channel, l_km, n_phases, n_total, budget, current,
            detector_in_eta=detector_in_eta, plob_with_detector=plob_with_detector,
        )
        out.append((l_km, params, report))
        if warm_start and report.key_length > 0.0:
            current = _warmed_space(space, params)
        else:
            current = space
    return out


def default_threads(fallback: int = 1) -> int:
    """Worker count for parallel sweeps: the TFQKD_THREADS environment
    variable when it is set to an integer, else `fallback`."""
    env = os.environ.get("TFQKD_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return fallback
