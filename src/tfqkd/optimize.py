"""Deterministic grid search with shrink-by-half refinement over the
protocol parameters (mu, nu, p_mu, p_nu), maximizing the secret-key length
at each distance."""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

from .channel import ChannelParams, ProtocolParams, expected_observations
from .constraints import SecurityBudget
from .keyrate import KeyRateReport, _evaluate, analyze


class EmptyFeasibleRegion(ValueError):
    """No point of the search box satisfies p_mu + p_nu <= 1."""


@dataclass(frozen=True)
class SearchSpace:
    """Search box for the four protocol parameters.

    Intensity grids are geometric (the useful scales span decades);
    probability grids are linear. Each refinement round halves the span
    around the incumbent, clipped into these ranges: for a warm-started
    sweep, into its warm window.
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


# The searched parameters, each with whether its grid is geometric.
_PARAMS = (("mu", True), ("nu", True), ("p_mu", False), ("p_nu", False))


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


def _shrunk_windows(windows: dict, incumbent: ProtocolParams, space: SearchSpace) -> dict:
    """Halve every parameter's window around the incumbent, clipped to the
    space's ranges; windows are keyed by range name ("mu_range", ...)."""
    return {
        f"{name}_range": _shrunk(
            getattr(incumbent, name), *windows[f"{name}_range"],
            getattr(space, f"{name}_range"), geometric,
        )
        for name, geometric in _PARAMS
    }


def optimize_point(
    channel: ChannelParams,
    l_km: float,
    n_total: int,
    budget: SecurityBudget,
    space: SearchSpace,
    *,
    detector_in_eta: bool = True,
) -> KeyRateReport:
    """Grid-then-refine search for the key-maximizing protocol parameters
    at M = budget.n_phases phase slices.

    Each grid round is evaluated as one batch (keyrate._evaluate), then
    scanned. Scan order is lexicographic in (mu, nu, p_mu, p_nu); an
    incumbent is replaced only by a strictly larger key length, so ties
    resolve to the first point in scan order. Returns analyze's report for
    the winner, whose protocol is report.protocol.
    """
    windows = {f"{name}_range": getattr(space, f"{name}_range") for name, _ in _PARAMS}
    best: tuple[float, ProtocolParams] | None = None
    k = space.grid_density
    for round_idx in range(space.refinement_rounds + 1):
        grid = itertools.product(
            _geom_grid(*windows["mu_range"], k),
            _geom_grid(*windows["nu_range"], k),
            _lin_grid(*windows["p_mu_range"], k),
            _lin_grid(*windows["p_nu_range"], k),
        )
        candidates = []
        observations = []
        for mu, nu, p_mu, p_nu in grid:
            if p_mu + p_nu > 1.0 + 1e-12:
                continue
            p_o = max(0.0, 1.0 - p_mu - p_nu)
            cand = ProtocolParams(mu, nu, p_mu, p_nu, p_o, budget.n_phases, int(n_total))
            candidates.append(cand)
            observations.append(
                expected_observations(cand, channel, l_km, detector_in_eta=detector_in_eta)
            )
        for outcome, cand in zip(_evaluate(candidates, observations, channel, budget), candidates):
            if best is None or outcome.key_length > best[0]:
                best = (outcome.key_length, cand)
        if round_idx < space.refinement_rounds:
            windows = _shrunk_windows(windows, best[1], space)
    return analyze(best[1], channel, l_km, budget, mode="expected", detector_in_eta=detector_in_eta)


def _warmed_space(space: SearchSpace, incumbent: ProtocolParams) -> SearchSpace:
    """Center a half-span window on the previous incumbent (adjacent
    distances have similar optima, so refinement converges from closer)."""
    return replace(space, **_shrunk_windows(vars(space), incumbent, space))


def sweep(
    channel: ChannelParams,
    distances: list[float],
    n_total: int,
    budget: SecurityBudget,
    space: SearchSpace,
    *,
    detector_in_eta: bool = True,
    threads: int = 1,
) -> list[KeyRateReport]:
    """optimize_point's report at each distance of a strictly increasing
    list, in distance order.

    With threads == 1 each distance after one with a positive key searches
    only a half-span window around the previous incumbent (warm start);
    with threads > 1 each starts cold from the whole box. The search is not
    converged, so the output depends on whether threads is 1. On the
    scripts/rate_distance.py box at N = 1e14, warm key rates are within 1 %
    of cold ones up to 140 km and 3-26 % below them from 150 to 300 km,
    where warm keeps nu ~ 0.01-0.02 and cold finds nu ~ 0.13-0.14. At
    N = 1e12 and 250 km, warm leads by 0.05 %.
    """
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly increasing")
    if not distances:
        return []
    point = partial(
        optimize_point, channel, n_total=n_total, budget=budget, detector_in_eta=detector_in_eta
    )
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(partial(point, space=space), distances))
    reports = []
    current = space
    for l_km in distances:
        report = point(l_km, space=current)
        reports.append(report)
        current = _warmed_space(space, report.protocol) if report.key_length > 0.0 else space
    return reports
