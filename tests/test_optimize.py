import dataclasses
import itertools

import numpy as np
import pytest

from tfqkd import (
    ProtocolParams,
    analyze,
    make_budget,
)
from tfqkd.optimize import (
    EmptyFeasibleRegion,
    SearchSpace,
    _grid,
    _shrunk,
    optimize_point,
    sweep,
)

# Small-round-count settings keep the grid search quick. Eight phase
# slices are the smallest count that yields any key at all, so the
# behavioral tests need them; structural paths are exercised elsewhere.
N_FAST = int(1e10)


@pytest.fixture(scope="module")
def budget_fast():
    return make_budget(n_phases=8, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)


def tiny_space(**overrides):
    kwargs = dict(
        mu_range=(0.01, 0.2),
        nu_range=(0.01, 0.3),
        p_mu_range=(0.2, 0.8),
        p_nu_range=(0.05, 0.4),
        grid_density=3,
        refinement_rounds=1,
    )
    kwargs.update(overrides)
    return SearchSpace(**kwargs)


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(mu_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            SearchSpace(p_mu_range=(0.5, 1.0))
        with pytest.raises(ValueError):
            SearchSpace(grid_density=2)

    def test_infeasible_box_rejected(self):
        with pytest.raises(EmptyFeasibleRegion):
            SearchSpace(p_mu_range=(0.6, 0.9), p_nu_range=(0.5, 0.9))

    def test_defaults_match_documented_ranges(self):
        s = SearchSpace()
        assert s.mu_range == (1e-4, 0.5)
        assert s.nu_range == (1e-4, 0.5)
        assert s.grid_density == 7
        assert s.refinement_rounds == 5


class TestOptimizePoint:
    def test_collapsed_space_returns_that_point(self, channel, budget_fast):
        space = tiny_space(
            mu_range=(0.05, 0.05),
            nu_range=(0.1, 0.1),
            p_mu_range=(0.6, 0.6),
            p_nu_range=(0.3, 0.3),
            refinement_rounds=0,
        )
        report = optimize_point(channel, 50.0, N_FAST, budget_fast, space)
        params = report.protocol
        assert params.mu == 0.05
        assert params.nu == 0.1
        assert params.p_mu == 0.6
        assert params.p_nu == 0.3
        direct = analyze(params, channel, 50.0, budget_fast)
        assert report.key_length == direct.key_length

    def test_zero_key_everywhere_returns_first_scan_point(self, channel, budget_fast):
        # at an absurd distance every candidate yields zero key; the
        # incumbent must be the first point in lexicographic scan order
        space = tiny_space(refinement_rounds=0)
        report = optimize_point(channel, 2000.0, N_FAST, budget_fast, space)
        params = report.protocol
        assert report.key_length == 0.0
        assert params.mu == pytest.approx(space.mu_range[0])
        assert params.nu == pytest.approx(space.nu_range[0])
        assert params.p_mu == pytest.approx(space.p_mu_range[0])
        assert params.p_nu == pytest.approx(space.p_nu_range[0])

    def test_dominates_random_draws(self, channel, budget_fast):
        space = tiny_space(grid_density=5, refinement_rounds=2)
        best = optimize_point(channel, 50.0, N_FAST, budget_fast, space)
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu = float(np.exp(rng.uniform(np.log(0.01), np.log(0.2))))
            nu = float(np.exp(rng.uniform(np.log(0.01), np.log(0.3))))
            p_mu = float(rng.uniform(0.2, 0.8))
            p_nu = float(rng.uniform(0.05, min(0.4, 1.0 - p_mu)))
            cand = ProtocolParams.make(mu, nu, p_mu, p_nu, 8, N_FAST)
            report = analyze(cand, channel, 50.0, budget_fast)
            assert best.key_length >= report.key_length * (1.0 - 1e-12)

    def test_refinement_never_hurts(self, channel, budget_fast):
        space0 = tiny_space(refinement_rounds=0)
        space2 = tiny_space(refinement_rounds=2)
        r0 = optimize_point(channel, 50.0, N_FAST, budget_fast, space0)
        r2 = optimize_point(channel, 50.0, N_FAST, budget_fast, space2)
        assert r2.key_length >= r0.key_length * (1.0 - 1e-12)

    def test_matches_scalar_scan_with_analyze(self, channel, budget_fast):
        # The batched rounds must pick what a one-candidate-at-a-time scan
        # picks: lexicographic order, strict improvement only.
        space = tiny_space(grid_density=3, refinement_rounds=2)
        l_km = 50.0
        windows = [space.mu_range, space.nu_range, space.p_mu_range, space.p_nu_range]
        outer = list(windows)
        geometric = [True, True, False, False]
        best = None
        for round_idx in range(space.refinement_rounds + 1):
            axes = [
                _grid(*win, space.grid_density, geo)
                for win, geo in zip(windows, geometric)
            ]
            for mu, nu, p_mu, p_nu in itertools.product(*axes):
                if p_mu + p_nu > 1.0 + 1e-12:
                    continue
                cand = ProtocolParams(
                    mu, nu, p_mu, p_nu, max(0.0, 1.0 - p_mu - p_nu), 8, N_FAST
                )
                key = analyze(cand, channel, l_km, budget_fast).key_length
                if best is None or key > best[0]:
                    best = (key, cand)
            values = (best[1].mu, best[1].nu, best[1].p_mu, best[1].p_nu)
            windows = [
                _shrunk(v, *win, out, geo)
                for v, win, out, geo in zip(values, windows, outer, geometric)
            ]
        report = optimize_point(channel, l_km, N_FAST, budget_fast, space)
        assert report.protocol == best[1]
        assert report.key_length == best[0] > 0.0

    @pytest.mark.parametrize(
        "l_km, p_d, det, status",
        [
            (50.0, 1e-8, True, "ok"),
            (60.0, 1e-8, False, "ok"),
            (2000.0, 1e-8, True, "ok"),
            (1e5, 0.0, True, "no_detections"),
        ],
    )
    def test_report_equals_analyze(self, channel, budget_fast, l_km, p_d, det, status):
        # The report must be what analyze reports for the winner, with the
        # detector flag passed through.
        channel = dataclasses.replace(channel, p_d=p_d)
        report = optimize_point(
            channel, l_km, N_FAST, budget_fast, tiny_space(), detector_in_eta=det
        )
        assert report.diagnostics.status == status
        assert report == analyze(
            report.protocol, channel, l_km, budget_fast, detector_in_eta=det
        )

    def test_phase_count_comes_from_budget(self, channel):
        budget = make_budget(n_phases=16, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)
        report = optimize_point(channel, 50.0, N_FAST, budget, tiny_space(refinement_rounds=0))
        assert report.protocol.n_phases == 16
        assert report.protocol.n_total == N_FAST

    def test_old_positional_call_rejected(self, channel, budget_fast):
        # The former (..., n_phases, n_total, budget, space) order must not
        # bind space to detector_in_eta.
        with pytest.raises(TypeError):
            optimize_point(channel, 50.0, 8, N_FAST, budget_fast, tiny_space())
        with pytest.raises(TypeError):
            sweep(channel, [50.0], 8, N_FAST, budget_fast, tiny_space())

    def test_deterministic(self, channel, budget_fast):
        space = tiny_space()
        a = optimize_point(channel, 60.0, N_FAST, budget_fast, space)
        b = optimize_point(channel, 60.0, N_FAST, budget_fast, space)
        assert a.protocol == b.protocol
        assert a.key_length == b.key_length


class TestSweep:
    def test_empty_distances(self, channel, budget_fast):
        assert sweep(channel, [], N_FAST, budget_fast, tiny_space()) == []

    def test_singleton_matches_optimize_point(self, channel, budget_fast):
        space = tiny_space()
        single = sweep(channel, [50.0], N_FAST, budget_fast, space)
        report = optimize_point(channel, 50.0, N_FAST, budget_fast, space)
        assert len(single) == 1
        assert single[0].l_km == 50.0
        assert single[0].protocol == report.protocol
        assert single[0].key_length == report.key_length

    def test_rejects_unsorted(self, channel, budget_fast):
        with pytest.raises(ValueError):
            sweep(channel, [50.0, 40.0], N_FAST, budget_fast, tiny_space())

    def test_warm_start_neutrality(self, channel, budget_fast):
        space = tiny_space(grid_density=3, refinement_rounds=4)
        distances = [40.0, 50.0, 60.0]
        warm = sweep(channel, distances, N_FAST, budget_fast, space)
        assert [r.l_km for r in warm] == distances
        for rw, l_km in zip(warm, distances):
            rc = optimize_point(channel, l_km, N_FAST, budget_fast, space)
            assert rw.key_rate == pytest.approx(rc.key_rate, rel=0.01)

    def test_parallel_matches_cold_sequential(self, channel, budget_fast):
        space = tiny_space()
        distances = [40.0, 55.0]
        seq = [optimize_point(channel, l_km, N_FAST, budget_fast, space) for l_km in distances]
        par = sweep(channel, distances, N_FAST, budget_fast, space, threads=2)
        for rs, rp in zip(seq, par):
            assert rs.l_km == rp.l_km
            assert rs.protocol == rp.protocol
            assert rs.key_length == rp.key_length

    def test_workers_capped_at_distance_count(self, channel, budget_fast, monkeypatch):
        # The pool forks all its workers at once; an in-process stand-in
        # records how many were asked for without starting any.
        import tfqkd.optimize

        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(tfqkd.optimize, "ProcessPoolExecutor", FakePool)
        space = tiny_space()
        distances = [40.0, 55.0]
        many = sweep(channel, distances, N_FAST, budget_fast, space, threads=10**6)
        two = sweep(channel, distances, N_FAST, budget_fast, space, threads=2)
        assert requested == [2, 2]
        assert many == two
