import dataclasses

import numpy as np
import pytest

from tfqkd import ProtocolParams, build_lp, expected_observations, simplex
from tfqkd.constraints import LinearProgram, build_lps
from tfqkd.simplex import load_lp, solve_max, solve_max_batch

from lp_generators import (
    brute_force_solve,
    first_search_round,
    paper_shaped_lp,
    random_lp,
    stack_lps,
)


def box_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lower=None, upper=None):
    n = len(c)
    return LinearProgram(
        objective=np.asarray(c, dtype=float),
        a_eq=np.asarray(a_eq, dtype=float).reshape(-1, n) if a_eq is not None else np.zeros((0, n)),
        b_eq=np.asarray(b_eq, dtype=float) if b_eq is not None else np.zeros(0),
        a_ub=np.asarray(a_ub, dtype=float).reshape(-1, n) if a_ub is not None else np.zeros((0, n)),
        b_ub=np.asarray(b_ub, dtype=float) if b_ub is not None else np.zeros(0),
        lower=np.asarray(lower, dtype=float) if lower is not None else np.zeros(n),
        upper=np.asarray(upper, dtype=float) if upper is not None else np.full(n, np.inf),
    )


class TestTrivialInstances:
    def test_single_variable_optimum(self):
        sol = solve_max(box_lp([1.0], a_ub=[[1.0]], b_ub=[5.0]))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(5.0, abs=1e-9)

    def test_infeasible(self):
        sol = solve_max(box_lp([1.0], a_ub=[[1.0]], b_ub=[-1.0]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve_max(box_lp([1.0], a_ub=[[-1.0]], b_ub=[0.0]))
        assert sol.status == "unbounded"

    def test_brute_force_agrees_on_trivial(self):
        lp = box_lp([1.0], a_ub=[[1.0]], b_ub=[5.0], upper=[10.0])
        assert brute_force_solve(lp).objective_value == pytest.approx(
            solve_max(lp).objective_value, abs=1e-9
        )
        lp_inf = box_lp([1.0], a_ub=[[1.0]], b_ub=[-1.0], upper=[10.0])
        assert brute_force_solve(lp_inf).status == "infeasible"

    def test_equality_only(self):
        sol = solve_max(
            box_lp([1.0, 1.0], a_eq=[[1.0, 2.0]], b_eq=[2.0], upper=[5.0, 5.0])
        )
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)  # x=(2,0)

    def test_pure_box(self):
        sol = solve_max(box_lp([2.0, -1.0], upper=[3.0, 4.0]))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(6.0, abs=1e-12)

    def test_brute_force_rejects_large(self):
        with pytest.raises(ValueError):
            brute_force_solve(box_lp([1.0] * 11, upper=[1.0] * 11))

    def test_brute_force_rejects_infinite_box(self):
        with pytest.raises(ValueError):
            brute_force_solve(box_lp([1.0], a_ub=[[1.0]], b_ub=[5.0]))


class TestOracleAgreement:
    def test_random_dense_lps(self):
        rng = np.random.default_rng(314159)
        optimal = 0
        for _ in range(300):
            lp = random_lp(rng)
            fast = solve_max(lp)
            slow = brute_force_solve(lp)
            assert fast.status == slow.status
            if fast.status == "optimal":
                optimal += 1
                scale = max(1.0, abs(slow.objective_value))
                assert abs(fast.objective_value - slow.objective_value) <= 1e-6 * scale
        assert optimal > 150  # generator should produce mostly feasible LPs

    def test_paper_shaped_lps(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            lp = paper_shaped_lp(rng)
            fast = solve_max(lp)
            slow = brute_force_solve(lp)
            assert fast.status == slow.status == "optimal"
            scale = max(abs(slow.objective_value), 1e-12)
            assert abs(fast.objective_value - slow.objective_value) <= 1e-6 * scale

    def test_degenerate_redundant_equality(self):
        # duplicated equality row: rank-deficient but consistent
        lp = box_lp(
            [1.0, 2.0, 0.5],
            a_eq=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
            b_eq=[1.5, 3.0],
            a_ub=[[1.0, 0.0, 0.0]],
            b_ub=[0.7],
            upper=[1.0, 1.0, 1.0],
        )
        fast = solve_max(lp)
        slow = brute_force_solve(lp)
        assert fast.status == slow.status == "optimal"
        assert fast.objective_value == pytest.approx(slow.objective_value, rel=1e-9)


class TestSolverContracts:
    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(99)
        lp = random_lp(rng)
        a = solve_max(lp)
        b = solve_max(lp)
        assert a.status == b.status
        assert a.objective_value == b.objective_value
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.variable_values, b.variable_values)

    def test_feasibility_of_reported_optimum(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            lp = random_lp(rng)
            sol = solve_max(lp)
            if sol.status != "optimal":
                continue
            x = sol.variable_values
            tol = 1e-7 * max(1.0, float(np.max(np.abs(lp.b_ub), initial=0.0)))
            if lp.a_eq.size:
                assert np.max(np.abs(lp.a_eq @ x - lp.b_eq)) <= tol
            if lp.a_ub.size:
                assert np.max(lp.a_ub @ x - lp.b_ub) <= tol
            assert np.all(x >= lp.lower - tol)
            assert np.all(x <= lp.upper + tol)

    def test_weak_duality_certificate(self):
        rng = np.random.default_rng(4242)
        checked = 0
        for _ in range(40):
            lp = random_lp(rng)
            sol = solve_max(lp)
            if sol.status != "optimal":
                continue
            checked += 1
            y = sol.row_duals
            d = sol.reduced_costs
            dual = float(np.concatenate([lp.b_eq, lp.b_ub]) @ y)
            tol_d = 1e-9 * max(1.0, float(np.max(np.abs(lp.objective))))
            for j in range(lp.num_vars):
                if d[j] > tol_d:
                    dual += d[j] * lp.upper[j]
                elif d[j] < -tol_d:
                    dual += d[j] * lp.lower[j]
            assert dual == pytest.approx(
                sol.objective_value, rel=1e-6, abs=1e-9
            )
        assert checked > 15

    def test_tightening_never_raises_optimum(self, channel, budget_m8, protocol_m8):
        counts = expected_observations(protocol_m8, channel, 120.0)
        values = []
        for scale in (0.5, 0.8, 1.0, 1.5):
            lp = build_lp(protocol_m8, counts, budget_m8, gap_scale=scale)
            sol = solve_max(lp)
            assert sol.status == "optimal"
            values.append(sol.objective_value)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_optimum_bounded_by_signal_count(self, channel, budget_m8, protocol_m8):
        counts = expected_observations(protocol_m8, channel, 120.0)
        lp = build_lp(protocol_m8, counts, budget_m8)
        sol = solve_max(lp)
        assert sol.objective_value * lp.scale <= counts.n_2mu * (1.0 + 1e-9)


def assert_same_solution(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    if want.status == "infeasible":
        assert np.isnan(got.objective_value)
    else:
        assert got.objective_value == want.objective_value
    np.testing.assert_array_equal(got.variable_values, want.variable_values)
    np.testing.assert_array_equal(got.row_duals, want.row_duals)
    np.testing.assert_array_equal(got.reduced_costs, want.reduced_costs)


def assert_same_solutions(lps):
    """solve_max_batch, on the LPs stacked by shape, must reproduce
    solve_max exactly on every LP."""
    groups = {}
    for i, lp in enumerate(lps):
        groups.setdefault((lp.num_vars, len(lp.b_eq), len(lp.b_ub)), []).append(i)
    batched = [None] * len(lps)
    for ids in groups.values():
        for i, sol in zip(ids, solve_max_batch(stack_lps([lps[i] for i in ids]))):
            batched[i] = sol
    for lp, got in zip(lps, batched):
        assert_same_solution(got, solve_max(lp))
    return batched


class TestBatchedSolver:
    def test_generator_instances_by_shape(self):
        # The 1050 instances of acceptance criterion 4, in its draw order,
        # stacked by shape.
        rng = np.random.default_rng(20260810)
        lps = [random_lp(rng) for _ in range(1000)] + [paper_shaped_lp(rng) for _ in range(50)]
        statuses = {sol.status for sol in assert_same_solutions(lps)}
        assert statuses == {"optimal", "infeasible"}

    def test_grid_round_with_infeasible_member(self, channel, budget_m8):
        # The first search round at 240 km, N = 1e14: its LPs need 2, 3 or
        # 4 artificial columns.
        lps = [
            build_lp(proto, counts, budget_m8)
            for proto, counts in zip(*first_search_round(channel, 8, 1e14, 240.0))
        ]
        # Three times the decoy clicks contradict the gap bounds.
        proto = ProtocolParams.make(0.05, 0.1, 0.6, 0.3, 8, int(1e12))
        counts = expected_observations(proto, channel, 120.0)
        bad = dataclasses.replace(counts, n_2nu=3.0 * counts.n_2nu)
        lps.insert(17, build_lp(proto, bad, budget_m8))
        statuses = [sol.status for sol in assert_same_solutions(lps)]
        assert len(lps) == 376
        assert statuses.count("infeasible") == 1 and statuses[17] == "infeasible"

    @pytest.mark.parametrize("n_art", [2, 3, 4])
    def test_stack_set_up_from_arrays(self, channel, budget_m8, n_art):
        # One stack of first-round members that need n_art artificial
        # columns, set up straight from the round's stacked LP arrays.
        batch = build_lps(*first_search_round(channel, 8, 1e14, 240.0), budget_m8)
        _, _, resid = simplex._real_system(batch, np.arange(len(batch)))
        counts = 2 + np.count_nonzero(resid[:, 2:] < 0.0, axis=1)
        assert set(counts.tolist()) == {2, 3, 4}
        ids = np.flatnonzero(counts == n_art)[: simplex.BATCH_CHUNK]
        assert len(ids) > 1
        stack = simplex._Stack(batch, ids)
        assert stack.n_art == n_art
        assert stack.a.shape == (len(ids), 22, 16 + 20 + n_art)
        results = [None] * len(batch)
        stack.solve(results)
        for k in ids:
            assert_same_solution(results[k], solve_max(batch.member(k)))

    def test_lone_shape_next_to_full_stacks(self, monkeypatch):
        # Two full stacks of members that need one artificial column and,
        # between them, the only member that needs two, which is solved on
        # its own tableau.
        sizes = []

        class RecordingStack(simplex._Stack):
            def __init__(self, batch, ids):
                sizes.append(len(ids))
                super().__init__(batch, ids)

        monkeypatch.setattr(simplex, "_Stack", RecordingStack)
        stacked = [
            box_lp([1.0, 1.0 + 0.01 * k], a_ub=[[1.0, 2.0]], b_ub=[2.0 + 0.01 * k],
                   a_eq=[[1.0, -1.0]], b_eq=[0.1 * k], upper=[3.0, 1.0])
            for k in range(2 * simplex.BATCH_CHUNK)
        ]
        lone = box_lp([1.0, 2.0], a_ub=[[-1.0, 1.0]], b_ub=[-0.5],
                      a_eq=[[1.0, 1.0]], b_eq=[1.0], upper=[2.0, 1.0])
        lps = stacked[:5] + [lone] + stacked[5:]
        statuses = [sol.status for sol in assert_same_solutions(lps)]
        assert sizes == [simplex.BATCH_CHUNK, simplex.BATCH_CHUNK]
        assert statuses[5] == "optimal"

    def test_unbounded_member(self):
        lps = [
            box_lp([1.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[2.0], upper=[3.0, 1.0]),
            box_lp([1.0, 1.0], a_ub=[[-1.0, 0.0]], b_ub=[0.0], upper=[np.inf, 1.0]),
            box_lp([1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.5], upper=[1.0, 1.0]),
        ]
        statuses = [sol.status for sol in assert_same_solutions(lps)]
        assert statuses == ["optimal", "unbounded", "optimal"]

    def test_empty_input(self, budget_m8):
        assert solve_max_batch(build_lps([], [], budget_m8)) == []


class TestExternalSolverCrossCheck:
    """Full-size instances are beyond the vertex oracle; an independent
    LP solver (test-only dependency) covers them."""

    def test_m8_instances_match_highs(self, channel, budget_m8):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(808)
        for _ in range(30):
            mu, nu = sorted(rng.uniform(0.01, 0.3, size=2))
            p_mu, p_nu = rng.dirichlet([4, 2, 1])[:2]
            proto = __import__("tfqkd").ProtocolParams.make(
                mu, nu, p_mu, p_nu, 8, int(10 ** rng.uniform(10, 14))
            )
            counts = expected_observations(proto, channel, float(rng.uniform(10, 300)))
            lp = build_lp(proto, counts, budget_m8)
            mine = solve_max(lp)
            # bump the instance to unit scale first: the reference solver's
            # default feasibility tolerance (1e-7) would otherwise be as
            # large as the data itself
            s = 1.0 / float(np.max(np.abs(lp.b_ub)))
            ref = scipy_opt.linprog(
                -lp.objective,
                A_ub=lp.a_ub,
                b_ub=lp.b_ub * s,
                A_eq=lp.a_eq,
                b_eq=lp.b_eq * s,
                bounds=list(zip(lp.lower * s, lp.upper * s)),
                method="highs",
            )
            assert mine.status == "optimal"
            assert ref.status == 0
            assert mine.objective_value == pytest.approx(-ref.fun / s, rel=1e-7, abs=1e-12)


class TestDumpParsing:
    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-an-lp\n")
        with pytest.raises(ValueError):
            load_lp(path)

    def test_rejects_malformed_records(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("tfqkd-lp 1\nnvars\t2\nmystery\t1\t2\n")
        with pytest.raises(ValueError):
            load_lp(path)

    def test_rejects_missing_bounds(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("tfqkd-lp 1\nnvars\t2\nobjective\t1\t0\nbound\t0\t1\n")
        with pytest.raises(ValueError):
            load_lp(path)
