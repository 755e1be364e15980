import dataclasses
import re

import numpy as np
import pytest

from tfqkd import ProtocolParams, build_lp, expected_observations, make_budget
from tfqkd.channel import sample_observations
from tfqkd.constraints import LinearProgram
from tfqkd.simplex import load_lp, solve_max, solve_separable

from lp_generators import (
    batch_of,
    brute_force_solve,
    concat_batches,
    first_search_round,
    paper_shaped_case,
    paper_shaped_lp,
    random_lp,
    random_round,
    sampled_low_n_round,
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


def highs(lp, tight=False):
    """Status and optimum of HiGHS on the LP rescaled by n_2mu (its first
    equality right-hand side), in the LP's own units. Rescaled, the data
    sit near unit size, where HiGHS's absolute tolerances fit; tight asks
    for 1e-10 instead of its default 1e-7."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    s = 1.0 / lp.b_eq[0]
    tolerances = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    ref = scipy_opt.linprog(
        -lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub * s, A_eq=lp.a_eq, b_eq=lp.b_eq * s,
        bounds=list(zip(lp.lower * s, lp.upper * s)), method="highs",
        options=tolerances if tight else None,
    )
    assert ref.status in (0, 2), ref.message
    return ("optimal", -ref.fun / s) if ref.status == 0 else ("infeasible", np.nan)


def assert_matches_solve_max(batch, rel=1e-9):
    """solve_separable on the batch must give solve_max's status on each
    member and its value within rel. Where they disagree, tight HiGHS
    decides, and it must side with solve_separable. Returns the
    statuses and the number of disagreements."""
    statuses, disputes = [], 0
    solved = solve_separable(batch)
    assert solved.status.shape == solved.value.shape == (len(batch),)
    for k, (got, got_value) in enumerate(zip(solved.status.tolist(), solved.value.tolist())):
        lp = batch.member(k)
        want = solve_max(lp)
        statuses.append(got)
        if got == want.status and (
            got == "infeasible"
            or abs(got_value - want.objective_value) <= rel * abs(want.objective_value)
        ):
            continue
        disputes += 1
        status, value = highs(lp, tight=True)
        assert got == status, (k, got, want.status)
        if status == "optimal":
            assert got_value == pytest.approx(value, rel=rel, abs=0.0), k
    return statuses, disputes


class TestBatchedSolver:
    """solve_separable, which solves a batch of phase-error LPs from their
    per-class structure, against solve_max on each member."""

    def test_generator_instances_by_shape(self):
        # The 50 paper-shaped (M = 2) instances of acceptance criterion 4, in
        # its draw order, as one batch.
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            random_lp(rng)
        batch = concat_batches(
            [batch_of([proto], [counts], budget) for proto, counts, budget in
             (paper_shaped_case(rng) for _ in range(50))]
        )
        statuses, disputes = assert_matches_solve_max(batch)
        assert statuses == ["optimal"] * 50 and disputes == 0

    @pytest.mark.parametrize("n_phases, n_total, l_km", [
        (8, 1e12, 240.0), (8, 1e14, 240.0), (16, 1e14, 250.0), (8, 1e12, 60.0), (8, 1e12, 400.0),
    ])
    def test_search_rounds(self, channel, n_phases, n_total, l_km):
        # First search rounds of scripts/rate_distance.py, the TestBuildLps
        # rounds among them.
        budget = make_budget(n_phases=n_phases, eps_cor=1e-10, eps_pa=1.6566e-10,
                             eps_total_pe=4e-20)
        batch = batch_of(*first_search_round(channel, n_phases, n_total, l_km), budget)
        statuses, disputes = assert_matches_solve_max(batch)
        assert statuses == ["optimal"] * 375 and disputes == 0

    @pytest.mark.parametrize("n_total", [1e6, 1e8])
    def test_sampled_low_n_rounds(self, channel, budget_m8, n_total):
        batch = batch_of(*sampled_low_n_round(channel, n_total), budget_m8)
        assert len(batch) > 50
        assert assert_matches_solve_max(batch)[1] == 0

    def test_grid_round_with_infeasible_member(self, channel, budget_m8, protocol_m8):
        # The first search round at 240 km, N = 1e12, plus members whose
        # decoy or vacuum counts contradict the gap bounds, and one with
        # p_o = 0, whose vacuum rows have a zero coefficient.
        candidates, observations = first_search_round(channel, 8, 1e12, 240.0)
        counts = expected_observations(protocol_m8, channel, 120.0)
        no_vacuum = ProtocolParams.make(0.05, 0.1, 0.75, 0.25, 8, int(1e12))
        candidates[17:17] = [protocol_m8, protocol_m8, no_vacuum]
        observations[17:17] = [
            dataclasses.replace(counts, n_2nu=3.0 * counts.n_2nu),
            dataclasses.replace(counts, n_0=1e11),
            expected_observations(no_vacuum, channel, 120.0),
        ]
        batch = batch_of(candidates, observations, budget_m8)
        statuses, disputes = assert_matches_solve_max(batch)
        assert len(statuses) == 378 and disputes == 0
        assert [k for k, s in enumerate(statuses) if s == "infeasible"] == [17, 18]

    def test_random_rounds(self):
        # 1 000 random LPs over gap scales 1e-3 to 1e9, M = 8 and 16,
        # N = 1e5-1e15. solve_max's feasibility tolerance is 1e-9 in units
        # of N, so on the thin strips of gap scale 1e-3 it can miss the
        # optimum or call an infeasible LP feasible; HiGHS settles those.
        rng = np.random.default_rng(1009)
        statuses = []
        for gap_scale in (1e-3, 1.0, 1e3, 1e9):
            for n_phases in (8, 16):
                budget = make_budget(n_phases=n_phases, eps_cor=1e-10, eps_pa=1.6566e-10,
                                     eps_total_pe=4e-20)
                for _ in range(5):
                    n_total = int(10 ** rng.uniform(5, 15))
                    batch = batch_of(*random_round(rng, n_phases, n_total, 25), budget,
                                      gap_scale=gap_scale)
                    got, disputes = assert_matches_solve_max(batch)
                    statuses += got
                    if gap_scale >= 1.0:
                        assert disputes == 0
        assert len(statuses) == 1000
        assert statuses.count("infeasible") >= 10

    def test_multipliers_certify_the_value(self, channel, budget_m8):
        # lambda X + kappa Y + sum_j max over P_j of (c_j - lambda) x - kappa y,
        # each class maximum found by solve_max on its own two-variable LP,
        # gives back the value: (lambda, kappa) is an optimal dual point.
        batch = batch_of(*first_search_round(channel, 8, 1e14, 240.0), budget_m8)
        boxes, strips = batch.boxes(), batch.strips()
        solved = solve_separable(batch)
        for k in range(0, len(batch), 37):
            lam, kappa = solved.duals[k]
            total = lam * batch.b_eq[k, 0] + kappa * batch.b_eq[k, 1]
            for j in range(8):
                x_lo, x_hi, y_lo, y_hi = boxes[k, :, j]
                a, b, d = strips[k, :, j]
                part = solve_max(box_lp(
                    [float(j % 2 == 0) - lam, -kappa], a_ub=[[a, -b], [-a, b]], b_ub=[d, d],
                    lower=[x_lo, y_lo], upper=[x_hi, y_hi],
                ))
                total += part.objective_value
            assert total == pytest.approx(solved.value[k], rel=1e-9, abs=0.0)

    def test_empty_input(self, budget_m8):
        solved = solve_separable(batch_of([], [], budget_m8))
        assert solved.status.shape == solved.value.shape == (0,)
        assert solved.duals.shape == (0, 2)


class TestExternalSolverCrossCheck:
    """Full-size instances are beyond the vertex oracle; an independent
    LP solver (test-only dependency) covers them."""

    @pytest.mark.parametrize("n_phases", [8, 16, 32, 64])
    def test_instances_match_highs(self, channel, n_phases):
        # Expected and sampled counts over 10-450 km; solve_separable on all
        # of them as one batch, and solve_max on each LP up to M = 16 (at
        # larger M its basis can turn singular, as its docstring records),
        # against default HiGHS.
        budget = make_budget(
            n_phases=n_phases, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20
        )
        rng = np.random.default_rng(808)
        lps, batches = [], []
        for i in range(40):
            mu, nu = sorted(rng.uniform(0.01, 0.3, size=2))
            p_mu, p_nu = rng.dirichlet([4, 2, 1])[:2]
            n_total = int(10 ** rng.uniform(10, 14))
            proto = ProtocolParams.make(mu, nu, p_mu, p_nu, n_phases, n_total)
            l_km = float(rng.uniform(10, 450))
            if i % 2:
                counts = sample_observations(proto, channel, l_km, i)
            else:
                counts = expected_observations(proto, channel, l_km)
            batches.append(batch_of([proto], [counts], budget))
            lps.append(build_lp(proto, counts, budget))
        solved = solve_separable(concat_batches(batches))
        for lp, got, got_value in zip(lps, solved.status, solved.value):
            status, value = highs(lp)
            assert got == status
            if status == "optimal":
                assert got_value == pytest.approx(value, rel=1e-7, abs=1e-12)
            if n_phases <= 16:
                mine = solve_max(lp)
                assert mine.status == status
                if status == "optimal":
                    assert mine.objective_value == pytest.approx(value, rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("n_phases", [32, 64])
    def test_search_round_matches_highs(self, channel, n_phases):
        # The first search round of scripts/rate_distance.py at 250 km.
        budget = make_budget(
            n_phases=n_phases, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20
        )
        batch = batch_of(*first_search_round(channel, n_phases, 1e14, 250.0), budget)
        solved = solve_separable(batch)
        for k in range(len(batch)):
            status, value = highs(batch.member(k))
            assert solved.status[k] == status == "optimal"
            assert solved.value[k] == pytest.approx(value, rel=1e-7, abs=0.0), k


class TestDumpParsing:
    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-an-lp\n")
        with pytest.raises(ValueError):
            load_lp(path)

    @pytest.mark.parametrize("bad, good", [
        ("mystery\t1\t2", None),  # unknown record
        ("le\t1\t1\t5\t1", "le\t1\t1\t5"),  # a row one value too wide
        ("le\t1", "le\t1\t1\t5"),  # a short row
        ("bound\t0", "bound\t0\t3"),  # a short bound
        ("objective\tnan\t0", "objective\t1\t0"),
        ("objective\t1\tone", "objective\t1\t0"),
        ("bound\t0\tnan", "bound\t0\t3"),
        ("bound\t-inf\t3", "bound\t0\t3"),
        ("eq\t1\t1\tinf", "eq\t1\t1\t2"),
        ("scale\tnan", "scale\t1"),
        ("nvars\t2.5", "nvars\t2"),
        ("nvars\t2\nnvars\t2", "nvars\t2"),  # repeated
    ], ids=[
        "unknown-record", "long-row", "short-row", "short-bound", "nan-objective",
        "word-objective", "nan-bound", "infinite-lower", "infinite-rhs", "nan-scale",
        "fractional-nvars", "repeated-nvars",
    ])
    def test_rejects_malformed_records(self, tmp_path, bad, good):
        lines = ["tfqkd-lp 1", "nvars\t2", "scale\t1", "objective\t1\t0", "eq\t1\t1\t2",
                 "le\t1\t1\t5", "bound\t0\t3", "bound\t0\tinf"]
        path = tmp_path / "bad2.txt"
        path.write_text("\n".join(lines) + "\n")
        sol = solve_max(load_lp(path))  # the dump as written loads, +inf bound included
        assert (sol.status, sol.objective_value) == ("optimal", 2.0)
        if good is None:
            lines.append(bad)
        else:
            lines[lines.index(good)] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_lp(path)

    def test_rejects_missing_bounds(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("tfqkd-lp 1\nnvars\t2\nobjective\t1\t0\nbound\t0\t1\n")
        with pytest.raises(ValueError):
            load_lp(path)
