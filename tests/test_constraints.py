import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from tfqkd import (
    GapBound,
    ObservedCounts,
    ProtocolParams,
    build_lp,
    expected_observations,
    make_budget,
)
from tfqkd.channel import CountArrays, ProtocolArrays
from tfqkd.constraints import budget_multiplier, build_lps, dump_lp
from tfqkd.numerics import folded_distinguishability, folded_poisson, vacuum_distinguishability
from tfqkd.simplex import load_lp, solve_separable

from lp_generators import batch_of, brute_force_solve, first_search_round, sampled_low_n_round

GOLDEN = Path(__file__).parent / "golden" / "lp_m8_table1_L100.txt"


def box_cap(j, protocol, budget):
    """Cap on the class-j signal yield, in counts (the boxes do not depend
    on the observations)."""
    lp = build_lp(protocol, ObservedCounts(1e6, 1e5, 1e3, 0.03), budget)
    return lp.upper[j] * lp.scale


class TestBudget:
    def test_published_budget(self):
        b = make_budget(n_phases=8, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)
        assert b.eps_total_pe == 4e-20
        assert b.eps_a == pytest.approx(4e-20 / 76, rel=1e-15)
        assert abs(b.eps_sec - 3.6566e-10) < 1e-24
        assert abs(b.eps_tol - 4.6566e-10) < 1e-24

    def test_linearity_in_eps_a(self):
        b1 = make_budget(n_phases=8, eps_cor=1e-10, eps_pa=1e-10, eps_a=1e-22)
        b2 = make_budget(n_phases=8, eps_cor=1e-10, eps_pa=1e-10, eps_a=2e-22)
        assert b2.eps_total_pe == pytest.approx(2.0 * b1.eps_total_pe, rel=1e-15)

    def test_multiplier(self):
        assert budget_multiplier(2) == 28
        assert budget_multiplier(8) == 76

    def test_exactly_one_spec(self):
        with pytest.raises(ValueError):
            make_budget(n_phases=8, eps_cor=1e-10, eps_pa=1e-10)
        with pytest.raises(ValueError):
            make_budget(
                n_phases=8, eps_cor=1e-10, eps_pa=1e-10, eps_a=1e-22, eps_total_pe=1e-20
            )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_budget(n_phases=8, eps_cor=1.5, eps_pa=1e-10, eps_a=1e-22)
        with pytest.raises(ValueError):
            make_budget(n_phases=7, eps_cor=1e-10, eps_pa=1e-10, eps_a=1e-22)


class TestGapBounds:
    """Frozen expectations below come from tests/oracle_lp.py, an
    independent mpmath assembly of the same constraints. An LP's gap_bounds
    are vacuum_mu, vacuum_nu, then decoy_pair for classes 0..M-1."""

    def test_decoy_golden(self, channel, protocol_m8, budget_m8):
        counts = expected_observations(protocol_m8, channel, 100.0)
        gb = build_lp(protocol_m8, counts, budget_m8).gap_bounds[2 + 1]
        assert gb.coeff_left == pytest.approx(0.45241870902115899, rel=1e-12)
        assert gb.coeff_right == 1.0
        assert gb.delta == pytest.approx(193385.44635843871, rel=1e-9)

    def test_vacuum_golden(self, channel, protocol_m8, budget_m8):
        counts = expected_observations(protocol_m8, channel, 100.0)
        gb_mu, gb_nu = build_lp(protocol_m8, counts, budget_m8).gap_bounds[:2]
        assert gb_mu.coeff_left == 1.0
        assert gb_mu.coeff_right == pytest.approx(0.1227967686750415, rel=1e-12)
        assert gb_mu.delta == pytest.approx(100448.13523342884, rel=1e-9)
        assert gb_nu.coeff_left == 1.0
        assert gb_nu.coeff_right == pytest.approx(0.54284567025894242, rel=1e-12)
        assert gb_nu.delta == pytest.approx(337410.6916761981, rel=1e-9)

    def test_identical_intensities_drop_distinguishability(self, budget_m8):
        # mu == nu and p_mu == p_nu: the states coincide, so the bound is
        # pure statistical fluctuation (and the pair is a tie branch).
        proto = ProtocolParams(0.1, 0.1, 0.3, 0.3, 0.4, 8, int(1e12))
        counts = ObservedCounts(1e6, 1e6, 1e3, 0.03)
        gb = build_lp(proto, counts, budget_m8).gap_bounds[2 + 0]
        assert gb.coeff_left == 1.0
        assert gb.coeff_right == 1.0
        # s = 0 kills the distinguishability term; what remains is the s=0
        # closed form of the fluctuation terms
        p2 = (2 * 0.09 / 8) * folded_poisson(0, 0.2, 8)
        d_pair = math.sqrt(3 * 1e12 * (2 * p2) * math.log(1 / budget_m8.eps_a))
        n1 = 2 * 1e12 * p2 + d_pair
        n2 = 2 * 1e12 * p2 - d_pair
        d_guess = math.sqrt(3 * n1 * 0.5 * math.log(1 / budget_m8.eps_a))
        d_flip = math.sqrt(3 * max(0.0, n2 - 2e6) * 0.5 * math.log(1 / budget_m8.eps_a))
        d_last = math.sqrt(3 * 1e6 * 1.0 * math.log(1 / budget_m8.eps_a))
        assert gb.delta == pytest.approx(2 * d_guess - 2 * d_flip + d_last, rel=1e-12)

    def test_decoy_never_sent(self, budget_m8):
        proto = ProtocolParams(0.05, 0.1, 0.6, 0.0, 0.4, 8, int(1e12))
        counts = ObservedCounts(1e6, 0.0, 1e3, 0.03)
        gb = build_lp(proto, counts, budget_m8).gap_bounds[2 + 2]
        assert gb.coeff_left == 0.0  # ratio of a vanished probability
        assert gb.coeff_right == 1.0
        assert gb.delta == 0.0
        assert gb.clamp_events  # the residual trial count went negative

    def test_vacuum_never_chosen(self, budget_m8):
        proto = ProtocolParams(0.05, 0.1, 0.6, 0.4, 0.0, 8, int(1e12))
        counts = ObservedCounts(1e6, 1e5, 0.0, 0.03)
        gb = build_lp(proto, counts, budget_m8).gap_bounds[0]
        assert gb.coeff_left == 1.0
        assert gb.coeff_right == 0.0
        assert gb.delta == 0.0

    def test_vanishing_intensity_limit(self, budget_m8):
        # beta -> 0 makes the class-0 state approach the vacuum; the
        # distinguishability contribution must vanish smoothly
        counts = ObservedCounts(1e6, 1e5, 1e3, 0.03)
        deltas = []
        for beta in (1e-2, 1e-4, 1e-6):
            proto = ProtocolParams(beta, 0.1, 0.6, 0.3, 0.1, 8, int(1e12))
            deltas.append(build_lp(proto, counts, budget_m8).gap_bounds[0].delta)
        fluct_only = deltas[-1]
        assert deltas[0] > fluct_only
        assert deltas[1] == pytest.approx(fluct_only, rel=1e-2)

    def test_delta_nonnegative_random(self, budget_m8):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu, nu = rng.uniform(1e-3, 0.5, size=2)
            p_mu, p_nu = rng.dirichlet([1, 1, 1])[:2]
            proto = ProtocolParams.make(mu, nu, p_mu, p_nu, 8, int(1e10))
            n_2mu = rng.uniform(0, 1e8)
            counts = ObservedCounts(
                n_2mu, rng.uniform(0, 1e8), rng.uniform(0, 1e4), rng.uniform(0, 0.5),
            )
            for gb in build_lp(proto, counts, budget_m8).gap_bounds:
                assert gb.delta >= 0.0

    def test_scaling_sublinearity(self, channel, budget_m8):
        # scaling rounds and counts by k >= 1 scales each delta by <= k
        base = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 8, int(1e10))
        counts = expected_observations(base, channel, 80.0)
        decoy = build_lp(base, counts, budget_m8).gap_bounds[2:]
        for k in (2.0, 10.0, 100.0):
            scaled_proto = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 8, int(1e10 * k))
            scaled_counts = ObservedCounts(
                counts.n_2mu * k, counts.n_2nu * k, counts.n_0 * k, counts.e_bit,
            )
            scaled = build_lp(scaled_proto, scaled_counts, budget_m8).gap_bounds[2:]
            for gb1, gbk in zip(decoy, scaled):
                d1, dk = gb1.delta, gbk.delta
                assert dk <= k * d1 * (1.0 + 1e-12)
                assert dk >= d1 * (1.0 - 1e-12)  # never shrinks with more data


class TestVariableUpperBound:
    def test_label_never_chosen(self, budget_m8):
        proto = ProtocolParams(0.05, 0.1, 0.0, 0.6, 0.4, 8, int(1e12))
        assert box_cap(0, proto, budget_m8) == 0.0

    def test_loose_failure_probability_approaches_mean(self, protocol_m8):
        mean = 1e12 * (2 * 0.36 / 8) * folded_poisson(0, 0.1, 8)
        loose = make_budget(n_phases=8, eps_cor=1e-10, eps_pa=1e-10, eps_a=1.0 - 1e-12)
        bound = box_cap(0, protocol_m8, loose)
        assert bound == pytest.approx(mean, rel=1e-6)

    def test_golden_value(self, protocol_m8, budget_m8):
        assert box_cap(0, protocol_m8, budget_m8) == pytest.approx(
            81438827400.160356, rel=1e-12
        )


class TestBuildLp:
    def test_structure_m2(self, channel, budget_m2):
        proto = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 2, int(1e12))
        lp = build_lp(proto, expected_observations(proto, channel, 100.0), budget_m2)
        assert lp.num_vars == 4
        assert lp.a_eq.shape == (2, 4)
        assert lp.a_ub.shape == (8, 4)
        assert list(lp.objective) == [1.0, 0.0, 0.0, 0.0]

    def test_structure_m8(self, channel, protocol_m8, budget_m8):
        lp = build_lp(protocol_m8, expected_observations(protocol_m8, channel, 100.0), budget_m8)
        assert lp.num_vars == 16
        assert lp.a_ub.shape == (20, 16)
        assert [j for j, c in enumerate(lp.objective) if c == 1.0] == [0, 2, 4, 6]
        assert np.all(lp.lower == 0.0)
        assert np.all(lp.upper >= lp.lower)

    def test_golden_matrix_row_by_row(self, channel, protocol_m8, budget_m8):
        lp = build_lp(protocol_m8, expected_observations(protocol_m8, channel, 100.0), budget_m8)
        gold = load_lp(GOLDEN)
        assert lp.num_vars == gold.num_vars
        assert lp.scale == gold.scale
        np.testing.assert_array_equal(lp.objective, gold.objective)
        np.testing.assert_array_equal(lp.a_eq, gold.a_eq)
        np.testing.assert_allclose(lp.b_eq, gold.b_eq, rtol=1e-9)
        for row in range(lp.a_ub.shape[0]):
            np.testing.assert_allclose(
                lp.a_ub[row], gold.a_ub[row], rtol=1e-9, atol=1e-15,
                err_msg=f"inequality row {row}",
            )
            assert lp.b_ub[row] == pytest.approx(gold.b_ub[row], rel=1e-9)
        np.testing.assert_allclose(lp.upper, gold.upper, rtol=1e-9)

    def test_budget_charge_accounting(self, channel, budget_m8, budget_m2, protocol_m8):
        lp8 = build_lp(protocol_m8, expected_observations(protocol_m8, channel, 100.0), budget_m8)
        assert lp8.eps_charges == 76 == budget_multiplier(8)
        assert lp8.eps_charges == round(budget_m8.eps_total_pe / budget_m8.eps_a)
        proto2 = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 2, int(1e12))
        lp2 = build_lp(proto2, expected_observations(proto2, channel, 100.0), budget_m2)
        assert lp2.eps_charges == 28 == budget_multiplier(2)

    def test_swap_symmetry_feasible_set(self, channel, budget_m2):
        # exchanging the signal and decoy roles and relabeling the variable
        # blocks leaves the feasible set unchanged
        proto_a = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 2, int(1e10))
        counts_a = expected_observations(proto_a, channel, 60.0)
        proto_b = ProtocolParams(0.1, 0.05, 0.3, 0.6, 0.1, 2, int(1e10))
        counts_b = ObservedCounts(counts_a.n_2nu, counts_a.n_2mu, counts_a.n_0, counts_a.e_bit)
        lp_a = build_lp(proto_a, counts_a, budget_m2)
        lp_b = build_lp(proto_b, counts_b, budget_m2)
        m = 2
        rng = np.random.default_rng(17)
        for _ in range(6):
            c = rng.normal(size=2 * m)
            lp_a.objective = c
            lp_b.objective = np.concatenate([c[m:], c[:m]])
            sa = brute_force_solve(lp_a)
            sb = brute_force_solve(lp_b)
            assert sa.status == sb.status == "optimal"
            assert sa.objective_value == pytest.approx(sb.objective_value, rel=1e-9, abs=1e-12)

    def test_gap_scale_scales_deltas(self, channel, protocol_m8, budget_m8):
        counts = expected_observations(protocol_m8, channel, 100.0)
        lp1 = build_lp(protocol_m8, counts, budget_m8, gap_scale=1.0)
        lp2 = build_lp(protocol_m8, counts, budget_m8, gap_scale=2.0)
        # decoy rows carry a bare delta on the rhs
        n0s = counts.n_0 / 1e12
        for row in range(4, 20):
            assert lp2.b_ub[row] == pytest.approx(2.0 * lp1.b_ub[row], rel=1e-12)
        # vacuum rows: only the delta part doubles
        for row, sign in ((0, -1.0), (1, 1.0), (2, -1.0), (3, 1.0)):
            gb = lp1.gap_bounds[row // 2]
            d1 = lp1.b_ub[row] - sign * gb.coeff_left * n0s
            d2 = lp2.b_ub[row] - sign * gb.coeff_left * n0s
            assert d2 == pytest.approx(2.0 * d1, rel=1e-9, abs=1e-18)

    def test_dump_load_round_trip(self, channel, protocol_m8, budget_m8, tmp_path):
        lp = build_lp(protocol_m8, expected_observations(protocol_m8, channel, 100.0), budget_m8)
        path = tmp_path / "dump.txt"
        dump_lp(lp, path)
        back = load_lp(path)
        np.testing.assert_array_equal(lp.objective, back.objective)
        np.testing.assert_array_equal(lp.a_eq, back.a_eq)
        np.testing.assert_array_equal(lp.b_eq, back.b_eq)
        np.testing.assert_array_equal(lp.a_ub, back.a_ub)
        np.testing.assert_array_equal(lp.b_ub, back.b_ub)
        np.testing.assert_array_equal(lp.lower, back.lower)
        np.testing.assert_array_equal(lp.upper, back.upper)
        assert lp.scale == back.scale


def scalar_gap_bounds(protocol, counts, eps_a):
    """Reference: the gap bounds of one LP in LP order, evaluated one at a
    time in Python floats with the same formulas as the array builder."""
    m, n_total = protocol.n_phases, float(protocol.n_total)
    log_inv_z = math.log(1.0 / eps_a)

    def deviation(x, y):
        clamped = x < 0.0
        x = 0.0 if clamped else x
        return (0.0 if x == 0.0 or y == 0.0 else math.sqrt(3.0 * x * y * log_inv_z)), clamped

    def class_probabilities(intensity, p_label):
        factor = 2.0 * p_label**2 / m
        return [factor * folded_poisson(j, 2.0 * intensity, m) for j in range(m)]

    q_mu = class_probabilities(protocol.mu, protocol.p_mu)
    q_nu = class_probabilities(protocol.nu, protocol.p_nu)
    p_vac = protocol.p_o**2
    pairs = [
        ("vacuum_mu", 0, p_vac, q_mu[0], vacuum_distinguishability(protocol.mu, m),
         counts.n_0, counts.n_2mu),
        ("vacuum_nu", 0, p_vac, q_nu[0], vacuum_distinguishability(protocol.nu, m),
         counts.n_0, counts.n_2nu),
    ] + [
        ("decoy_pair", j, q_mu[j], q_nu[j],
         folded_distinguishability(j, protocol.mu, protocol.nu, m), counts.n_2mu, counts.n_2nu)
        for j in range(m)
    ]
    bounds = []
    for kind, j, p1, p2, s, left, right in pairs:
        if p1 > p2:
            ratio = p2 / p1
            coeff_left, coeff_right, p_small, last = ratio, 1.0, p2, left
        else:
            ratio = p1 / p2 if p2 > 0.0 else 1.0
            coeff_left, coeff_right, p_small, last = 1.0, ratio, p1, right
        d_pair, _ = deviation(n_total, 2.0 * p_small)
        d_last, _ = deviation(last, ratio)
        n1 = 2.0 * n_total * p_small + d_pair
        n2 = 2.0 * n_total * p_small - d_pair
        d_guess, _ = deviation(n1, (1.0 + s) / 2.0)
        d_flip, flip_clamped = deviation(n2 - left - right, 0.5)
        events = [f"{kind}[{j}]: residual trial count below zero"] if flip_clamped else []
        delta = n1 * s + 2.0 * d_guess - 2.0 * d_flip + d_last
        if delta < 0.0:
            events.append(f"{kind}[{j}]: delta {delta:.6g} clamped to 0")
            delta = 0.0
        bounds.append(GapBound(kind, j, coeff_left, coeff_right, delta, tuple(events)))
    return tuple(bounds)


def assert_members_are_lone_builds(candidates, observations, budget):
    """Each member of a batch built with build_lps must equal build_lp on
    its candidate alone, bit for bit."""
    batch = batch_of(candidates, observations, budget)
    assert len(batch) == len(candidates)
    for k, (proto, counts) in enumerate(zip(candidates, observations)):
        lone = build_lp(proto, counts, budget)
        member = batch.member(k)
        for name in ("objective", "a_eq", "b_eq", "a_ub", "b_ub", "lower", "upper"):
            got, want = getattr(member, name), getattr(lone, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, name)
        assert member.scale == lone.scale == batch.scale[k]
        for field in ("coeff_left", "coeff_right", "delta"):
            want = np.array([getattr(gb, field) for gb in lone.gap_bounds])
            assert getattr(batch, field)[k].tobytes() == want.tobytes(), (k, field)
        assert member.gap_bounds == lone.gap_bounds
        assert lone.gap_bounds == scalar_gap_bounds(proto, counts, budget.eps_a)
        assert member.clamp_events == batch.clamp_events(k) == lone.clamp_events
        assert member.eps_charges == lone.eps_charges == budget_multiplier(proto.n_phases)
    return batch


class TestBuildLps:
    @pytest.mark.parametrize("n_total", [1e12, 1e14])
    def test_search_round_members_are_lone_builds(self, channel, budget_m8, n_total):
        candidates, observations = first_search_round(channel, 8, n_total, 240.0)
        assert len(candidates) == 375
        assert_members_are_lone_builds(candidates, observations, budget_m8)

    def test_m16_round_members_are_lone_builds(self, channel):
        budget = make_budget(n_phases=16, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)
        batch = assert_members_are_lone_builds(
            *first_search_round(channel, 16, 1e14, 250.0), budget
        )
        assert batch.member(0).a_ub.shape == (36, 32)
        assert batch.boxes().shape == (375, 4, 16)
        assert batch.strips().shape == (375, 3, 16)

    @pytest.mark.parametrize("n_total", [1e6, 1e8])
    def test_sampled_low_n_members_clamp(self, channel, budget_m8, n_total):
        candidates, observations = sampled_low_n_round(channel, n_total)
        batch = assert_members_are_lone_builds(candidates, observations, budget_m8)
        events = [batch.clamp_events(k) for k in range(len(batch))]
        assert all(events) and len(set(events)) > 1

    def test_infeasible_and_no_detection_members(self, channel, budget_m8, protocol_m8):
        counts = expected_observations(protocol_m8, channel, 120.0)
        infeasible = dataclasses.replace(counts, n_2nu=3.0 * counts.n_2nu)
        no_detection = ObservedCounts(0.0, counts.n_2nu, counts.n_0, 0.0)
        assert_members_are_lone_builds(
            [protocol_m8] * 3, [counts, infeasible, no_detection], budget_m8
        )

    def test_empty_round(self, budget_m8):
        batch = batch_of([], [], budget_m8)
        assert len(batch) == 0
        assert batch.b_ub.shape == (0, 10, 2)
        assert batch.boxes().shape == (0, 4, 8)

    def test_class_arrays_are_the_dense_rows(self, channel, budget_m8, protocol_m8):
        # boxes and strips restate each member's box and gap rows per class:
        # the decoy rows are the strip, the vacuum rows cut class 0's box,
        # and a zero vacuum coefficient (p_o = 0) leaves the box whole.
        candidates, observations = first_search_round(channel, 8, 1e12, 240.0)
        counts = expected_observations(protocol_m8, channel, 120.0)
        bad = ObservedCounts(counts.n_2mu, counts.n_2nu, 1e11, counts.e_bit)
        no_vacuum = ProtocolParams.make(0.05, 0.1, 0.75, 0.25, 8, int(1e12))
        candidates += [protocol_m8, no_vacuum]
        observations += [bad, expected_observations(no_vacuum, channel, 120.0)]
        batch = batch_of(candidates, observations, budget_m8)
        boxes, strips = batch.boxes(), batch.strips()
        for k in range(len(batch)):
            lp = batch.member(k)
            x_lo, x_hi, y_lo, y_hi = boxes[k]
            np.testing.assert_array_equal(x_hi[1:], lp.upper[1:8])
            np.testing.assert_array_equal(y_hi[1:], lp.upper[9:])
            assert not np.any(x_lo[1:]) and not np.any(y_lo[1:])
            for var, lo, hi in ((0, x_lo[0], x_hi[0]), (8, y_lo[0], y_hi[0])):
                row = 0 if var == 0 else 2
                coeff = lp.a_ub[row + 1, var]
                assert lp.a_ub[row, var] == -coeff
                if coeff > 0.0:
                    assert lo == max(0.0, -lp.b_ub[row] / coeff)
                    assert hi == min(lp.upper[var], lp.b_ub[row + 1] / coeff)
                else:
                    assert (lo, hi) == (0.0, lp.upper[var])
            for j in range(8):
                a, b, d = strips[k, :, j]
                assert (lp.a_ub[4 + 2 * j, j], lp.a_ub[4 + 2 * j, 8 + j]) == (a, -b)
                assert lp.b_ub[4 + 2 * j] == lp.b_ub[5 + 2 * j] == d
        assert lp.a_ub[1, 0] == 0.0 and x_hi[0] == lp.upper[0]  # p_o = 0: no vacuum cut
        assert boxes[-2, 0, 0] > boxes[-2, 1, 0]  # the absurd vacuum count empties class 0

    def test_rejects_mixed_rounds(self, channel, budget_m8, protocol_m8):
        counts = expected_observations(protocol_m8, channel, 100.0)
        other_m = dataclasses.replace(protocol_m8, n_phases=2)
        with pytest.raises(ValueError, match="phase slices"):
            batch_of([protocol_m8, other_m], [counts, counts], budget_m8)
        with pytest.raises(ValueError, match="phase slices"):
            build_lps(ProtocolArrays.of([other_m], 2), CountArrays.of([counts]), budget_m8)

    def test_members_keep_their_own_n_total(self, channel, budget_m8):
        # A batch that mixes round counts gives each member the LP, and the
        # solve_separable outcome, of a batch at its round count alone.
        rounds = [first_search_round(channel, 8, n_total, 240.0) for n_total in (1e12, 1e14)]
        single = [batch_of(*r, budget_m8) for r in rounds]
        solved_single = [solve_separable(batch) for batch in single]
        order = [(i, k) for k in range(0, 375, 4) for i in (0, 1)]
        mixed = batch_of(
            [rounds[i][0][k] for i, k in order], [rounds[i][1][k] for i, k in order], budget_m8
        )
        solved = solve_separable(mixed)
        for row, (i, k) in enumerate(order):
            for name in ("b_eq", "b_ub", "upper", "scale"):
                assert np.array_equal(getattr(mixed, name)[row], getattr(single[i], name)[k]), name
            assert solved.status[row] == solved_single[i].status[k]
            assert solved.value[row] == solved_single[i].value[k]
            assert np.array_equal(solved.duals[row], solved_single[i].duals[k])
        assert {float(n) for n in mixed.scale} == {1e12, 1e14}
