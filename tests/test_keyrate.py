import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfqkd import (
    ObservedCounts,
    ProtocolParams,
    analyze,
    build_lp,
    end_to_end_plob,
    expected_observations,
    key_length,
)
from tfqkd import keyrate, make_budget
from tfqkd.channel import CountArrays, ProtocolArrays, expected_counts
from tfqkd.constraints import build_lps
from tfqkd.keyrate import Diagnostics, _analyzed, _evaluate, _Outcome
from tfqkd.numerics import folded_poisson
from tfqkd.simplex import solve_max, solve_separable

from honest_channel import honest_class_yields
from lp_generators import TABLE1, first_search_round, random_round

# Optimizer-selected operating point at L=100 km, 1e12 rounds, frozen once
# from a converged grid search; the resulting phase-error bound is the
# full-pipeline golden value.
GOLDEN_PARAMS_L100 = ProtocolParams(
    mu=0.03815687642409075,
    nu=0.17759977025808293,
    p_mu=0.8486458333333333,
    p_nu=0.08016782407407408,
    p_o=0.0711863425925926,
    n_phases=8,
    n_total=int(1e12),
)
GOLDEN_EPH_L100 = 0.10605843559868243

GOOD_PARAMS_L200_1E14 = ProtocolParams(
    mu=0.049792694463378875,
    nu=0.013158353967123834,
    p_mu=0.8115972222222222,
    p_nu=0.1615625,
    p_o=0.02684027777777781,
    n_phases=8,
    n_total=int(1e14),
)


def lone_outcome(protocol, counts, channel, budget, gap_scale=1.0):
    """The lone phase-error LP's outcome, by the path analyze takes
    (build_lp and solve_max)."""
    return _analyzed(protocol, counts, channel, budget, gap_scale=gap_scale)


def round_outcomes(candidates, observations, channel, budget):
    """keyrate._evaluate on candidates given as lists, one _Outcome each."""
    protocols = ProtocolArrays.of(candidates, budget.n_phases)
    evaluated = _evaluate(protocols, CountArrays.of(observations), channel, budget)
    return [evaluated.outcome(k) for k in range(len(candidates))]


class TestPhaseErrorUpperBound:
    def test_no_detections(self, channel, protocol_m8, budget_m8):
        counts = ObservedCounts(0.0, 1e5, 1e3, 0.0)
        outcome = lone_outcome(protocol_m8, counts, channel, budget_m8)
        assert outcome.diagnostics == Diagnostics("no_detections")
        assert outcome.n_ph_upper == outcome.key_length == 0.0

    def test_slack_gaps_leave_boxes_binding(self, channel, budget_m8):
        # with the gap bounds inflated to irrelevance, the LP packs every
        # even class to its box; the analytic optimum is the even box sum
        proto = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 8, int(1e12))
        mean_total = 1e12 * 2 * 0.36 / 8
        # the even folded classes hold ~0.909 of the weight at this mean, so
        # a count at 0.95 of the cap forces the even boxes to bind
        n_2mu = 0.95 * mean_total
        counts = ObservedCounts(n_2mu, 1e8, 1e3, 0.03)
        outcome = lone_outcome(proto, counts, channel, budget_m8, gap_scale=1e9)
        n_ph, e_ph = outcome.n_ph_upper, outcome.e_ph_upper
        log_term = 3.0 * math.log(1.0 / budget_m8.eps_a)
        want = 0.0
        for j in (0, 2, 4, 6):
            mean = 1e12 * (2 * 0.36 / 8) * folded_poisson(j, 0.1, 8)
            want += mean + math.sqrt(log_term * mean)
        assert n_ph == pytest.approx(want, rel=1e-9)
        assert e_ph == pytest.approx(want / n_2mu, rel=1e-9)

    def test_full_pipeline_golden(self, channel, budget_m8):
        counts = expected_observations(GOLDEN_PARAMS_L100, channel, 100.0)
        outcome = lone_outcome(GOLDEN_PARAMS_L100, counts, channel, budget_m8)
        n_ph, e_ph = outcome.n_ph_upper, outcome.e_ph_upper
        assert e_ph == pytest.approx(GOLDEN_EPH_L100, rel=1e-9)
        assert n_ph == pytest.approx(e_ph * counts.n_bit, rel=1e-12)

    def test_ratio_in_unit_interval(self, channel, budget_m8, protocol_m8):
        for l_km in (10.0, 100.0, 300.0):
            counts = expected_observations(protocol_m8, channel, l_km)
            e_ph = lone_outcome(protocol_m8, counts, channel, budget_m8).e_ph_upper
            assert 0.0 <= e_ph <= 1.0


class TestKeyLength:
    def test_useless_phase_error_rate(self, channel, budget_m8):
        assert key_length(1e6, 0.03, 0.5, channel, budget_m8) == 0.0

    def test_perfect_channel_overhead_only(self, channel, budget_m8):
        n_bit = 1e6
        want = (
            n_bit
            - math.log2(2.0 / budget_m8.eps_cor)
            - math.log2(1.0 / (4.0 * budget_m8.eps_pa**2))
        )
        assert key_length(n_bit, 0.0, 0.0, channel, budget_m8) == pytest.approx(
            want, rel=1e-12
        )

    def test_hand_evaluated_golden(self, channel, budget_m8):
        # closed form at n_bit=1e6, e_bit=0.03, e_ph=0.05, f=1.1 (frozen
        # from an 80-bit evaluation)
        got = key_length(1e6, 0.03, 0.05, channel, budget_m8)
        assert got == pytest.approx(499674.79787705099, rel=1e-12)

    def test_clamps_at_zero(self, channel, budget_m8):
        assert key_length(10.0, 0.4, 0.4, channel, budget_m8) == 0.0

    def test_monotone_in_phase_error(self, channel, budget_m8):
        values = [key_length(1e6, 0.02, e, channel, budget_m8) for e in np.linspace(0, 0.5, 11)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_bit_error(self, channel, budget_m8):
        values = [key_length(1e6, e, 0.05, channel, budget_m8) for e in np.linspace(0, 0.5, 11)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_above_half_clamped_like_half(self, channel, budget_m8):
        assert key_length(1e6, 0.03, 0.7, channel, budget_m8) == key_length(
            1e6, 0.03, 0.5, channel, budget_m8
        )


class TestEndToEndPlob:
    def test_fiber_only_by_default(self, channel):
        assert end_to_end_plob(channel, 100.0) == pytest.approx(
            -math.log2(1.0 - 1e-2), rel=1e-12
        )

    def test_detector_variant(self, channel):
        assert end_to_end_plob(channel, 100.0, include_detector=True) == pytest.approx(
            -math.log2(1.0 - 0.3e-2), rel=1e-12
        )

    def test_zero_distance_is_infinite(self, channel):
        assert end_to_end_plob(channel, 0.0) == math.inf


class TestAnalyze:
    def test_dark_count_dominated_distance_gives_zero_key(self, channel, budget_m8, protocol_m8):
        report = analyze(protocol_m8, channel, 1500.0, budget_m8)
        assert report.key_length == 0.0
        assert report.key_rate == 0.0
        assert report.e_bit > 0.4  # clicks are essentially all dark counts

    def test_positive_rate_beyond_200km(self, channel, budget_m8):
        report = analyze(GOOD_PARAMS_L200_1E14, channel, 200.0, budget_m8)
        assert report.key_rate > 0.0
        assert report.diagnostics.status == "ok"

    def test_report_self_consistency(self, channel, budget_m8):
        report = analyze(GOOD_PARAMS_L200_1E14, channel, 200.0, budget_m8)
        assert report.key_rate * 1e14 == pytest.approx(report.key_length, rel=1e-15)
        assert report.n_bit > 0
        assert report.e_ph_upper == pytest.approx(
            report.n_ph_upper / report.n_bit, rel=1e-12
        )

    def test_expected_vs_sampled_concentrate(self, channel, budget_m8):
        expected = analyze(GOOD_PARAMS_L200_1E14, channel, 100.0, budget_m8)
        for seed in range(20):
            sampled = analyze(
                GOOD_PARAMS_L200_1E14, channel, 100.0, budget_m8, mode="sampled", seed=seed
            )
            assert sampled.key_rate == pytest.approx(expected.key_rate, rel=0.2)

    def test_phase_error_monotone_under_gap_shrink(self, channel, budget_m8, protocol_m8):
        rates = [
            analyze(protocol_m8, channel, 120.0, budget_m8, gap_scale=s).e_ph_upper
            for s in (0.5, 0.8, 1.0, 1.5)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_zero_key_never_negative(self, channel, budget_m8, protocol_m8):
        for l_km in (0.0, 50.0, 150.0, 400.0, 800.0):
            report = analyze(protocol_m8, channel, l_km, budget_m8)
            assert report.key_length >= 0.0

    def test_infeasible_observations_fold_to_zero_key(
        self, budget_m8, protocol_m8, channel, monkeypatch
    ):
        # an absurd vacuum count contradicts the class-0 anchors
        counts = expected_observations(protocol_m8, channel, 100.0)
        bad = ObservedCounts(counts.n_2mu, counts.n_2nu, 1e11, counts.e_bit)
        monkeypatch.setattr(keyrate, "observe", lambda *args: bad)
        report = analyze(protocol_m8, channel, 100.0, budget_m8)
        lp = build_lp(protocol_m8, bad, budget_m8)
        assert report.diagnostics == Diagnostics(
            "infeasible", lp.clamp_events, solve_max(lp).iterations
        )
        assert report.diagnostics.lp_iterations > 0
        assert (report.n_bit, report.e_bit) == (bad.n_bit, bad.e_bit)
        assert report.n_ph_upper == report.e_ph_upper == 0.0
        assert report.key_length == report.key_rate == 0.0

    def test_sampled_mode_deterministic(self, channel, budget_m8, protocol_m8):
        a = analyze(protocol_m8, channel, 100.0, budget_m8, mode="sampled", seed=7)
        b = analyze(protocol_m8, channel, 100.0, budget_m8, mode="sampled", seed=7)
        assert a == b

    def test_batch_key_lengths_match_analyze(self, channel, budget_m8, protocol_m8):
        # A batch is solved from its per-class structure and a lone LP by
        # the simplex, so values agree to rounding, and a batch member
        # takes no pivots.
        candidates, observations, expected = [], [], []
        for l_km, p_mu in ((40.0, 0.6), (120.0, 0.6), (120.0, 0.5), (600.0, 0.6)):
            proto = ProtocolParams.make(0.05, 0.1, p_mu, 0.3, 8, int(1e12))
            candidates.append(proto)
            observations.append(expected_observations(proto, channel, l_km))
            report = analyze(proto, channel, l_km, budget_m8)
            diagnostics = dataclasses.replace(report.diagnostics, lp_iterations=0)
            expected.append(
                tuple(getattr(report, name) for name in _Outcome._fields[:-1]) + (diagnostics,)
            )
        bad = dataclasses.replace(observations[1], n_2nu=3.0 * observations[1].n_2nu)
        candidates.append(candidates[1])
        observations.append(bad)
        # infeasible phase-error LP, with its clamp events
        lp = build_lp(candidates[1], bad, budget_m8)
        assert solve_max(lp).status == "infeasible"
        diagnostics = Diagnostics("infeasible", lp.clamp_events, 0)
        expected.append((bad.n_bit, bad.e_bit, 0.0, 0.0, 0.0, diagnostics))
        candidates.append(candidates[0])
        observations.append(ObservedCounts(0.0, 1e5, 1e3, 0.0))  # no detections
        expected.append((0.0, 0.0, 0.0, 0.0, 0.0, Diagnostics("no_detections")))
        got = round_outcomes(candidates, observations, channel, budget_m8)
        assert len(got) == len(expected)
        for outcome, want in zip(got, expected):
            assert outcome.diagnostics == want[-1]
            assert outcome[:-1] == pytest.approx(want[:-1], rel=1e-9, abs=0.0)
        assert got[0].key_length > 0.0

    def test_singular_lone_lp_solved_like_a_batch_member(
        self, channel, budget_m8, protocol_m8, monkeypatch
    ):
        # A lone LP on which the simplex basis turns singular gets the
        # outcome a batch member with the same counts gets.
        counts = expected_observations(protocol_m8, channel, 100.0)
        member = round_outcomes([protocol_m8] * 2, [counts] * 2, channel, budget_m8)[0]

        def singular(lp):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(keyrate, "solve_max", singular)
        assert lone_outcome(protocol_m8, counts, channel, budget_m8) == member
        assert member.diagnostics.status == "ok" and member.key_length > 0.0

    def test_rejects_unknown_mode(self, channel, budget_m8, protocol_m8):
        with pytest.raises(ValueError):
            analyze(protocol_m8, channel, 100.0, budget_m8, mode="exact")


class TestArrayForms:
    def test_round_arrays_are_the_scalar_calls(self, channel, budget_m8):
        # expected_counts and key_lengths over a search round give, entry for
        # entry, the floats of expected_observations and key_length.
        candidates, observations = first_search_round(channel, 8, 1e12, 240.0)
        counts = expected_counts(ProtocolArrays.of(candidates, 8), channel, 240.0)
        for k, want in enumerate(observations):
            got = (counts.n_2mu[k], counts.n_2nu[k], counts.n_0[k], counts.e_bit[k])
            assert got == (want.n_2mu, want.n_2nu, want.n_0, want.e_bit), k
        e_ph = np.random.default_rng(7).uniform(-0.1, 0.7, size=len(candidates))
        keys = keyrate.key_lengths(counts.n_bit, counts.e_bit, e_ph, channel, budget_m8)
        assert keys.tolist() == [
            key_length(c.n_bit, c.e_bit, e, channel, budget_m8)
            for c, e in zip(observations, e_ph.tolist())
        ]
        assert keys.any()


class TestBatching:
    # 84 members, in slices of 1, 2, 3 and 7.
    SIZE = 84

    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("n_total", [1e10, 1e14])
    def test_batching_never_changes_an_outcome(self, m, n_total):
        rng = np.random.default_rng(m * 1000 + int(np.log10(n_total)))
        budget = make_budget(n_phases=m, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)
        candidates, observations = random_round(rng, m, int(n_total), self.SIZE)
        full = round_outcomes(candidates, observations, TABLE1, budget)
        assert any(o.diagnostics.status == "ok" for o in full)
        order = rng.permutation(self.SIZE).tolist()
        shuffled = round_outcomes(
            [candidates[i] for i in order], [observations[i] for i in order], TABLE1, budget
        )
        assert shuffled == [full[i] for i in order]
        for width in (1, 2, 3, 7):
            sliced = [
                outcome
                for start in range(0, self.SIZE, width)
                for outcome in round_outcomes(
                    candidates[start:start + width], observations[start:start + width],
                    TABLE1, budget,
                )
            ]
            assert sliced == full, width


# The schema's search box for intensities and label probabilities.
INTENSITY = st.floats(1e-4, 0.5)
LABEL = st.floats(0.01, 0.98)
MEMBER = st.tuples(INTENSITY, INTENSITY, LABEL, LABEL, st.floats(6.0, 16.0))


class TestHonestChannel:
    """The honest channel's true class yields (tests/honest_channel.py), the
    physics and not the LP algebra, are a point of every phase-error LP
    built from expected counts, so each LP's n_ph bounds their even sum."""

    @given(
        m=st.integers(1, 32).map(lambda k: 2 * k),
        members=st.lists(MEMBER, min_size=1, max_size=4),
        l_km=st.floats(0.0, 500.0),
        detector_in_eta=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_truth_is_feasible_and_bounded(self, channel, m, members, l_km, detector_in_eta):
        budget = make_budget(n_phases=m, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)
        protocols = [
            ProtocolParams.make(mu, nu, p_mu, p_nu, m, int(10**exponent))
            for mu, nu, p_mu, p_nu, exponent in members
            if p_mu + p_nu <= 1.0
        ]
        assume(protocols)
        arrays = ProtocolArrays.of(protocols, m)
        counts = expected_counts(arrays, channel, l_km, detector_in_eta=detector_in_eta)
        batch = build_lps(arrays, counts, budget)
        solved = solve_separable(batch)
        for k, protocol in enumerate(protocols):
            x, y = honest_class_yields(protocol, channel, l_km, detector_in_eta)
            lp = batch.member(k)
            truth = np.concatenate([x, y]) / lp.scale
            np.testing.assert_allclose(lp.a_eq @ truth, lp.b_eq, rtol=1e-9, atol=0.0)
            # Rounding allowance of the oracle only: the slack at the truth
            # is orders of magnitude wider.
            rounding = 1e-12 * (np.abs(lp.a_ub) @ truth + np.abs(lp.b_ub))
            assert np.all(lp.a_ub @ truth <= lp.b_ub + rounding), k
            assert np.all(truth <= lp.upper * (1.0 + 1e-12)) and np.all(truth >= lp.lower), k
            even = x[0::2].sum()
            assert solved.status[k] == "optimal"
            assert solved.value[k] * lp.scale >= even * (1.0 - 1e-9)
            lone = analyze(protocol, channel, l_km, budget, detector_in_eta=detector_in_eta)
            assert lone.diagnostics.status == "ok"
            assert lone.n_ph_upper >= even * (1.0 - 1e-9)
