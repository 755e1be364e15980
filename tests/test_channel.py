import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import (
    ChannelParams,
    ObservedCounts,
    ProtocolParams,
    click_probabilities,
    expected_observations,
    half_channel_transmittance,
    sample_observations,
)


class TestParamValidation:
    def test_channel_ranges(self):
        with pytest.raises(ValueError):
            ChannelParams(e_m=0.6, p_d=1e-8, xi=0.2, eta_d=0.3, f_ec=1.1)
        with pytest.raises(ValueError):
            ChannelParams(e_m=0.03, p_d=1.0, xi=0.2, eta_d=0.3, f_ec=1.1)
        with pytest.raises(ValueError):
            ChannelParams(e_m=0.03, p_d=1e-8, xi=0.2, eta_d=0.0, f_ec=1.1)
        with pytest.raises(ValueError):
            ChannelParams(e_m=0.03, p_d=1e-8, xi=0.2, eta_d=0.3, f_ec=0.9)

    def test_protocol_probability_sum(self):
        with pytest.raises(ValueError):
            ProtocolParams(0.05, 0.1, 0.5, 0.3, 0.3, 8, 1000)

    def test_protocol_odd_phase_count(self):
        with pytest.raises(ValueError):
            ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 7, 1000)

    def test_make_fills_vacuum_probability(self):
        p = ProtocolParams.make(0.05, 0.1, 0.6, 0.3, 8, 1000)
        assert p.p_o == pytest.approx(0.1, abs=1e-15)

    def test_counts_tie_n_bit_to_signal(self):
        counts = ObservedCounts(n_2mu=10.0, n_2nu=5.0, n_0=1.0, e_bit=0.1)
        assert counts.n_bit == counts.n_2mu == 10.0


class TestHalfChannelTransmittance:
    def test_zero_distance_perfect_detector(self, channel):
        perfect = ChannelParams(0.03, 1e-8, 0.2, 1.0, 1.1)
        assert half_channel_transmittance(0.0, perfect) == 1.0

    def test_closed_form_100km(self):
        ch = ChannelParams(0.03, 1e-8, 0.2, 1.0, 1.1)
        assert half_channel_transmittance(100.0, ch) == pytest.approx(0.1, rel=1e-12)

    def test_detector_factor(self, channel):
        assert half_channel_transmittance(100.0, channel) == pytest.approx(0.03, rel=1e-12)
        assert half_channel_transmittance(
            100.0, channel, include_detector=False
        ) == pytest.approx(0.1, rel=1e-12)


class TestClickProbabilities:
    def test_vacuum_gives_dark_counts_only(self, channel):
        qc, qe = click_probabilities(0.0, 0.5, channel)
        want = channel.p_d * (1.0 - channel.p_d)
        assert qc == pytest.approx(want, rel=1e-12)
        assert qe == pytest.approx(want, rel=1e-12)

    def test_perfect_interference_no_darks(self):
        ch = ChannelParams(e_m=0.0, p_d=0.0, xi=0.2, eta_d=1.0, f_ec=1.1)
        qc, qe = click_probabilities(0.1, 0.3, ch)
        assert qc == pytest.approx(1.0 - math.exp(-2.0 * 0.3 * 0.1), rel=1e-12)
        assert qe == 0.0

    def test_golden_pair(self, channel):
        # frozen from a 50-digit evaluation of the closed forms
        qc, qe = click_probabilities(0.05, 0.03, channel)
        assert qc == pytest.approx(0.0029055184874952966, rel=1e-13)
        assert qe == pytest.approx(8.9744411732160036e-5, rel=1e-13)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_click_sum_bounded(self, beta, eta, e_m, p_d):
        ch = ChannelParams(e_m=e_m, p_d=p_d, xi=0.2, eta_d=0.5, f_ec=1.1)
        qc, qe = click_probabilities(beta, eta, ch)
        assert 0.0 <= qc <= 1.0
        assert 0.0 <= qe <= 1.0
        assert qc + qe <= 1.0 + 1e-12


class TestExpectedObservations:
    def test_no_clicks_degenerate(self):
        # A signal that never clicks gives zero signal counts, e_bit 0, in
        # both modes; the decoy still clicks.
        ch = ChannelParams(e_m=0.03, p_d=0.0, xi=0.2, eta_d=0.3, f_ec=1.1)
        proto = ProtocolParams(0.0, 0.1, 0.6, 0.3, 0.1, 8, 1000)
        obs = expected_observations(proto, ch, 100.0)
        assert (obs.n_2mu, obs.n_bit, obs.e_bit) == (0.0, 0.0, 0.0)
        assert obs.n_2nu > 0.0
        drawn = sample_observations(proto, ch, 100.0, seed=3)
        assert (drawn.n_2mu, drawn.n_bit, drawn.e_bit) == (0.0, 0.0, 0.0)

    def test_unused_labels_give_zero_counts(self, channel):
        proto = ProtocolParams(0.05, 0.1, 1.0, 0.0, 0.0, 8, int(1e10))
        obs = expected_observations(proto, channel, 50.0)
        assert obs.n_2nu == 0.0
        assert obs.n_0 == 0.0
        assert obs.n_bit == obs.n_2mu > 0.0

    def test_golden_composition(self, channel, protocol_m8):
        obs = expected_observations(protocol_m8, channel, 100.0)
        # independently recompute from the click formulas
        eta = 10.0 ** (-0.2 * 100.0 / 20.0) * 0.3
        qc_mu, qe_mu = click_probabilities(0.05, eta, channel)
        qc_nu, qe_nu = click_probabilities(0.1, eta, channel)
        qc_0, qe_0 = click_probabilities(0.0, eta, channel)
        n = 1e12
        assert obs.n_2mu == pytest.approx(n * 0.36 * 2 * (qc_mu + qe_mu) / 8, rel=1e-12)
        assert obs.n_2nu == pytest.approx(n * 0.09 * 2 * (qc_nu + qe_nu) / 8, rel=1e-12)
        assert obs.n_0 == pytest.approx(n * 0.01 * (qc_0 + qe_0), rel=1e-12)
        assert obs.e_bit == pytest.approx(qe_mu / (qc_mu + qe_mu), rel=1e-12)
        # frozen absolute anchors from the high-precision oracle
        assert obs.n_2mu == pytest.approx(269573660.9304711, rel=1e-11)
        assert obs.n_2nu == pytest.approx(134572754.32265028, rel=1e-11)
        assert obs.n_0 == pytest.approx(199.999998, rel=1e-11)

    def test_monotone_in_distance(self, channel, protocol_m8):
        values = [
            expected_observations(protocol_m8, channel, l).n_2mu
            for l in range(0, 401, 25)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_counts_linear_in_rounds(self, channel):
        p1 = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 8, int(1e10))
        p2 = ProtocolParams(0.05, 0.1, 0.6, 0.3, 0.1, 8, int(3e10))
        o1 = expected_observations(p1, channel, 80.0)
        o2 = expected_observations(p2, channel, 80.0)
        assert o2.n_2mu == pytest.approx(3.0 * o1.n_2mu, rel=1e-12)
        assert o2.n_2nu == pytest.approx(3.0 * o1.n_2nu, rel=1e-12)
        assert o2.n_0 == pytest.approx(3.0 * o1.n_0, rel=1e-12)
        assert o2.e_bit == o1.e_bit

    def test_error_rate_approaches_misalignment(self):
        # with negligible darks and beta*eta -> 0 the error rate is e_m
        ch = ChannelParams(e_m=0.03, p_d=0.0, xi=0.2, eta_d=1.0, f_ec=1.1)
        proto = ProtocolParams(1e-3, 0.1, 0.6, 0.3, 0.1, 8, int(1e12))
        obs = expected_observations(proto, ch, 60.0)  # beta*eta ~ 1e-6 regime
        assert obs.e_bit == pytest.approx(0.03, abs=1e-3)


class TestSampleObservations:
    def test_same_seed_identical(self, channel, protocol_m8):
        a = sample_observations(protocol_m8, channel, 100.0, seed=42)
        b = sample_observations(protocol_m8, channel, 100.0, seed=42)
        assert a == b

    def test_different_seed_differs(self, channel, protocol_m8):
        a = sample_observations(protocol_m8, channel, 100.0, seed=1)
        b = sample_observations(protocol_m8, channel, 100.0, seed=2)
        assert a != b

    def test_concentration(self, channel, protocol_m8):
        mean = expected_observations(protocol_m8, channel, 100.0)
        for seed in range(100):
            obs = sample_observations(protocol_m8, channel, 100.0, seed=seed)
            for field in ("n_2mu", "n_2nu", "n_0"):
                m = getattr(mean, field)
                assert abs(getattr(obs, field) - m) <= 6.0 * math.sqrt(m) + 1.0

    def test_zero_mean_fields_stay_zero(self, channel):
        proto = ProtocolParams(0.05, 0.1, 1.0, 0.0, 0.0, 8, int(1e10))
        obs = sample_observations(proto, channel, 50.0, seed=3)
        assert obs.n_2nu == 0.0
        assert obs.n_0 == 0.0

    def test_counts_are_integers(self, channel, protocol_m8):
        obs = sample_observations(protocol_m8, channel, 100.0, seed=9)
        for field in ("n_2mu", "n_2nu", "n_0"):
            v = getattr(obs, field)
            assert v == int(v)
