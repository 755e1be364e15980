import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import numerics
from tfqkd.numerics import (
    binary_entropy,
    chernoff_delta,
    chernoff_deltas,
    folded_distinguishability,
    folded_fidelity,
    folded_poisson,
    plob_bound,
    poisson_pmf,
    vacuum_distinguishability,
    vacuum_fidelity,
)

# Golden values below were computed once with mpmath at 50 decimal digits
# (see tests/oracle_lp.py for the shared helpers) and frozen.


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_zero_entropy_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_golden_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestPoissonPmf:
    def test_vacuum_source(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_golden_values(self):
        assert poisson_pmf(0, 0.1) == pytest.approx(0.90483741803595957, rel=1e-14)
        assert poisson_pmf(3, 2.0) == pytest.approx(math.exp(-2.0) * 8 / 6, rel=1e-14)

    def test_log_space_branch(self):
        # k > 20 goes through lgamma; values frozen from mpmath
        assert poisson_pmf(25, 0.5) == pytest.approx(1.1653521684176517e-33, rel=1e-12)
        assert poisson_pmf(40, 3.0) == pytest.approx(7.4185952124122669e-31, rel=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(1, -0.5)

    @given(st.integers(min_value=0, max_value=60), st.floats(min_value=0.0, max_value=5.0))
    def test_is_probability(self, k, mean):
        p = poisson_pmf(k, mean)
        assert 0.0 <= p <= 1.0


class TestFoldedPoisson:
    def test_vacuum(self):
        assert folded_poisson(0, 0.0, 8) == 1.0

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("mean", [0.0, 0.05, 0.2, 0.7, 1.0])
    def test_completeness(self, m, mean):
        total = sum(folded_poisson(j, mean, m) for j in range(m))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_golden_tail_sum(self):
        # brute-force 50-term sums at high precision
        assert folded_poisson(1, 0.1, 8) == pytest.approx(0.090483741803598451, rel=1e-13)
        assert folded_poisson(3, 0.7, 4) == pytest.approx(0.028396241052234355, rel=1e-13)

    @pytest.mark.parametrize("j,m", [(-1, 8), (8, 8), (3, 3), (0, 0)])
    def test_domain_errors(self, j, m):
        with pytest.raises(ValueError):
            folded_poisson(j, 0.1, m)

    def test_truncation_safety(self, monkeypatch):
        baseline = [folded_poisson(j, mean, 8) for j in range(8) for mean in (0.1, 0.9)]
        monkeypatch.setattr(numerics, "TAIL_CUTOFF", 1e-40)
        tighter = [folded_poisson(j, mean, 8) for j in range(8) for mean in (0.1, 0.9)]
        for a, b in zip(baseline, tighter):
            assert a == pytest.approx(b, rel=1e-15)


class TestFoldedFidelity:
    def test_identical_states(self):
        assert folded_fidelity(2, 0.37, 0.37, 8) == 1.0

    def test_golden_value(self):
        assert folded_fidelity(0, 0.1, 0.2, 8) == pytest.approx(
            0.99999999285714295, abs=1e-12
        )

    def test_continuity_at_equality(self):
        assert folded_fidelity(0, 0.1, 0.1 + 1e-9, 8) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_on_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            m = int(rng.choice([2, 4, 8, 16]))
            j = int(rng.integers(0, m))
            a, b = rng.uniform(1e-4, 1.0, size=2)
            f = folded_fidelity(j, a, b, m)
            assert 0.0 <= f <= 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            folded_fidelity(1, 0.0, 0.0, 8)

    def test_consistency_with_distinguishability(self):
        # away from F ~ 1 both routes are well conditioned
        f = folded_fidelity(1, 0.05, 0.4, 8)
        s = folded_distinguishability(1, 0.05, 0.4, 8)
        assert s * s + f * f == pytest.approx(1.0, abs=1e-9)


class TestFoldedDistinguishability:
    def test_identical_states(self):
        assert folded_distinguishability(3, 0.2, 0.2, 8) == 0.0

    def test_golden_values(self):
        assert folded_distinguishability(0, 0.05, 0.1, 8) == pytest.approx(
            7.4701788081019062e-6, rel=1e-10
        )
        assert folded_distinguishability(1, 0.05, 0.4, 8) == pytest.approx(
            0.00067978611447266171, rel=1e-10
        )

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = int(rng.choice([2, 4, 8]))
            j = int(rng.integers(0, m))
            a, b = rng.uniform(1e-4, 1.0, size=2)
            assert 0.0 <= folded_distinguishability(j, a, b, m) <= 1.0


class TestVacuumFidelity:
    def test_vacuum_source(self):
        assert vacuum_fidelity(0.0, 8) == 1.0

    def test_golden_value(self):
        assert vacuum_fidelity(0.1, 8) == pytest.approx(0.99999999993650794, abs=1e-13)

    def test_composed_from_primitives(self):
        # ratio of the zero-photon probability to the folded class-0 weight,
        # both at the doubled two-pulse mean
        got = vacuum_fidelity(0.1, 8)
        want = poisson_pmf(0, 0.2) / folded_poisson(0, 0.2, 8)
        assert got == want

    @pytest.mark.parametrize("intensity", [0.01, 0.1, 0.5, 1.0])
    def test_in_unit_interval(self, intensity):
        assert 0.0 <= vacuum_fidelity(intensity, 8) <= 1.0

    def test_vacuum_distinguishability_golden(self):
        assert vacuum_distinguishability(0.05, 8) == pytest.approx(
            7.0429521227363281e-7, rel=1e-10
        )
        assert vacuum_distinguishability(0.0, 8) == 0.0


class TestChernoffDelta:
    def test_no_trials(self):
        assert chernoff_delta(0.0, 0.5, 1e-10).value == 0.0

    def test_zero_rate(self):
        assert chernoff_delta(123.0, 0.0, 1e-10).value == 0.0

    def test_golden_value(self):
        d = chernoff_delta(100.0, 0.5, math.exp(-1.0))
        assert d.value == pytest.approx(12.24744871391589, rel=1e-14)
        assert not d.clamped

    def test_negative_trials_clamped(self):
        d = chernoff_delta(-5.0, 0.5, 1e-10)
        assert d.value == 0.0
        assert d.clamped

    @pytest.mark.parametrize("z", [0.0, 1.0, -0.2, 1.5])
    def test_failure_probability_domain(self, z):
        with pytest.raises(ValueError):
            chernoff_delta(10.0, 0.5, z)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            chernoff_delta(10.0, 1.5, 0.1)

    def test_array_form(self):
        xs = np.array([[100.0, -5.0, 0.0], [7.0, 3e12, 2.5]])
        ys = np.array([[0.5, 0.5, 0.3], [0.0, 1e-3, 1.0]])
        z = 1e-20
        value, clamped = chernoff_deltas(xs, ys, z)
        assert value.shape == clamped.shape == xs.shape
        assert clamped.tolist() == [[False, True, False], [False, False, False]]
        want = [
            math.sqrt(3.0 * x * y * math.log(1.0 / z)) if x > 0.0 and y > 0.0 else 0.0
            for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())
        ]
        assert value.ravel().tolist() == want

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_array_rate_domain(self, bad):
        with pytest.raises(ValueError, match="per-trial rate"):
            chernoff_deltas(np.ones(3), np.array([0.5, bad, 0.5]), 0.1)

    @given(
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-30, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_monotonicity(self, x, y, z):
        base = chernoff_delta(x, y, z).value
        assert chernoff_delta(2.0 * x, y, z).value >= base
        assert chernoff_delta(x, min(1.0, 1.5 * y), z).value >= base
        assert chernoff_delta(x, y, min(0.99, z * 1.5)).value <= base + 1e-9


class TestPlobBound:
    def test_half_transmittance(self):
        assert plob_bound(0.5) == 1.0

    def test_quarter_survival(self):
        assert plob_bound(0.75) == 2.0

    def test_long_distance_point(self):
        # eta = 10^(-0.02 * 250): the 250 km fiber comparison point
        assert plob_bound(10.0 ** (-0.02 * 250)) == pytest.approx(
            1.442702254412258e-5, rel=1e-12
        )

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.5, 2.0])
    def test_domain_errors(self, eta):
        with pytest.raises(ValueError):
            plob_bound(eta)
