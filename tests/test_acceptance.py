"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions hold (run with -s to see them live).

The rate-distance criteria share three optimized sweeps at the published
channel parameters. Those sweeps use the transmittance formula without the
detector-efficiency factor and compare against the bare-fiber repeaterless
bound; that self-consistent placement reproduces the published crossing
near 250 km (folding the detector into both curves shifts nothing, folding
it into only one side moves the crossing out of the window).
"""

import dataclasses
import json

import numpy as np
import pytest

from tfqkd import (
    ChannelParams,
    ProtocolParams,
    analyze,
    end_to_end_plob,
    make_budget,
)
from tfqkd.cli import main
from tfqkd.numerics import chernoff_delta, folded_fidelity, folded_poisson
from tfqkd.optimize import SearchSpace, sweep
from tfqkd.simplex import solve_max

from lp_generators import brute_force_solve, paper_shaped_lp, random_lp

CHANNEL = ChannelParams(e_m=0.03, p_d=1e-8, xi=0.2, eta_d=0.3, f_ec=1.1)
BUDGET = make_budget(n_phases=8, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)

DISTANCES = [float(l) for l in range(150, 481, 10)]

# Brackets the useful operating regime (signal below decoy, both weak,
# signal label dominant); a wider box only costs extra refinement rounds.
SWEEP_SPACE = SearchSpace(
    mu_range=(0.005, 0.15),
    nu_range=(0.01, 0.4),
    p_mu_range=(0.5, 0.95),
    p_nu_range=(0.02, 0.4),
    grid_density=5,
    refinement_rounds=2,
)

L50_PARAMS = ProtocolParams(
    mu=0.05441223508137062,
    nu=0.012402643863071489,
    p_mu=0.9378993055555555,
    p_nu=0.04789062499999999,
    p_o=0.014210069444444556,
    n_phases=8,
    n_total=int(1e14),
)

L100_PARAMS = ProtocolParams(
    mu=0.03815687642409075,
    nu=0.17759977025808293,
    p_mu=0.8486458333333333,
    p_nu=0.08016782407407408,
    p_o=0.0711863425925926,
    n_phases=8,
    n_total=int(1e12),
)


def run_curve(n_total: int) -> list[float]:
    results = sweep(
        CHANNEL,
        DISTANCES,
        8,
        n_total,
        BUDGET,
        SWEEP_SPACE,
        detector_in_eta=False,
        threads=2,
    )
    return [report.key_rate for _, _, report in results]


@pytest.fixture(scope="module")
def curves():
    return {n: run_curve(int(n)) for n in (1e12, 1e13, 1e14)}


def test_criterion_1_security_budget_reproduction():
    budget = make_budget(
        n_phases=8, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20
    )
    assert abs(budget.eps_sec - 3.6566e-10) < 1e-24
    assert abs(budget.eps_tol - 4.6566e-10) < 1e-24
    print("\n[acceptance] criterion 1 (security budget reproduction): PASS")


def test_criterion_2_rate_distance_curve(curves):
    rates = curves[1e14]
    plob = [end_to_end_plob(CHANNEL, l) for l in DISTANCES]
    above = [r > p for r, p in zip(rates, plob)]
    crossings = [
        DISTANCES[i]
        for i in range(1, len(DISTANCES))
        if above[i] and not above[i - 1]
    ]
    assert crossings, "curve never crosses the repeaterless bound"
    assert 220.0 <= crossings[0] <= 280.0, f"first crossing at {crossings[0]} km"
    beyond = [r for l, r in zip(DISTANCES, rates) if 280.0 < l <= 400.0]
    assert all(r > 0.0 for r in beyond), "rate dies within 400 km"
    print(
        f"\n[acceptance] criterion 2 (rate-distance curve, crossing at "
        f"{crossings[0]:.0f} km): PASS"
    )


def test_criterion_3_curve_ordering(curves):
    r12, r13, r14 = curves[1e12], curves[1e13], curves[1e14]
    for l, a, b, c in zip(DISTANCES, r12, r13, r14):
        if a == b == c == 0.0:
            continue
        assert c >= b >= a, f"ordering violated at {l} km: {c} >= {b} >= {a}"
    max12 = max(l for l, r in zip(DISTANCES, r12) if r > 0.0)
    max14 = max(l for l, r in zip(DISTANCES, r14) if r > 0.0)
    assert max12 < max14, f"positive-rate reach: 1e12 to {max12}, 1e14 to {max14}"
    print(
        f"\n[acceptance] criterion 3 (curve ordering, reach {max12:.0f} vs "
        f"{max14:.0f} km): PASS"
    )


def test_criterion_4_lp_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    for _ in range(1000):
        lp = random_lp(rng)
        fast = solve_max(lp)
        slow = brute_force_solve(lp)
        assert fast.status == slow.status
        if fast.status == "optimal":
            scale = max(1.0, abs(slow.objective_value))
            assert abs(fast.objective_value - slow.objective_value) <= 1e-6 * scale
    for _ in range(50):
        lp = paper_shaped_lp(rng)
        fast = solve_max(lp)
        slow = brute_force_solve(lp)
        assert fast.status == slow.status == "optimal"
        scale = max(abs(slow.objective_value), 1e-12)
        assert abs(fast.objective_value - slow.objective_value) <= 1e-6 * scale
    print("\n[acceptance] criterion 4 (LP oracle equivalence, 1050 instances): PASS")


def test_criterion_5_constraint_tightening_monotonicity():
    for l_km in (50.0, 100.0, 150.0, 200.0, 250.0):
        values = [
            analyze(L100_PARAMS, CHANNEL, l_km, BUDGET, gap_scale=s).e_ph_upper
            for s in (0.5, 0.8, 1.0, 1.5)
        ]
        assert all(
            a <= b + 1e-12 for a, b in zip(values, values[1:])
        ), f"not monotone at {l_km} km: {values}"
    print("\n[acceptance] criterion 5 (constraint-tightening monotonicity): PASS")


def test_criterion_6_asymptotic_sanity():
    e_phs = []
    rates = []
    for n in (1.25e15, 2.5e15, 5e15, 1e16):
        proto = dataclasses.replace(L50_PARAMS, n_total=int(n))
        report = analyze(proto, CHANNEL, 50.0, BUDGET, detector_in_eta=False)
        assert report.key_rate > 0.0
        e_phs.append(report.e_ph_upper)
        rates.append(report.key_rate)
    for a, b in zip(e_phs, e_phs[1:]):
        assert abs(b - a) / a < 0.05, f"phase-error bound not converged: {e_phs}"
    steps = [abs(b - a) / a for a, b in zip(rates, rates[1:])]
    assert all(a >= b for a, b in zip(steps, steps[1:])), f"no plateau: {steps}"
    assert steps[-1] < 0.01
    print(
        f"\n[acceptance] criterion 6 (asymptotic sanity, e_ph -> "
        f"{e_phs[-1]:.4f}): PASS"
    )


def test_criterion_7_normalization_and_fidelity_suites():
    for m in (2, 4, 8, 16):
        for mean in (0.0, 0.1, 0.5, 1.0):
            total = sum(folded_poisson(j, mean, m) for j in range(m))
            assert abs(total - 1.0) <= 1e-12
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        m = int(rng.choice([2, 4, 8, 16]))
        j = int(rng.integers(0, m))
        a, b = rng.uniform(1e-4, 1.0, size=2)
        assert 0.0 <= folded_fidelity(j, a, b, m) <= 1.0
    for _ in range(100):
        m = int(rng.choice([2, 4, 8, 16]))
        j = int(rng.integers(0, m))
        x = rng.uniform(1e-4, 1.0)
        assert abs(folded_fidelity(j, x, x, m) - 1.0) <= 1e-12
    for _ in range(1000):
        x = rng.uniform(1.0, 1e10)
        y = rng.uniform(1e-6, 1.0)
        z = rng.uniform(1e-20, 0.9)
        base = chernoff_delta(x, y, z).value
        assert chernoff_delta(2 * x, y, z).value >= base
        assert chernoff_delta(x, min(1.0, 1.3 * y), z).value >= base
        assert chernoff_delta(x, y, min(0.95, 1.2 * z)).value <= base + 1e-9
    print("\n[acceptance] criterion 7 (normalization/fidelity suites): PASS")


def test_criterion_8_cli_determinism(tmp_path):
    cfg = {
        "channel": {"e_m": 0.03, "p_d": 1e-8, "xi": 0.2, "eta_d": 0.3, "f_ec": 1.1},
        "n_phases": 8,
        "n_total": 1e10,
        "budget": {"eps_total_pe": 4e-20, "eps_cor": 1e-10, "eps_pa": 1.6566e-10},
        "distances": [40.0, 80.0],
        "protocol": {"mu": 0.05, "nu": 0.1, "p_mu": 0.7, "p_nu": 0.2},
    }
    for mode_extra in ({}, {"mode": "sampled", "seed": 1234}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, **mode_extra}))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    print("\n[acceptance] criterion 8 (CLI determinism): PASS")
