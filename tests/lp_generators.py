"""Shared random-LP generators and the vertex-enumeration oracle for the
solver comparison tests."""

import dataclasses
import itertools

import numpy as np

from tfqkd import ChannelParams, ProtocolParams, build_lp, expected_observations, make_budget
from tfqkd.channel import sample_observations
from tfqkd.constraints import LinearProgram, LPBatch
from tfqkd.optimize import _geom_grid, _lin_grid
from tfqkd.simplex import LPSolution

TABLE1 = ChannelParams(e_m=0.03, p_d=1e-8, xi=0.2, eta_d=0.3, f_ec=1.1)


def random_lp(rng) -> LinearProgram:
    """Dense instance (2..6 vars) anchored at a feasible point most of the
    time; the margin noise makes a fraction infeasible on purpose."""
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(1, 6))
    a_eq = rng.normal(size=(m_eq, n))
    a_ub = rng.normal(size=(m_ub, n))
    upper = rng.uniform(0.5, 3.0, size=n)
    x0 = rng.uniform(0, 1, size=n) * upper
    return LinearProgram(
        objective=rng.normal(size=n),
        a_eq=a_eq,
        b_eq=a_eq @ x0,
        a_ub=a_ub,
        b_ub=a_ub @ x0 + rng.uniform(-0.5, 1.0, size=m_ub),
        lower=np.zeros(n),
        upper=upper,
    )


def paper_shaped_case(rng):
    """Protocol, observations and budget of a two-phase-class phase-error
    instance at a randomized operating point (brute-forceable: 4
    variables)."""
    mu, nu = sorted(rng.uniform(0.01, 0.4, size=2))
    p_mu, p_nu = rng.dirichlet([4, 2, 1])[:2]
    n_total = int(10 ** rng.uniform(9, 13))
    proto = ProtocolParams.make(mu, nu, p_mu, p_nu, 2, n_total)
    budget = make_budget(n_phases=2, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)
    counts = expected_observations(proto, TABLE1, float(rng.uniform(10, 250)))
    return proto, counts, budget


def paper_shaped_lp(rng) -> LinearProgram:
    """The rescaled phase-error LP of paper_shaped_case."""
    return build_lp(*paper_shaped_case(rng))


def concat_batches(batches) -> LPBatch:
    """Batches of one M as one batch; members may differ in n_total."""
    names = ("b_eq", "b_ub", "upper", "scale", "coeff_left", "coeff_right", "delta")
    return LPBatch(**{name: np.concatenate([getattr(b, name) for b in batches]) for name in names})


def random_round(rng, n_phases, n_total, size):
    """Candidates and observations of a random round at one n_total:
    intensities log-uniform in [1e-3, 0.5] (one in ten with nu = mu),
    probabilities from a Dirichlet draw, 0-450 km, expected or sampled
    counts, and one in thirty with tripled decoy counts, which the gap
    bounds rule out."""
    candidates, observations = [], []
    while len(candidates) < size:
        mu, nu = np.exp(rng.uniform(np.log(1e-3), np.log(0.5), size=2))
        if rng.random() < 0.1:
            nu = mu
        p_mu, p_nu = rng.dirichlet([4, 2, 1])[:2]
        proto = ProtocolParams.make(mu, nu, p_mu, p_nu, n_phases, n_total)
        l_km = float(rng.uniform(0, 450))
        if rng.random() < 0.5:
            counts = expected_observations(proto, TABLE1, l_km)
        else:
            counts = sample_observations(proto, TABLE1, l_km, int(rng.integers(1000)))
        if counts.n_bit <= 0.0:
            continue
        if rng.random() < 1 / 30:
            counts = dataclasses.replace(counts, n_2nu=3.0 * counts.n_2nu + 1.0)
        candidates.append(proto)
        observations.append(counts)
    return candidates, observations


def sampled_low_n_round(channel, n_total):
    """Candidates and sampled observations at 0-60 km and a low n_total,
    where every LP clamps some gap bound."""
    rng = np.random.default_rng(int(n_total))
    candidates, observations = [], []
    for seed in range(60):
        mu, nu = rng.uniform(0.01, 0.4, size=2)
        p_mu, p_nu = rng.dirichlet([4, 2, 1])[:2]
        proto = ProtocolParams.make(mu, nu, p_mu, p_nu, 8, int(n_total))
        candidates.append(proto)
        observations.append(sample_observations(proto, channel, float(rng.uniform(0, 60)), seed))
    return candidates, observations


def first_search_round(channel, n_phases, n_total, l_km):
    """Candidates and observations of the first search round of
    scripts/rate_distance.py."""
    candidates, observations = [], []
    for mu, nu, p_mu, p_nu in itertools.product(
        _geom_grid(0.005, 0.15, 5),
        _geom_grid(0.01, 0.4, 5),
        _lin_grid(0.5, 0.95, 5),
        _lin_grid(0.02, 0.4, 5),
    ):
        if p_mu + p_nu > 1.0 + 1e-12:
            continue
        proto = ProtocolParams.make(mu, nu, p_mu, p_nu, n_phases, int(n_total))
        candidates.append(proto)
        observations.append(expected_observations(proto, channel, l_km))
    return candidates, observations


def brute_force_solve(lp: LinearProgram, max_vars: int = 10) -> LPSolution:
    """Enumerate every basic point from active-constraint subsets and return
    the feasible maximum. Test oracle only: requires few variables and
    finite boxes.
    """
    lp.validate()
    n = lp.num_vars
    if n > max_vars:
        raise ValueError(f"brute force capped at {max_vars} variables, got {n}")
    if not (np.all(np.isfinite(lp.lower)) and np.all(np.isfinite(lp.upper))):
        raise ValueError("brute force requires finite variable boxes")

    # Candidate active constraints beyond the equalities: inequality rows and
    # both box faces of every variable.
    rows = [(np.asarray(a, dtype=float), float(b)) for a, b in zip(lp.a_ub, lp.b_ub)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e.copy(), float(lp.upper[i])))
        rows.append((-e, float(-lp.lower[i])))

    a_eq = np.asarray(lp.a_eq, dtype=float).reshape(-1, n)
    b_eq = np.asarray(lp.b_eq, dtype=float)
    rank_eq = np.linalg.matrix_rank(a_eq) if a_eq.size else 0
    n_extra = n - rank_eq

    mags = [1.0, float(np.max(np.abs(lp.upper)))]
    if len(lp.b_ub):
        mags.append(float(np.max(np.abs(lp.b_ub))))
    tol = 1e-9 * max(mags)

    def feasible(x: np.ndarray) -> bool:
        if a_eq.size and np.max(np.abs(a_eq @ x - b_eq)) > tol:
            return False
        if len(lp.b_ub) and np.max(lp.a_ub @ x - lp.b_ub) > tol:
            return False
        return bool(np.all(x >= lp.lower - tol) and np.all(x <= lp.upper + tol))

    best_val = -np.inf
    best_x = None
    for combo in itertools.combinations(range(len(rows)), n_extra):
        mats = [a_eq] if a_eq.size else []
        rhs = [b_eq] if a_eq.size else []
        for k in combo:
            mats.append(rows[k][0][None, :])
            rhs.append(np.array([rows[k][1]]))
        mat = np.vstack(mats) if mats else np.zeros((0, n))
        vec = np.concatenate(rhs) if rhs else np.zeros(0)
        x, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        if mat.size and np.max(np.abs(mat @ x - vec)) > tol:
            continue  # inconsistent active set
        if feasible(x):
            val = float(lp.objective @ x)
            if val > best_val:
                best_val = val
                best_x = x
    if best_x is None:
        return LPSolution("infeasible", np.nan, np.empty(0), 0)
    return LPSolution("optimal", best_val, best_x, 0)
