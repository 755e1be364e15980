"""Deterministic dense LP solving: a two-phase bounded-variable simplex
with Bland's anti-cycling rule, plus a vertex-enumeration oracle for
testing small instances."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .constraints import LinearProgram

# Pivot eligibility threshold and default feasibility slack. The reduced-cost
# optimality tolerance is 1e-9 relative to the largest objective coefficient.
PIVOT_EPS = 1e-10
OPT_TOL = 1e-9
FEAS_TOL = 1e-9
MAX_PIVOTS = 20000


@dataclass
class LPSolution:
    """Solver outcome. variable_values / objective_value are in the LP's own
    units (rescaled instances carry their scale separately). row_duals are
    ordered [equality rows..., inequality rows...]."""

    status: str
    objective_value: float
    variable_values: np.ndarray
    iterations: int
    row_duals: np.ndarray = field(default_factory=lambda: np.empty(0))
    reduced_costs: np.ndarray = field(default_factory=lambda: np.empty(0))


class _Tableau:
    """Simplex working state over the standard form A x = b, lo <= x <= up
    (structural variables, slacks, then artificials)."""

    def __init__(self, lp: LinearProgram):
        lp.validate()
        if not np.all(np.isfinite(lp.lower)):
            raise ValueError("lower bounds must be finite")
        n = lp.num_vars
        m_eq = lp.a_eq.shape[0]
        m_ub = lp.a_ub.shape[0]
        m = m_eq + m_ub
        self.n_struct = n
        self.n_real = n + m_ub
        self.m = m

        a_real = np.zeros((m, self.n_real))
        if m_eq:
            a_real[:m_eq, :n] = lp.a_eq
        if m_ub:
            a_real[m_eq:, :n] = lp.a_ub
            a_real[m_eq:, n : self.n_real] = np.eye(m_ub)
        b = np.concatenate([lp.b_eq, lp.b_ub])

        # All real variables start nonbasic at their lower bound. Slack
        # columns cover inequality rows with nonnegative residual; only
        # equality rows and sign-violated inequality rows get artificials.
        x_init = np.concatenate([lp.lower, np.zeros(m_ub)])
        resid = b - a_real @ x_init
        art_rows = [i for i in range(m) if i < m_eq or resid[i] < 0.0]
        n_art = len(art_rows)

        a = np.zeros((m, self.n_real + n_art))
        a[:, : self.n_real] = a_real
        diag = np.ones(m)
        basis = [0] * m
        x_basic = resid.copy()
        for k, i in enumerate(art_rows):
            sgn = 1.0 if resid[i] >= 0.0 else -1.0
            a[i, self.n_real + k] = sgn
            diag[i] = sgn
            basis[i] = self.n_real + k
            x_basic[i] = abs(resid[i])
        for i in range(m_eq, m):
            if resid[i] >= 0.0:
                basis[i] = n + (i - m_eq)

        self.n_art = n_art
        self.a = a
        self.b = b
        self.lo = np.concatenate([lp.lower, np.zeros(m_ub), np.zeros(n_art)])
        self.up = np.concatenate(
            [lp.upper, np.full(m_ub, np.inf), np.full(n_art, np.inf)]
        )
        self.basis = basis
        self.at_upper = np.zeros(a.shape[1], dtype=bool)
        self.is_basic = np.zeros(a.shape[1], dtype=bool)
        self.is_basic[self.basis] = True
        self.tab = a / diag[:, None]  # B^{-1} A for the initial diagonal basis
        self.x_basic = x_basic
        self.iterations = 0

    def nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.at_upper, self.up, self.lo)
        return vals

    def refresh(self) -> None:
        """Recompute B^{-1}A and basic values from scratch (guards against
        accumulated pivot roundoff)."""
        bmat = self.a[:, self.basis]
        self.tab = np.linalg.solve(bmat, self.a)
        vals = self.nonbasic_values().copy()
        vals[self.basis] = 0.0
        self.x_basic = np.linalg.solve(bmat, self.b - self.a @ vals)

    def run(self, c: np.ndarray) -> str:
        """Simplex iterations maximizing c . x from the current basis.
        Returns "optimal" or "unbounded"."""
        scale = np.max(np.abs(c))
        tol = OPT_TOL * max(1.0, scale)
        while True:
            if self.iterations >= MAX_PIVOTS:
                raise RuntimeError("simplex exceeded pivot limit")
            d = c - c[self.basis] @ self.tab
            eligible = ~self.is_basic & (
                (~self.at_upper & (d > tol)) | (self.at_upper & (d < -tol))
            )
            if not eligible.any():
                return "optimal"
            j = int(np.argmax(eligible))  # lowest eligible index (Bland)
            t = -1.0 if self.at_upper[j] else 1.0
            step = -t * self.tab[:, j]  # d(x_basic)/d(theta)

            lo_b = self.lo[self.basis]
            up_b = self.up[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.full(self.m, np.inf)
                dec = step < -PIVOT_EPS
                ratio[dec] = (self.x_basic[dec] - lo_b[dec]) / -step[dec]
                inc = step > PIVOT_EPS
                ratio[inc] = (up_b[inc] - self.x_basic[inc]) / step[inc]
            ratio = np.maximum(ratio, 0.0)  # degenerate negatives are zero steps
            theta_rows = ratio.min() if self.m else np.inf
            theta_bound = self.up[j] - self.lo[j]
            theta = min(theta_rows, theta_bound)
            if not np.isfinite(theta):
                return "unbounded"
            self.iterations += 1
            if theta_bound <= theta_rows:
                # Bound flip: j swaps ends without entering the basis.
                self.x_basic += theta * step
                self.at_upper[j] = ~self.at_upper[j]
                continue
            tie = ratio <= theta + 1e-12 * (1.0 + theta)
            rows = np.flatnonzero(tie)
            r = rows[np.argmin(np.asarray(self.basis)[rows])]  # Bland tie-break
            leaving = self.basis[r]

            self.x_basic += theta * step
            enter_val = self.lo[j] + theta if t > 0 else self.up[j] - theta
            self.basis[r] = j
            self.is_basic[leaving] = False
            self.is_basic[j] = True
            self.at_upper[leaving] = step[r] > 0.0  # hit its upper bound
            self.at_upper[j] = False
            self.x_basic[r] = enter_val

            piv = self.tab[r, j]
            self.tab[r, :] /= piv
            col = self.tab[:, j].copy()
            col[r] = 0.0
            self.tab -= np.outer(col, self.tab[r, :])

    def solution_vector(self) -> np.ndarray:
        x = self.nonbasic_values().copy()
        x[self.basis] = self.x_basic
        return x


def solve_max(lp: LinearProgram) -> LPSolution:
    """Maximize the LP objective with a two-phase bounded-variable simplex.

    Identical inputs produce identical outputs: entering variables take the
    lowest eligible index and ratio-test ties resolve to the lowest basic
    variable index.
    """
    tb = _Tableau(lp)
    n_all = tb.a.shape[1]

    if tb.n_art:
        c_phase1 = np.zeros(n_all)
        c_phase1[tb.n_real :] = -1.0
        tb.run(c_phase1)
        tb.refresh()
        art_sum = float(np.sum(tb.solution_vector()[tb.n_real :]))
        if art_sum > FEAS_TOL * max(1.0, float(np.max(np.abs(tb.b), initial=0.0))):
            return LPSolution("infeasible", np.nan, np.empty(0), tb.iterations)

    # Pin the artificials at zero and optimize the real objective.
    tb.up[tb.n_real :] = 0.0
    c_phase2 = np.zeros(n_all)
    c_phase2[: tb.n_struct] = lp.objective
    status = tb.run(c_phase2)
    if status == "unbounded":
        return LPSolution("unbounded", np.inf, np.empty(0), tb.iterations)
    tb.refresh()

    x = tb.solution_vector()
    x_struct = x[: tb.n_struct].copy()
    bmat = tb.a[:, tb.basis]
    y = np.linalg.solve(bmat.T, c_phase2[tb.basis])
    reduced = lp.objective - y @ tb.a[:, : tb.n_struct]
    return LPSolution(
        status="optimal",
        objective_value=float(lp.objective @ x_struct),
        variable_values=x_struct,
        iterations=tb.iterations,
        row_duals=y,
        reduced_costs=reduced,
    )


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


def load_lp(path) -> LinearProgram:
    """Parse the tab-separated dump emitted by the constraint builder."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != "tfqkd-lp 1":
        raise ValueError(f"{path}: not a tfqkd LP dump")
    nvars = None
    scale = 1.0
    objective = None
    eqs: list[list[float]] = []
    ubs: list[list[float]] = []
    bounds: list[tuple[float, float]] = []
    for ln in lines[1:]:
        tag, *vals = ln.split("\t")
        if tag == "nvars":
            nvars = int(vals[0])
        elif tag == "scale":
            scale = float(vals[0])
        elif tag == "objective":
            objective = [float(v) for v in vals]
        elif tag == "eq":
            eqs.append([float(v) for v in vals])
        elif tag == "le":
            ubs.append([float(v) for v in vals])
        elif tag == "bound":
            bounds.append((float(vals[0]), float(vals[1])))
        else:
            raise ValueError(f"{path}: unknown record {tag!r}")
    if nvars is None or objective is None or len(objective) != nvars:
        raise ValueError(f"{path}: malformed dump")
    if len(bounds) != nvars:
        raise ValueError(f"{path}: expected {nvars} bound records")
    eq_arr = np.array(eqs) if eqs else np.zeros((0, nvars + 1))
    ub_arr = np.array(ubs) if ubs else np.zeros((0, nvars + 1))
    lp = LinearProgram(
        objective=np.array(objective),
        a_eq=eq_arr[:, :nvars],
        b_eq=eq_arr[:, nvars],
        a_ub=ub_arr[:, :nvars],
        b_ub=ub_arr[:, nvars],
        lower=np.array([b[0] for b in bounds]),
        upper=np.array([b[1] for b in bounds]),
        scale=scale,
    )
    lp.validate()
    return lp
