"""Deterministic dense LP solving: a two-phase bounded-variable simplex
with Bland's anti-cycling rule, for one LP at a time (solve_max) or for many
LPs pivoted together on stacked tableaux (solve_max_batch)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import LinearProgram, LPBatch

# Pivot eligibility threshold and default feasibility slack. The reduced-cost
# optimality tolerance is 1e-9 relative to the largest objective coefficient.
PIVOT_EPS = 1e-10
OPT_TOL = 1e-9
FEAS_TOL = 1e-9
MAX_PIVOTS = 20000
# Most LPs stacked into one batched tableau, and most unsolved LPs held by
# solve_max_batch. Stacks of this size are as fast as a whole search round
# (hundreds of LPs) at once, and keep the memory held small.
BATCH_CHUNK = 32


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


def _real_system(batch: LPBatch, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For members ids of the batch: the constraint matrix [A_eq 0; A_ub I]
    over the structural and slack variables, the right-hand side b, and the
    residual b - A x0 at the start point x0 (structural variables at their
    lower bounds, slacks at zero)."""
    a_eq, a_ub = batch.a_eq[ids], batch.a_ub[ids]
    count, m_eq, n = a_eq.shape
    m_ub = a_ub.shape[1]
    a_real = np.zeros((count, m_eq + m_ub, n + m_ub))
    a_real[:, :m_eq, :n] = a_eq
    a_real[:, m_eq:, :n] = a_ub
    a_real[:, m_eq:, n:] = np.eye(m_ub)
    b = np.concatenate([batch.b_eq[ids], batch.b_ub[ids]], axis=1)
    x_init = np.concatenate([batch.lower[ids], np.zeros((count, m_ub))], axis=1)
    resid = b - (a_real @ x_init[:, :, None])[:, :, 0]
    return a_real, b, resid


def _start(batch: LPBatch, ids) -> dict:
    """Initial simplex state of members ids of the batch, which need the
    same number of artificial columns, stacked along a leading axis: the
    standard form A x = b, lo <= x <= up over the structural variables,
    slacks, then artificials, and the initial basis."""
    a_real, b, resid = _real_system(batch, ids)
    count, m, n_real = a_real.shape
    n = batch.num_vars
    m_eq = batch.a_eq.shape[1]
    # All real variables start nonbasic at their lower bound. Slack
    # columns cover inequality rows with nonnegative residual; only
    # equality rows and sign-violated inequality rows get artificials,
    # numbered in row order.
    art = resid < 0.0
    art[:, :m_eq] = True
    n_art = int(art[0].sum())
    member, row = np.nonzero(art)
    col = n_real + (np.cumsum(art, axis=1) - 1)[member, row]
    sgn = np.where(resid >= 0.0, 1.0, -1.0)

    a = np.zeros((count, m, n_real + n_art))
    a[:, :, :n_real] = a_real
    a[member, row, col] = sgn[member, row]
    diag = np.where(art, sgn, 1.0)
    basis = np.where(resid >= 0.0, n - m_eq + np.arange(m), 0)
    basis[member, row] = col
    is_basic = np.zeros(a.shape[::2], dtype=bool)
    np.put_along_axis(is_basic, basis, True, axis=1)
    pad = np.zeros((count, n_real + n_art - n))
    return {
        "n_struct": n,
        "n_real": n_real,
        "m": m,
        "n_art": n_art,
        "objective": batch.objective[ids],
        "a": a,
        "b": b,
        "lo": np.concatenate([batch.lower[ids], pad], axis=1),
        "up": np.concatenate([batch.upper[ids], pad + np.inf], axis=1),
        "basis": basis,
        "at_upper": np.zeros(a.shape[::2], dtype=bool),
        "is_basic": is_basic,
        "tab": a / diag[:, :, None],  # B^{-1} A for the initial diagonal basis
        "x_basic": np.where(art, np.abs(resid), resid),
    }


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
        self.objective = lp.objective

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
            # Each division is masked to |step| > PIVOT_EPS.
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

    def solve(self) -> LPSolution:
        """solve_max on this tableau's LP."""
        n_all = self.a.shape[1]

        if self.n_art:
            c_phase1 = np.zeros(n_all)
            c_phase1[self.n_real :] = -1.0
            self.run(c_phase1)
            self.refresh()
            art_sum = float(np.sum(self.solution_vector()[self.n_real :]))
            if art_sum > FEAS_TOL * max(1.0, float(np.max(np.abs(self.b), initial=0.0))):
                return LPSolution("infeasible", np.nan, np.empty(0), self.iterations)

        # Pin the artificials at zero and optimize the real objective.
        self.up[self.n_real :] = 0.0
        c_phase2 = np.zeros(n_all)
        c_phase2[: self.n_struct] = self.objective
        status = self.run(c_phase2)
        if status == "unbounded":
            return LPSolution("unbounded", np.inf, np.empty(0), self.iterations)
        self.refresh()

        x = self.solution_vector()
        x_struct = x[: self.n_struct].copy()
        bmat = self.a[:, self.basis]
        y = np.linalg.solve(bmat.T, c_phase2[self.basis])
        reduced = self.objective - y @ self.a[:, : self.n_struct]
        return LPSolution(
            status="optimal",
            objective_value=float(self.objective @ x_struct),
            variable_values=x_struct,
            iterations=self.iterations,
            row_duals=y,
            reduced_costs=reduced,
        )


def solve_max(lp: LinearProgram) -> LPSolution:
    """Maximize the LP objective with a two-phase bounded-variable simplex.

    Identical inputs produce identical outputs: entering variables take the
    lowest eligible index and ratio-test ties resolve to the lowest basic
    variable index.
    """
    return _Tableau(lp).solve()


# Per-member simplex state that _Stack.run keeps for its caller; the
# tableau and basic values it leaves stale are recomputed by refresh.
_RUN_STATE = ("basis", "at_upper", "is_basic", "iterations")


class _Stack:
    """The simplex states of members ids of a batch, which need the
    same number of artificial columns, stacked along a leading member axis
    and pivoted together. Member k is the batch's member ids[k].

    Each member repeats the arithmetic _Tableau does on it alone: the
    elementwise steps are the same operations, every reduction runs within
    one member, and the stacked products and solves call the same BLAS and
    LAPACK routines on operands of the same shape. So each member takes the
    same pivots and ends with the same numbers as under solve_max.
    """

    def __init__(self, batch: LPBatch, ids: np.ndarray):
        vars(self).update(_start(batch, ids))
        self.ids = ids
        self.iterations = np.zeros(len(ids), dtype=np.int64)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the members where mask is False."""
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])

    def solution_vectors(self) -> np.ndarray:
        x = np.where(self.at_upper, self.up, self.lo)
        np.put_along_axis(x, self.basis, self.x_basic, axis=1)
        return x

    def refresh(self) -> np.ndarray:
        """_Tableau.refresh for each member; returns the basis matrices."""
        bmat = np.take_along_axis(self.a, self.basis[:, None, :], axis=2)
        self.tab = np.linalg.solve(bmat, self.a)
        vals = np.where(self.at_upper, self.up, self.lo)
        np.put_along_axis(vals, self.basis, 0.0, axis=1)
        rhs = self.b - (self.a @ vals[:, :, None])[:, :, 0]
        self.x_basic = np.linalg.solve(bmat, rhs[:, :, None])[:, :, 0]
        return bmat

    def run(self, c: np.ndarray) -> np.ndarray:
        """_Tableau.run for each member k, maximizing c[k] . x. A member
        leaves the working set as soon as it is optimal or unbounded, so
        later iterations cost only what the others need. Leaves tab and
        x_basic for refresh to recompute. Returns the unbounded mask."""
        scale = np.max(np.abs(c), axis=1)
        tol = OPT_TOL * np.where(scale > 1.0, scale, 1.0)
        unbounded = np.zeros(len(self.basis), dtype=bool)
        idx = np.arange(len(self.basis))
        w = {name: getattr(self, name) for name in _RUN_STATE}
        w.update(tab=self.tab, x_basic=self.x_basic, lo=self.lo, up=self.up, c=c, tol=tol)
        self.tab = self.x_basic = None
        while idx.size:
            if np.any(w["iterations"] >= MAX_PIVOTS):
                raise RuntimeError("simplex exceeded pivot limit")
            optimal = self._price(w)
            finished = optimal | ~np.isfinite(w["theta"])
            if finished.any():
                unbounded[idx[finished & ~optimal]] = True
                for name in _RUN_STATE:
                    getattr(self, name)[idx[finished]] = w[name][finished]
                keep = ~finished
                idx = idx[keep]
                w = {k: v[keep] for k, v in w.items()}
            if idx.size:
                self._pivot(w)
        return unbounded

    def solve(self, out: list) -> None:
        """solve_max on every member; writes member k's result to
        out[ids[k]]."""
        n_all = self.a.shape[2]
        if self.n_art:
            c_phase1 = np.zeros((len(self.ids), n_all))
            c_phase1[:, self.n_real :] = -1.0
            self.run(c_phase1)
            self.refresh()
            x = self.solution_vectors()
            feasible = np.ones(len(self.ids), dtype=bool)
            for k, i in enumerate(self.ids):
                art_sum = float(np.sum(x[k, self.n_real :]))
                if art_sum > FEAS_TOL * max(1.0, float(np.max(np.abs(self.b[k]), initial=0.0))):
                    out[i] = LPSolution("infeasible", np.nan, np.empty(0), int(self.iterations[k]))
                    feasible[k] = False
            self.keep(feasible)

        # Pin the artificials at zero and optimize the real objective.
        self.up[:, self.n_real :] = 0.0
        c_phase2 = np.zeros((len(self.ids), n_all))
        c_phase2[:, : self.n_struct] = self.objective
        unbounded = self.run(c_phase2)
        for k in np.flatnonzero(unbounded):
            out[self.ids[k]] = LPSolution("unbounded", np.inf, np.empty(0), int(self.iterations[k]))
        self.keep(~unbounded)
        if not len(self.ids):
            return
        bmat = self.refresh()
        x = self.solution_vectors()
        c_basic = np.take_along_axis(c_phase2[~unbounded], self.basis, axis=1)
        y = np.linalg.solve(np.swapaxes(bmat, 1, 2), c_basic[:, :, None])[:, :, 0]
        y_a = (y[:, None, :] @ self.a[:, :, : self.n_struct])[:, 0, :]
        for k, i in enumerate(self.ids):
            x_struct = x[k, : self.n_struct].copy()
            out[i] = LPSolution(
                status="optimal",
                objective_value=float(self.objective[k] @ x_struct),
                variable_values=x_struct,
                iterations=int(self.iterations[k]),
                row_duals=y[k],
                reduced_costs=self.objective[k] - y_a[k],
            )

    def _price(self, w: dict) -> np.ndarray:
        """Entering column, step direction and ratio test of each working
        member, stored into w. Returns the mask of optimal members."""
        tab, basis, at_upper, c = w["tab"], w["basis"], w["at_upper"], w["c"]
        rows = np.arange(len(basis))
        per_row = rows[:, None]
        d = c - (c[per_row, basis][:, None, :] @ tab)[:, 0, :]
        tol = w["tol"][:, None]
        eligible = ~w["is_basic"] & ((~at_upper & (d > tol)) | (at_upper & (d < -tol)))
        j = np.argmax(eligible, axis=1)  # lowest eligible index (Bland)
        t = np.where(at_upper[rows, j], -1.0, 1.0)
        step = -t[:, None] * tab[rows, :, j]  # d(x_basic)/d(theta)

        lo, up, x_basic = w["lo"], w["up"], w["x_basic"]
        lo_b = lo[per_row, basis]
        up_b = up[per_row, basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                step < -PIVOT_EPS,
                (x_basic - lo_b) / -step,
                np.where(step > PIVOT_EPS, (up_b - x_basic) / step, np.inf),
            )
            ratio = np.maximum(ratio, 0.0)  # degenerate negatives are zero steps
            theta_rows = ratio.min(axis=1, initial=np.inf)
            theta_bound = up[rows, j] - lo[rows, j]
        # min(theta_rows, theta_bound) with Python's tie rule.
        w["theta"] = np.where(theta_bound < theta_rows, theta_bound, theta_rows)
        w["flip"] = theta_bound <= theta_rows
        w["j"], w["t"], w["step"], w["ratio"] = j, t, step, ratio
        return ~eligible.any(axis=1)

    def _pivot(self, w: dict) -> None:
        """Apply the step _price chose: a bound flip or a basis change."""
        theta, step, j = w["theta"], w["step"], w["j"]
        w["iterations"] += 1
        w["x_basic"] += theta[:, None] * step
        flips = np.flatnonzero(w["flip"])
        # Bound flip: j swaps ends without entering the basis.
        w["at_upper"][flips, j[flips]] = ~w["at_upper"][flips, j[flips]]
        p = np.flatnonzero(~w["flip"])
        if not p.size:
            return
        theta, step, j = theta[p], step[p], j[p]
        basis, tab = w["basis"], w["tab"]
        tie = w["ratio"][p] <= (theta + 1e-12 * (1.0 + theta))[:, None]
        r = np.argmin(np.where(tie, basis[p], np.iinfo(np.intp).max), axis=1)  # Bland tie-break
        leaving = basis[p, r]
        enter_val = np.where(w["t"][p] > 0, w["lo"][p, j] + theta, w["up"][p, j] - theta)
        basis[p, r] = j
        w["is_basic"][p, leaving] = False
        w["is_basic"][p, j] = True
        w["at_upper"][p, leaving] = step[np.arange(p.size), r] > 0.0  # hit its upper bound
        w["at_upper"][p, j] = False
        w["x_basic"][p, r] = enter_val

        row = tab[p, r, :] / tab[p, r, j][:, None]
        tab[p, r, :] = row
        col = tab[p, :, j]
        col[np.arange(p.size), r] = 0.0
        update = col[:, :, None] * row[:, None, :]
        if p.size == len(tab):
            tab -= update
        else:
            tab[p] -= update


def solve_max_batch(batch: LPBatch) -> list[LPSolution]:
    """solve_max on each member of the batch, with the pivots of many
    members done together.

    Members that need the same number of artificial columns are stacked,
    up to BATCH_CHUNK at a time, and pivoted as one; a member leaves the
    stack when it finishes. Result k equals solve_max(batch.member(k)) bit
    for bit: status, pivot count, values and duals. The per-pivot overhead
    is shared by the stack, so this pays off for many LPs; a member alone
    in its group is solved on its own tableau as solve_max does, which
    costs less than a stack of one. The stacks are set up from the batch's
    arrays one at a time, so at most BATCH_CHUNK tableaux are held.
    """
    batch.validate()
    if not np.all(np.isfinite(batch.lower)):
        raise ValueError("lower bounds must be finite")
    results: list[LPSolution | None] = [None] * len(batch)
    m_eq = batch.a_eq.shape[1]
    n_art = np.zeros(len(batch), dtype=np.intp)
    for start in range(0, len(batch), BATCH_CHUNK):
        ids = np.arange(start, min(start + BATCH_CHUNK, len(batch)))
        _, _, resid = _real_system(batch, ids)
        n_art[ids] = m_eq + np.count_nonzero(resid[:, m_eq:] < 0.0, axis=1)
    for count in np.unique(n_art):
        group = np.flatnonzero(n_art == count)
        for start in range(0, len(group), BATCH_CHUNK):
            ids = group[start : start + BATCH_CHUNK]
            if len(ids) == 1:
                results[ids[0]] = _Tableau(batch.member(ids[0])).solve()
            else:
                _Stack(batch, ids).solve(results)
    return results


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
