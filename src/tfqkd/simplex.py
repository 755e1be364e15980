"""LP solving. solve_max is a deterministic dense two-phase
bounded-variable simplex with Bland's anti-cycling rule, for any LP.
solve_separable solves a batch of phase-error LPs exactly from their
per-class structure, with no pivots."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constraints import _DUMP_HEADER, _DUMP_TAGS, LinearProgram, LPBatch

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

    Known limits: on degenerate LPs (phase-error LPs built with gap_scale
    0, or with class probabilities near 1e-200 at large M) the basis can
    turn singular, and numpy.linalg.LinAlgError escapes.
    The phase-one feasibility test is absolute (FEAS_TOL * max(1, max|b|)),
    so on rescaled LPs whose right-hand sides sit far below 1 it can accept
    a slightly infeasible LP and overestimate its optimum.
    """
    return _Tableau(lp).solve()


# Rounding allowance of the vertex tests, relative to the terms compared.
_VERTEX_TOL = 16 * np.finfo(float).eps
# Most (member, edge direction, class) entries in one array: solve_separable
# works in chunks of members, so it holds about a megabyte at any size.
_CHUNK_ENTRIES = 1 << 14


class SeparableSolutions(NamedTuple):
    """solve_separable's outcome for a batch, one entry per member: status
    "optimal" or "infeasible" (B,), the optimum in the member's own units,
    NaN where infeasible (B,), and the minimizing multipliers
    (lambda, kappa) of the count equalities (B, 2)."""

    status: np.ndarray
    value: np.ndarray
    duals: np.ndarray


def _class_vertices(boxes: np.ndarray, strips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of each class polygon P_j = box ∩ {|a x - b y| <= d}:
    (B, M, 6, 2) points, padded by repeating one, and a (B, M) mask of the
    empty polygons. Each vertex is a box corner inside the strip or a
    crossing of a strip line with a box edge: 12 candidates to test."""
    x_lo, x_hi, y_lo, y_hi = boxes.transpose(1, 0, 2)[..., None]
    a, b, d = strips.transpose(1, 0, 2)[..., None]
    sign = np.array([1.0, -1.0, 1.0, -1.0])  # the two strip lines a x - b y = ±d
    x_edge = np.concatenate([x_lo, x_lo, x_hi, x_hi], axis=-1)
    y_edge = np.concatenate([y_lo, y_lo, y_hi, y_hi], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y_cross = (a * x_edge - sign * d) / b  # on the vertical edges
        x_cross = (b * y_edge + sign * d) / a  # on the horizontal edges
        x = np.concatenate([x_lo, x_lo, x_hi, x_hi, x_edge, x_cross], axis=-1)
        y = np.concatenate([y_lo, y_hi, y_lo, y_hi, y_cross, y_edge], axis=-1)
        inside = (
            (np.abs(a * x - b * y) <= d + _VERTEX_TOL * (np.abs(a * x) + np.abs(b * y) + d))
            & (np.abs(x - np.clip(x, x_lo, x_hi)) <= _VERTEX_TOL * x_hi)
            & (np.abs(y - np.clip(y, y_lo, y_hi)) <= _VERTEX_TOL * y_hi)
            & (x_lo <= x_hi) & (y_lo <= y_hi)
        )
    x, y = np.clip(x, x_lo, x_hi), np.clip(y, y_lo, y_hi)
    # P_j, a box cut by one strip, has at most 6 vertices: keep those first.
    order = np.argsort(~inside, axis=-1, kind="stable")[..., :6]
    kept = np.take_along_axis(inside, order, axis=-1)
    points = np.take_along_axis(np.stack([x, y], axis=-1), order[..., None], axis=-2)
    points = np.where(kept[..., None], points, points[..., :1, :])
    empty = ~kept[..., 0]
    points[empty] = 0.0
    return points, empty


def _support(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Support function of each class polygon, max over its vertices of
    direction . vertex, for points (C, M, V, 2) and directions (C, K, 2):
    (C, K, M)."""
    dx, dy = directions[..., 0, None], directions[..., 1, None]
    best = None
    for v in range(points.shape[2]):
        value = dx * points[:, None, :, v, 0]
        value += dy * points[:, None, :, v, 1]
        best = value if best is None else np.maximum(best, value, out=best)
    return best


@lru_cache(maxsize=None)
def _edge_layout(m_phases: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where _edge_directions holds +u and -u for the line directions u of
    the odd classes (the axes, then the odd strip normals), and +w and -w
    for those w of the even classes (the axes, then the even strip
    normals): four index arrays of 2 + M/2."""
    m = m_phases
    odd, even = np.arange(1, m, 2), np.arange(0, m, 2)
    return (
        np.r_[0, 1, 4 + odd], np.r_[2, 3, 4 + m + odd],
        np.r_[0, 1, 4 + even], np.r_[2, 3, 4 + m + even],
    )


def _edge_directions(strips: np.ndarray) -> np.ndarray:
    """The edge normals of every class polygon, both ways, (B, 4 + 2M, 2):
    the axes e_x, e_y, -e_x, -e_y, then each class's strip normal
    (a_j, -b_j), then their negations."""
    normals = np.stack([strips[:, 0], -strips[:, 1]], axis=-1)
    axes = np.broadcast_to(np.concatenate([np.eye(2), -np.eye(2)]), (len(strips), 4, 2))
    return np.concatenate([axes, normals, -normals], axis=1)


def solve_separable(batch: LPBatch) -> SeparableSolutions:
    """Maximize each member of a phase-error batch exactly, from its
    per-class structure.

    The LP is max sum_{j even} x_j subject to sum_j x_j = X, sum_j y_j = Y
    (b_eq) and (x_j, y_j) in the class polygon P_j (LPBatch.boxes and
    strips). Dualizing the two equalities with multipliers (lambda, kappa)
    gives

        n_ph = min  lambda X + kappa Y + sum_j h_j(c_j - lambda, -kappa)

    where h_j is the support function of P_j and c_j is 1 for even j and 0
    for odd j. This is piecewise linear. The odd terms break only on lines
    t u through (0, 0) and the even terms only on lines (1, 0) + s w, for u
    and w along the edge normals of their polygons (the axes and the strip
    normals), so the minimum lies at a crossing t u = (1, 0) + s w. There
    the odd terms sum to |t| H_odd(-sign(t) u) and the even terms to
    |s| H_even(-sign(s) w), where H sums the classes' support functions.
    So each class's support function is taken once on the 2(2 + M) edge
    directions, the maximum over P_j's at most 6 vertices, and the dual
    function at all (2 + M/2)^2 crossings follows from those sums. The LP
    is infeasible when some P_j is empty or when (X, Y) lies outside the
    Minkowski sum of the P_j, tested on the same edge directions with
    FEAS_TOL relative slack.

    Returns each member's status, value (in the member's own units) and
    minimizing (lambda, kappa) as arrays; there are no pivots.
    """
    m = batch.n_phases
    even = (np.arange(m) % 2 == 0).astype(float)
    pos_u, neg_u, pos_w, neg_w = _edge_layout(m)
    chunk = max(1, _CHUNK_ENTRIES // ((4 + 2 * m) * m))
    all_boxes, all_strips = batch.boxes(), batch.strips()
    parts = []
    for start in range(0, len(batch), chunk):
        ids = slice(start, start + chunk)
        strips, targets = all_strips[ids], batch.b_eq[ids]
        points, empty = _class_vertices(all_boxes[ids], strips)

        directions = _edge_directions(strips)
        support = _support(points, directions)
        reach = support.sum(axis=-1)
        demand = (directions @ targets[..., None])[..., 0]
        slack = FEAS_TOL * ((np.abs(directions) @ np.abs(targets)[..., None])[..., 0] + np.abs(reach))
        infeasible = empty.any(axis=1) | (demand > reach + slack).any(axis=1)

        # The crossings t u = (1, 0) + s w; parallel pairs give (0, 0).
        u = directions[:, pos_u, None, :]
        w = directions[:, None, pos_w, :]
        det = u[..., 1] * w[..., 0] - u[..., 0] * w[..., 1]
        crossing = det != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(crossing, -w[..., 1] / det, 0.0)
            s = np.where(crossing, -u[..., 1] / det, 0.0)
        duals = t[..., None] * u
        h_odd = support[..., 1::2].sum(axis=-1)
        h_even = support[..., 0::2].sum(axis=-1)
        odd_terms = np.abs(t) * np.where(t > 0.0, h_odd[:, neg_u, None], h_odd[:, pos_u, None])
        even_terms = np.abs(s) * np.where(s > 0.0, h_even[:, None, neg_w], h_even[:, None, pos_w])
        # At (0, 0) the even terms are h_j(1, 0) = H_even(e_x).
        even_terms = np.where(crossing, even_terms, h_even[:, :1, None])
        lam, kappa = duals[..., 0], duals[..., 1]
        value = lam * targets[:, None, None, 0] + kappa * targets[:, None, None, 1]
        value += odd_terms + even_terms
        value, duals = value.reshape(len(points), -1), duals.reshape(len(points), -1, 2)
        # Far from the centres the terms of the dual function cancel, and
        # their rounding can exceed the gaps between the points' values; so
        # pick the point whose value plus its rounding bound is lowest.
        extent = np.abs(points).max(axis=2)  # max |x|, max |y| over each P_j
        magnitude = (np.abs(duals) * (np.abs(targets) + extent.sum(axis=1))[:, None]).sum(-1)
        magnitude += (extent[..., 0] @ even)[:, None]
        best = (value + (m + 4) * np.finfo(float).eps * magnitude).argmin(axis=1)
        rows = np.arange(len(best))
        parts.append((infeasible, value[rows, best], duals[rows, best]))
    if not parts:
        return SeparableSolutions(np.empty(0, dtype="<U10"), np.empty(0), np.empty((0, 2)))
    infeasible, value, duals = (np.concatenate(arrays) for arrays in zip(*parts))
    return SeparableSolutions(
        np.where(infeasible, "infeasible", "optimal"), np.where(infeasible, np.nan, value), duals
    )


def load_lp(path) -> LinearProgram:
    """Parse the tab-separated dump emitted by the constraint builder.
    Raises ValueError, naming the file, on a missing, repeated or unknown
    record, a record of the wrong width, a value that is not a number, and
    a value that is not finite (+inf is legal as an upper bound)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != _DUMP_HEADER:
        raise ValueError(f"{path}: not a tfqkd LP dump")
    records: dict[str, list[list[float]]] = {tag: [] for tag in _DUMP_TAGS}
    for ln in lines[1:]:
        tag, *vals = ln.split("\t")
        if tag not in records:
            raise ValueError(f"{path}: unknown record {tag!r}")
        try:
            records[tag].append(list(map(float, vals)))
        except ValueError:
            raise ValueError(f"{path}: {tag} record holds a value that is not a number") from None
    if len(records["nvars"]) != 1 or len(records["objective"]) != 1 or len(records["scale"]) > 1:
        raise ValueError(f"{path}: need one nvars and objective record, at most one scale")
    n = len(records["bound"])
    if records["nvars"][0] != [n] or n < 1:
        raise ValueError(f"{path}: nvars {records['nvars'][0]} != {n} bound records")
    widths = {"nvars": 1, "scale": 1, "objective": n, "eq": n + 1, "le": n + 1, "bound": 2}
    for tag, rows in records.items():
        if rows and {len(row) for row in rows} != {widths[tag]}:
            raise ValueError(f"{path}: {tag} record not {widths[tag]} values wide")
    arrays = {tag: np.array(records[tag]).reshape(-1, widths[tag]) for tag in _DUMP_TAGS[2:]}
    lower, upper = arrays["bound"].T.copy()
    scale = records["scale"][0][0] if records["scale"] else 1.0
    finite = np.concatenate([arrays[tag].ravel() for tag in _DUMP_TAGS[2:5]] + [lower, [scale]])
    if not (np.isfinite(finite).all() and (upper > -np.inf).all()):
        raise ValueError(f"{path}: non-finite value (only an upper bound may be +inf)")
    eqs, ubs = arrays["eq"], arrays["le"]
    lp = LinearProgram(
        arrays["objective"][0], eqs[:, :n], eqs[:, n], ubs[:, :n], ubs[:, n], lower, upper,
        scale=scale,
    )
    try:
        lp.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return lp
