"""Assembles the phase-error linear program: per-class yield variables for
the signal and decoy intensities, count equalities, finite-statistics gap
bounds between nearly indistinguishable preparations, and box bounds, with
an explicit failure-probability ledger."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import ObservedCounts, ProtocolParams
from .numerics import (
    chernoff_deltas,
    folded_distinguishability,
    folded_poisson,
    vacuum_distinguishability,
)


@dataclass(frozen=True)
class SecurityBudget:
    """Failure-probability bookkeeping.

    eps_a is the per-bound failure probability; the phase-error estimate
    spends (8*M + 12) of them. Secrecy combines the phase-error budget with
    the privacy-amplification term; the total adds correctness.
    """

    eps_a: float
    eps_total_pe: float
    eps_cor: float
    eps_pa: float
    eps_sec: float
    eps_tol: float
    n_phases: int


def budget_multiplier(n_phases: int) -> int:
    """Number of eps_a units spent per phase-error estimation."""
    return 8 * n_phases + 12


def make_budget(
    n_phases: int,
    eps_cor: float,
    eps_pa: float,
    eps_a: float | None = None,
    eps_total_pe: float | None = None,
) -> SecurityBudget:
    """Build the budget from either the per-bound eps_a or the total
    phase-error failure probability (exactly one must be given)."""
    if n_phases < 2 or n_phases % 2 != 0:
        raise ValueError(f"n_phases={n_phases} must be even and >= 2")
    if (eps_a is None) == (eps_total_pe is None):
        raise ValueError("give exactly one of eps_a / eps_total_pe")
    mult = budget_multiplier(n_phases)
    if eps_a is None:
        if not 0.0 < eps_total_pe < 1.0:
            raise ValueError(f"eps_total_pe={eps_total_pe} outside (0, 1)")
        eps_a = eps_total_pe / mult
    else:
        if not 0.0 < eps_a < 1.0:
            raise ValueError(f"eps_a={eps_a} outside (0, 1)")
        eps_total_pe = mult * eps_a
    for name, val in (("eps_cor", eps_cor), ("eps_pa", eps_pa)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name}={val} outside (0, 1)")
    eps_sec = math.sqrt(eps_total_pe) + eps_pa
    eps_tol = eps_cor + eps_sec
    return SecurityBudget(
        eps_a=eps_a,
        eps_total_pe=eps_total_pe,
        eps_cor=eps_cor,
        eps_pa=eps_pa,
        eps_sec=eps_sec,
        eps_tol=eps_tol,
        n_phases=n_phases,
    )


@dataclass(frozen=True)
class GapBound:
    """Two-sided bound |coeff_left*left - coeff_right*right| <= delta between
    the yields of two nearly indistinguishable preparations.

    kind is "decoy_pair" (left = signal-class yield, right = decoy-class
    yield, both LP variables), "vacuum_mu" or "vacuum_nu" (left = the
    observed vacuum count, right = the class-0 yield variable). Exactly the
    member with the larger preparation probability carries the ratio
    coefficient; the other coefficient is 1. delta is clamped to >= 0; any
    clamping (of delta itself or of a negative residual trial count inside
    a deviation term) is recorded in clamp_events.
    """

    kind: str
    j: int
    coeff_left: float
    coeff_right: float
    delta: float
    clamp_events: tuple[str, ...] = ()


# Each gap bound charges three two-sided deviation bounds; each variable box
# charges one one-sided bound.
_CHARGES_PER_GAP = 6
_CHARGES_PER_BOX = 1

# Entries kept by each table cache. A search round draws 5-7 intensities of
# each kind, so a few hundred entries cover every round of a distance.
_TABLE_CACHE_SIZE = 512


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _intensity_table(intensity: float, m_phases: int) -> tuple[tuple[float, ...], float]:
    """Folded class weights of the two-pulse source at per-pulse intensity
    `intensity` (classes 0..M-1), and its vacuum distinguishability."""
    weights = tuple(folded_poisson(j, 2.0 * intensity, m_phases) for j in range(m_phases))
    return weights, vacuum_distinguishability(intensity, m_phases)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _pair_distinguishabilities(mu: float, nu: float, m_phases: int) -> tuple[float, ...]:
    """folded_distinguishability of classes 0..M-1 between intensities mu
    and nu."""
    return tuple(folded_distinguishability(j, mu, nu, m_phases) for j in range(m_phases))


def _candidate_rows(
    protocols: Sequence[ProtocolParams], observations: Sequence[ObservedCounts], m_phases: int
) -> np.ndarray:
    """One row per candidate, read from the cached tables: the probabilities
    that a round prepares the matched-intensity folded class j = 0..M-1 of
    mu, then of nu (both parties pick the label, phases match in- or
    anti-phase), then that both parties pick the vacuum (2M + 1); the
    vacuum distinguishabilities of mu and nu; the pair distinguishabilities
    of classes 0..M-1; and the observed n_2mu, n_2nu, n_0: (B, 3M + 6)."""
    m = m_phases
    rows = []
    for p, c in zip(protocols, observations):
        weights_mu, vacuum_mu = _intensity_table(p.mu, m)
        weights_nu, vacuum_nu = _intensity_table(p.nu, m)
        factor_mu = 2.0 * p.p_mu**2 / m
        factor_nu = 2.0 * p.p_nu**2 / m
        rows.append(
            [factor_mu * w for w in weights_mu]
            + [factor_nu * w for w in weights_nu]
            + [p.p_o**2, vacuum_mu, vacuum_nu]
            + list(_pair_distinguishabilities(p.mu, p.nu, m))
            + [c.n_2mu, c.n_2nu, c.n_0]
        )
    return np.array(rows, dtype=float).reshape(len(rows), 3 * m + 6)


@lru_cache(maxsize=None)
def _gap_labels(m_phases: int) -> tuple[tuple[str, int], ...]:
    """(kind, j) of the gap bounds of an LP, in LP order: vacuum_mu,
    vacuum_nu, then decoy_pair for classes 0..M-1."""
    return (("vacuum_mu", 0), ("vacuum_nu", 0)) + tuple(("decoy_pair", j) for j in range(m_phases))


@lru_cache(maxsize=None)
def _residual_events(m_phases: int) -> tuple[tuple[str], ...]:
    """The clamp event of a negative residual trial count, per gap bound."""
    return tuple(
        (f"{kind}[{j}]: residual trial count below zero",) for kind, j in _gap_labels(m_phases)
    )


@lru_cache(maxsize=None)
def _pair_layout(m_phases: int) -> np.ndarray:
    """Columns of the _candidate_rows that give each gap bound (in LP
    order) its preparation probabilities p1 and p2, distinguishability s
    and observed totals left and right: (5, M + 2)."""
    m = m_phases
    classes = list(range(m))
    n_2mu, n_2nu, n_0 = -3, -2, -1
    return np.array([
        [2 * m, 2 * m] + classes,  # p_o^2 against class 0; q_mu[j]
        [0, m] + [m + j for j in classes],  # q_mu[0], q_nu[0]; q_nu[j]
        [2 * m + 1, 2 * m + 2] + [2 * m + 3 + j for j in classes],
        [n_0, n_0] + [n_2mu] * m,
        [n_2mu, n_2nu] + [n_2nu] * m,
    ])


def _gap_bounds(
    rows: np.ndarray, n_total: float, eps_a: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, tuple[tuple[str, ...], ...]]]:
    """Every gap bound of each candidate's phase-error LP, from the
    _candidate_rows: coeff_left, coeff_right and delta as (B, M + 2) arrays
    in LP order (_gap_labels), and the clamp events per bound of each
    candidate that clamps.

    Each bound applies the finite-statistics bound to a pair of
    preparations with probabilities (p1, p2), distinguishability
    s = sqrt(1 - F^2), and observed totals (left, right)."""
    m = (rows.shape[1] - 6) // 3
    p1, p2, s, left, right = rows[:, _pair_layout(m)].transpose(1, 0, 2)

    # The member with the larger probability carries the ratio coefficient;
    # ties (including the degenerate 0 == 0) give it to the right member.
    left_larger = p1 > p2
    p_small = np.where(left_larger, p2, p1)
    p_large = np.where(left_larger, p1, p2)
    never = p_large == 0.0  # neither is prepared: the ratio reads 1
    ratio = (p_small + never) / (p_large + never)
    coeff_left = np.where(left_larger, ratio, 1.0)
    coeff_right = np.where(left_larger, 1.0, ratio)

    # d_pair and d_last, then d_guess and d_flip, which need the trial
    # counts n1 and n2 that d_pair brackets.
    d_pair, d_last = chernoff_deltas(
        np.array([np.full(s.shape, n_total), np.where(left_larger, left, right)]),
        np.array([2.0 * p_small, ratio]),
        eps_a,
    )[0]
    n1 = 2.0 * n_total * p_small + d_pair
    n2 = 2.0 * n_total * p_small - d_pair
    # The residual trial count n2 - left - right subtracts whole-intensity
    # totals (n_2mu, n_2nu, n_0), not the pair's class counts, so it is often
    # clamped at zero: the "residual trial count below zero" event of nearly
    # every LP. That is conservative: the totals are at least the class
    # counts, a smaller residual gives a smaller d_flip, and d_flip enters
    # delta negatively. Class counts are LP variables; using them would put
    # a square root of LP variables into a constraint.
    (d_guess, d_flip), (_, flip_clamped) = chernoff_deltas(
        np.array([n1, n2 - left - right]),
        np.array([(1.0 + s) / 2.0, np.full(s.shape, 0.5)]),
        eps_a,
    )
    delta = n1 * s + 2.0 * d_guess - 2.0 * d_flip + d_last
    negative = delta < 0.0

    events = {}
    residual_events = _residual_events(m)
    negative_rows = negative.any(axis=1).tolist()
    for k in np.flatnonzero((flip_clamped | negative).any(axis=1)).tolist():
        flips = flip_clamped[k].tolist()
        per_bound = [ev if flip else () for ev, flip in zip(residual_events, flips)]
        if negative_rows[k]:
            for i in np.flatnonzero(negative[k]).tolist():
                kind, j = _gap_labels(m)[i]
                per_bound[i] += (f"{kind}[{j}]: delta {float(delta[k, i]):.6g} clamped to 0",)
        events[k] = tuple(per_bound)
    return coeff_left, coeff_right, np.where(negative, 0.0, delta), events


def _gap_bound_records(
    m_phases: int, coeff_left, coeff_right, delta, events: tuple[tuple[str, ...], ...] | None
) -> tuple[GapBound, ...]:
    """One candidate's gap bounds, from its rows of the _gap_bounds arrays."""
    columns = (coeff_left.tolist(), coeff_right.tolist(), delta.tolist())
    events = events or ((),) * (m_phases + 2)
    return tuple(
        GapBound(kind, j, *values)
        for (kind, j), *values in zip(_gap_labels(m_phases), *columns, events)
    )


def _box_caps(q: np.ndarray, n_total: float, eps_a: float) -> np.ndarray:
    """Mean-plus-deviation cap on the clicks of classes prepared with
    probabilities q in n_total rounds."""
    dev = 3.0 * math.log(1.0 / eps_a)
    mean = n_total * q
    return mean + np.sqrt(dev * mean)


@dataclass
class LinearProgram:
    """Dense maximization LP: max objective . x subject to a_eq x = b_eq,
    a_ub x <= b_ub, lower <= x <= upper.

    Phase-error instances are assembled in rescaled units (all counts
    divided by n_total) so matrix entries stay near unit magnitude; `scale`
    converts an optimum back to counts. gap_bounds / clamp_events /
    eps_charges carry the build report.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scale: float = 1.0
    gap_bounds: tuple[GapBound, ...] = ()
    clamp_events: tuple[str, ...] = ()
    eps_charges: int = 0

    @property
    def num_vars(self) -> int:
        return self.objective.shape[-1]

    def validate(self) -> None:
        n = self.num_vars
        if self.a_eq.shape[-1] != n or self.a_ub.shape[-1] != n:
            raise ValueError("constraint matrices disagree with objective size")
        if self.a_eq.shape[-2] != self.b_eq.shape[-1]:
            raise ValueError("equality rhs size mismatch")
        if self.a_ub.shape[-2] != self.b_ub.shape[-1]:
            raise ValueError("inequality rhs size mismatch")
        if self.lower.shape[-1] != n or self.upper.shape[-1] != n:
            raise ValueError("bound vector size mismatch")
        if np.any(self.lower < 0.0) or np.any(self.upper < self.lower):
            raise ValueError("need upper >= lower >= 0 for every variable")


@lru_cache(maxsize=None)
def _gap_row_layout(m_phases: int) -> tuple[np.ndarray, ...]:
    """Nonzero entries of the gap-bound rows of a_ub, as (row, column,
    index into [coeff_left | coeff_right], sign) arrays. Rows 2i and 2i + 1
    bound gap i from above and below; the second is the first negated."""
    k = m_phases + 2
    # Vacuum rows weigh the class-0 yield; decoy rows compare class j of
    # the two intensities.
    entries = [(0, 0, k, -1.0), (2, m_phases, k + 1, -1.0)]
    for j in range(m_phases):
        row = 2 * (2 + j)
        entries += [(row, j, 2 + j, 1.0), (row, m_phases + j, k + 2 + j, -1.0)]
    entries += [(row + 1, col, src, -sign) for row, col, src, sign in entries]
    rows, cols, src, sign = zip(*entries)
    return np.array(rows), np.array(cols), np.array(src), np.array(sign)


@dataclass
class LPBatch:
    """Phase-error LPs of one shape, stacked along a leading member axis;
    member k is in units of scale[k], and member(k) is its dense
    LinearProgram. The LP is separable: class j's constraints involve only
    its signal and decoy yields x_j, y_j (boxes() and strips() give its
    polygon), and only the count equalities b_eq link the classes. The
    build report holds the gap-bound coefficients and deltas as (B, M + 2)
    arrays in LP order, the clamp events per gap bound of the members that
    clamp, and the failure-probability charges (the same for every member).
    """

    b_eq: np.ndarray
    b_ub: np.ndarray
    upper: np.ndarray
    scale: np.ndarray
    coeff_left: np.ndarray
    coeff_right: np.ndarray
    delta: np.ndarray
    gap_events: dict[int, tuple[tuple[str, ...], ...]] = field(default_factory=dict)
    eps_charges: int = 0

    def __len__(self) -> int:
        return self.b_eq.shape[0]

    @property
    def n_phases(self) -> int:
        return self.delta.shape[1] - 2

    def clamp_events(self, k: int) -> tuple[str, ...]:
        return tuple(e for events in self.gap_events.get(k, ()) for e in events)

    def boxes(self) -> np.ndarray:
        """Bounds of each class's yields, (B, 4, M): rows x_lo, x_hi, y_lo,
        y_hi. Class 0's box is cut by its two vacuum rows, which bound
        r x_0 and r' y_0 from both sides; a zero coefficient leaves the box
        whole when its rows hold at zero and empties it otherwise."""
        m = self.n_phases
        boxes = np.zeros((len(self), 4, m))
        boxes[:, 1] = self.upper[:, :m]
        boxes[:, 3] = self.upper[:, m:]
        coeff = self.coeff_right[:, :2]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 cuts nothing
            boxes[:, 0:4:2, 0] = np.fmax(0.0, -self.b_ub[:, 0:4:2] / coeff)
            boxes[:, 1:4:2, 0] = np.fmin(self.upper[:, [0, m]], self.b_ub[:, 1:4:2] / coeff)
        return boxes

    def strips(self) -> np.ndarray:
        """Decoy-pair strip |a x_j - b y_j| <= d of each class, (B, 3, M):
        rows a, b, d."""
        return np.stack(
            [self.coeff_left[:, 2:], self.coeff_right[:, 2:], self.b_ub[:, 4::2]], axis=1
        )

    def member(self, k: int) -> LinearProgram:
        """Member k as a dense LinearProgram."""
        m = self.n_phases
        objective = np.zeros(2 * m)
        objective[0 : m - 1 : 2] = 1.0
        a_eq = np.zeros((2, 2 * m))
        a_eq[0, :m] = 1.0
        a_eq[1, m:] = 1.0
        rows, cols, src, sign = _gap_row_layout(m)
        a_ub = np.zeros((2 * m + 4, 2 * m))
        a_ub[1::2] = -0.0  # the negated zeros of each second row
        a_ub[rows, cols] = np.concatenate([self.coeff_left[k], self.coeff_right[k]])[src] * sign
        return LinearProgram(
            objective, a_eq, self.b_eq[k], a_ub, self.b_ub[k], np.zeros(2 * m), self.upper[k],
            scale=float(self.scale[k]),
            gap_bounds=_gap_bound_records(
                m, self.coeff_left[k], self.coeff_right[k], self.delta[k], self.gap_events.get(k)
            ),
            clamp_events=self.clamp_events(k),
            eps_charges=self.eps_charges,
        )


def build_lps(
    protocols: Sequence[ProtocolParams],
    observations: Sequence[ObservedCounts],
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> LPBatch:
    """Assemble the phase-error LP of each candidate from its observations,
    stacked. The candidates share the number of phase slices M (the
    budget's) and n_total.

    Variables are ordered [class-0..M-1 signal yields, class-0..M-1 decoy
    yields], in units of n_total. The objective selects the even signal
    classes up to M-2. gap_scale multiplies every gap-bound delta (a test
    hook for tightening/loosening studies); 1.0 is the faithful build.
    """
    m = budget.n_phases
    if any(p.n_phases != m for p in protocols):
        raise ValueError("budget was built for a different number of phase slices")
    if gap_scale < 0.0:
        raise ValueError("gap_scale must be >= 0")
    n_totals = {p.n_total for p in protocols}
    if len(n_totals) > 1:
        raise ValueError("candidates must share n_total")
    n_total = float(n_totals.pop()) if n_totals else 1.0
    eps_a = budget.eps_a
    b, k = len(protocols), m + 2

    rows = _candidate_rows(protocols, observations, m)
    coeff_left, coeff_right, delta, events = _gap_bounds(rows, n_total, eps_a)

    b_eq = rows[:, -3:-1] / n_total
    b_ub = np.repeat(gap_scale * delta / n_total, 2, axis=1)
    # The vacuum rows move the observed vacuum count to the right-hand side.
    anchor = coeff_left[:, :2] * (rows[:, -1:] / n_total)
    b_ub[:, 0:4:2] -= anchor
    b_ub[:, 1:4:2] += anchor

    upper = _box_caps(rows[:, : 2 * m], n_total, eps_a)
    return LPBatch(
        b_eq=b_eq,
        b_ub=b_ub,
        upper=upper / n_total,
        scale=np.full(b, n_total),
        coeff_left=coeff_left,
        coeff_right=coeff_right,
        delta=delta,
        gap_events=events,
        eps_charges=_CHARGES_PER_GAP * k + _CHARGES_PER_BOX * 2 * m,
    )


def build_lp(
    protocol: ProtocolParams,
    counts: ObservedCounts,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> LinearProgram:
    """Assemble the phase-error LP for the given observations: build_lps on
    this one candidate."""
    return build_lps([protocol], [counts], budget, gap_scale=gap_scale).member(0)


_DUMP_HEADER = "tfqkd-lp 1"
# Record tags of an LP dump; scale, objective, eq and le hold no infinities.
_DUMP_TAGS = ("nvars", "scale", "objective", "eq", "le", "bound")


def _fmt(x: float) -> str:
    """17 significant digits: exact for binary64 round-trips."""
    return format(x, ".17g")


def dump_lp(lp: LinearProgram, path) -> None:
    """Write the LP as a plain-text tab-separated matrix file (17
    significant digits, exact binary64 round-trip) for external solvers."""
    # Python floats format faster than numpy scalars, to the same digits.
    lines = [_DUMP_HEADER, f"nvars\t{lp.num_vars}", f"scale\t{_fmt(lp.scale)}"]
    lines.append("objective\t" + "\t".join(_fmt(v) for v in lp.objective.tolist()))
    for row, b in zip(lp.a_eq.tolist(), lp.b_eq.tolist()):
        lines.append("eq\t" + "\t".join(_fmt(v) for v in row) + "\t" + _fmt(b))
    for row, b in zip(lp.a_ub.tolist(), lp.b_ub.tolist()):
        lines.append("le\t" + "\t".join(_fmt(v) for v in row) + "\t" + _fmt(b))
    for lo, hi in zip(lp.lower.tolist(), lp.upper.tolist()):
        lines.append(f"bound\t{_fmt(lo)}\t{_fmt(hi)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
