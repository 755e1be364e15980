"""Assembles the phase-error linear program: per-class yield variables for
the signal and decoy intensities, count equalities, finite-statistics gap
bounds between nearly indistinguishable preparations, and box bounds, with
an explicit failure-probability ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import CountArrays, ObservedCounts, ProtocolArrays, ProtocolParams
from .numerics import (
    chernoff_deltas,
    folded_distinguishability,
    folded_poisson,
    per_distinct,
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
def _intensity_table(intensity: float, m_phases: int) -> tuple[float, ...]:
    """Folded class weights of the two-pulse source at per-pulse intensity
    `intensity` (classes 0..M-1), then its vacuum distinguishability."""
    weights = tuple(folded_poisson(j, 2.0 * intensity, m_phases) for j in range(m_phases))
    return weights + (vacuum_distinguishability(intensity, m_phases),)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _pair_distinguishabilities(mu: float, nu: float, m_phases: int) -> tuple[float, ...]:
    """folded_distinguishability of classes 0..M-1 between intensities mu
    and nu."""
    return tuple(folded_distinguishability(j, mu, nu, m_phases) for j in range(m_phases))


def _candidate_rows(protocols: ProtocolArrays, counts: CountArrays) -> np.ndarray:
    """One row per candidate: the probabilities that a round prepares the
    matched-intensity folded class j = 0..M-1 of mu, then of nu (both
    parties pick the label, phases match in- or anti-phase), then that both
    parties pick the vacuum (2M + 1); the vacuum distinguishabilities of mu
    and nu; the pair distinguishabilities of classes 0..M-1; and the
    observed n_2mu, n_2nu, n_0: (B, 3M + 6). The cached tables are read
    once per distinct intensity and once per distinct (mu, nu) pair."""
    m, b = protocols.n_phases, len(protocols)
    mu, nu = protocols.mu.tolist(), protocols.nu.tolist()
    tables = per_distinct(lambda x: _intensity_table(x, m), mu + nu).reshape(2, b, m + 1)
    pairs = per_distinct(lambda pair: _pair_distinguishabilities(*pair, m), list(zip(mu, nu)))
    labels = np.concatenate([protocols.p_mu, protocols.p_nu, protocols.p_o]).tolist()
    squares = per_distinct(lambda p: p**2, labels).reshape(3, b, 1)
    weights = 2.0 * squares[:2] / m * tables[..., :m]
    return np.concatenate([
        weights[0], weights[1], squares[2], tables[0, :, m:], tables[1, :, m:],
        pairs.reshape(b, m), counts.n_2mu[:, None], counts.n_2nu[:, None], counts.n_0[:, None],
    ], axis=1)


@lru_cache(maxsize=None)
def _gap_labels(m_phases: int) -> tuple[tuple[str, int], ...]:
    """(kind, j) of the gap bounds of an LP, in LP order: vacuum_mu,
    vacuum_nu, then decoy_pair for classes 0..M-1."""
    return (("vacuum_mu", 0), ("vacuum_nu", 0)) + tuple(("decoy_pair", j) for j in range(m_phases))


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
    rows: np.ndarray, n_total: np.ndarray, eps_a: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every gap bound of each candidate's phase-error LP, from the
    _candidate_rows and each candidate's n_total (B, 1): coeff_left,
    coeff_right and delta before its clamp at zero as (B, M + 2) arrays in
    LP order (_gap_labels), and where the residual trial count was clamped.

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
        np.array([np.ones_like(s) * n_total, np.where(left_larger, left, right)]),
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
    return coeff_left, coeff_right, delta, flip_clamped


def _box_caps(q: np.ndarray, n_total: np.ndarray, eps_a: float) -> np.ndarray:
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


@dataclass
class LPBatch:
    """Phase-error LPs of one shape, stacked along a leading member axis;
    member k is in units of scale[k], and member(k) is its dense
    LinearProgram. Gap bound i owns two rows, from above and from below,
    with right-hand sides b_ub[:, i] (B, M + 2, 2). The LP is separable:
    class j's constraints involve only its signal and decoy yields x_j, y_j
    (boxes() and strips() give its polygon), and only the count equalities
    b_eq link the classes. The build report holds the gap-bound
    coefficients and deltas (clamped at zero, and before that clamp) and
    where a residual trial count was clamped, as (B, M + 2) arrays in LP
    order, and the failure-probability charges (the same for every member).
    A member's clamp events are spelled out only when asked for.
    """

    b_eq: np.ndarray
    b_ub: np.ndarray
    upper: np.ndarray
    scale: np.ndarray
    coeff_left: np.ndarray
    coeff_right: np.ndarray
    delta: np.ndarray
    unclamped_delta: np.ndarray
    residual_clamped: np.ndarray
    eps_charges: int = 0

    def __len__(self) -> int:
        return self.b_eq.shape[0]

    @property
    def n_phases(self) -> int:
        return self.delta.shape[1] - 2

    def gap_events(self, k: int) -> tuple[tuple[str, ...], ...]:
        """Member k's clamp events per gap bound, in LP order."""
        columns = (self.residual_clamped[k].tolist(), self.unclamped_delta[k].tolist())
        per_bound = []
        for (kind, j), residual, delta in zip(_gap_labels(self.n_phases), *columns):
            events = (f"{kind}[{j}]: residual trial count below zero",) if residual else ()
            if delta < 0.0:
                events += (f"{kind}[{j}]: delta {delta:.6g} clamped to 0",)
            per_bound.append(events)
        return tuple(per_bound)

    def clamp_events(self, k: int) -> tuple[str, ...]:
        return tuple(e for events in self.gap_events(k) for e in events)

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
            boxes[:, 0:4:2, 0] = np.fmax(0.0, -self.b_ub[:, :2, 0] / coeff)
            boxes[:, 1:4:2, 0] = np.fmin(self.upper[:, [0, m]], self.b_ub[:, :2, 1] / coeff)
        return boxes

    def strips(self) -> np.ndarray:
        """Decoy-pair strip |a x_j - b y_j| <= d of each class, (B, 3, M):
        rows a, b, d."""
        return np.stack(
            [self.coeff_left[:, 2:], self.coeff_right[:, 2:], self.b_ub[:, 2:, 0]], axis=1
        )

    def member(self, k: int) -> LinearProgram:
        """Member k as a dense LinearProgram."""
        m = self.n_phases
        objective = np.zeros(2 * m)
        objective[0 : m - 1 : 2] = 1.0
        a_eq = np.zeros((2, 2 * m))
        a_eq[0, :m] = 1.0
        a_eq[1, m:] = 1.0
        # Gap i's row from above, then its negation. Decoy row 2 + j compares
        # class j of the two intensities: entries 4M + 1 apart when flattened.
        gap = np.zeros((m + 2, 2, 2 * m))
        gap[0, 0, 0] = -self.coeff_right[k, 0]
        gap[1, 0, m] = -self.coeff_right[k, 1]
        decoy = gap[2:].reshape(-1)
        decoy[:: 4 * m + 1] = self.coeff_left[k, 2:]
        decoy[m :: 4 * m + 1] = -self.coeff_right[k, 2:]
        np.negative(gap[:, 0], out=gap[:, 1])
        events = self.gap_events(k)
        columns = (self.coeff_left[k].tolist(), self.coeff_right[k].tolist(), self.delta[k].tolist())
        return LinearProgram(
            objective, a_eq, self.b_eq[k], gap.reshape(2 * m + 4, 2 * m), self.b_ub[k].reshape(-1),
            np.zeros(2 * m), self.upper[k],
            scale=float(self.scale[k]),
            gap_bounds=tuple(
                GapBound(kind, j, *values)
                for (kind, j), *values in zip(_gap_labels(m), *columns, events)
            ),
            clamp_events=tuple(e for bound in events for e in bound),
            eps_charges=self.eps_charges,
        )


def build_lps(
    protocols: ProtocolArrays,
    counts: CountArrays,
    budget: SecurityBudget,
    gap_scale: float = 1.0,
) -> LPBatch:
    """Assemble the phase-error LP of each candidate from its observations,
    stacked. The candidates share the number of phase slices M (the
    budget's); each LP is in units of its own n_total.

    Variables are ordered [class-0..M-1 signal yields, class-0..M-1 decoy
    yields], in units of n_total. The objective selects the even signal
    classes up to M-2. gap_scale multiplies every gap-bound delta (a test
    hook for tightening/loosening studies); 1.0 is the faithful build.
    """
    m = budget.n_phases
    if protocols.n_phases != m:
        raise ValueError("budget was built for a different number of phase slices")
    if gap_scale < 0.0:
        raise ValueError("gap_scale must be >= 0")
    eps_a = budget.eps_a
    b, k = len(protocols), m + 2
    n_total = protocols.n_total[:, None]

    rows = _candidate_rows(protocols, counts)
    coeff_left, coeff_right, unclamped, residual_clamped = _gap_bounds(rows, n_total, eps_a)
    delta = np.where(unclamped < 0.0, 0.0, unclamped)

    b_eq = rows[:, -3:-1] / n_total
    b_ub = np.empty((b, k, 2))
    b_ub[...] = (gap_scale * delta / n_total)[..., None]
    # The vacuum rows move the observed vacuum count to the right-hand side.
    anchor = coeff_left[:, :2] * (rows[:, -1:] / n_total)
    b_ub[:, :2, 0] -= anchor
    b_ub[:, :2, 1] += anchor

    upper = _box_caps(rows[:, : 2 * m], n_total, eps_a)
    return LPBatch(
        b_eq=b_eq,
        b_ub=b_ub,
        upper=upper / n_total,
        scale=protocols.n_total.copy(),
        coeff_left=coeff_left,
        coeff_right=coeff_right,
        delta=delta,
        unclamped_delta=unclamped,
        residual_clamped=residual_clamped,
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
    one = ProtocolArrays.of([protocol], budget.n_phases)
    return build_lps(one, CountArrays.of([counts]), budget, gap_scale=gap_scale).member(0)


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
