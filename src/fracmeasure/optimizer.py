"""Exact covering optima: the integer and fractional pre-measure values.

For a target set E, a scale delta and a cost ``weight_term(mu, q, xi, B)``
per candidate ball, two optima are computed over the finite lossless
candidate family of ``enumerate_centered_balls``:

* the integer optimum (min-cost subset of candidates whose members cover
  E), the value of the generalized Hausdorff pre-measure at scale delta;
* the fractional optimum (min-cost nonnegative weights with total weight
  at least 1 over every point of E), the weighted pre-measure, solved as
  a covering LP and certified by an explicit feasible dual.

Conventions: the empty target has value 0; if the finite-cost candidates
fail to cover E the value is infinity (status ``infeasible-infinite``).
Candidates of infinite cost never enter a solution; candidates of zero
cost are always safe to take.

The integer solver is branch and bound.  Pruning uses two admissible
lower bounds: the cheap bound (sum over uncovered points of the cheapest
cost covering each, divided by the maximum coverage of any single
candidate) and, when that fails to prune, the LP relaxation of the
remaining subproblem, certified by a scaled dual.  A node is pruned when
its bound reaches the incumbent value less the relative margin
``_PRUNE_REL * max(1, incumbent)``, so the returned value exceeds the
true optimum by at most ``_PRUNE_REL * max(1, H)``, far below
SOLVER_TOL.  The margin is relative because the certified bound is
shrunk relatively; an absolute margin would never let a tight bound
prune once H > 1.  The first incumbent is the greedy cover.  Whenever a
node's LP solution is integral (always so on a line, where the
incidence is an interval matrix and hence totally unimodular), its
support joined with the node's picks is checked against the bit masks
and, if it covers, offered as an incumbent valued by the plain sum of
its costs, never by the LP objective.  Branching picks the uncovered
point covered by the fewest still-allowed candidates and tries its
candidates in the global order (descending coverage per unit cost, ties
by lexicographic (center, radius)), excluding earlier branches from
later ones, which makes the search exhaustive without repetition and
deterministic.  If the node budget is exhausted, instances of at most
20 candidates fall back to exhaustive subset enumeration; larger ones
raise CandidateLimitExceeded carrying the proven bound bracket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import (
    CandidateLimitExceeded,
    InvalidInput,
    NumericalFailure,
    OptimizerInternalError,
    SizeLimit,
)
from .extended import INF, SOLVER_TOL
from .metric import (
    Ball,
    FiniteMetricSpace,
    PointMeasure,
    ProductSpace,
    Rectangle,
    ball_members,
    enumerate_centered_balls,
    enumerate_centered_rectangles,
)
from .premeasure import Premeasure, weight_term

__all__ = [
    "CoverInstance",
    "IntegerCoverSolution",
    "FractionalCoverSolution",
    "DeltaProfile",
    "ProfileRow",
    "build_cover_instance",
    "build_product_cover_instance",
    "solve_integer",
    "solve_fractional",
    "brute_force_oracle",
    "hausdorff_premeasure",
    "weighted_premeasure",
    "noncentered_weighted_premeasure",
    "delta_profile",
    "product_premeasure_values",
]

_NODE_LIMIT = 2**30
_EXHAUSTIVE_LIMIT = 20  # candidates; fallback bound for the subset scan
# Relative prune margin: strictly above the 1e-12 relative shrink of the
# certified LP bound, so a tight bound prunes, and far below SOLVER_TOL.
_PRUNE_REL = 1e-11
_INTEGRAL_TOL = 1e-9  # LP solution entries this close to an integer count as integral


# --- instances ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverInstance:
    """Frozen covering problem: candidates, costs and target incidence."""

    space: FiniteMetricSpace | ProductSpace
    target: tuple
    candidates: tuple
    costs: tuple[float, ...]
    covered: tuple[frozenset, ...]


@dataclass(frozen=True)
class IntegerCoverSolution:
    """chosen indexes into instance.candidates; value is the exact minimum."""

    chosen: tuple[int, ...]
    value: float
    status: str
    nodes: int


@dataclass(frozen=True)
class FractionalCoverSolution:
    """weights per candidate, feasible dual potentials and the closed gap."""

    weights: tuple[float, ...]
    value: float
    dual: dict
    gap: float
    status: str


@dataclass(frozen=True)
class ProfileRow:
    delta: float
    h_value: float
    w_value: float
    noncentered_w_value: float


@dataclass(frozen=True)
class DeltaProfile:
    rows: tuple[ProfileRow, ...]


def _lex_key(space, cand) -> tuple:
    if isinstance(cand, Rectangle):
        base = space.left if isinstance(space, ProductSpace) else space
        rbase = space.right if isinstance(space, ProductSpace) else space
        return (
            base.index_of(cand.left.center),
            rbase.index_of(cand.right.center),
            cand.left.radius,
            cand.right.radius,
        )
    base = space.space if isinstance(space, ProductSpace) else space
    return (base.index_of(cand.center), cand.radius)


def _sorted_target(space, points: Iterable) -> tuple:
    base = space.space if isinstance(space, ProductSpace) else space
    pts = set(points)
    for p in pts:
        base.index_of(p)  # raises UnknownCenter on bad ids
    return tuple(sorted(pts, key=base.index_of))


def build_cover_instance(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    target: Iterable,
    delta: float,
    centers: Iterable | None = None,
) -> CoverInstance:
    """Candidates centered in the target (or in ``centers`` when given)."""
    tgt = _sorted_target(space, target)
    if not tgt:
        return CoverInstance(space=space, target=(), candidates=(), costs=(), covered=())
    cands = enumerate_centered_balls(space, tgt if centers is None else centers, delta)
    cands.sort(key=lambda b: _lex_key(space, b))
    tset = set(tgt)
    costs = tuple(weight_term(space, measure, q, xi, b) for b in cands)
    covered = tuple(ball_members(space, b) & tset for b in cands)
    return CoverInstance(
        space=space, target=tgt, candidates=tuple(cands), costs=costs, covered=covered
    )


def build_product_cover_instance(
    product: ProductSpace,
    pair_measure: PointMeasure,
    q: float,
    xi: Premeasure,
    left_target: Iterable,
    right_target: Iterable,
    delta: float,
) -> CoverInstance:
    """Rectangle candidates for the target E x F inside a product space."""
    lt = _sorted_target(product.left, left_target)
    rt = _sorted_target(product.right, right_target)
    tgt = _sorted_target(product, ((a, b) for a in lt for b in rt))
    if not tgt:
        return CoverInstance(space=product, target=(), candidates=(), costs=(), covered=())
    rects = enumerate_centered_rectangles(product, lt, rt, delta)
    rects.sort(key=lambda r: _lex_key(product, r))
    tset = set(tgt)
    costs = tuple(weight_term(product, pair_measure, q, xi, r) for r in rects)
    covered = tuple(ball_members(product, r) & tset for r in rects)
    return CoverInstance(
        space=product, target=tgt, candidates=tuple(rects), costs=costs, covered=covered
    )


# --- shared LP core -----------------------------------------------------


def _covering_lp(costs: np.ndarray, rows_per_col: list[np.ndarray], m: int):
    """Solve min c.x, sum of x over candidates covering each row >= 1, x >= 0.

    Returns (value, x, y) with y the dual potentials of the row
    constraints, or None when the LP is infeasible.
    """
    n = len(rows_per_col)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for j, rows in enumerate(rows_per_col):
        indptr[j + 1] = indptr[j] + len(rows)
    indices = (
        np.concatenate(rows_per_col) if n else np.zeros(0, dtype=np.int64)
    )
    data = np.ones(len(indices))
    a = sparse.csc_matrix((data, indices, indptr), shape=(m, n))
    res = linprog(
        c=costs,
        A_ub=-a.tocsr(),
        b_ub=-np.ones(m),
        bounds=(0, None),
        method="highs",
        options={
            "presolve": True,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise NumericalFailure(float("nan"), float("nan"), f"LP solver status {res.status}")
    x = np.clip(res.x, 0.0, None)
    y = np.clip(-np.asarray(res.ineqlin.marginals), 0.0, None)
    return float(costs @ x), x, y


# --- fractional solver --------------------------------------------------

def _finite_columns(instance: CoverInstance):
    tindex = {p: k for k, p in enumerate(instance.target)}
    cols: list[int] = []
    rows_per_col: list[np.ndarray] = []
    for i, c in enumerate(instance.costs):
        if math.isinf(c):
            continue
        cols.append(i)
        rows_per_col.append(
            np.array(sorted(tindex[p] for p in instance.covered[i]), dtype=np.int64)
        )
    return tindex, cols, rows_per_col


def solve_fractional(instance: CoverInstance) -> FractionalCoverSolution:
    """Weighted covering optimum with a verified dual certificate.

    The returned dual is feasible (column sums below cost plus 1e-9) and
    closes the gap to within 1e-9 * max(1, value); anything worse raises
    NumericalFailure with the primal/dual bracket.
    """
    m = len(instance.target)
    n = len(instance.candidates)
    if m == 0:
        return FractionalCoverSolution(
            weights=(), value=0.0, dual={}, gap=0.0, status="optimal"
        )
    tindex, cols, rows_per_col = _finite_columns(instance)
    covered_rows: set[int] = set()
    for rows in rows_per_col:
        covered_rows.update(int(r) for r in rows)
    if len(covered_rows) < m:
        return FractionalCoverSolution(
            weights=tuple(0.0 for _ in range(n)),
            value=INF,
            dual={},
            gap=0.0,
            status="infeasible-infinite",
        )
    costs = np.array([instance.costs[i] for i in cols])
    out = _covering_lp(costs, rows_per_col, m)
    if out is None:
        raise NumericalFailure(
            INF, 0.0, "LP reported infeasible although finite-cost candidates cover the target"
        )
    value, x, y = out

    # Certificate checks.
    coverage = np.zeros(m)
    for j, rows in enumerate(rows_per_col):
        coverage[rows] += x[j]
    if np.any(coverage < 1.0 - SOLVER_TOL):
        raise NumericalFailure(value, float(y.sum()), "primal cover constraint violated")
    for j, rows in enumerate(rows_per_col):
        if y[rows].sum() > costs[j] + SOLVER_TOL:
            raise NumericalFailure(value, float(y.sum()), "dual feasibility violated")
    gap = abs(value - float(y.sum()))
    if gap > SOLVER_TOL * max(1.0, value):
        raise NumericalFailure(value, float(y.sum()), "duality gap above tolerance")

    weights = [0.0] * n
    for j, i in enumerate(cols):
        weights[i] = float(x[j])
    dual = {p: float(y[tindex[p]]) for p in instance.target}
    return FractionalCoverSolution(
        weights=tuple(weights), value=value, dual=dual, gap=gap, status="optimal"
    )


# --- integer solver -----------------------------------------------------


def _popcount(x: int) -> int:
    return x.bit_count()


def _greedy_cover(order, costs, masks, remaining: int):
    """Deterministic greedy incumbent: max new coverage per unit cost."""
    chosen: list[int] = []
    rem = remaining
    while rem:
        best_i = -1
        best_score = -1.0
        for i in order:
            gain = _popcount(masks[i] & rem)
            if gain == 0:
                continue
            score = gain / costs[i]
            if score > best_score:
                best_score = score
                best_i = i
        if best_i < 0:
            return None
        chosen.append(best_i)
        rem &= ~masks[best_i]
    return chosen


class _NodeBudget(Exception):
    pass


def solve_integer(instance: CoverInstance, node_limit: int = _NODE_LIMIT) -> IntegerCoverSolution:
    """Exact minimum-cost cover of the target by candidate members.

    The returned value is the plain sum of the chosen costs and exceeds
    the true optimum by at most ``_PRUNE_REL * max(1, value)``.
    """
    m = len(instance.target)
    if m == 0:
        return IntegerCoverSolution(chosen=(), value=0.0, status="optimal", nodes=0)
    tindex = {p: k for k, p in enumerate(instance.target)}
    full = (1 << m) - 1

    free: list[int] = []
    act: list[int] = []  # finite positive cost
    for i, c in enumerate(instance.costs):
        if math.isinf(c):
            continue
        if c == 0.0:
            if instance.covered[i]:
                free.append(i)
        else:
            act.append(i)

    mask_of = {}
    for i in free + act:
        mk = 0
        for p in instance.covered[i]:
            mk |= 1 << tindex[p]
        mask_of[i] = mk

    free_mask = 0
    for i in free:
        free_mask |= mask_of[i]
    reachable = free_mask
    for i in act:
        reachable |= mask_of[i]
    if reachable != full:
        return IntegerCoverSolution(chosen=(), value=INF, status="infeasible-infinite", nodes=0)

    remaining0 = full & ~free_mask
    if remaining0 == 0:
        return IntegerCoverSolution(
            chosen=tuple(sorted(free)), value=0.0, status="optimal", nodes=0
        )

    # Candidates that matter for the residual problem, in the global order.
    act = [i for i in act if mask_of[i] & remaining0]
    costs = {i: instance.costs[i] for i in act}
    order = sorted(
        act,
        key=lambda i: (
            -(_popcount(mask_of[i] & remaining0) / costs[i]),
            _lex_key(instance.space, instance.candidates[i]),
        ),
    )

    point_cands: list[list[int]] = [[] for _ in range(m)]
    for i in order:
        mk = mask_of[i] & remaining0
        while mk:
            low = mk & -mk
            point_cands[low.bit_length() - 1].append(i)
            mk ^= low
    cheapest = [0.0] * m
    for k in range(m):
        if remaining0 >> k & 1:
            cheapest[k] = min(costs[i] for i in point_cands[k])
    maxcov = max(_popcount(mask_of[i] & remaining0) for i in order)

    best_val: float = INF
    best_set: list[int] = []

    def record(cols: list[int]) -> None:
        # Incumbents are valued by the plain sum of their costs, never by
        # an LP objective, so soundness does not rest on LP accuracy.
        nonlocal best_val, best_set
        cols = sorted(cols)
        val = sum(costs[i] for i in cols)
        if val < best_val:
            best_val, best_set = val, cols

    def pruned(bound: float) -> bool:
        if best_val == INF:  # inf - inf is NaN; only an empty subtree prunes
            return bound == INF
        return bound >= best_val - _PRUNE_REL * max(1.0, best_val)

    g = _greedy_cover(order, costs, mask_of, remaining0)
    if g is None:  # unreachable: coverage was checked above
        raise OptimizerInternalError("greedy failed on a coverable instance")
    record(g)

    banned = {i: False for i in order}
    nodes = 0
    root_lower = 0.0

    def cheap_bound(rem: int) -> float:
        s = 0.0
        mk = rem
        while mk:
            low = mk & -mk
            s += cheapest[low.bit_length() - 1]
            mk ^= low
        return s / maxcov

    def lp_bound(rem: int) -> tuple[float, list[int], np.ndarray | None]:
        """Certified LP lower bound, the LP columns and their primal values."""
        rows = []
        mk = rem
        while mk:
            low = mk & -mk
            rows.append(low.bit_length() - 1)
            mk ^= low
        rowpos = {r: k for k, r in enumerate(rows)}
        cols = []
        rows_per_col = []
        for i in order:
            if banned[i]:
                continue
            mki = mask_of[i] & rem
            if not mki:
                continue
            cols.append(i)
            rr = []
            while mki:
                low = mki & -mki
                rr.append(rowpos[low.bit_length() - 1])
                mki ^= low
            rows_per_col.append(np.array(sorted(rr), dtype=np.int64))
        if not cols:
            return INF, cols, None
        costs_arr = np.array([costs[i] for i in cols])
        out = _covering_lp(costs_arr, rows_per_col, len(rows))
        if out is None:
            return INF, cols, None
        x = out[1]
        # Certified bound by weak duality: scale the dual so every
        # column sum sits below its cost, making the dual objective a
        # true lower bound regardless of solver rounding.
        y = out[2]
        lam = 1.0
        for cost_j, rr in zip(costs_arr, rows_per_col):
            s = float(y[rr].sum())
            if s > cost_j:
                if cost_j <= 0.0:
                    return 0.0, cols, x
                lam = min(lam, cost_j / s)
        return lam * float(y.sum()) * (1.0 - 1e-12), cols, x

    def visit(rem: int, cost_so_far: float, chosen: list[int]) -> None:
        nonlocal nodes, root_lower
        nodes += 1
        if nodes > node_limit:
            raise _NodeBudget
        if rem == 0:
            record(chosen)
            return
        lb = cheap_bound(rem)
        if pruned(cost_so_far + lb):
            return
        lp_lb, cols, x = lp_bound(rem)
        if x is not None and np.all(np.abs(x - np.round(x)) <= _INTEGRAL_TOL):
            picks = [i for i, xj in zip(cols, x) if xj > 0.5]
            covered = 0
            for i in picks:
                covered |= mask_of[i]
            if rem & ~covered == 0:
                record(chosen + picks)
        lb = max(lb, lp_lb)
        if nodes == 1:
            root_lower = cost_so_far + lb
        if pruned(cost_so_far + lb):
            return
        pick, fewest = -1, None
        mk = rem
        while mk:
            low = mk & -mk
            k = low.bit_length() - 1
            alive = sum(1 for i in point_cands[k] if not banned[i])
            if alive == 0:
                return  # this branch cannot cover k
            if fewest is None or alive < fewest:
                fewest, pick = alive, k
            mk ^= low
        tried: list[int] = []
        try:
            for i in point_cands[pick]:
                if banned[i]:
                    continue
                chosen.append(i)
                visit(rem & ~mask_of[i], cost_so_far + costs[i], chosen)
                chosen.pop()
                banned[i] = True
                tried.append(i)
        finally:
            for i in tried:
                banned[i] = False

    try:
        visit(remaining0, 0.0, [])
    except _NodeBudget:
        if len(act) <= _EXHAUSTIVE_LIMIT:
            val, subset = _exhaustive_min_cover(
                [costs[i] for i in act], [mask_of[i] for i in act], remaining0
            )
            chosen = sorted(free + [act[j] for j in subset])
            return IntegerCoverSolution(
                chosen=tuple(chosen), value=val, status="optimal", nodes=nodes
            )
        raise CandidateLimitExceeded(lower=root_lower, upper=best_val, nodes=nodes) from None

    chosen = sorted(free + best_set)
    return IntegerCoverSolution(chosen=tuple(chosen), value=best_val, status="optimal", nodes=nodes)


def _exhaustive_min_cover(costs: Sequence[float], masks: Sequence[int], full: int):
    """Scan all candidate subsets; only used for at most 20 candidates."""
    n = len(costs)
    best_val, best_subset = INF, None
    for bits in range(1 << n):
        mk, val, b = 0, 0.0, bits
        while b:
            low = b & -b
            j = low.bit_length() - 1
            mk |= masks[j]
            val += costs[j]
            b ^= low
            if val >= best_val:
                break
        if (mk & full) == full and val < best_val:
            best_val = val
            best_subset = bits
    subset = [j for j in range(n) if best_subset >> j & 1]
    return best_val, subset


# --- independent oracle -------------------------------------------------


def brute_force_oracle(instance: CoverInstance) -> tuple[float, float]:
    """Exhaustive integer and fractional optima for cross-checking.

    The integer value scans all candidate subsets; the fractional value
    enumerates every basic feasible solution of the covering polyhedron
    (all square subsystems of active rows and support columns) and takes
    the best feasible objective.  Bounded to 20 candidates and 10 target
    points; exact up to 1e-12 linear algebra.
    """
    n = len(instance.candidates)
    m = len(instance.target)
    if n > 20 or m > 10:
        raise SizeLimit(f"oracle limits are 20 candidates / 10 points, got {n}/{m}")
    if m == 0:
        return 0.0, 0.0
    tindex = {p: k for k, p in enumerate(instance.target)}

    # Integer optimum by subset doubling over all candidates; infinite
    # costs propagate through the sums and never win the minimum.
    size = 1 << n
    cover = np.zeros(size, dtype=np.int64)
    cost = np.zeros(size)
    for i in range(n):
        bit = 1 << i
        mk = 0
        for p in instance.covered[i]:
            mk |= 1 << tindex[p]
        cover[bit : 2 * bit] = cover[:bit] | mk
        cost[bit : 2 * bit] = cost[:bit] + instance.costs[i]
    full = (1 << m) - 1
    feasible = cover == full
    int_opt = float(cost[feasible].min()) if feasible.any() else INF

    # Fractional optimum by vertex enumeration on finite-cost columns.
    cols = [i for i in range(n) if not math.isinf(instance.costs[i])]
    a = np.zeros((m, len(cols)))
    for j, i in enumerate(cols):
        for p in instance.covered[i]:
            a[tindex[p], j] = 1.0
    c = np.array([instance.costs[i] for i in cols])
    if a.size == 0 or np.any(a.sum(axis=1) == 0):
        return int_opt, INF

    frac_opt = INF
    nc = len(cols)
    for k in range(1, min(m, nc) + 1):
        col_combos = np.array(list(itertools.combinations(range(nc), k)), dtype=np.int64)
        a_cols = a[:, col_combos]  # (m, C, k)
        c_sel = c[col_combos]  # (C, k)
        for rows in itertools.combinations(range(m), k):
            subs = a[np.ix_(rows, range(nc))][:, col_combos]  # (k, C, k)
            subs = np.transpose(subs, (1, 0, 2))  # (C, k, k)
            dets = np.linalg.det(subs)
            ok = np.abs(dets) > 0.5  # 0/1 matrices have integer determinants
            if not ok.any():
                continue
            rhs = np.ones((int(ok.sum()), k, 1))
            xs = np.linalg.solve(subs[ok], rhs)[..., 0]
            nonneg = (xs >= -1e-12).all(axis=1)
            if not nonneg.any():
                continue
            xs = np.clip(xs[nonneg], 0.0, None)
            idx = np.flatnonzero(ok)[nonneg]
            coverage = np.einsum("rck,ck->cr", a_cols[:, idx, :], xs)
            feas = (coverage >= 1.0 - 1e-12).all(axis=1)
            if not feas.any():
                continue
            objs = (xs[feas] * c_sel[idx][feas]).sum(axis=1)
            frac_opt = min(frac_opt, float(objs.min()))
    return int_opt, frac_opt


# --- top-level operations ------------------------------------------------


def hausdorff_premeasure(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    target: Iterable,
    delta: float,
    node_limit: int = _NODE_LIMIT,
) -> IntegerCoverSolution:
    """Generalized Hausdorff pre-measure of the target at scale delta."""
    instance = build_cover_instance(space, measure, q, xi, target, delta)
    return solve_integer(instance, node_limit=node_limit)


def weighted_premeasure(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    target: Iterable,
    delta: float,
) -> FractionalCoverSolution:
    """Weighted (fractional-cover) pre-measure of the target at scale delta."""
    instance = build_cover_instance(space, measure, q, xi, target, delta)
    return solve_fractional(instance)


def noncentered_weighted_premeasure(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    target: Iterable,
    delta: float,
) -> FractionalCoverSolution:
    """Weighted pre-measure with candidate centers anywhere in the space.

    The candidate family contains the centered one, so the value never
    exceeds the centered weighted pre-measure.
    """
    instance = build_cover_instance(
        space, measure, q, xi, target, delta, centers=space.point_ids
    )
    return solve_fractional(instance)


def delta_profile(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    target: Iterable,
    deltas: Sequence[float],
) -> DeltaProfile:
    """Integer, weighted and non-centered values per scale, descending.

    Values must be nondecreasing as delta shrinks (the candidate families
    are nested); a violation beyond 1e-9 indicates an optimizer bug and
    raises OptimizerInternalError.
    """
    ds = [float(d) for d in deltas]
    if sorted(ds, reverse=True) != ds:
        raise InvalidInput("deltas must be given in descending order")
    rows = []
    for d in ds:
        h = hausdorff_premeasure(space, measure, q, xi, target, d)
        w = weighted_premeasure(space, measure, q, xi, target, d)
        wn = noncentered_weighted_premeasure(space, measure, q, xi, target, d)
        rows.append(
            ProfileRow(
                delta=d, h_value=h.value, w_value=w.value, noncentered_w_value=wn.value
            )
        )
    for a, b in zip(rows, rows[1:]):  # b has the smaller delta
        for fld in ("h_value", "w_value", "noncentered_w_value"):
            if getattr(b, fld) < getattr(a, fld) - SOLVER_TOL:
                raise OptimizerInternalError(
                    f"{fld} decreased from {getattr(a, fld)!r} to {getattr(b, fld)!r} "
                    f"as delta shrank from {a.delta!r} to {b.delta!r}"
                )
    return DeltaProfile(rows=tuple(rows))


def product_premeasure_values(
    product: ProductSpace,
    pair_measure: PointMeasure,
    q: float,
    xi: Premeasure,
    left_target: Iterable,
    right_target: Iterable,
    delta: float,
) -> tuple[IntegerCoverSolution, FractionalCoverSolution]:
    """Integer and weighted optima over the rectangle family of a product."""
    instance = build_product_cover_instance(
        product, pair_measure, q, xi, left_target, right_target, delta
    )
    return solve_integer(instance), solve_fractional(instance)
