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

Both solvers read one array-native instance: a CSR incidence of the
candidates on the target and a cost array, built from one stable
argsort per center row (``metric.ball_grid``), or, on products, from
the Kronecker product of the factor incidences.  What they share is
prepared once per instance and cached on it: the residual problem
(``CoverInstance._residual``) and its covering LP
(``CoverInstance._root_lp``), so solving H and W on one instance
builds, reduces and solves that LP once.  The LP is computed when a
solver first needs it.

The residual problem takes the zero-cost candidates as given: its rows
are the target points no zero-cost candidate covers, its columns the
positive finite-cost candidates that meet them.  H is the residual
optimum plus the zero-cost candidates with members.  W is the residual
LP optimum plus weight 1 on each of them, with the same value, and its
dual is 0 on the rows they cover, which keeps it feasible for their
zero-cost columns.

Before either solve, one lossless set-cover reduction (``_reduce``; Beasley
1987, Caprara, Fischetti & Toth 2000) shrinks the residual problem by
three exact rules run until no row drops: of columns with identical
member sets only the cheapest stays (ties to the lowest index); a column
inside another kept column of equal or lower cost goes; a row whose
candidate set contains another row's goes, since covering that row
covers it (of two equal rows the lower index stays).  Identical sets
are found by hashing and then compared member by member, and
containment is tested only against the columns (or rows) that hold the
rarest element, in bounded chunks.
The LP and the branch and bound run on the reduced problem, whose LP is
the root node of the search; weights and choices map back to the
public candidates, a dropped column gets weight 0 and a dropped row
dual 0.  The fractional certificate is still checked on the whole
finite-cost instance, which stays valid because a dropped column j
inside a kept i has load(j) <= load(i) <= c_i <= c_j.  The size rule:
residual problems with fewer than ``_REDUCE_MIN_COLS`` (64) columns are
solved as given, because their LPs are tiny and the reduction's fixed
cost would not pay off.

Every covering LP (the shared root LP and each later node bound of the
integer search) goes through ``_covering_lp``, one direct call into
scipy's bundled HiGHS bindings with the options linprog passes, so each
result equals linprog's bit for bit.  HiGHS reporting the LP optimal
gives the solution, infeasible gives None, and any other status, or a
HiGHS error, raises NumericalFailure.  The bindings are private API;
a scipy without them (older than 1.15) fails this module's import.

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
support joined with the node's picks is checked against the incidence
and, if it covers, offered as an incumbent valued by the plain sum of
its costs, never by the LP objective.  Branching picks the uncovered
point covered by the fewest still-allowed candidates and tries its
candidates in the global order (descending coverage per unit cost, ties
by lexicographic (center, radius)), excluding earlier branches from
later ones, which makes the search exhaustive without repetition and
deterministic.  If the node budget is exhausted, the search raises
CandidateLimitExceeded carrying the proven bound bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# scipy's bundled HiGHS bindings: private API, present since scipy 1.15,
# the floor in pyproject.toml.
from scipy.optimize._highspy import _core as _highs

from .errors import (
    CandidateLimitExceeded,
    InvalidInput,
    NumericalFailure,
    OptimizerInternalError,
    SizeLimit,
)
from .extended import INF, SOLVER_TOL
from .metric import (
    FiniteMetricSpace,
    PointMeasure,
    ProductSpace,
    ball_grid,
    csr_offsets,
    rectangle_grid,
    take_segments,
)
from .premeasure import Premeasure, weight_terms

# The per-candidate scalar functions are no longer called here, but
# perfbench/tracer.py wraps them by these names in this module.
from .metric import (  # noqa: F401
    ball_members,
    enumerate_centered_balls,
    enumerate_centered_rectangles,
)
from .premeasure import weight_term  # noqa: F401

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
# Relative prune margin: strictly above the 1e-12 relative shrink of the
# certified LP bound, so a tight bound prunes, and far below SOLVER_TOL.
_PRUNE_REL = 1e-11
_INTEGRAL_TOL = 1e-9  # LP solution entries this close to an integer count as integral


# --- instances ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverInstance:
    """Frozen covering problem: candidates, their costs and the target incidence.

    The incidence is CSR: the members of candidate ``j`` inside the
    target are the target positions ``indices[indptr[j]:indptr[j + 1]]``
    (in no particular order), and ``costs[j]`` is its cost.  ``covered``
    is a derived read-only view of the same incidence, as frozensets of
    target ids.
    """

    space: FiniteMetricSpace | ProductSpace
    target: tuple
    candidates: tuple
    indptr: np.ndarray
    indices: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.costs):
            arr.setflags(write=False)

    @cached_property
    def covered(self) -> tuple[frozenset, ...]:
        tgt, bounds = self.target, self.indptr.tolist()
        return tuple(
            frozenset(tgt[k] for k in self.indices[a:b].tolist())
            for a, b in zip(bounds, bounds[1:])
        )

    @cached_property
    def _residual(self) -> _Residual | None:
        """The reduced residual problem both solvers share (module docstring).

        None when a target point has no finite-cost candidate.
        """
        costs, m = self.costs, len(self.target)
        sizes = np.diff(self.indptr)
        owner = np.repeat(np.arange(len(costs)), sizes)  # candidate of each incidence entry
        finite = np.isfinite(costs)
        zero = costs == 0.0
        reachable = np.zeros(m, dtype=bool)
        reachable[self.indices[finite[owner]]] = True
        if not reachable.all():
            return None
        rows = np.ones(m, dtype=bool)
        rows[self.indices[zero[owner]]] = False
        # Columns in the global order: descending coverage per unit cost,
        # ties by candidate index, which is lexicographic (center, radius).
        gain = np.bincount(owner[rows[self.indices]], minlength=len(costs))
        act = np.flatnonzero(finite & ~zero & (gain > 0))
        order = act[np.argsort(-(gain[act] / costs[act]), kind="stable")]
        del owner  # entry-sized: free it before the incidence is built
        inc = _incidence(self.indptr, self.indices, order, rows)
        if len(order) >= _REDUCE_MIN_COLS:
            # Reduce, then put the kept columns that still meet a row in the
            # global order of the reduced problem.
            kept, kept_rows = _reduce(inc, costs[order])
            gain = np.bincount(inc.row_cols[kept_rows[inc.row_of]], minlength=len(order))[kept]
            kept, gain = kept[gain > 0], gain[gain > 0]
            kept = kept[np.argsort(-(gain / costs[order[kept]]), kind="stable")]
            inc, order = _incidence(inc.col_ptr, inc.col_rows, kept, kept_rows), order[kept]
            rows[rows] = kept_rows
        return _Residual(
            free=np.flatnonzero(zero & (sizes > 0)), rows=np.flatnonzero(rows), order=order, inc=inc
        )

    @cached_property
    def _root_lp(self):
        """The covering LP of ``_residual``: ``linprog``'s (value, x, y), or None if infeasible.

        ``x`` runs over the residual columns in ``order`` and ``y`` over its
        rows.  The LP is posed with the columns in candidate order, so
        its solution does not depend on the integer search's order.
        """
        res = self._residual
        if not len(res.rows):
            return 0.0, np.zeros(0), np.zeros(0)
        by_index = np.argsort(res.order)
        all_rows = np.ones(len(res.rows), dtype=bool)
        lp = _incidence(res.inc.col_ptr, res.inc.col_rows, by_index, all_rows)
        out = linprog(self.costs[res.order[by_index]], lp.row_ptr, lp.row_cols)
        if out is None:
            return None
        value, x, y = out
        x_order = np.empty_like(x)
        x_order[by_index] = x
        return value, x_order, y


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


def _sorted_target(space: FiniteMetricSpace, points: Iterable) -> tuple:
    pts = set(points)
    for p in pts:
        space.index_of(p)  # raises UnknownCenter on bad ids
    return tuple(sorted(pts, key=space.index_of))


def _empty_instance(space) -> CoverInstance:
    return CoverInstance(
        space=space,
        target=(),
        candidates=(),
        indptr=np.zeros(1, dtype=np.intp),
        indices=np.zeros(0, dtype=np.intp),
        costs=np.zeros(0),
    )


def build_cover_instance(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    target: Iterable,
    delta: float,
    centers: Iterable | None = None,
) -> CoverInstance:
    """Candidates centered in the target (or in ``centers`` when given).

    Candidates run by center index, then by radius.
    """
    tgt = _sorted_target(space, target)
    if not tgt:
        return _empty_instance(space)
    grid = ball_grid(space, tgt if centers is None else centers, delta)
    indptr, indices = grid.incidence(tgt)
    return CoverInstance(
        space=space,
        target=tgt,
        candidates=tuple(grid.balls()),
        indptr=indptr,
        indices=indices,
        costs=weight_terms(grid, measure, q, xi),
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
    """Rectangle candidates for the target E x F inside a product space.

    The target runs in the (a, b) row-major order of ``product.space``;
    rectangles run by left center, right center, left radius, right
    radius.
    """
    lt = _sorted_target(product.left, left_target)
    rt = _sorted_target(product.right, right_target)
    tgt = tuple((a, b) for a in lt for b in rt)
    if not tgt:
        return _empty_instance(product)
    grid = rectangle_grid(product, lt, rt, delta)
    indptr, indices = grid.incidence(lt, rt)
    return CoverInstance(
        space=product,
        target=tgt,
        candidates=tuple(grid.rectangles()),
        indptr=indptr,
        indices=indices,
        costs=weight_terms(grid, pair_measure, q, xi),
    )


class _Incidence(NamedTuple):
    """A 0/1 matrix of target rows by columns, stored by columns and by rows.

    Column ``j`` covers the rows ``col_rows[col_ptr[j]:col_ptr[j + 1]]``;
    row ``k`` is covered by the columns
    ``row_cols[row_ptr[k]:row_ptr[k + 1]]``, ascending, and ``row_of``
    holds the row of each entry of ``row_cols``.
    """

    col_ptr: np.ndarray
    col_rows: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray
    row_of: np.ndarray


class _Residual(NamedTuple):
    """The covering problem H and W share (``CoverInstance._residual``).

    ``free`` holds the zero-cost candidates with members, ascending.  The
    rows are the target positions ``rows``, ascending; the columns are
    the candidates ``order``, in the global order; ``inc`` is their
    incidence.
    """

    free: np.ndarray
    rows: np.ndarray
    order: np.ndarray
    inc: _Incidence


def _stable_order(ids: np.ndarray, n: int) -> np.ndarray:
    """The stable sort order of ``ids``, integers in ``0..n-1``.

    The keys are sorted in the smallest unsigned type that holds them:
    numpy's stable sort of 8- and 16-bit keys is a radix sort, and a
    stable order does not depend on the key type.
    """
    return np.argsort(ids.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")


def _incidence(
    indptr: np.ndarray, indices: np.ndarray, cols: np.ndarray, rows: np.ndarray
) -> _Incidence:
    """The incidence of the columns ``cols`` of a CSR matrix on the rows marked in ``rows``.

    Column ``j`` holds the rows ``indices[indptr[j]:indptr[j + 1]]``.  The
    result has the columns ``cols`` in that order and the marked rows,
    renumbered in ascending order.
    """
    m = int(np.count_nonzero(rows))
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    col_rows = take_segments(indices, starts, counts)
    if m < len(rows):
        keep = rows[col_rows]
        owner = np.repeat(np.arange(len(cols)), counts)[keep]
        counts = np.bincount(owner, minlength=len(cols))
        col_rows = (np.cumsum(rows) - 1)[col_rows[keep]]
    by_row = _stable_order(col_rows, m)
    return _Incidence(
        col_ptr=csr_offsets(counts),
        col_rows=col_rows,
        row_ptr=csr_offsets(np.bincount(col_rows, minlength=m)),
        row_cols=np.repeat(np.arange(len(cols)), counts)[by_row],
        row_of=col_rows[by_row],
    )


# --- lossless reduction -------------------------------------------------

# Instances with fewer finite-cost columns than this are solved as given:
# their LPs are tiny, and the reduction's fixed cost would not pay off.
_REDUCE_MIN_COLS = 64
# Candidate pairs, or member entries, that the containment test holds at once.
_CHUNK = 1 << 14


def _element_keys(n: int) -> np.ndarray:
    """One pseudo-random 64-bit key per element ``0..n-1`` (the splitmix64 finalizer)."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _set_keys(member: np.ndarray, ptr: np.ndarray, n_elems: int) -> np.ndarray:
    """One 64-bit key per set: the wrapping sum of its elements' keys.

    Set ``s`` holds ``member[ptr[s]:ptr[s + 1]]``.  Equal sets get equal
    keys; distinct sets may too, so a key only buckets.
    """
    total = np.zeros(len(member) + 1, dtype=np.uint64)
    np.cumsum(_element_keys(n_elems)[member], out=total[1:])
    return total[ptr[1:]] - total[ptr[:-1]]


def _chunks(weight: np.ndarray, limit: int):
    """Consecutive ranges ``[start, stop)`` of weight at most ``limit``, or of one item."""
    total = np.cumsum(weight)
    start = 0
    while start < len(weight):
        base = total[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(total, base + limit, side="right")))
        yield start, stop
        start = stop


def _identical(owner, member, n_sets, n_elems, sets, cost) -> np.ndarray:
    """Mask of the sets among ``sets`` equal to a cheaper one, or an equal-cost one of lower index.

    The entries ``(owner, member)`` are sorted by owner, then member, so
    equal sets have equal member runs.  Sets are bucketed by their key
    and size, and each is compared member by member with the cheapest
    set of its bucket before it is merged into it; sets that differ from
    it form the buckets of the next round.
    """
    size = np.bincount(owner, minlength=n_sets)
    ptr = csr_offsets(size)
    key = _set_keys(member, ptr, n_elems)
    merged = np.zeros(n_sets, dtype=bool)
    pending = sets
    while len(pending) > 1:
        s = pending[np.lexsort((pending, cost[pending], size[pending], key[pending]))]
        head = np.ones(len(s), dtype=bool)
        head[1:] = (key[s[1:]] != key[s[:-1]]) | (size[s[1:]] != size[s[:-1]])
        rep = s[np.flatnonzero(head)[np.cumsum(head) - 1]]
        a, b = s[~head], rep[~head]
        differ = take_segments(member, ptr[a], size[a]) != take_segments(member, ptr[b], size[a])
        bad = np.bincount(np.repeat(np.arange(len(a)), size[a])[differ], minlength=len(a)) > 0
        merged[a[~bad]] = True
        pending = a[bad]
    return merged


def _inside(owner, member, holder, n_sets, n_elems, admissible):
    """Masks of the sets ``a`` and ``b`` in pairs with ``a`` inside ``b`` and ``admissible(a, b)``.

    Set ``s`` holds elements in ``0..n_elems-1``.  The entries
    ``(owner, member)`` are sorted by owner, then member; ``holder``
    holds the owners of the same entries sorted by member, then owner.
    ``admissible`` maps index arrays to a mask and must reject
    ``a == b``.  A set holding ``a`` holds its rarest element, so only the
    holders of that element are tried, a bounded chunk at a time: first
    by a 64-bit signature of each set, which is the set itself when
    there are at most 64 elements, then, if there are more, member by
    member.
    """
    size = np.bincount(owner, minlength=n_sets)
    ptr = csr_offsets(size)
    deg = np.bincount(member, minlength=n_elems)
    hold_ptr = csr_offsets(deg)
    sets = np.flatnonzero(size)
    starts = ptr[sets]
    rare = np.minimum.reduceat(deg[member] * n_elems + member, starts) % n_elems
    bits = np.left_shift(np.uint64(1), (member % 64).astype(np.uint64))
    sig = np.zeros(n_sets, dtype=np.uint64)
    sig[sets] = np.bitwise_or.reduceat(bits, starts)
    keys = owner * n_elems + member  # ascending
    count = deg[rare]
    inner, outer = np.zeros(n_sets, dtype=bool), np.zeros(n_sets, dtype=bool)
    for lo, hi in _chunks(count, _CHUNK):
        a = np.repeat(sets[lo:hi], count[lo:hi])
        b = take_segments(holder, hold_ptr[rare[lo:hi]], count[lo:hi])
        ok = admissible(a, b)
        ok[ok] = (sig[a[ok]] & ~sig[b[ok]]) == 0
        a, b = a[ok], b[ok]
        if n_elems <= 64:
            inner[a], outer[b] = True, True
            continue
        for lo2, hi2 in _chunks(size[a], _CHUNK):
            pa, pb = a[lo2:hi2], b[lo2:hi2]
            probe = take_segments(member, ptr[pa], size[pa]) + np.repeat(pb * n_elems, size[pa])
            at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
            missing = np.repeat(np.arange(len(pa)), size[pa])[keys[at] != probe]
            inside = np.bincount(missing, minlength=len(pa)) == 0
            inner[pa[inside]], outer[pb[inside]] = True, True
    return inner, outer


def _live(a: np.ndarray, b: np.ndarray, a_kept: np.ndarray, b_kept: np.ndarray):
    """The entries ``(a, b)`` whose ``a`` and ``b`` are both kept."""
    keep = a_kept[a] & b_kept[b]
    return a[keep], b[keep]


def _reduce(inc: _Incidence, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lossless set-cover reduction: the kept columns, ascending, and a kept-row mask.

    Every row of ``inc`` is to be covered.  Three exact rules run until
    no row drops:

    * of columns with identical row sets, only the cheapest is kept
      (ties to the lowest index);
    * a column whose rows lie inside another kept column's, at equal or
      lower cost, is dropped;
    * a row whose column set contains another row's is dropped (of two
      equal rows, the lower index is kept), since covering that row
      covers it.

    A column's rows are those still kept, and a row's columns those
    still kept.  An optimum of the kept problem, integer or fractional,
    covers every row and is an optimum of the whole one.
    """
    n, m = len(cost), len(inc.row_ptr) - 1
    by_col = _stable_order(inc.row_cols, n)
    col, col_row = inc.row_cols[by_col], inc.row_of[by_col]  # sorted by (column, row)
    row, row_col = inc.row_of, inc.row_cols  # sorted by (row, column)
    cols, rows = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    while True:
        cols &= ~_identical(col, col_row, n, m, np.flatnonzero(cols), cost)
        col, col_row = _live(col, col_row, cols, rows)
        row, row_col = _live(row, row_col, rows, cols)
        size = np.bincount(col, minlength=n)
        dominated, _ = _inside(
            col, (np.cumsum(rows) - 1)[col_row], row_col, n, int(rows.sum()),
            lambda a, b: (size[b] > size[a]) & (cost[b] <= cost[a]),
        )
        cols &= ~dominated
        col, col_row = _live(col, col_row, cols, rows)
        row, row_col = _live(row, row_col, rows, cols)
        size = np.bincount(row, minlength=m)
        _, covering = _inside(
            row, (np.cumsum(cols) - 1)[row_col], col_row, m, int(cols.sum()),
            lambda a, b: (size[b] > size[a]) | ((size[b] == size[a]) & (a < b)),
        )
        if not covering.any():
            return np.flatnonzero(cols), rows
        rows &= ~covering
        col, col_row = _live(col, col_row, cols, rows)
        row, row_col = _live(row, row_col, rows, cols)


# --- shared LP core -----------------------------------------------------

# The options are the ones linprog(method="highs") passes for this LP.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.primal_feasibility_tolerance = 1e-10
_HIGHS_OPTIONS.dual_feasibility_tolerance = 1e-10
_HIGHS_OPTIONS.simplex_strategy = int(
    _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
)
_HIGHS_OPTIONS.highs_debug_level = int(_highs.HighsDebugLevel.kHighsDebugLevelNone)
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_INF = _highs.kHighsInf
_HIGHS_ERROR = _highs.HighsStatus.kError
_OPTIMAL = _highs.HighsModelStatus.kOptimal
_INFEASIBLE = _highs.HighsModelStatus.kInfeasible
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


def _covering_lp(costs: np.ndarray, row_ptr: np.ndarray, row_cols: np.ndarray):
    """Solve min c.x, x >= 0, with the x of each row's columns summing to >= 1.

    The 0/1 constraint matrix is given by rows: row ``k`` holds the
    columns ``row_cols[row_ptr[k]:row_ptr[k + 1]]``, ascending.  Returns
    (value, x, y) with y the dual potentials of the row constraints when
    HiGHS reports the LP optimal, and None when it reports it
    infeasible.  Any other model status, or an error from HiGHS, raises
    NumericalFailure naming the status.

    HiGHS gets the LP as ``-A x <= -1`` with ``A`` by columns, rows
    ascending in each, as linprog hands it over, and a fresh model per
    call, so every solve starts cold and the result is the one linprog
    gives, bit for bit.
    """
    m, n, nnz = len(row_ptr) - 1, len(costs), len(row_cols)
    # A stable sort by column keeps each column's rows ascending.
    rows = np.repeat(np.arange(m, dtype=np.int32), np.diff(row_ptr))
    rows = rows[_stable_order(row_cols, n)]
    col_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row_cols, minlength=n), out=col_ptr[1:])
    model = _highs._Highs()
    if (
        model.passOptions(_HIGHS_OPTIONS) == _HIGHS_ERROR
        # The array form of passModel needs an integrality vector; all
        # zeros (continuous) keeps the model a plain LP.
        or model.passModel(
            n, m, nnz, _COLWISE, _MINIMIZE, 0.0,
            costs, np.zeros(n), np.full(n, _HIGHS_INF),
            np.full(m, -_HIGHS_INF), np.full(m, -1.0),
            col_ptr, rows, np.full(nnz, -1.0), np.zeros(n, dtype=np.int32),
        ) == _HIGHS_ERROR
        or model.run() == _HIGHS_ERROR
    ):
        raise NumericalFailure(
            float("nan"), float("nan"), f"HiGHS error, model status {model.getModelStatus().name}"
        )
    status = model.getModelStatus()
    if status == _INFEASIBLE:
        return None
    if status != _OPTIMAL:
        raise NumericalFailure(float("nan"), float("nan"), f"HiGHS model status {status.name}")
    solution = model.getSolution()
    x = np.clip(np.asarray(solution.col_value), 0.0, None)
    y = np.clip(-np.asarray(solution.row_dual), 0.0, None)
    return float(costs @ x), x, y


# Every covering LP is solved through this module name, which
# perfbench/tracer.py wraps to time and count the LPs.
linprog = _covering_lp


# --- fractional solver --------------------------------------------------


def solve_fractional(instance: CoverInstance) -> FractionalCoverSolution:
    """Weighted covering optimum with a verified dual certificate.

    The LP is the residual one that ``solve_integer`` starts from
    (module docstring): every zero-cost candidate with members gets
    weight 1, columns the reduction drops get weight 0, and rows that a
    zero-cost candidate covers or the reduction drops get dual 0, so the
    weights may be a different tied optimum than the unreduced LP's.
    The returned weights cover every target point and the dual is
    feasible (column sums below cost plus 1e-9) on the whole finite-cost
    instance, and it closes the gap to within 1e-9 * max(1, value);
    anything worse raises NumericalFailure with the primal/dual bracket.
    """
    m = len(instance.target)
    n = len(instance.costs)
    if m == 0:
        return FractionalCoverSolution(
            weights=(), value=0.0, dual={}, gap=0.0, status="optimal"
        )
    res = instance._residual
    if res is None:  # a point no finite-cost candidate covers
        return FractionalCoverSolution(
            weights=(0.0,) * n,
            value=INF,
            dual={},
            gap=0.0,
            status="infeasible-infinite",
        )
    out = instance._root_lp
    if out is None:
        raise NumericalFailure(
            INF, 0.0, "LP reported infeasible although finite-cost candidates cover the target"
        )
    value, x, y = out
    weights, dual = np.zeros(n), np.zeros(m)
    weights[res.free], weights[res.order], dual[res.rows] = 1.0, x, y

    # Certificate checks, on the whole finite-cost instance.
    costs = instance.costs
    owner = np.repeat(np.arange(n), np.diff(instance.indptr))
    coverage = np.bincount(instance.indices, weights=weights[owner], minlength=m)
    if np.any(coverage < 1.0 - SOLVER_TOL):
        raise NumericalFailure(value, float(dual.sum()), "primal cover constraint violated")
    finite = np.isfinite(costs)
    loads = np.bincount(owner, weights=dual[instance.indices], minlength=n)
    if np.any(loads[finite] > costs[finite] + SOLVER_TOL):
        raise NumericalFailure(value, float(dual.sum()), "dual feasibility violated")
    gap = abs(value - float(dual.sum()))
    if gap > SOLVER_TOL * max(1.0, value):
        raise NumericalFailure(value, float(dual.sum()), "duality gap above tolerance")

    return FractionalCoverSolution(
        weights=tuple(weights.tolist()),
        value=value,
        dual=dict(zip(instance.target, dual.tolist())),
        gap=gap,
        status="optimal",
    )


# --- integer solver -----------------------------------------------------


def _greedy_cover(cost: np.ndarray, inc: _Incidence, rem: np.ndarray) -> list[int] | None:
    """Deterministic greedy incumbent: max new coverage per unit cost.

    Columns are in the global order and ``rem`` marks the rows still to
    cover.  Ties go to the first column in that order.  Gains are kept
    up to date incrementally.
    """
    rem = rem.copy()
    gain = np.bincount(inc.row_cols[rem[inc.row_of]], minlength=len(cost))
    picks: list[int] = []
    while rem.any():
        p = int(np.argmax(gain / cost))
        if gain[p] == 0:
            return None
        picks.append(p)
        new = inc.col_rows[inc.col_ptr[p] : inc.col_ptr[p + 1]]
        new = new[rem[new]]
        rem[new] = False
        starts = inc.row_ptr[new]
        hit = take_segments(inc.row_cols, starts, inc.row_ptr[new + 1] - starts)
        gain -= np.bincount(hit, minlength=len(cost))
    return picks


def solve_integer(instance: CoverInstance, node_limit: int = _NODE_LIMIT) -> IntegerCoverSolution:
    """Exact minimum-cost cover of the target by candidate members.

    The returned value is the plain sum of the chosen costs and exceeds
    the true optimum by at most ``_PRUNE_REL * max(1, value)``.  The
    search runs on the reduced residual problem (module docstring), and
    its root node reads the LP ``solve_fractional`` solves, so ``chosen``
    may be a different tied optimum than the unreduced search finds, and
    ``nodes`` (the CSV ``nodes`` column) can be lower.
    """
    if not instance.target:
        return IntegerCoverSolution(chosen=(), value=0.0, status="optimal", nodes=0)
    res = instance._residual
    if res is None:
        return IntegerCoverSolution(chosen=(), value=INF, status="infeasible-infinite", nodes=0)
    free = res.free.tolist()
    if not len(res.rows):
        return IntegerCoverSolution(chosen=tuple(free), value=0.0, status="optimal", nodes=0)

    inc, order = res.inc, res.order
    m = len(res.rows)
    n = len(order)
    cost = instance.costs[order]
    cost_of = instance.costs.tolist()
    cheapest = np.minimum.reduceat(cost[inc.row_cols], inc.row_ptr[:-1]).tolist()
    maxcov = int(np.diff(inc.col_ptr).max())
    uncovered = np.ones(m, dtype=bool)  # every row of inc is still to cover

    best_val: float = INF
    best_set: list[int] = []

    def record(cols) -> None:
        # Incumbents are valued by the plain sum of their costs, never by
        # an LP objective, so soundness does not rest on LP accuracy.
        nonlocal best_val, best_set
        ids = sorted(order[cols].tolist())
        val = sum(cost_of[i] for i in ids)
        if val < best_val:
            best_val, best_set = val, ids

    def pruned(bound: float) -> bool:
        if best_val == INF:  # inf - inf is NaN; only an empty subtree prunes
            return bound == INF
        return bound >= best_val - _PRUNE_REL * max(1.0, best_val)

    g = _greedy_cover(cost, inc, uncovered)
    if g is None:  # unreachable: coverage was checked above
        raise OptimizerInternalError("greedy failed on a coverable instance")
    record(g)

    banned = np.zeros(n, dtype=bool)
    nodes = 0
    root_lower = 0.0

    def lp_bound(rem: np.ndarray, keep: np.ndarray, live: np.ndarray):
        """Certified LP lower bound, and the LP's picks when they are integral.

        ``keep`` marks the entries (by rows) of allowed columns on rows
        of ``rem``; ``live`` counts them per row.  The picks are returned
        only when they cover ``rem``.  At the root every column and row
        is in, so its LP is the instance's shared ``_root_lp``.
        """
        if nodes == 1:
            cols, row_ptr, row_cols = np.arange(n), inc.row_ptr, inc.row_cols
            out = instance._root_lp
        else:
            in_lp = np.zeros(n, dtype=bool)
            in_lp[inc.row_cols[keep]] = True
            cols = np.flatnonzero(in_lp)
            if not cols.size:
                return INF, None
            row_ptr = csr_offsets(live[rem])
            row_cols = (np.cumsum(in_lp) - 1)[inc.row_cols[keep]]
            out = linprog(cost[cols], row_ptr, row_cols)
        costs_arr = cost[cols]
        if out is None:
            return INF, None
        _, x, y = out
        row_of = np.repeat(np.arange(len(row_ptr) - 1), np.diff(row_ptr))
        integral = None
        if np.all(np.abs(x - np.round(x)) <= _INTEGRAL_TOL):
            picks = x > 0.5
            hit = np.zeros(len(row_ptr) - 1, dtype=bool)
            hit[row_of[picks[row_cols]]] = True
            if hit.all():
                integral = cols[picks]
        # Certified bound by weak duality: scale the dual so every
        # column sum sits below its cost, making the dual objective a
        # true lower bound regardless of solver rounding.
        sums = np.bincount(row_cols, weights=y[row_of], minlength=len(cols))
        over = sums > costs_arr
        lam = 1.0
        if over.any():
            if np.any(costs_arr[over] <= 0.0):
                return 0.0, integral
            lam = min(lam, float(np.min(costs_arr[over] / sums[over])))
        return lam * float(y.sum()) * (1.0 - 1e-12), integral

    def visit(rem: np.ndarray, cost_so_far: float, chosen: list[int]) -> None:
        nonlocal nodes, root_lower
        nodes += 1
        if nodes > node_limit:
            raise CandidateLimitExceeded(lower=root_lower, upper=best_val, nodes=nodes)
        rows = np.flatnonzero(rem)
        if not rows.size:
            record(chosen)
            return
        lb = sum(cheapest[k] for k in rows.tolist()) / maxcov
        if pruned(cost_so_far + lb):
            return
        keep = rem[inc.row_of] & ~banned[inc.row_cols]
        live = np.bincount(inc.row_of[keep], minlength=m)
        lp_lb, integral = lp_bound(rem, keep, live)
        if integral is not None:  # an integral LP solution that covers
            record(chosen + integral.tolist())
        lb = max(lb, lp_lb)
        if nodes == 1:
            root_lower = cost_so_far + lb
        if pruned(cost_so_far + lb):
            return
        alive = live[rows]
        if not alive.all():
            return  # this branch cannot cover some point
        pick = int(rows[np.argmin(alive)])
        tried: list[int] = []
        try:
            for p in inc.row_cols[inc.row_ptr[pick] : inc.row_ptr[pick + 1]].tolist():
                if banned[p]:
                    continue
                child = rem.copy()
                child[inc.col_rows[inc.col_ptr[p] : inc.col_ptr[p + 1]]] = False
                chosen.append(p)
                visit(child, cost_so_far + cost_of[order[p]], chosen)
                chosen.pop()
                banned[p] = True
                tried.append(p)
        finally:
            banned[tried] = False

    visit(uncovered, 0.0, [])
    del visit  # the closure refers to itself: free the cycle, and the arrays it holds, now
    chosen = sorted(free + best_set)
    return IntegerCoverSolution(chosen=tuple(chosen), value=best_val, status="optimal", nodes=nodes)


def _min_cost_subset(costs: Sequence[float], point_masks: np.ndarray) -> tuple[float, int]:
    """Cheapest subset of at most 20 candidates meeting every point mask.

    Bit ``i`` of ``point_masks[k]`` is set when candidate ``i`` covers
    point ``k``.  Subset costs are built by doubling, so each is the
    plain sum in candidate order; infinite costs propagate and never win.
    Returns the value and the subset as a bit set (the lowest one among
    ties), or (inf, 0) when no subset covers.
    """
    size = 1 << len(costs)
    total = np.zeros(size)
    for i, c in enumerate(costs):
        total[1 << i : 2 << i] = total[: 1 << i] + c
    subsets = np.arange(size, dtype=np.int64)
    feasible = np.ones(size, dtype=bool)
    for mk in np.unique(point_masks):
        feasible &= (subsets & mk) != 0
    if not feasible.any():
        return INF, 0
    candidates = np.flatnonzero(feasible)
    best = int(candidates[np.argmin(total[candidates])])
    return float(total[best]), best


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
    full = np.zeros((m, n))
    full[instance.indices, np.repeat(np.arange(n), np.diff(instance.indptr))] = 1.0

    # Integer optimum by the subset scan over all candidates.
    point_masks = (full.astype(np.int64) << np.arange(n, dtype=np.int64)).sum(axis=1)
    int_opt, _ = _min_cost_subset(instance.costs.tolist(), point_masks)

    # Fractional optimum by vertex enumeration on finite-cost columns.
    cols = np.flatnonzero(np.isfinite(instance.costs))
    a = full[:, cols]
    c = instance.costs[cols]
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
        instance = build_cover_instance(space, measure, q, xi, target, d)
        h, w = solve_integer(instance), solve_fractional(instance)
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
