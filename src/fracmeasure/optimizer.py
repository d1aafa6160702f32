"""Exact covering optima: the integer and fractional pre-measure values.

For a target set E, a scale delta and a cost ``weight_term(mu, q, xi, B)``
per candidate ball, two optima are computed over the finite lossless
candidate family of ``enumerate_centered_balls``:

* the integer optimum (min-cost subset of candidates whose members cover
  E), the value of the generalized Hausdorff pre-measure at scale delta;
* the fractional optimum (min-cost nonnegative weights with total weight
  at least 1 over every point of E), the weighted pre-measure, solved as
  a covering LP and certified by an explicit feasible dual.

Conventions: the empty target has value 0 (an instance with no rows, built
and validated like any other); if the finite-cost candidates fail to
cover E the value is infinity (status ``infeasible-infinite``).
Candidates of infinite cost never enter a solution; candidates of zero
cost are always safe to take.

Both solvers read one array-native instance: the candidate grid on the
target (``metric.ball_grid``, or on products the pairs of two factor
grids) and a cost array.  On a ball grid each candidate's members are a
prefix of one row of ``BallGrid.order``, the points by distance from its
center (``_Prefixes``); a rectangle's are the product of its factors'
(``_Pairs``).  So the load of a dual ``y`` on every candidate at once is
one prefix sum per center row (``BallGrid.sums``, which
``BallGrid.mass`` uses too), or on products a matrix product of the
factor indicators with ``y`` (``RectangleGrid.sums``).  The ``Ball`` or ``Rectangle`` of each
candidate, and the CSR incidence of all of them on the target, are views
built only when read, and no solve reads them: the search cuts the
members of its own columns from the grid (``_Prefixes.members``,
``_Pairs.members``).

The root LP (``CoverInstance._root``, ``_priced_root``) is shared by H
and W and computed once per instance, when a solver first needs it.  It
takes the zero-cost candidates as given: its rows are the target points
no zero-cost candidate holds.  It is solved by delayed column generation
(Gilmore & Gomory 1961; Desrosiers & Luebbecke 2005) in one HiGHS model:
it starts from the cheapest finite-cost candidate at each center, plus,
for the rows those leave uncovered, the finite-cost candidate at each
center that holds most of them, round after round (``_span``; on a ball
grid one round, which takes the largest such ball).  A row no finite-cost
candidate reaches makes the value infinite (status
``infeasible-infinite``).  Each round prices every finite-cost candidate
against the dual, adds at each center the candidate of most negative
reduced cost below ``-SOLVER_TOL`` with ``addCols`` and re-solves from
the basis, until no candidate outside the model has one (HiGHS holds
those inside to 1e-10).  That last pricing pass is W's
dual check over the whole finite-cost family: no load may exceed its
cost by more than ``SOLVER_TOL``, the stopping rule itself, and the dual
must close the gap; the weights of the support must cover every row.
The same pass, with the dual scaled by lambda so that no load exceeds
its cost, gives H's certified bound at node 1 (``_certified``).  W is
the LP optimum plus weight 1 on each zero-cost candidate with members,
with the same value, and its dual is 0 on the rows they hold, which
keeps it feasible for their zero-cost columns.  H is the same LP's node
1: its certified bound and the cover rounded from its support decide H
whenever they meet, and on a line, where the incidence is an interval
matrix, they always do.

Only when the root leaves H undecided is the residual problem built
(``_residual``, for that search alone): the incidence of the positive
finite-cost candidates that hold a root row, the same selection the
root prices from, on the root's rows.  One lossless set-cover
reduction (``_reduce``; Beasley 1987, Caprara, Fischetti & Toth 2000)
shrinks it by three exact rules run until no row drops: of columns with
identical member sets only the cheapest stays (ties to the lowest
index); a column inside another kept column of equal or lower cost
goes; a row whose candidate set contains another row's goes, since
covering that row covers it (of two equal rows the lower index stays);
and a column left with no kept row goes.
Each set is held as packed bits, 64 members to a ``uint64`` word, so
both questions are exact word comparisons: identical sets are adjacent
once sorted by their words, and containment is tested only against the
columns (or rows) that hold the rarest element, in bounded chunks of
pairs.  The search runs on the reduced problem from the root's bound and
incumbent; its choices map back to the public candidates.

Every LP is a model of scipy's bundled HiGHS bindings, called directly
with the options linprog passes and posed one way: ``_covering_model``
makes its covering rows, and every column enters through
``_add_columns``.  Each model is solved warm: the priced root grows one
model a round of columns at a time, and the search builds one more, of
the residual LP, from the column side of the residual incidence
(``_Incidence``), which ``_incidence`` alone puts in order and nothing
sorts or transposes again.  Each node LP below the root changes that
model's bounds in place, where they differ from the last solve, and
re-solves it from its basis: the rows the node has covered get upper
bound +inf and its banned columns upper bound 0.  So no LP is linprog's
to the bit, only within SOLVER_TOL of it.  HiGHS reporting an LP optimal
gives the solution, infeasible gives None, and any other status, or a
HiGHS error, raises NumericalFailure.  The bindings are private API; a
scipy without them (older than 1.15) fails this module's import.  They
are loaded by the file path of their extension module (``_load_highs``),
so ``scipy.optimize``'s package init never runs: this module imports
only the top-level ``scipy`` package.

The integer solver is branch and bound.  Pruning uses two admissible
lower bounds: the cheap bound (sum over uncovered points of the cheapest
cost covering each, divided by the maximum coverage of any single
candidate) and, when that fails to prune, the LP relaxation of the
remaining subproblem, certified by the node's own dual, scaled to
feasibility, so a warm or tied optimum costs no soundness.  A node is
pruned when its bound reaches the incumbent value less the relative
margin ``_PRUNE_REL * max(1, incumbent)``, so the returned value exceeds
the true optimum by at most ``_PRUNE_REL * max(1, H)``, far below
SOLVER_TOL.  The margin is relative because the certified bound is
shrunk relatively; an absolute margin would never let a tight bound
prune once H > 1.  Every incumbent is rounded from a node's LP
solution (``_round_to_cover``): its support, the columns with positive
weight, is checked to cover the node's rows against the incidence, and
then loses its redundant columns, most expensive first (ties in
candidate order).  Joined with the node's picks, the rest is offered as
an incumbent valued by the plain sum of its costs, never by the LP
objective.  An integral LP optimum has no redundant column, so there
the incumbent is the LP's own picks; that is always so on a line,
where the incidence is an interval matrix and hence totally
unimodular, and whenever H = W the root LP decides H at one node.
Branching picks the uncovered point covered by the fewest still-allowed
candidates and tries its candidates in the search order: descending
coverage of the residual rows per unit cost, ties by candidate index,
which is lexicographic (center, radius); that order ranks only the
branching row's candidates, and the search reads the residual
incidence as ``_residual`` built it.  The open nodes wait on an
explicit stack, each with the rows it has left to cover, its cost so
far, its picks and its banned candidates: its ancestors' bans and its
earlier siblings, which makes the search exhaustive without repetition
and deterministic.  Children are pushed in reverse, so they pop depth
first in the search order, and no search depth meets Python's
recursion limit.  If the node budget is exhausted, the search raises
CandidateLimitExceeded carrying the proven bound bracket.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy

from .errors import (
    CandidateLimitExceeded,
    InvalidInput,
    NumericalFailure,
    OptimizerInternalError,
    SizeLimit,
)
from .extended import INF, SOLVER_TOL
from .metric import (
    BallGrid,
    FiniteMetricSpace,
    PointMeasure,
    ProductSpace,
    RectangleGrid,
    ball_grid,
    rectangle_grid,
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


# --- instances ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverInstance:
    """Frozen covering problem: the candidate grid on a target, and its costs.

    ``costs[j]`` is the cost of candidate ``j`` of ``grid``.  Derived
    read-only views are built on first read: ``candidates``, the ``Ball``
    (or ``Rectangle``) of each candidate, and the CSR incidence
    ``indptr``, ``indices``: the members of candidate ``j`` inside the
    target are the target positions ``indices[indptr[j]:indptr[j + 1]]``
    (in no particular order).  No solve reads ``candidates``, ``indptr``
    or ``indices``; the instance caches only the root LP that H and W
    share.
    """

    space: FiniteMetricSpace | ProductSpace
    target: tuple
    grid: BallGrid | RectangleGrid
    costs: np.ndarray

    def __post_init__(self) -> None:
        self.costs.setflags(write=False)

    @cached_property
    def candidates(self) -> tuple:
        grid = self.grid
        return tuple(grid.balls() if isinstance(grid, BallGrid) else grid.rectangles())

    @cached_property
    def _family(self) -> _Prefixes | _Pairs:
        """The candidates on the target: their members and the load of a dual on each."""
        grid = self.grid
        if isinstance(grid, BallGrid):
            index = grid.space.index_of
            return _Prefixes(grid, np.array([index(p) for p in self.target], dtype=np.intp))
        return _Pairs(grid)

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        indptr, indices = self._family.members(np.arange(len(self.costs)))
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @cached_property
    def _root(self) -> _Root | None:
        """The covering LP H and W share, priced over the whole grid (module docstring).

        None when a target point has no finite-cost candidate.
        """
        return _priced_root(self._family, self.costs, len(self.target))


@dataclass(frozen=True)
class IntegerCoverSolution:
    """chosen indexes into instance.candidates; value is the exact minimum."""

    chosen: tuple[int, ...]
    value: float
    status: str
    nodes: int


@dataclass(frozen=True, eq=False)
class FractionalCoverSolution:
    """Weights per candidate, feasible dual potentials and the closed gap.

    ``weights[j]`` is the weight of candidate ``j`` and ``dual[k]`` the
    dual potential of target position ``k``, both read-only float arrays;
    on ``infeasible-infinite`` both are all zeros.
    """

    weights: np.ndarray
    value: float
    dual: np.ndarray
    gap: float
    status: str

    def __post_init__(self) -> None:
        self.weights.setflags(write=False)
        self.dual.setflags(write=False)


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


def _from_grid(space, target, grid, measure, q, xi) -> CoverInstance:
    """The instance of ``grid`` on ``target``, priced."""
    return CoverInstance(
        space=space, target=target, grid=grid, costs=weight_terms(grid, measure, q, xi)
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
    grid = ball_grid(space, tgt if centers is None else centers, delta)
    return _from_grid(space, tgt, grid, measure, q, xi)


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
    grid = rectangle_grid(product, lt, rt, delta)
    return _from_grid(product, tgt, grid, pair_measure, q, xi)


# --- the candidates on their target ---------------------------------------


def take_segments(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values[starts[i] : starts[i] + counts[i]]`` for every ``i``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return values[np.repeat(starts - (ends - counts), counts) + np.arange(total)]


def csr_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR row pointer of rows with the given lengths."""
    indptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class _Prefixes:
    """A ball grid on a target: each candidate's members are a prefix of its center's row.

    ``target`` holds the point index of each target position.  With
    ``at[u, t]`` the target position of the point ``grid.order[u, t]``,
    or -1 outside the target, candidate ``j`` holds the target positions
    among ``at[row[j], :length[j]]``; its center is ``row[j]``.
    """

    def __init__(self, grid: BallGrid, target: np.ndarray):
        self.grid, self.target = grid, target
        self.center = self.row = grid.row
        self.length = grid.length
        at = np.full(grid.space.n, -1, dtype=np.intp)
        at[target] = np.arange(len(target))
        at = at[grid.order]
        inside = at >= 0
        self._held = np.cumsum(inside, axis=1)  # target points in each prefix
        self._start = csr_offsets(inside.sum(axis=1))[:-1]
        self._flat = at[inside]  # each row's target positions, row after row
        self.sizes = self._held[self.row, self.length - 1]

    def loads(self, y: np.ndarray) -> np.ndarray:
        """The sum of ``y`` (over target positions) on each candidate's members.

        It is ``BallGrid.mass`` with ``y`` as the measure.
        """
        w = np.zeros(self.grid.space.n)
        w[self.target] = y
        return self.grid.sums(w)

    def members(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(ptr, positions)`` of the members of the candidates ``cols`` in the target."""
        row = self.row[cols]
        counts = self._held[row, self.length[cols] - 1]
        return csr_offsets(counts), take_segments(self._flat, self._start[row], counts)


class _Pairs:
    """A rectangle grid on its target E x F, which are its factors' centers.

    Rectangle ``j`` pairs left candidate ``left_at[j]`` with right
    candidate ``right_at[j]`` and holds the target positions ``k |F| + l``
    of each ``k`` the left one holds and ``l`` the right one holds; its
    center is the pair of theirs.
    """

    def __init__(self, grid: RectangleGrid):
        self.grid = grid
        self.left, self.right = (_Prefixes(g, g.centers) for g in (grid.left, grid.right))
        self.width = len(grid.right.centers)  # |F|
        left_at, right_at = grid.left_at, grid.right_at
        self.center = grid.left.row[left_at] * self.width + grid.right.row[right_at]
        self.sizes = self.left.sizes[left_at] * self.right.sizes[right_at]

    def loads(self, y: np.ndarray) -> np.ndarray:
        """The sum of ``y`` on each rectangle's members: ``RectangleGrid.mass`` with ``y``."""
        grid, rows, cols = self.grid, self.left.target, self.right.target
        w = np.zeros((grid.left.space.n, grid.right.space.n))
        w[np.ix_(rows, cols)] = y.reshape(len(rows), len(cols))
        return grid.sums(w)

    def members(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the members of the rectangles ``cols``: the Kronecker product of the factors'."""
        la, ra = self.grid.left_at[cols], self.grid.right_at[cols]
        (lp, li), (rp, ri) = self.left.members(la), self.right.members(ra)
        lc, rc = np.diff(lp), np.diff(rp)
        counts = lc * rc
        ptr = csr_offsets(counts)
        within = np.arange(ptr[-1]) - np.repeat(ptr[:-1], counts)
        a, b = np.divmod(within, np.repeat(rc, counts))
        return ptr, (
            li[np.repeat(lp[:-1], counts) + a] * self.width + ri[np.repeat(rp[:-1], counts) + b]
        )


def _best_per_center(key: np.ndarray, eligible: np.ndarray, center: np.ndarray) -> np.ndarray:
    """At each center, its eligible candidate of least ``key``, ties to the lowest index.

    Candidates run by center, so each center's eligible ones are one
    segment, and the result is ascending.
    """
    idx = np.flatnonzero(eligible)
    k, c = key[idx], center[idx]
    head = np.ones(len(idx), dtype=bool)
    head[1:] = c[1:] != c[:-1]
    starts = np.flatnonzero(head)
    hits = np.flatnonzero(k == np.minimum.reduceat(k, starts)[np.cumsum(head) - 1])
    return idx[hits[np.searchsorted(hits, starts)]]  # the first hit in each segment


def _span(family, allowed: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates among ``allowed`` that hold every row of ``left`` that any of them holds.

    Round after round, each center adds its allowed candidate holding the
    most rows of ``left`` still unheld (ties to the lowest index), until
    no allowed candidate holds one.  Returns the candidates added and the
    rows of ``left`` that no allowed candidate holds.  Balls at one
    center are nested, so on a ball grid the first round holds them all.
    """
    left, picked = left.copy(), [np.zeros(0, dtype=np.intp)]
    while left.any():
        held = family.loads(left.astype(float))
        new = _best_per_center(-held, allowed & (held > 0.0), family.center)
        if not new.size:
            break
        picked.append(new)
        left[family.members(new)[1]] = False
    return np.concatenate(picked), left


class _Root(NamedTuple):
    """The covering LP H and W share, priced over the whole grid (``CoverInstance._root``).

    ``free`` holds the zero-cost candidates with members and ``rows`` the
    target positions that none of them holds, both ascending.  The LP on
    ``rows`` has the value ``value`` and the dual ``dual`` on ``rows``;
    ``slack`` is the least reduced cost of any candidate under that dual,
    and ``bound`` the certified lower bound (``_certified``).  The
    support, the candidates of positive weight, is ``support``
    (ascending) with weights ``weights``, and column ``i`` of it holds
    the rows ``hold[ptr[i]:ptr[i + 1]]`` (numbered in ``rows``).
    """

    free: np.ndarray
    rows: np.ndarray
    value: float
    dual: np.ndarray
    slack: float
    bound: float
    support: np.ndarray
    weights: np.ndarray
    ptr: np.ndarray
    hold: np.ndarray


def _priced_root(family, costs: np.ndarray, m: int) -> _Root | None:
    """The covering LP of an instance by delayed column generation, and its certificate.

    The rows that zero-cost candidates hold leave the LP.  The LP starts
    from the cheapest finite-cost candidate at each center that holds a
    row, plus, for rows those leave unheld, the ones ``_span`` adds.
    Each round prices every finite-cost candidate against the dual and
    adds, at each center, the one of reduced cost below ``-SOLVER_TOL``
    that is most negative, then re-solves the same HiGHS model from its
    basis, until no candidate outside the model has one.  That last
    pricing pass gives the dual's ``slack`` over the whole family, which
    is W's dual check, and the bound of H's node 1.  None when a row has
    no finite-cost candidate.
    """
    n = len(costs)
    free = np.flatnonzero((costs == 0.0) & (family.sizes > 0))
    left = np.ones(m, dtype=bool)
    if free.size:
        zero = np.zeros(n, dtype=bool)
        zero[free] = True
        _, left = _span(family, zero, left)
    rows = np.flatnonzero(left)
    if not rows.size:  # nothing left for the LP
        none, empty = np.zeros(0, dtype=np.intp), np.zeros(0)
        return _Root(free, rows, 0.0, empty, 0.0, 0.0, none, empty, csr_offsets(none), none)
    useful = _useful(family, costs, left)
    new = _best_per_center(costs, useful, family.center)
    left[family.members(new)[1]] = False
    if left.any():
        more, left = _span(family, useful, left)
        if left.any():
            return None
        new = np.concatenate([new, more])

    rank = np.full(m, -1, dtype=np.intp)
    rank[rows] = np.arange(len(rows))

    def on_rows(cand):
        """The candidates ``cand`` as LP columns: CSR of their members among the rows."""
        ptr, held = family.members(cand)
        r = rank[held]
        keep = r >= 0
        return csr_offsets(keep)[ptr], r[keep]

    model = _covering_model(len(rows))
    cols, in_model = np.zeros(0, dtype=np.intp), np.zeros(n, dtype=bool)
    y_full = np.zeros(m)  # the dual on the whole target, 0 off the LP's rows
    while new.size:  # the start set is the first round
        _add_columns(model, costs[new], *on_rows(new))
        cols = np.concatenate([cols, new])
        in_model[new] = True
        out = _optimum(model)
        if out is None:
            raise NumericalFailure(
                INF, 0.0, "LP reported infeasible although finite-cost candidates cover the target"
            )
        x, y = out
        value = float(costs[cols] @ x)
        y_full[rows] = y
        loads = family.loads(y_full)
        reduced = costs - loads  # infinite costs stay infinite
        new = _best_per_center(reduced, ~in_model & (reduced < -SOLVER_TOL), family.center)
    pos = x > 0.0
    order = np.argsort(cols[pos])
    support, weights = cols[pos][order], x[pos][order]
    slack, bound = float(reduced.min()), _certified(y, loads, costs)
    return _Root(free, rows, value, y, slack, bound, support, weights, *on_rows(support))


def _useful(family, costs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the positive finite-cost candidates that hold a row marked in ``rows``."""
    return np.isfinite(costs) & (costs > 0.0) & (family.loads(rows.astype(float)) > 0.0)


def _certified(y: np.ndarray, loads: np.ndarray, costs: np.ndarray) -> float:
    """A certified lower bound on a covering LP by weak duality, from its dual ``y``.

    ``loads`` holds the load of ``y`` on each column and ``costs`` their
    costs.  The dual is scaled by lambda so that every load sits at or
    below its cost, whatever the solver's rounding, and the bound is
    shrunk by 1e-12 relative.
    """
    over = loads > costs
    lam = float(np.min(costs[over] / loads[over])) if over.any() else 1.0
    return lam * float(y.sum()) * (1.0 - 1e-12)


class _Incidence(NamedTuple):
    """A 0/1 matrix of target rows by columns, stored by columns and by rows.

    Column ``j`` covers the rows ``col_rows[col_ptr[j]:col_ptr[j + 1]]``,
    ascending, and ``col_of`` holds the column of each entry of
    ``col_rows``; row ``k`` is covered by the columns
    ``row_cols[row_ptr[k]:row_ptr[k + 1]]``, ascending, and ``row_of``
    holds the row of each entry of ``row_cols``.
    """

    col_ptr: np.ndarray
    col_rows: np.ndarray
    col_of: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray
    row_of: np.ndarray


class _Residual(NamedTuple):
    """The covering problem the search runs on (``_residual``).

    The rows are the target positions ``rows`` and the columns the
    candidates ``cols``, both ascending; ``inc`` is their incidence.
    """

    rows: np.ndarray
    cols: np.ndarray
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

    Column ``j`` holds the rows ``indices[indptr[j]:indptr[j + 1]]``, in
    any order.  The result has the columns ``cols`` in that order and the
    marked rows, renumbered in ascending order, and both of its sides
    sorted; no other function orders incidence entries.
    """
    m = int(np.count_nonzero(rows))
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    col_rows = take_segments(indices, starts, counts)
    col_of = np.repeat(np.arange(len(cols)), counts)
    if m < len(rows):
        keep = rows[col_rows]
        col_of = col_of[keep]
        counts = np.bincount(col_of, minlength=len(cols))
        col_rows = (np.cumsum(rows) - 1)[col_rows[keep]]
    # Stable sorts: by row gives (row, column), then by column (column, row).
    by_row = _stable_order(col_rows, m)
    row_cols, row_of = col_of[by_row], col_rows[by_row]
    return _Incidence(
        col_ptr=csr_offsets(counts),
        col_rows=row_of[_stable_order(row_cols, len(cols))],
        col_of=col_of,
        row_ptr=csr_offsets(np.bincount(col_rows, minlength=m)),
        row_cols=row_cols,
        row_of=row_of,
    )


# --- lossless reduction -------------------------------------------------

# Candidate pairs that the containment test holds at once.
_CHUNK = 1 << 14


def _bitsets(owner, member, n_sets, n_elems) -> np.ndarray:
    """Each set as packed bits: word ``w`` of set ``s`` is ``bits[w, s]``.

    Bit ``e % 64`` of word ``e // 64`` is set when set ``s`` holds element
    ``e``.  The entries ``(owner, member)`` are sorted by owner, then
    member, so each run of one owner and one word is OR-ed in one pass.
    """
    bit = member.astype(np.uint64)  # becomes each entry's bit, in place
    word = bit >> 6
    head = np.ones(len(owner), dtype=bool)
    head[1:] = (owner[1:] != owner[:-1]) | (word[1:] != word[:-1])
    starts = np.flatnonzero(head)
    np.left_shift(np.uint64(1), np.bitwise_and(bit, 63, out=bit), out=bit)
    bits = np.zeros((-(-n_elems // 64), n_sets), dtype=np.uint64)
    bits[word[starts], owner[starts]] = np.bitwise_or.reduceat(bit, starts)
    return bits


def _chunks(weight: np.ndarray, limit: int):
    """Consecutive ranges ``[start, stop)`` of weight at most ``limit``, or of one item."""
    total = np.cumsum(weight)
    start = 0
    while start < len(weight):
        base = total[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(total, base + limit, side="right")))
        yield start, stop
        start = stop


def _identical(bits, sets, cost) -> np.ndarray:
    """Mask of the sets among ``sets`` equal to a cheaper one, or an equal-cost one of lower index.

    ``bits`` holds the sets as packed bits (``_bitsets``).  Sorted by
    their words, then cost, then index, equal sets are adjacent and the
    first of each run is the one kept.
    """
    s = sets[np.lexsort((sets, cost[sets], *bits[:, sets]))]
    merged = np.zeros(bits.shape[1], dtype=bool)
    merged[s[1:]] = (bits[:, s[1:]] == bits[:, s[:-1]]).all(axis=0)
    return merged


def _inside(owner, member, holder, bits, admissible):
    """Masks of the sets ``a`` and ``b`` in pairs with ``a`` inside ``b`` and ``admissible(a, b)``.

    The sets are the entries ``(owner, member)``, sorted by owner, then
    member, and also packed in ``bits`` (``_bitsets``); ``holder`` holds
    the owners of the same entries sorted by member, then owner.
    ``admissible`` maps index arrays to a mask and must reject
    ``a == b``.  A set holding ``a`` holds its rarest element, so only the
    holders of that element are tried, a bounded chunk of pairs at a
    time, and a pair is compared one word at a time: ``a`` is inside
    ``b`` when no word of ``a`` has a bit outside ``b``'s.
    """
    n_words, n_sets = bits.shape
    n_elems = 64 * n_words  # a bound on the elements
    size = np.bincount(owner, minlength=n_sets)
    deg = np.bincount(member, minlength=n_elems)
    hold_ptr = csr_offsets(deg)
    sets = np.flatnonzero(size)
    rare = np.minimum.reduceat(deg[member] * n_elems + member, csr_offsets(size)[sets]) % n_elems
    count = deg[rare]
    inner, outer = np.zeros(n_sets, dtype=bool), np.zeros(n_sets, dtype=bool)
    for lo, hi in _chunks(count, _CHUNK):
        a = np.repeat(sets[lo:hi], count[lo:hi])
        b = take_segments(holder, hold_ptr[rare[lo:hi]], count[lo:hi])
        ok = admissible(a, b)
        a, b = a[ok], b[ok]
        for word in bits:
            ok = (word[a] & ~word[b]) == 0
            a, b = a[ok], b[ok]
        inner[a], outer[b] = True, True
    return inner, outer


def _live(a: np.ndarray, b: np.ndarray, a_kept: np.ndarray, b_kept: np.ndarray):
    """The entries ``(a, b)`` whose ``a`` and ``b`` are both kept."""
    keep = a_kept[a] & b_kept[b]
    return a[keep], b[keep]


def _reduce(inc: _Incidence, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lossless set-cover reduction: the kept columns, ascending, and a kept-row mask.

    Every row of ``inc`` is to be covered.  Three exact rules run until
    no row drops, and then the columns left with no kept row drop too:

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
    col, col_row = inc.col_of, inc.col_rows  # sorted by (column, row)
    row, row_col = inc.row_of, inc.row_cols  # sorted by (row, column)
    cols, rows = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    while True:
        # One column bitset per round serves both column rules: dropping
        # identical columns leaves the rows, and so the bits, as they are.
        # Columns keep the row numbering; rows renumber the columns below,
        # since few of the n columns may be kept.
        bits = _bitsets(col, col_row, n, m)
        cols &= ~_identical(bits, np.flatnonzero(cols), cost)
        col, col_row = _live(col, col_row, cols, rows)
        row, row_col = _live(row, row_col, rows, cols)
        size = np.bincount(col, minlength=n)
        dominated, _ = _inside(
            col, col_row, row_col, bits,
            lambda a, b: (size[b] > size[a]) & (cost[b] <= cost[a]),
        )
        cols &= ~dominated
        col, col_row = _live(col, col_row, cols, rows)
        row, row_col = _live(row, row_col, rows, cols)
        size = np.bincount(row, minlength=m)
        ranked = (np.cumsum(cols) - 1)[row_col]
        _, covering = _inside(
            row, ranked, col_row, _bitsets(row, ranked, m, int(cols.sum())),
            lambda a, b: (size[b] > size[a]) | ((size[b] == size[a]) & (a < b)),
        )
        if not covering.any():
            return np.flatnonzero(np.bincount(col, minlength=n)), rows  # meeting a kept row
        rows &= ~covering
        col, col_row = _live(col, col_row, cols, rows)
        row, row_col = _live(row, row_col, rows, cols)


# --- shared LP core -----------------------------------------------------


def _load_highs():
    """scipy's bundled HiGHS bindings, the extension module itself.

    ``from scipy.optimize._highspy import _core`` would run all of
    ``scipy.optimize``'s package init first (linalg, fft, array-api
    compat), most of the start-up cost, none of which is used here.  So
    the extension is found by its file path in scipy's tree and loaded
    alone.  It is the module ``scipy.optimize`` itself loads, should
    anything import that too.  The bindings are private API, present
    since scipy 1.15, the floor in pyproject.toml; without them this
    raises ImportError.
    """
    name = "scipy.optimize._highspy._core"
    where = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(
            f"no HiGHS bindings {name} in {where}: fracmeasure needs scipy >= 1.15", name=name
        )
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_highs = _load_highs()

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


def _covering_model(m: int):
    """A HiGHS model of min c.x, x >= 0, on ``m`` covering rows and no columns yet.

    Each row is the constraint ``-A x <= -1``, as linprog hands a covering
    LP over, and the options are the ones linprog passes; every column
    enters through ``_add_columns``.
    """
    model = _highs._Highs()
    if (
        model.passOptions(_HIGHS_OPTIONS) == _HIGHS_ERROR
        or model.addRows(
            m, np.full(m, -_HIGHS_INF), np.full(m, -1.0),
            0, np.zeros(m, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
        ) == _HIGHS_ERROR
    ):
        raise _highs_error(model)
    return model


def _add_columns(model, costs: np.ndarray, col_ptr: np.ndarray, col_rows: np.ndarray) -> None:
    """Add columns of entries -1 to a ``_covering_model``; a model run before keeps its basis.

    Column ``j`` holds the rows ``col_rows[col_ptr[j]:col_ptr[j + 1]]``,
    distinct, in any order; HiGHS gets these arrays as int32, as linprog
    hands them over.
    """
    n, nnz = len(costs), len(col_rows)
    if model.addCols(
        n, costs, np.zeros(n), np.full(n, _HIGHS_INF), nnz,
        col_ptr[:-1].astype(np.int32), col_rows.astype(np.int32), np.full(nnz, -1.0),
    ) == _HIGHS_ERROR:
        raise _highs_error(model)


def _highs_error(model) -> NumericalFailure:
    return NumericalFailure(
        float("nan"), float("nan"), f"HiGHS error, model status {model.getModelStatus().name}"
    )


def _optimum(model):
    """Run ``model``: (x, y) when HiGHS reports it optimal, None when infeasible.

    ``y`` holds the dual potentials of the row constraints.  Any other
    model status, or an error from HiGHS, raises NumericalFailure naming
    the status.  A model run before re-solves from its basis.
    """
    if model.run() == _HIGHS_ERROR:
        raise _highs_error(model)
    status = model.getModelStatus()
    if status == _INFEASIBLE:
        return None
    if status != _OPTIMAL:
        raise NumericalFailure(float("nan"), float("nan"), f"HiGHS model status {status.name}")
    solution = model.getSolution()
    x = np.clip(np.asarray(solution.col_value), 0.0, None)
    y = np.clip(-np.asarray(solution.row_dual), 0.0, None)
    return x, y


# Every node LP of the search is solved through this module name, which
# perfbench/tracer.py wraps to time and count the LPs; the priced root
# LP (``_priced_root``) is not.
linprog = _optimum


# --- fractional solver --------------------------------------------------


def solve_fractional(instance: CoverInstance) -> FractionalCoverSolution:
    """Weighted covering optimum with a verified dual certificate.

    The LP is the priced one that ``solve_integer`` starts from (module
    docstring): every zero-cost candidate with members gets weight 1 and
    the rows it holds dual 0, and candidates the pricing never added get
    weight 0, so the weights may be a different tied optimum than the LP
    over every candidate gives.  The dual is the LP's, checked by the
    last pricing pass over the whole finite-cost family: no load may
    exceed its cost by more than 1e-9.  The weights of the support must
    cover every target point to within 1e-9, and the dual must close
    the gap to within 1e-9 * max(1, value); anything worse raises
    NumericalFailure with the primal/dual bracket.
    """
    m = len(instance.target)
    n = len(instance.costs)
    root = instance._root
    if root is None:  # a point no finite-cost candidate covers
        return FractionalCoverSolution(
            weights=np.zeros(n), value=INF, dual=np.zeros(m), gap=0.0, status="infeasible-infinite"
        )
    value = root.value
    weights, dual = np.zeros(n), np.zeros(m)
    weights[root.free], weights[root.support], dual[root.rows] = 1.0, root.weights, root.dual

    # Certificate checks.  The rows off the LP are held by the zero-cost
    # candidates, and the support's members give the coverage of the rest.
    held = np.repeat(root.weights, np.diff(root.ptr))
    coverage = np.bincount(root.hold, weights=held, minlength=len(root.rows))
    if np.any(coverage < 1.0 - SOLVER_TOL):
        raise NumericalFailure(value, float(dual.sum()), "primal cover constraint violated")
    if root.slack < -SOLVER_TOL:
        raise NumericalFailure(value, float(dual.sum()), "dual feasibility violated")
    gap = abs(value - float(dual.sum()))
    if gap > SOLVER_TOL * max(1.0, value):
        raise NumericalFailure(value, float(dual.sum()), "duality gap above tolerance")

    return FractionalCoverSolution(
        weights=weights, value=value, dual=dual, gap=gap, status="optimal"
    )


# --- integer solver -----------------------------------------------------


def _residual(instance: CoverInstance) -> _Residual:
    """The reduced residual problem a search runs on (module docstring).

    Its columns are the candidates ``_useful`` marks for the root's rows,
    their members cut from the grid, so no incidence of the whole
    instance is built.
    """
    family, costs = instance._family, instance.costs
    rows = np.zeros(len(instance.target), dtype=bool)
    rows[instance._root.rows] = True
    cols = np.flatnonzero(_useful(family, costs, rows))
    inc = _incidence(*family.members(cols), np.arange(len(cols)), rows)
    kept, kept_rows = _reduce(inc, costs[cols])
    rows[rows] = kept_rows
    inc = _incidence(inc.col_ptr, inc.col_rows, kept, kept_rows)
    return _Residual(rows=np.flatnonzero(rows), cols=cols[kept], inc=inc)


def _round_to_cover(x, cost, col_ptr, col_rows, rows) -> list[int] | None:
    """A covering LP solution rounded to a cover: its support, less its redundant columns.

    Column ``j`` holds the rows ``col_rows[col_ptr[j]:col_ptr[j + 1]]``,
    ``x`` is an LP solution, and the mask ``rows`` marks the rows to
    cover; the rest are covered already.  The columns with ``x > 0`` cover
    every marked row of a feasible LP; of them, the most expensive go
    first (ties in column order, which in the branch and bound is
    candidate order), each dropped while every marked row it holds stays
    covered by another.  None when the support misses a marked row, which
    only solver rounding can cause.
    """
    support = np.flatnonzero(x > 0.0)
    starts = col_ptr[support]
    hits = np.bincount(
        take_segments(col_rows, starts, col_ptr[support + 1] - starts), minlength=len(rows)
    )
    if not hits[rows].all():
        return None
    hits[~rows] = len(support) + 2  # never brought down to 1 by the drops below
    cover = []
    for j in support[np.argsort(-cost[support], kind="stable")].tolist():
        held = col_rows[col_ptr[j] : col_ptr[j + 1]]
        if hits[held].min() > 1:
            hits[held] -= 1
        else:
            cover.append(j)
    return cover


def solve_integer(instance: CoverInstance, node_limit: int = _NODE_LIMIT) -> IntegerCoverSolution:
    """Exact minimum-cost cover of the target by candidate members.

    The returned value is the plain sum of the chosen costs and exceeds
    the true optimum by at most ``_PRUNE_REL * max(1, value)``.  Node 1
    is the priced LP ``solve_fractional`` reads (module docstring): its
    certified bound and the cover rounded from its support decide H when
    they meet.  Otherwise the search runs on the reduced residual
    problem, from node 1's bound and incumbent, so ``chosen`` may be a
    different tied optimum than an unreduced search finds.  The open
    nodes wait on an explicit stack, so a deep search needs no Python
    recursion; past ``node_limit`` nodes it raises
    CandidateLimitExceeded with the root bound and the incumbent.
    """
    root = instance._root
    if root is None:
        return IntegerCoverSolution(chosen=(), value=INF, status="infeasible-infinite", nodes=0)
    free = root.free.tolist()
    if not len(root.rows):
        return IntegerCoverSolution(chosen=tuple(free), value=0.0, status="optimal", nodes=0)
    if node_limit < 1:
        raise CandidateLimitExceeded(lower=0.0, upper=INF, nodes=1)

    costs = instance.costs
    best_val: float = INF
    best_set: list[int] = []

    def record(cands) -> None:
        # Incumbents are candidate indices, valued by the plain sum of
        # their costs, never by an LP objective, so soundness does not
        # rest on LP accuracy.
        nonlocal best_val, best_set
        cands = sorted(cands)
        val = sum(costs[cands].tolist())
        if val < best_val:
            best_val, best_set = val, cands

    def pruned(bound: float) -> bool:
        if best_val == INF:  # inf - inf is NaN; only an empty subtree prunes
            return bound == INF
        return bound >= best_val - _PRUNE_REL * max(1.0, best_val)

    def done(nodes: int) -> IntegerCoverSolution:
        chosen = tuple(sorted(free + best_set))
        return IntegerCoverSolution(chosen=chosen, value=best_val, status="optimal", nodes=nodes)

    all_rows = np.ones(len(root.rows), dtype=bool)
    cover = _round_to_cover(root.weights, costs[root.support], root.ptr, root.hold, all_rows)
    if cover is not None:
        record(root.support[cover].tolist())
    if pruned(root.bound):
        return done(1)

    # The root leaves H undecided: search the reduced residual problem.
    res = _residual(instance)
    inc, cols = res.inc, res.cols
    m, n = len(res.rows), len(cols)
    cost = costs[cols]
    cost_of = cost.tolist()
    # The search order, by which branches are tried: descending coverage
    # per unit cost, ties by candidate index.
    priority = -(np.diff(inc.col_ptr) / cost)
    cheapest = np.minimum.reduceat(cost[inc.row_cols], inc.row_ptr[:-1]).tolist()
    maxcov = int(np.diff(inc.col_ptr).max())

    model = _covering_model(m)
    _add_columns(model, cost, inc.col_ptr, inc.col_rows)
    posed_rows, posed_bans = np.ones(m, dtype=bool), np.zeros(n, dtype=bool)

    def lp_bound(rem: np.ndarray, banned: np.ndarray):
        """Certified LP lower bound, and the LP solution rounded to a cover of ``rem``.

        The node LP is the one residual model (module docstring), its rows
        outside ``rem`` relaxed to upper bound +inf and its ``banned``
        columns to upper bound 0, where the last solve posed them otherwise.
        The cover is in candidate indices.
        """
        flip = np.flatnonzero(banned != posed_bans).astype(np.int32)
        upper = np.where(banned[flip], 0.0, _HIGHS_INF)
        status = [model.changeColsBounds(len(flip), flip, np.zeros(len(flip)), upper)]
        for k in np.flatnonzero(rem != posed_rows).tolist():
            status.append(model.changeRowBounds(k, -_HIGHS_INF, -1.0 if rem[k] else _HIGHS_INF))
        if _HIGHS_ERROR in status:
            raise _highs_error(model)
        posed_rows[:], posed_bans[:] = rem, banned
        out = linprog(model)
        if out is None:
            return INF, None
        x, y = out
        x[banned], y[~rem] = 0.0, 0.0
        cover = _round_to_cover(x, cost, inc.col_ptr, inc.col_rows, rem)
        loads = np.bincount(inc.col_of, weights=y[inc.col_rows], minlength=n)
        bound = _certified(y, loads[~banned], cost[~banned])
        return bound, None if cover is None else cols[cover].tolist()

    # An open node: the rows left to cover, the cost so far, its picks
    # (residual columns) and the columns it may not pick.
    stack = [(np.ones(m, dtype=bool), 0.0, [], np.zeros(n, dtype=bool))]
    nodes, root_lower = 0, 0.0
    while stack:
        rem, cost_so_far, picks, banned = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise CandidateLimitExceeded(lower=root_lower, upper=best_val, nodes=nodes)
        rows = np.flatnonzero(rem)
        if not rows.size:
            record(cols[picks].tolist())
            continue
        lb = sum(cheapest[k] for k in rows.tolist()) / maxcov
        if pruned(cost_so_far + lb):
            continue
        if nodes == 1:  # the priced root, whose cover is recorded
            lp_lb, cover = root.bound, None
        else:
            lp_lb, cover = lp_bound(rem, banned)
        if cover is not None:
            record(cols[picks].tolist() + cover)
        lb = max(lb, lp_lb)
        if nodes == 1:
            root_lower = cost_so_far + lb
        if pruned(cost_so_far + lb):
            continue
        # A row of rem with no allowed column made the node LP infeasible and pruned it.
        keep = rem[inc.col_rows] & ~banned[inc.col_of]
        alive = np.bincount(inc.col_rows[keep], minlength=m)[rows]
        pick = int(rows[np.argmin(alive)])
        branch = inc.row_cols[inc.row_ptr[pick] : inc.row_ptr[pick + 1]]
        branch = branch[~banned[branch]]
        # Each child also bans its earlier siblings; pushed in reverse,
        # the children pop in the search order, depth first.
        children = []
        for p in branch[np.argsort(priority[branch], kind="stable")].tolist():
            child = rem.copy()
            child[inc.col_rows[inc.col_ptr[p] : inc.col_ptr[p + 1]]] = False
            children.append((child, cost_so_far + cost_of[p], picks + [p], banned.copy()))
            banned[p] = True
        stack += reversed(children)
    return done(nodes)


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
    n = len(instance.costs)
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
