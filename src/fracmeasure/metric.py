"""Finite metric spaces, point measures, balls and product constructions.

A space is a finite point set with a validated distance matrix and a
resolution floor ``epsilon_net``: the set is treated as an
``epsilon_net``-net of a continuum, so no covering ball is ever allowed
a radius below that floor.  Balls are closed and identified by their
(center, radius) pair, never by their member set; two balls with equal
members but different radii are distinct objects (dilations such as
``2 B`` must stay well defined).

``enumerate_centered_balls`` produces, for each admissible center, the
finite lossless radius grid: every realized distance from the center in
``(0, delta]`` together with the floor ``epsilon_net``.  Shrinking any
off-grid radius to the next realized distance below it keeps the member
set, so for monotone premeasures this finite family contains a
cost-dominating counterpart of every centered delta-cover.

Products carry the max metric; covers of product targets use axis
rectangles (pairs of factor balls with independent radii) rather than
product-metric balls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    AsymmetricDistance,
    CoordsMismatch,
    DegenerateDistance,
    DeltaBelowResolution,
    EpsilonAboveResolution,
    InvalidInput,
    NonFiniteDistance,
    NonPositiveEpsilon,
    SpaceValidationError,
    TriangleViolation,
    UnknownCenter,
)
from .extended import INF, INVARIANT_TOL

__all__ = [
    "FiniteMetricSpace",
    "PointMeasure",
    "Ball",
    "Rectangle",
    "ProductSpace",
    "validate_space",
    "ball_members",
    "ball_mass",
    "dilate",
    "enumerate_centered_balls",
    "BallGrid",
    "RectangleGrid",
    "ball_grid",
    "rectangle_grid",
    "product_space",
    "product_measure",
    "enumerate_centered_rectangles",
    "point_measure",
    "uniform_measure",
]

@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Validated finite metric space with a resolution floor."""

    point_ids: tuple
    dist: np.ndarray
    epsilon_net: float
    coords: np.ndarray | None = None
    _index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.point_ids)})
        self.dist.setflags(write=False)
        if self.coords is not None:
            self.coords.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.point_ids)

    def index_of(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownCenter(point) from None

    def __contains__(self, point) -> bool:
        return point in self._index


@dataclass(frozen=True, eq=False)
class PointMeasure:
    """Nonnegative masses per point id, summing to 1."""

    mass: Mapping[Any, float]

    def mass_of(self, point) -> float:
        return self.mass.get(point, 0.0)

    @property
    def support(self) -> frozenset:
        return frozenset(p for p, m in self.mass.items() if m > 0.0)


@dataclass(frozen=True)
class Ball:
    """Closed ball identified by its (center, radius) pair."""

    center: Any
    radius: float


@dataclass(frozen=True)
class Rectangle:
    """Product of one ball per factor; the covering unit on products.

    The nominal diameter is max(2 r_left, 2 r_right), the diameter the
    pair would have in the max metric if both factors were full balls.
    """

    left: Ball
    right: Ball

    @property
    def nominal_diameter(self) -> float:
        return max(2.0 * self.left.radius, 2.0 * self.right.radius)


@dataclass(frozen=True, eq=False)
class ProductSpace:
    """Two factor spaces glued with the max metric.

    ``epsilon_net`` is the max of the factor floors, the coarsest scale
    at which both factors resolve.  ``space`` is the combined finite
    metric space on id pairs ``(left_id, right_id)``, in ``(a, b)``
    row-major order; its (|E| |F|)^2 matrix is built on first read, and
    rectangle covers never read it.
    """

    left: FiniteMetricSpace
    right: FiniteMetricSpace

    @property
    def epsilon_net(self) -> float:
        return max(self.left.epsilon_net, self.right.epsilon_net)

    @cached_property
    def space(self) -> FiniteMetricSpace:
        left, right = self.left, self.right
        n = left.n * right.n
        dist = np.maximum(left.dist[:, None, :, None], right.dist[None, :, None, :])
        return FiniteMetricSpace(
            point_ids=tuple((a, b) for a in left.point_ids for b in right.point_ids),
            dist=dist.reshape(n, n),
            epsilon_net=self.epsilon_net,
        )


# --- construction and validation ---------------------------------------


def validate_space(
    dist: Sequence[Sequence[float]] | np.ndarray | None = None,
    coords: Sequence[Sequence[float]] | np.ndarray | None = None,
    epsilon_net: float = 0.0,
    point_ids: Sequence | None = None,
) -> FiniteMetricSpace:
    """Check every space invariant and return the validated space.

    Accepts a raw distance matrix, coordinate rows (Euclidean; 1-D
    coordinates are one number per point, and coordinates of any other
    rank than 1 or 2 raise InvalidInput), or both (then their
    consistency is checked to 1e-12).  The triangle inequality is
    scanned on a given ``dist``, at every size; distances computed from
    ``coords`` alone are Euclidean, so they satisfy it by construction
    and are not scanned.  All violations are collected and raised
    together in one SpaceValidationError; a NaN or infinite distance
    ends the scan early, since the later checks mean nothing on it.
    """
    if dist is None and coords is None:
        raise InvalidInput("need a distance matrix or coordinates")

    violations: list = []
    c_arr = None
    if coords is not None:
        c_arr = np.asarray(coords, dtype=float)
        if c_arr.ndim not in (1, 2):
            raise InvalidInput(f"coords must be 1-D or 2-D, got {c_arr.ndim}-D")
        if c_arr.ndim == 1:
            c_arr = c_arr[:, None]
        diff = c_arr[:, None, :] - c_arr[None, :, :]
        euclid = np.sqrt((diff * diff).sum(axis=2))
    if dist is None:
        d_arr = euclid
    else:
        d_arr = np.array(dist, dtype=float)
        if d_arr.ndim != 2 or d_arr.shape[0] != d_arr.shape[1]:
            raise InvalidInput("distance matrix must be square")
        if c_arr is not None:
            if c_arr.shape[0] != d_arr.shape[0]:
                raise InvalidInput("coords and matrix sizes disagree")
            bad = np.argwhere(~(np.abs(d_arr - euclid) <= INVARIANT_TOL))  # NaN mismatches
            for i, j in bad[:8]:
                violations.append(CoordsMismatch(int(i), int(j)))

    n = d_arr.shape[0]
    if point_ids is None:
        point_ids = tuple(str(i) for i in range(n))
    else:
        point_ids = tuple(point_ids)
        if len(point_ids) != n:
            raise InvalidInput("point_ids length does not match the matrix")
        if len(set(point_ids)) != n:
            raise InvalidInput("point_ids must be distinct")

    nonfinite = ~np.isfinite(d_arr)
    if nonfinite.any():
        bad = np.argwhere(np.triu(nonfinite | nonfinite.T))
        raise SpaceValidationError(
            violations + [NonFiniteDistance(int(i), int(j)) for i, j in bad[:8]]
        )

    if np.any(np.abs(np.diag(d_arr)) > 0.0):
        i = int(np.argmax(np.abs(np.diag(d_arr))))
        violations.append(DegenerateDistance(i, i))
    asym = np.argwhere(np.abs(d_arr - d_arr.T) > INVARIANT_TOL)
    for i, j in asym[:8]:
        if i < j:
            violations.append(AsymmetricDistance(int(i), int(j)))
    off = ~np.eye(n, dtype=bool)
    dgn = np.argwhere((d_arr <= 0.0) & off)
    for i, j in dgn[:8]:
        if i < j:
            violations.append(DegenerateDistance(int(i), int(j)))

    if dist is not None:  # distances from coords alone are Euclidean: no scan
        best = np.full_like(d_arr, np.inf)
        arg = np.zeros(d_arr.shape, dtype=int)
        for j in range(n):  # best[i, k] = min over pivots j of d(i,j)+d(j,k)
            via_j = d_arr[:, j : j + 1] + d_arr[j : j + 1, :]
            better = via_j < best
            best = np.where(better, via_j, best)
            arg[better] = j
        bad = np.argwhere(best - d_arr < -INVARIANT_TOL)
        for i, k in bad[:8]:
            violations.append(TriangleViolation(int(i), int(arg[i, k]), int(k)))

    if not epsilon_net > 0.0:
        violations.append(NonPositiveEpsilon(float(epsilon_net)))
    else:
        pos = d_arr[off & (d_arr > 0.0)]
        if pos.size and float(epsilon_net) > float(pos.min()) + INVARIANT_TOL:
            violations.append(EpsilonAboveResolution(float(epsilon_net), float(pos.min())))

    if violations:
        raise SpaceValidationError(violations)
    return FiniteMetricSpace(
        point_ids=point_ids, dist=d_arr, epsilon_net=float(epsilon_net), coords=c_arr
    )


def point_measure(space: FiniteMetricSpace, masses: Mapping[Any, float]) -> PointMeasure:
    """Validate masses against a space: finite, nonnegative, total 1, nonempty support."""
    unknown = [p for p in masses if p not in space]
    if unknown:
        raise UnknownCenter(unknown[0])
    vals = {p: float(m) for p, m in masses.items()}
    bad = [p for p, m in vals.items() if not 0.0 <= m < INF]
    if bad:
        raise InvalidInput(
            f"masses must be finite and nonnegative, got {vals[bad[0]]!r} at {bad[0]!r}"
        )
    total = sum(vals.values())
    if abs(total - 1.0) > INVARIANT_TOL:
        raise InvalidInput(f"masses sum to {total!r}, expected 1 within {INVARIANT_TOL}")
    if not any(m > 0.0 for m in vals.values()):
        raise InvalidInput("support must be nonempty")
    return PointMeasure(mass=vals)


def uniform_measure(space: FiniteMetricSpace) -> PointMeasure:
    w = 1.0 / space.n
    return PointMeasure(mass={p: w for p in space.point_ids})


# --- balls --------------------------------------------------------------


def _member_indices(space: FiniteMetricSpace, center_idx: int, radius: float) -> np.ndarray:
    # Closed membership, tolerance free on the stored reals.
    return np.flatnonzero(space.dist[center_idx] <= radius)


def ball_members(space: FiniteMetricSpace | ProductSpace, ball: Ball | Rectangle) -> frozenset:
    """Member ids of a ball, or member id pairs of a rectangle."""
    if isinstance(ball, Rectangle):
        if not isinstance(space, ProductSpace):
            raise TypeError("rectangle members need a product space")
        left = ball_members(space.left, ball.left)
        right = ball_members(space.right, ball.right)
        return frozenset((a, b) for a in left for b in right)
    if isinstance(space, ProductSpace):
        space = space.space
    idx = space.index_of(ball.center)
    return frozenset(space.point_ids[int(i)] for i in _member_indices(space, idx, ball.radius))


def ball_mass(
    space: FiniteMetricSpace | ProductSpace,
    measure: PointMeasure,
    ball: Ball | Rectangle,
) -> float:
    """Total mass of the members of a ball or rectangle, in a fixed order.

    A ball's members are added one by one by distance from the center,
    ties by point index, as :meth:`BallGrid.mass` adds them, so the two
    agree bit for bit; a rectangle's member pairs are added in the
    ``(a, b)`` row-major order of the product, which need not match
    :meth:`RectangleGrid.mass` (a matrix product) in the last bits.
    """
    if isinstance(ball, Rectangle):
        if not isinstance(space, ProductSpace):
            raise TypeError("rectangle members need a product space")
        left, right = (
            _member_indices(f, f.index_of(b.center), b.radius).tolist()
            for f, b in ((space.left, ball.left), (space.right, ball.right))
        )
        lids, rids = space.left.point_ids, space.right.point_ids
        masses = [measure.mass_of((lids[a], rids[b])) for a in left for b in right]
    else:
        if isinstance(space, ProductSpace):
            space = space.space
        idx = space.index_of(ball.center)
        members = _member_indices(space, idx, ball.radius)
        members = members[np.argsort(space.dist[idx, members], kind="stable")]
        masses = [measure.mass_of(space.point_ids[i]) for i in members.tolist()]
    return float(np.cumsum(masses)[-1]) if masses else 0.0


def dilate(ball: Ball | Rectangle, factor: float) -> Ball | Rectangle:
    """Scale the radius (both radii, for a rectangle) by ``factor``."""
    if isinstance(ball, Rectangle):
        return Rectangle(left=dilate(ball.left, factor), right=dilate(ball.right, factor))
    return Ball(center=ball.center, radius=ball.radius * factor)


class BallGrid(NamedTuple):
    """The lossless candidate family of ``enumerate_centered_balls`` as arrays.

    Row ``u`` of ``order`` lists the point indices by distance from the
    center ``centers[u]`` (a stable argsort, cut after the longest prefix
    any candidate needs).  Candidate ``j`` is the ball of radius
    ``radius[j]`` around ``centers[row[j]]``; its members are the first
    ``length[j]`` entries of that row.  Candidates run by center index,
    then by radius.
    """

    space: FiniteMetricSpace
    centers: np.ndarray
    order: np.ndarray
    row: np.ndarray
    radius: np.ndarray
    length: np.ndarray

    @property
    def size(self) -> int:
        return len(self.radius)

    def balls(self) -> list[Ball]:
        ids = self.space.point_ids
        return [
            Ball(center=ids[c], radius=r)
            for c, r in zip(self.centers[self.row].tolist(), self.radius.tolist())
        ]

    def diameter(self, mode: str) -> np.ndarray:
        """Nominal (2 r) or realized (largest member distance) diameter per candidate."""
        if mode == "nominal":
            return 2.0 * self.radius
        # Prefix diameters: a running maximum over each new member's
        # farthest earlier member.
        span = np.empty(self.order.shape)
        for u, o in enumerate(self.order):
            span[u] = np.maximum.accumulate(np.tril(self.space.dist[np.ix_(o, o)]).max(axis=1))
        return span[self.row, self.length - 1]

    def mass(self, measure: PointMeasure) -> np.ndarray:
        """Member mass per candidate, summed by distance from the center."""
        return self.sums(np.array([measure.mass_of(p) for p in self.space.point_ids]))

    def sums(self, w: np.ndarray) -> np.ndarray:
        """The sum of ``w`` (one value per point) over each candidate's members.

        One prefix sum per center row, by distance from the center.
        """
        return np.cumsum(w[self.order], axis=1)[self.row, self.length - 1]

    def indicator(self) -> np.ndarray:
        """Dense 0/1 membership matrix, candidates by points."""
        inside = np.arange(self.order.shape[1]) < self.length[:, None]
        out = np.zeros((self.size, self.space.n))
        out[np.nonzero(inside)[0], self.order[self.row][inside]] = 1.0
        return out

    def dilate(self, factor: float) -> BallGrid:
        """The same candidates with every radius times ``factor``, as :func:`dilate` makes them.

        The rows of ``order`` run over the whole space, and each length
        counts the points within the new radius.
        """
        dist = self.space.dist[self.centers]
        radius = self.radius * factor
        return self._replace(
            order=np.argsort(dist, axis=1, kind="stable"),
            radius=radius,
            length=np.count_nonzero(dist[self.row] <= radius[:, None], axis=1),
        )


def ball_grid(space: FiniteMetricSpace, centers: Iterable, delta: float) -> BallGrid:
    """The candidates of ``enumerate_centered_balls`` as a :class:`BallGrid`.

    One stable argsort per center row; each grid radius becomes the
    length of the prefix of points within it.
    """
    if not delta >= space.epsilon_net:  # also rejects NaN
        raise DeltaBelowResolution(float(delta), space.epsilon_net)
    rows = np.array(sorted({space.index_of(c) for c in centers}), dtype=np.intp)
    dist = space.dist[rows]
    order = np.argsort(dist, axis=1, kind="stable")
    srt = np.take_along_axis(dist, order, axis=1)
    eps = space.epsilon_net
    # Each realized distance in (0, delta], at the last entry of its run of ties.
    last = np.ones(srt.shape, dtype=bool)
    last[:, :-1] = srt[:, 1:] != srt[:, :-1]
    r_row, r_at = np.nonzero(last & (srt > 0.0) & (srt <= delta))
    # The floor joins every grid where it is not realized already.
    e_len = np.count_nonzero(srt <= eps, axis=1)
    e_row = np.flatnonzero(srt[np.arange(len(rows)), e_len - 1] != eps)
    row = np.concatenate([r_row, e_row])
    radius = np.concatenate([srt[r_row, r_at], np.full(len(e_row), eps)])
    length = np.concatenate([r_at + 1, e_len[e_row]])
    k = np.lexsort((radius, row))
    return BallGrid(
        space=space,
        centers=rows,
        order=order[:, : length.max(initial=0)],
        row=row[k],
        radius=radius[k],
        length=length[k],
    )


def enumerate_centered_balls(
    space: FiniteMetricSpace, centers: Iterable, delta: float
) -> list[Ball]:
    """Finite lossless candidate family for covers at scale ``delta``.

    For each center the radius grid is every realized distance from the
    center in (0, delta] plus the floor epsilon_net.  Requires
    delta >= epsilon_net.  Balls run by center index, then by radius.
    """
    return ball_grid(space, centers, delta).balls()


# --- products -----------------------------------------------------------


def product_space(left: FiniteMetricSpace, right: FiniteMetricSpace) -> ProductSpace:
    """Glue two spaces with the max metric on id pairs."""
    return ProductSpace(left=left, right=right)


def product_measure(mu: PointMeasure, nu: PointMeasure) -> PointMeasure:
    """Product measure on id pairs: mass (a, b) = mu(a) * nu(b)."""
    mass = {
        (a, b): ma * mb
        for a, ma in mu.mass.items()
        for b, mb in nu.mass.items()
    }
    return PointMeasure(mass=mass)


def enumerate_centered_rectangles(
    product: ProductSpace,
    left_centers: Iterable,
    right_centers: Iterable,
    delta: float,
) -> list[Rectangle]:
    """All pairs of factor candidate balls at scale ``delta``.

    Radii are chosen independently per factor, so the family is the full
    cross product of the factor grids; nominal diameters stay <= 2 delta.
    """
    if not delta >= product.epsilon_net:  # also rejects NaN
        raise DeltaBelowResolution(float(delta), product.epsilon_net)
    lballs = enumerate_centered_balls(product.left, left_centers, delta)
    rballs = enumerate_centered_balls(product.right, right_centers, delta)
    return [Rectangle(left=a, right=b) for a in lballs for b in rballs]


class RectangleGrid(NamedTuple):
    """Rectangle candidates of a product: pairs of factor grid candidates.

    Rectangle ``j`` pairs left candidate ``left_at[j]`` with right
    candidate ``right_at[j]``.  Rectangles run by left center, right
    center, left radius, right radius.
    """

    product: ProductSpace
    left: BallGrid
    right: BallGrid
    left_at: np.ndarray
    right_at: np.ndarray

    @property
    def size(self) -> int:
        return len(self.left_at)

    def rectangles(self) -> list[Rectangle]:
        lb, rb = self.left.balls(), self.right.balls()
        return [
            Rectangle(left=lb[i], right=rb[j])
            for i, j in zip(self.left_at.tolist(), self.right_at.tolist())
        ]

    def diameter(self, mode: str) -> np.ndarray:
        """The larger factor diameter: nominal max(2 r, 2 r') or realized."""
        return np.maximum(
            self.left.diameter(mode)[self.left_at], self.right.diameter(mode)[self.right_at]
        )

    def mass(self, measure: PointMeasure) -> np.ndarray:
        """Member mass per rectangle under a measure on id pairs."""
        lids, rids = self.product.left.point_ids, self.product.right.point_ids
        w = np.array([measure.mass_of((a, b)) for a in lids for b in rids])
        return self.sums(w.reshape(len(lids), len(rids)))

    def sums(self, w: np.ndarray) -> np.ndarray:
        """The sum of ``w`` (left points by right points) over each rectangle's members."""
        pair = self.left.indicator() @ w @ self.right.indicator().T
        return pair[self.left_at, self.right_at]


def rectangle_grid(
    product: ProductSpace, left_centers: Iterable, right_centers: Iterable, delta: float
) -> RectangleGrid:
    """The rectangles of ``enumerate_centered_rectangles`` as a :class:`RectangleGrid`."""
    if not delta >= product.epsilon_net:  # also rejects NaN
        raise DeltaBelowResolution(float(delta), product.epsilon_net)
    left = ball_grid(product.left, left_centers, delta)
    right = ball_grid(product.right, right_centers, delta)
    li, ri = np.divmod(np.arange(left.size * right.size), max(right.size, 1))
    k = np.lexsort((ri, li, right.row[ri], left.row[li]))
    return RectangleGrid(product=product, left=left, right=right, left_at=li[k], right_at=ri[k])
