"""Premeasures on balls: the per-ball factor of every cover cost.

A premeasure assigns a value in [0, inf) to each candidate ball (or
rectangle), is zero on the empty set and monotone under joint member-set
inclusion and radius order.  Four kinds are provided:

* ``hausdorff``: h(diam B) for a gauge function h, with the diameter
  read either nominally (2 r) or realized (largest member distance);
* ``measure_power``: c * mu(B)^p * phi(2 r) with a fixed scale c inside
  a declared band [a, b];
* ``constant_nonempty``: a constant on every nonempty ball (the zero
  constant is allowed and gives the null premeasure);
* ``product``: the factor-wise product on rectangles;
* ``gauge_pair``: h(d) * h2(d) on rectangles at the shared nominal
  diameter d = max(2 r_left, 2 r_right), which dominates the plain
  product of the two gauge premeasures pointwise.

Gauge functions vanish at 0, are nondecreasing, positive for r > 0 and
right-continuous on r > 0; they take a float or an array of them.

Each kind is written once, as array expressions over a candidate grid
(:func:`premeasure_values`, and :func:`weight_terms` for the cost
mu(B)^q xi(B)), whose values run in the grid's candidate order.  The
functions on one ball or rectangle, :func:`eval_premeasure` and
:func:`weight_term`, read a grid of that one candidate
(``metric.candidate_grid``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FracmeasureError, InvalidInput
from .extended import INF, xmul_array, xpow_array
from .metric import (
    Ball,
    BallGrid,
    FiniteMetricSpace,
    PointMeasure,
    ProductSpace,
    Rectangle,
    RectangleGrid,
    candidate_grid,
)

__all__ = [
    "HausdorffFunction",
    "Premeasure",
    "eval_premeasure",
    "product_premeasure",
    "hxh_premeasure",
    "weight_term",
    "premeasure_values",
    "weight_terms",
]


@dataclass(frozen=True)
class HausdorffFunction:
    """Gauge function r -> h(r): h(0) = 0, nondecreasing, positive for r > 0."""

    kind: str
    power: float = 0.0
    table: tuple[tuple[float, float], ...] = ()
    constant: float = 0.0

    @staticmethod
    def power_law(s: float) -> "HausdorffFunction":
        if not 0.0 < s < INF:
            raise InvalidInput(f"power exponent must be positive and finite, got {s!r}")
        return HausdorffFunction(kind="power", power=float(s))

    @staticmethod
    def linear() -> "HausdorffFunction":
        return HausdorffFunction(kind="linear")

    @staticmethod
    def from_table(points) -> "HausdorffFunction":
        """Piecewise-linear gauge through (0, 0) and the given (r, v) breakpoints,
        constant after the last breakpoint."""
        pts = tuple((float(r), float(v)) for r, v in points)
        if not pts:
            raise InvalidInput("table needs at least one breakpoint")
        rs = [r for r, _ in pts]
        vs = [v for _, v in pts]
        if any(not 0.0 < r < INF for r in rs) or sorted(rs) != rs or len(set(rs)) != len(rs):
            raise InvalidInput("breakpoint radii must be positive, finite and strictly increasing")
        if any(not 0.0 < v < INF for v in vs) or sorted(vs) != vs:
            raise InvalidInput("breakpoint values must be positive, finite and nondecreasing")
        return HausdorffFunction(kind="table", table=pts)

    @staticmethod
    def constant_after_zero(c: float) -> "HausdorffFunction":
        if not 0.0 < c < INF:
            raise InvalidInput(f"constant must be positive and finite, got {c!r}")
        return HausdorffFunction(kind="constant_after_zero", constant=float(c))

    def __call__(self, r: float | np.ndarray) -> float | np.ndarray:
        """h(r) of a float, or of every entry of an array."""
        x = np.asarray(r, dtype=float)
        bad = ~(x >= 0.0)  # NaN too
        if bad.any():
            raise InvalidInput(f"gauge argument must be nonnegative, got {float(x[bad][0])!r}")
        if self.kind == "power":
            h = x**self.power
        elif self.kind == "linear":
            h = x
        elif self.kind == "constant_after_zero":
            h = np.where(x == 0.0, 0.0, self.constant)
        elif self.kind == "table":
            rs = [0.0] + [p for p, _ in self.table]
            vs = [0.0] + [v for _, v in self.table]
            h = np.interp(x, rs, vs)
        else:
            raise FracmeasureError(f"unknown gauge kind {self.kind!r}")
        return float(h) if x.ndim == 0 else h


@dataclass(frozen=True)
class Premeasure:
    """Tagged premeasure; evaluate with :func:`premeasure_values` on a grid."""

    kind: str
    h: HausdorffFunction | None = None
    h_right: HausdorffFunction | None = None
    diam_mode: str = "nominal"
    mu: PointMeasure | None = None
    p: float = 0.0
    phi: HausdorffFunction | None = None
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    left: "Premeasure | None" = None
    right: "Premeasure | None" = None

    @staticmethod
    def from_gauge(h: HausdorffFunction, diam_mode: str = "nominal") -> "Premeasure":
        if diam_mode not in ("nominal", "realized"):
            raise InvalidInput("diam_mode must be 'nominal' or 'realized'")
        return Premeasure(kind="hausdorff", h=h, diam_mode=diam_mode)

    @staticmethod
    def measure_power(
        mu: PointMeasure, p: float, phi: HausdorffFunction, a: float, b: float
    ) -> "Premeasure":
        """c * mu(B)^p * phi(2 r) with c the midpoint of the band [a, b]."""
        if not (0.0 <= p < INF and 0.0 <= a <= b < INF):
            raise InvalidInput("need finite p >= 0 and 0 <= a <= b")
        return Premeasure(kind="measure_power", mu=mu, p=float(p), phi=phi, a=float(a), b=float(b))

    @staticmethod
    def constant_nonempty(c: float) -> "Premeasure":
        if not 0.0 <= c < INF:
            raise InvalidInput(f"constant must be nonnegative and finite, got {c!r}")
        return Premeasure(kind="constant_nonempty", c=float(c))


def product_premeasure(left: Premeasure, right: Premeasure) -> Premeasure:
    """Factor-wise product premeasure on rectangles."""
    return Premeasure(kind="product", left=left, right=right)


def hxh_premeasure(
    h: HausdorffFunction, h_right: HausdorffFunction, diam_mode: str = "nominal"
) -> Premeasure:
    """Joint-gauge premeasure h(d) * h'(d) at the rectangle's shared diameter.

    Evaluating both gauges at the max of the factor diameters dominates
    the plain product of the two gauge premeasures pointwise.
    """
    if diam_mode not in ("nominal", "realized"):
        raise InvalidInput("diam_mode must be 'nominal' or 'realized'")
    return Premeasure(kind="gauge_pair", h=h, h_right=h_right, diam_mode=diam_mode)


def eval_premeasure(
    xi: Premeasure,
    space: FiniteMetricSpace | ProductSpace,
    ball: Ball | Rectangle,
) -> float:
    """Value of the premeasure on one candidate ball or rectangle, read as a grid."""
    return float(premeasure_values(xi, candidate_grid(space, [ball]))[0])


def weight_term(
    space: FiniteMetricSpace | ProductSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    ball: Ball | Rectangle,
) -> float:
    """Cost of one candidate, mu(B)^q * xi(B), read as a grid: see :func:`weight_terms`."""
    return float(weight_terms(candidate_grid(space, [ball]), measure, q, xi)[0])


# --- whole candidate families ----------------------------------------------


def premeasure_values(xi: Premeasure, grid: BallGrid | RectangleGrid) -> np.ndarray:
    """The premeasure on every candidate of a grid."""
    if xi.kind == "hausdorff":
        return xi.h(grid.diameter(xi.diam_mode))
    if xi.kind == "gauge_pair":
        d = grid.diameter(xi.diam_mode)
        return xmul_array(xi.h(d), xi.h_right(d))
    if xi.kind == "constant_nonempty":
        return np.full(grid.size, xi.c)
    if xi.kind == "measure_power":
        scale = 0.5 * (xi.a + xi.b)
        return scale * grid.mass(xi.mu) ** xi.p * xi.phi(grid.diameter("nominal"))
    if xi.kind == "product":
        if not isinstance(grid, RectangleGrid):
            raise TypeError("product premeasure evaluates on rectangles of a product space")
        return xmul_array(
            premeasure_values(xi.left, grid.left)[grid.left_at],
            premeasure_values(xi.right, grid.right)[grid.right_at],
        )
    raise FracmeasureError(f"unknown premeasure kind {xi.kind!r}")


def weight_terms(
    grid: BallGrid | RectangleGrid, measure: PointMeasure, q: float, xi: Premeasure
) -> np.ndarray:
    """The cost mu(B)^q * xi(B) of every candidate of a grid, in extended arithmetic.

    Zero mass with q <= 0 makes the power infinite; a vanishing
    premeasure kills the product even then (0 * inf = 0).  A NaN or
    infinite q raises InvalidInput.
    """
    if not -INF < q < INF:
        raise InvalidInput(f"q must be finite, got {q!r}")
    return xmul_array(xpow_array(grid.mass(measure), q), premeasure_values(xi, grid))
