"""The per-candidate cost functions in their scalar form: the reference for grid pricing.

The program prices every candidate as array code over a grid, and reads a
single ball or rectangle as a grid of one.  This module keeps the earlier
form, one candidate at a time on Python floats: members from a row of
``dist``, gauges and powers by ``**`` and ``np.interp`` per value, masses
added member by member.  The grid-versus-scalar tests compare against it,
so the check does not run the code it checks.
"""

import numpy as np

from fracmeasure import ProductSpace, Rectangle
from fracmeasure.errors import FracmeasureError
from fracmeasure.extended import xmul, xpow


def gauge(h, r: float) -> float:
    """The gauge ``h`` at one argument ``r >= 0``."""
    assert r >= 0.0, r
    if h.kind == "power":
        return float(r) ** h.power
    if h.kind == "linear":
        return float(r)
    if h.kind == "constant_after_zero":
        return 0.0 if r == 0.0 else h.constant
    if h.kind == "table":
        rs = [0.0] + [p for p, _ in h.table]
        vs = [0.0] + [v for _, v in h.table]
        return float(np.interp(r, rs, vs))
    raise FracmeasureError(f"unknown gauge kind {h.kind!r}")


def _members(space, ball) -> np.ndarray:
    """Point indices of the closed ball, ascending."""
    return np.flatnonzero(space.dist[space.index_of(ball.center)] <= ball.radius)


def _realized_diameter(space, ball) -> float:
    idx = _members(space, ball)
    if len(idx) <= 1:
        return 0.0
    return float(space.dist[np.ix_(idx, idx)].max())


def diameter(space, ball, mode: str) -> float:
    """Nominal or realized diameter of a ball, or the larger factor one of a rectangle."""
    if isinstance(ball, Rectangle):
        if mode == "nominal":
            return ball.nominal_diameter
        return max(
            _realized_diameter(space.left, ball.left),
            _realized_diameter(space.right, ball.right),
        )
    if isinstance(space, ProductSpace):
        space = space.space
    if mode == "nominal":
        return 2.0 * ball.radius
    return _realized_diameter(space, ball)


def ball_mass(space, measure, ball) -> float:
    """Member mass of a ball, added by distance from the center (ties by index),
    or of a rectangle, added in the ``(a, b)`` row-major order of the product."""
    if isinstance(ball, Rectangle):
        lids, rids = space.left.point_ids, space.right.point_ids
        left, right = _members(space.left, ball.left), _members(space.right, ball.right)
        masses = [measure.mass_of((lids[a], rids[b])) for a in left for b in right]
    else:
        if isinstance(space, ProductSpace):
            space = space.space
        idx = space.index_of(ball.center)
        members = _members(space, ball)
        members = members[np.argsort(space.dist[idx, members], kind="stable")]
        masses = [measure.mass_of(space.point_ids[i]) for i in members.tolist()]
    return float(np.cumsum(masses)[-1]) if masses else 0.0


def eval_premeasure(xi, space, ball) -> float:
    """The premeasure on one ball or rectangle."""
    if xi.kind == "hausdorff":
        return gauge(xi.h, diameter(space, ball, xi.diam_mode))
    if xi.kind == "gauge_pair":
        d = diameter(space, ball, xi.diam_mode)
        return xmul(gauge(xi.h, d), gauge(xi.h_right, d))
    if xi.kind == "constant_nonempty":
        return xi.c
    if xi.kind == "measure_power":
        m = ball_mass(space, xi.mu, ball)
        powered = 1.0 if xi.p == 0.0 else m**xi.p
        scale = 0.5 * (xi.a + xi.b)
        return scale * powered * gauge(xi.phi, diameter(space, ball, "nominal"))
    if xi.kind == "product":
        return xmul(
            eval_premeasure(xi.left, space.left, ball.left),
            eval_premeasure(xi.right, space.right, ball.right),
        )
    raise FracmeasureError(f"unknown premeasure kind {xi.kind!r}")


def weight_term(space, measure, q, xi, ball) -> float:
    """The cost mu(B)^q * xi(B) of one candidate, in extended arithmetic."""
    return xmul(xpow(ball_mass(space, measure, ball), q), eval_premeasure(xi, space, ball))
