"""Finite-scale diagnostics: blanketing, doubling, density profiles and bounds.

All quantities here are brute-force maxima over explicit grids; nothing
extrapolates beyond the resolution floor.  The density upper bound is a
theorem at fixed scale and is asserted; the other diagnostics only
report numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyGrid, InvalidInput, ZeroDenominator
from .extended import INF, SOLVER_TOL, xdiv, xdiv_array
from .metric import Ball, FiniteMetricSpace, PointMeasure, ball_mass
from .premeasure import Premeasure, eval_premeasure, weight_term
from .optimizer import build_cover_instance, solve_integer

__all__ = [
    "blanketing_ratio",
    "premeasure_doubling",
    "upper_density_profile",
    "DensityBoundReport",
    "density_upper_bound_check",
]


def blanketing_ratio(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    a: float,
    radii: Sequence[float],
) -> float:
    """max over grid radii and support points of mu(B(x, a r)) / mu(B(x, r))."""
    if not 1.0 < a < INF:
        raise InvalidInput(f"dilation factor must be finite and exceed 1, got {a!r}")
    if not radii:
        raise EmptyGrid("blanketing needs a nonempty radius grid")
    supp = sorted(measure.support, key=space.index_of)
    best = 0.0
    for r in radii:
        if not 0.0 < r < INF:
            raise InvalidInput(f"grid radii must be positive and finite, got {r!r}")
        for x in supp:
            num = ball_mass(space, measure, Ball(center=x, radius=a * r))
            den = ball_mass(space, measure, Ball(center=x, radius=float(r)))
            best = max(best, num / den)  # den >= mu(x) > 0 on the support
    return best


def premeasure_doubling(
    space: FiniteMetricSpace,
    xi: Premeasure,
    radii: Sequence[float],
) -> float:
    """Best doubling constant: max of xi(B(x, 2r)) / xi(B(x, r)) over the grid.

    A vanishing denominator is reported as ZeroDenominator, never masked
    (it can happen in realized mode on singleton balls).
    """
    if not radii:
        raise EmptyGrid("doubling needs a nonempty radius grid")
    best = 0.0
    for r in radii:
        if not 0.0 < r < INF:
            raise InvalidInput(f"grid radii must be positive and finite, got {r!r}")
        for x in space.point_ids:
            den = eval_premeasure(xi, space, Ball(center=x, radius=float(r)))
            if den == 0.0:
                raise ZeroDenominator(x, float(r))
            num = eval_premeasure(xi, space, Ball(center=x, radius=2.0 * float(r)))
            best = max(best, num / den)
    return best


def upper_density_profile(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    nu: PointMeasure,
    point,
    radii: Sequence[float],
    tail: int = 3,
) -> tuple[tuple[tuple[float, float], ...], float]:
    """Per-radius density ratios nu(B) / weight_term(B) at one support point.

    Returns the (radius, ratio) pairs over the grid and the finite-scale
    surrogate: the max ratio over the ``tail`` smallest grid radii.  An
    infinite cost term sends the ratio to 0, a vanishing one to infinity
    (unless the numerator vanishes too).
    """
    if not radii:
        raise EmptyGrid("density profile needs a nonempty radius grid")
    if not -INF < tail < INF:
        raise InvalidInput(f"tail must be finite, got {tail!r}")
    if measure.mass_of(point) <= 0.0:
        raise InvalidInput("profile point must carry positive mass")
    rows = []
    for r in sorted(float(r) for r in radii):
        if not 0.0 < r < INF:
            raise InvalidInput(f"grid radii must be positive and finite, got {r!r}")
        b = Ball(center=point, radius=r)
        num = ball_mass(space, nu, b)
        den = weight_term(space, measure, q, xi, b)
        rows.append((r, xdiv(num, den)))
    surrogate = max(ratio for _, ratio in rows[: max(1, int(tail))])
    return tuple(rows), surrogate


@dataclass(frozen=True)
class DensityBoundReport:
    nu_total: float
    density_sup: float
    h_value: float
    bound: float
    ok: bool
    slack: float


def density_upper_bound_check(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    q: float,
    xi: Premeasure,
    nu: PointMeasure,
    target: Iterable,
    delta: float,
) -> DensityBoundReport:
    """Check nu(E) <= s * H_delta(E) with s the candidate density supremum.

    E is the set of target points, each counted once, and s is the max
    of nu(B) / weight_term(B) over the candidates of the cover instance
    that H is solved on.  For any cover of E, nu(E) <= sum nu(B_i) <=
    s * sum of the cover costs, so the bound holds at fixed scale on
    every valid instance.  When s is infinite the per-ball estimate
    nu(B) <= s * cost degenerates to nu(B) <= inf, so the reported bound
    is infinite (the 0 * inf = 0 cost convention does not apply to this
    comparison).
    """
    instance = build_cover_instance(space, measure, q, xi, target, delta)
    nu_total = float(sum(nu.mass_of(p) for p in instance.target))
    s = float(xdiv_array(instance.grid.mass(nu), instance.costs).max(initial=0.0))
    h = solve_integer(instance)
    if s == INF or h.value == INF:
        bound = INF
    else:
        bound = s * h.value
    ok = nu_total <= bound + SOLVER_TOL
    slack = INF if bound == INF else bound - nu_total
    return DensityBoundReport(
        nu_total=nu_total, density_sup=s, h_value=h.value, bound=bound, ok=ok, slack=slack
    )
