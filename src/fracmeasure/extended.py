"""Extended nonnegative arithmetic for cover costs.

Costs live in [0, +inf], with infinity represented by ``math.inf``.
Two conventions differ from plain IEEE arithmetic and are applied by the
helpers below:

* ``0 * inf == inf * 0 == 0``  (a vanishing premeasure kills the term
  even when the mass power blows up),
* ``0 ** q == inf`` for ``q <= 0``  (zero mass makes the power term
  infinite for nonpositive exponents; for ``q > 0`` it is 0).

Ordering and addition are ordinary float operations, which already
totally order [0, inf] and propagate infinity correctly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["INF", "xmul", "xmul_array", "xpow", "xdiv"]

INF = math.inf


def xmul(a: float, b: float) -> float:
    """Product on [0, inf] with the 0 * inf = 0 convention."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def xmul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise :func:`xmul`: the IEEE product, with 0 * inf = 0."""
    with np.errstate(invalid="ignore"):
        return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def xpow(base: float, q: float) -> float:
    """Power on [0, inf] with 0 ** q = inf for q <= 0 and 0 for q > 0."""
    if base == 0.0:
        return INF if q <= 0.0 else 0.0
    return base**q


def xdiv(num: float, den: float) -> float:
    """Quotient on [0, inf]: x/0 is inf for x > 0 and 0 for x = 0;
    a finite numerator over an infinite denominator is 0."""
    if den == 0.0:
        return INF if num > 0.0 else 0.0
    if math.isinf(den):
        return INF if math.isinf(num) else 0.0
    return num / den


# Tolerances, stated once and reused everywhere.
INVARIANT_TOL = 1e-12  # structural checks (symmetry, triangle, mass sums)
SOLVER_TOL = 1e-9  # optimizer and certificate comparisons (absolute)
CHECK_TOL = 1e-7  # cross-quantity theorem checks (relative to max(1, value))
