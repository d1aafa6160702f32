"""Exception types shared across the library.

Validation problems found while checking a distance matrix are collected
as individual violation records (each one an exception instance) and
raised together inside a single :class:`SpaceValidationError`, so a bad
matrix reports every defect at once instead of the first one hit.
"""

from __future__ import annotations

import copyreg
import math

__all__ = [
    "FracmeasureError",
    "InvalidInput",
    "SpaceValidationError",
    "TriangleViolation",
    "AsymmetricDistance",
    "NonPositiveEpsilon",
    "EpsilonAboveResolution",
    "DegenerateDistance",
    "NonFiniteDistance",
    "CoordsMismatch",
    "UnknownCenter",
    "DeltaBelowResolution",
    "CandidateLimitExceeded",
    "NumericalFailure",
    "SizeLimit",
    "EmptyGrid",
    "ZeroDenominator",
    "DimensionUnsupported",
    "InvalidWeightedCover",
    "LevelTooLarge",
    "OptimizerInternalError",
    "ConfigParseError",
    "MissingInstance",
    "SuiteUnknown",
]


class FracmeasureError(Exception):
    """Base class for all library-specific errors."""

    def __reduce__(self):
        # Subclass __init__ signatures differ from ``args``; restore
        # ``args`` and the attributes without calling __init__, so an
        # error raised in a worker process unpickles intact.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidInput(FracmeasureError, ValueError):
    """An argument outside its domain: NaN, infinite, negative, misshapen.

    Also a ValueError, so callers catching the builtin keep working.
    """


# --- space validation -------------------------------------------------


class TriangleViolation(FracmeasureError):
    """dist(i, k) exceeds dist(i, j) + dist(j, k) beyond tolerance."""

    def __init__(self, i: int, j: int, k: int) -> None:
        super().__init__(f"triangle inequality violated at indices ({i}, {j}, {k})")
        self.i, self.j, self.k = i, j, k


class AsymmetricDistance(FracmeasureError):
    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"dist[{i},{j}] != dist[{j},{i}]")
        self.i, self.j = i, j


class NonPositiveEpsilon(FracmeasureError):
    def __init__(self, epsilon: float) -> None:
        super().__init__(f"epsilon_net must be positive, got {epsilon!r}")
        self.epsilon = epsilon


class EpsilonAboveResolution(FracmeasureError):
    """epsilon_net exceeds the minimum positive distance of the space."""

    def __init__(self, epsilon: float, min_distance: float) -> None:
        super().__init__(
            f"epsilon_net {epsilon!r} exceeds minimum positive distance {min_distance!r}"
        )
        self.epsilon = epsilon
        self.min_distance = min_distance


class DegenerateDistance(FracmeasureError):
    """Zero or negative distance between two distinct points."""

    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"distinct points {i}, {j} at nonpositive distance")
        self.i, self.j = i, j


class NonFiniteDistance(FracmeasureError):
    """NaN or infinite distance entry."""

    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"dist[{i},{j}] is not finite")
        self.i, self.j = i, j


class CoordsMismatch(FracmeasureError):
    """Supplied matrix disagrees with Euclidean distances of the coords."""

    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"dist[{i},{j}] does not match the coordinate distance")
        self.i, self.j = i, j


class SpaceValidationError(FracmeasureError):
    """Raised by validate_space; carries every violated invariant."""

    def __init__(self, violations: list[FracmeasureError]) -> None:
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{len(violations)} invariant violation(s): {lines}")
        self.violations = violations


# --- enumeration and solving ------------------------------------------


class UnknownCenter(FracmeasureError):
    def __init__(self, center) -> None:
        super().__init__(f"point id {center!r} is not in the space")
        self.center = center


class DeltaBelowResolution(FracmeasureError):
    def __init__(self, delta: float, epsilon: float) -> None:
        super().__init__(f"delta {delta!r} is below the resolution floor {epsilon!r}")
        self.delta = delta
        self.epsilon = epsilon


class CandidateLimitExceeded(FracmeasureError):
    """Branch-and-bound node budget exhausted; carries the bound bracket."""

    def __init__(self, lower: float, upper: float, nodes: int) -> None:
        super().__init__(
            f"node limit hit after {nodes} nodes; optimum in [{lower!r}, {upper!r}]"
        )
        self.lower = lower
        self.upper = upper
        self.nodes = nodes


class NumericalFailure(FracmeasureError):
    """A covering LP failed: its solve, or its certificate; carries the bracket.

    A solve that ends without a solution has no bracket (both NaN), and
    its message names the LP failure instead of a duality gap.
    """

    def __init__(self, primal: float, dual: float, detail: str = "") -> None:
        if math.isnan(primal) and math.isnan(dual):
            message = f"LP solve failed: {detail}"
        else:
            message = f"duality gap not closed: primal={primal!r} dual={dual!r} {detail}"
        super().__init__(message.rstrip())
        self.primal = primal
        self.dual = dual


class SizeLimit(FracmeasureError):
    """Instance exceeds the exhaustive-oracle size bounds."""


class EmptyGrid(FracmeasureError):
    """A diagnostic was handed an empty radius grid."""


class ZeroDenominator(FracmeasureError):
    def __init__(self, center, radius: float) -> None:
        super().__init__(f"premeasure vanished on the ball ({center!r}, {radius!r})")
        self.center = center
        self.radius = radius


class DimensionUnsupported(FracmeasureError):
    def __init__(self, dim) -> None:
        super().__init__(f"construction requires coordinates in dimension 1 or 2, got {dim}")
        self.dim = dim


class InvalidWeightedCover(FracmeasureError):
    """Weights fail the covering constraint on some target point."""


class LevelTooLarge(FracmeasureError):
    def __init__(self, level: int, limit: int) -> None:
        super().__init__(f"level {level} exceeds the supported maximum {limit}")
        self.level = level
        self.limit = limit


class OptimizerInternalError(FracmeasureError):
    """An internal consistency check failed (indicates a solver bug)."""


# --- command line harness ---------------------------------------------


class ConfigParseError(FracmeasureError):
    """Malformed configuration file or option block."""


class MissingInstance(FracmeasureError):
    def __init__(self, path_or_id) -> None:
        super().__init__(f"instance not found: {path_or_id!r}")
        self.ref = path_or_id


class SuiteUnknown(FracmeasureError):
    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        super().__init__(f"unknown suite {name!r}; known suites: {', '.join(known)}")
        self.name = name
