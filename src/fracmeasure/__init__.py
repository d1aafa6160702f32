"""Exact generalized covering premeasures on finite metric spaces.

The package computes, at a fixed scale delta, the minimum-cost integer
cover value (over centered balls with radii between the net resolution
and delta) and the exact fractional cover value (the covering linear
program), under extended-arithmetic cost conventions, together with
covering constructions (5r packings, bounded-overlap families, 3r
subfamily reduction), diagnostics, instance generators, JSON instance
round-tripping, verification suites, and a command line front end.
"""

from .covering import (
    VitaliPacking,
    besicovitch_families,
    check_besicovitch,
    check_vitali,
    subfamily_3r_reduction,
    vitali_5r_packing,
)
from .diagnostics import (
    DensityBoundReport,
    blanketing_ratio,
    density_upper_bound_check,
    premeasure_doubling,
    upper_density_profile,
)
from .errors import (
    CandidateLimitExceeded,
    ConfigParseError,
    DeltaBelowResolution,
    FracmeasureError,
    InvalidInput,
    NumericalFailure,
    SizeLimit,
    SpaceValidationError,
    SuiteUnknown,
    UnknownCenter,
)
from .extended import CHECK_TOL, INF, INVARIANT_TOL, SOLVER_TOL, xdiv, xmul, xpow
from .generators import cantor_net, cycle_metric, random_cloud, uniform_grid
from .instance_io import read_instance, write_instance
from .metric import (
    Ball,
    FiniteMetricSpace,
    PointMeasure,
    ProductSpace,
    Rectangle,
    ball_mass,
    ball_members,
    dilate,
    enumerate_centered_balls,
    enumerate_centered_rectangles,
    point_measure,
    product_measure,
    product_space,
    uniform_measure,
    validate_space,
)
from .optimizer import (
    CoverInstance,
    DeltaProfile,
    FractionalCoverSolution,
    IntegerCoverSolution,
    brute_force_oracle,
    build_cover_instance,
    build_product_cover_instance,
    delta_profile,
    hausdorff_premeasure,
    noncentered_weighted_premeasure,
    product_premeasure_values,
    solve_fractional,
    solve_integer,
    weighted_premeasure,
)
from .premeasure import (
    HausdorffFunction,
    Premeasure,
    eval_premeasure,
    hxh_premeasure,
    product_premeasure,
    weight_term,
)
from .verify import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CandidateLimitExceeded",
    "CHECK_TOL",
    "ConfigParseError",
    "CoverInstance",
    "DeltaBelowResolution",
    "DeltaProfile",
    "DensityBoundReport",
    "FiniteMetricSpace",
    "FracmeasureError",
    "FractionalCoverSolution",
    "HausdorffFunction",
    "INF",
    "INVARIANT_TOL",
    "IntegerCoverSolution",
    "InvalidInput",
    "NumericalFailure",
    "PointMeasure",
    "Premeasure",
    "ProductSpace",
    "Rectangle",
    "SOLVER_TOL",
    "SizeLimit",
    "SpaceValidationError",
    "SuiteReport",
    "SuiteUnknown",
    "SUITE_NAMES",
    "UnknownCenter",
    "VitaliPacking",
    "ball_mass",
    "ball_members",
    "besicovitch_families",
    "blanketing_ratio",
    "brute_force_oracle",
    "build_cover_instance",
    "build_product_cover_instance",
    "cantor_net",
    "check_besicovitch",
    "check_vitali",
    "cycle_metric",
    "delta_profile",
    "density_upper_bound_check",
    "dilate",
    "enumerate_centered_balls",
    "enumerate_centered_rectangles",
    "eval_premeasure",
    "hausdorff_premeasure",
    "hxh_premeasure",
    "noncentered_weighted_premeasure",
    "point_measure",
    "premeasure_doubling",
    "product_measure",
    "product_premeasure",
    "product_premeasure_values",
    "product_space",
    "random_cloud",
    "read_instance",
    "run_suite",
    "solve_fractional",
    "solve_integer",
    "subfamily_3r_reduction",
    "uniform_grid",
    "uniform_measure",
    "upper_density_profile",
    "validate_space",
    "vitali_5r_packing",
    "weight_term",
    "weighted_premeasure",
    "write_instance",
    "xdiv",
    "xmul",
    "xpow",
]
