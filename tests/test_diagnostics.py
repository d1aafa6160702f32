import math

import numpy as np
import pytest

from fracmeasure import (
    HausdorffFunction,
    INF,
    Premeasure,
    ball_mass,
    blanketing_ratio,
    cantor_net,
    density_upper_bound_check,
    enumerate_centered_balls,
    point_measure,
    premeasure_doubling,
    random_cloud,
    uniform_measure,
    upper_density_profile,
    validate_space,
    weight_term,
)
from fracmeasure.extended import xdiv
from fracmeasure.errors import EmptyGrid, InvalidInput, ZeroDenominator


def test_blanketing_two_points(two_points):
    space, measure = two_points
    # at radius 0.4 doubling stays inside the point, at 0.5 it jumps
    assert blanketing_ratio(space, measure, 2.0, [0.4]) == pytest.approx(1.0)
    assert blanketing_ratio(space, measure, 2.0, [0.5]) == pytest.approx(2.0)
    assert blanketing_ratio(space, measure, 2.0, [0.4, 0.5]) == pytest.approx(2.0)


def test_blanketing_needs_grid(two_points):
    space, measure = two_points
    with pytest.raises(EmptyGrid):
        blanketing_ratio(space, measure, 2.0, [])
    with pytest.raises(ValueError):
        blanketing_ratio(space, measure, 1.0, [0.4])


def test_blanketing_cantor_regression():
    space, measure = cantor_net(6, 1.0 / 3.0, 0.5)
    radii = [3.0**-k for k in range(1, 6)]
    value = blanketing_ratio(space, measure, 2.0, radii)
    assert value == pytest.approx(2.0, abs=1e-9)


def test_doubling_power_gauge_closed_form(two_points):
    space, _ = two_points
    for s in (0.5, 1.0, math.log(2.0) / math.log(3.0)):
        xi = Premeasure.from_gauge(HausdorffFunction.power_law(s))
        assert premeasure_doubling(space, xi, [0.3]) == pytest.approx(
            2.0**s, rel=1e-12
        )


def test_doubling_realized_zero_denominator(two_points):
    space, _ = two_points
    xi = Premeasure.from_gauge(HausdorffFunction.linear(), diam_mode="realized")
    with pytest.raises(ZeroDenominator):
        premeasure_doubling(space, xi, [0.1])


def test_density_two_points(two_points, linear_gauge):
    space, measure = two_points
    report = density_upper_bound_check(
        space, measure, 1.0, linear_gauge, measure, space.point_ids, 0.6
    )
    assert report.ok
    assert report.nu_total == pytest.approx(1.0)
    assert report.density_sup == pytest.approx(5.0)
    assert report.h_value == pytest.approx(0.2)
    assert report.bound == pytest.approx(1.0)
    assert report.slack == pytest.approx(0.0, abs=1e-12)


def test_density_infinite_sup_keeps_bound_infinite():
    space = validate_space(
        coords=np.array([[0.0], [0.5], [3.0]]), epsilon_net=0.25
    )
    measure = point_measure(space, {"0": 0.5, "1": 0.5, "2": 0.0})
    nu = point_measure(space, {"0": 0.4, "1": 0.3, "2": 0.3})
    xi = Premeasure.from_gauge(HausdorffFunction.linear())
    # nu charges the zero-mass point, whose candidate term vanishes at
    # q=1, so the density sup is infinite and the bound must stay
    # infinite, never 0 * inf = 0
    report = density_upper_bound_check(
        space, measure, 1.0, xi, nu, space.point_ids, 0.6
    )
    assert math.isinf(report.density_sup)
    assert math.isinf(report.bound)
    assert report.ok


def test_density_counts_a_repeated_target_point_once():
    space, measure = cantor_net(3)
    xi = Premeasure.from_gauge(HausdorffFunction.linear())
    once = density_upper_bound_check(space, measure, 0.0, xi, measure, ["000"], 0.5)
    thrice = density_upper_bound_check(space, measure, 0.0, xi, measure, ["000"] * 3, 0.5)
    assert thrice == once
    assert once.nu_total == measure.mass_of("000") == 0.125
    assert once.ok and once.slack >= 0.0


def test_density_profile_rows(two_points, linear_gauge):
    space, measure = two_points
    rows, surrogate = upper_density_profile(
        space, measure, 1.0, linear_gauge, measure, "a", [0.1, 0.5, 1.0]
    )
    assert [r for r, _ in rows] == [0.1, 0.5, 1.0]
    # radius 0.1: nu(B)=0.5 over term 0.5*0.2 = 0.1 gives 5
    assert rows[0][1] == pytest.approx(5.0)
    # radius 1.0: nu(B)=1.0 over term 1.0*2.0
    assert rows[2][1] == pytest.approx(0.5)
    assert surrogate == pytest.approx(5.0)


@pytest.mark.parametrize("radii", [[INF], [0.3, INF], [math.nan], [0.0], [-0.3]])
def test_radius_grids_must_be_positive_and_finite(two_points, linear_gauge, radii):
    # inf / inf is NaN, which max() used to drop: doubling on [inf] read 0.0
    space, measure = two_points
    with pytest.raises(InvalidInput, match="positive and finite"):
        premeasure_doubling(space, linear_gauge, radii)
    with pytest.raises(InvalidInput, match="positive and finite"):
        blanketing_ratio(space, measure, 2.0, radii)
    with pytest.raises(InvalidInput, match="positive and finite"):
        upper_density_profile(space, measure, 1.0, linear_gauge, measure, "a", radii)


@pytest.mark.parametrize("a", [INF, math.nan])
def test_blanketing_dilation_must_be_finite_and_exceed_one(two_points, a):
    space, measure = two_points
    with pytest.raises(InvalidInput, match="dilation factor"):
        blanketing_ratio(space, measure, a, [0.4])


@pytest.mark.parametrize("tail", [math.nan, INF, -INF])
def test_density_profile_tail_must_be_finite(two_points, linear_gauge, tail):
    space, measure = two_points
    with pytest.raises(InvalidInput, match="tail must be finite"):
        upper_density_profile(space, measure, 1.0, linear_gauge, measure, "a", [0.1], tail=tail)


@pytest.mark.parametrize(
    "gauge",
    [
        HausdorffFunction.linear(),
        HausdorffFunction.power_law(0.5),
        HausdorffFunction.from_table([(1.0, 1.0)]),
        HausdorffFunction.constant_after_zero(1.0),
    ],
    ids=lambda h: h.kind,
)
@pytest.mark.parametrize("r", [math.nan, -0.5])
def test_gauges_reject_nan_and_negative_arguments(gauge, r):
    with pytest.raises(InvalidInput, match="gauge argument must be nonnegative"):
        gauge(r)


def test_density_profile_needs_support(two_points, linear_gauge):
    space, _ = two_points
    measure = point_measure(space, {"a": 1.0, "b": 0.0})
    with pytest.raises(Exception):
        upper_density_profile(
            space, measure, 1.0, linear_gauge, measure, "b", [0.1]
        )


def _density_sup_by_candidate(space, measure, q, xi, nu, target, delta):
    """The density supremum as it was computed before: one candidate at a time."""
    s = 0.0
    for b in enumerate_centered_balls(space, target, delta):
        num = ball_mass(space, nu, b)
        den = weight_term(space, measure, q, xi, b)
        s = max(s, xdiv(num, den))
    return s


def _density_cases():
    linear = Premeasure.from_gauge(HausdorffFunction.linear())
    power = Premeasure.from_gauge(HausdorffFunction.power_law(math.log(2) / math.log(3)))
    realized = Premeasure.from_gauge(HausdorffFunction.linear(), diam_mode="realized")
    for seed in (1, 2):
        space = random_cloud(16, 2, seed)
        rng = np.random.default_rng(seed)
        masses = rng.random(space.n)
        masses[0] = 0.0
        measure = point_measure(space, dict(zip(space.point_ids, masses / masses.sum())))
        nu = uniform_measure(space)
        for q in (-1.0, 0.0, 1.0, 2.0):
            yield f"cloud{seed}", space, measure, q, power, nu, space.point_ids, 0.5
            # realized diameters: every singleton candidate costs 0
            yield f"cloud{seed}-realized", space, measure, q, realized, nu, space.point_ids, 0.3
    # nu lives off the target: the zero-cost singletons give 0 / 0 = 0
    space = random_cloud(12, 2, 5)
    nu = point_measure(
        space, {p: (1.0 / 6.0 if k % 2 else 0.0) for k, p in enumerate(space.point_ids)}
    )
    even = space.point_ids[::2]
    for q in (-1.0, 1.0):
        yield "cloud5-nu-off-target", space, uniform_measure(space), q, realized, nu, even, 0.5
    space, measure = cantor_net(4)
    for q in (-1.0, 0.0, 1.0, 2.0):
        ids = space.point_ids
        yield "cantor4", space, measure, q, power, measure, ids, 0.2
        yield "cantor4-realized", space, measure, q, realized, uniform_measure(space), ids, 0.2
        yield "cantor4-linear", space, measure, q, linear, measure, ids, 0.5


def test_density_sup_equals_the_per_candidate_loop():
    seen_inf = seen_finite = 0
    for name, space, measure, q, xi, nu, target, delta in _density_cases():
        report = density_upper_bound_check(space, measure, q, xi, nu, target, delta)
        expected = _density_sup_by_candidate(space, measure, q, xi, nu, target, delta)
        assert report.density_sup == expected, (name, q)
        seen_inf += math.isinf(expected)
        seen_finite += math.isfinite(expected)
    assert seen_inf and seen_finite
