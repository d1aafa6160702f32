import math

import numpy as np
import pytest

from fracmeasure import (
    Ball,
    HausdorffFunction,
    INF,
    Premeasure,
    Rectangle,
    cantor_net,
    eval_premeasure,
    hxh_premeasure,
    point_measure,
    product_measure,
    product_premeasure,
    product_space,
    random_cloud,
    uniform_measure,
    validate_space,
    weight_term,
)
from fracmeasure.errors import InvalidInput
from fracmeasure.metric import ball_grid, candidate_grid
from fracmeasure.premeasure import premeasure_values, weight_terms

import scalar_reference


def test_power_gauge_values():
    g = HausdorffFunction.power_law(math.log(2.0) / math.log(3.0))
    assert g(2.0 / 3.0) == pytest.approx(0.7742813263151215)
    assert g(0.0) == 0.0
    lin = HausdorffFunction.linear()
    assert lin(0.3) == pytest.approx(0.3)


def test_power_gauge_rejects_bad_exponent():
    with pytest.raises(Exception):
        HausdorffFunction.power_law(0.0)
    with pytest.raises(Exception):
        HausdorffFunction.power_law(-1.0)


def test_table_gauge_interpolates_through_origin():
    g = HausdorffFunction.from_table([(0.5, 1.0), (1.0, 3.0)])
    assert g(0.25) == pytest.approx(0.5)
    assert g(0.75) == pytest.approx(2.0)
    assert g(2.0) == pytest.approx(3.0)
    assert g(0.0) == 0.0


def test_table_gauge_rejects_decreasing():
    with pytest.raises(Exception):
        HausdorffFunction.from_table([(0.5, 2.0), (1.0, 1.0)])
    with pytest.raises(Exception):
        HausdorffFunction.from_table([(1.0, 1.0), (0.5, 2.0)])


def test_constant_after_zero_gauge():
    g = HausdorffFunction.constant_after_zero(2.5)
    assert g(0.0) == 0.0
    assert g(1e-12) == 2.5
    assert g(10.0) == 2.5


def test_nominal_gauge_premeasure(two_points):
    space, _ = two_points
    xi = Premeasure.from_gauge(HausdorffFunction.linear())
    assert eval_premeasure(xi, space, Ball("a", 0.1)) == pytest.approx(0.2)
    assert eval_premeasure(xi, space, Ball("a", 1.0)) == pytest.approx(2.0)


def test_realized_gauge_premeasure(two_points):
    space, _ = two_points
    xi = Premeasure.from_gauge(HausdorffFunction.linear(), diam_mode="realized")
    assert eval_premeasure(xi, space, Ball("a", 0.1)) == 0.0
    assert eval_premeasure(xi, space, Ball("a", 1.0)) == pytest.approx(1.0)


def test_constant_premeasure_allows_zero(two_points):
    space, _ = two_points
    xi = Premeasure.constant_nonempty(0.0)
    assert eval_premeasure(xi, space, Ball("a", 0.1)) == 0.0
    with pytest.raises(Exception):
        Premeasure.constant_nonempty(-1.0)


def test_measure_power_band(two_points):
    space, measure = two_points
    xi = Premeasure.measure_power(measure, 1.0, HausdorffFunction.linear(), 1.0, 3.0)
    # band midpoint 2, mass 0.5, diameter 0.2
    assert eval_premeasure(xi, space, Ball("a", 0.1)) == pytest.approx(2.0 * 0.5 * 0.2)
    zero_p = Premeasure.measure_power(measure, 0.0, HausdorffFunction.linear(), 1.0, 1.0)
    assert eval_premeasure(zero_p, space, Ball("a", 0.1)) == pytest.approx(0.2)


def test_product_premeasure_multiplies(two_points):
    left, _ = two_points
    prod = product_space(left, left)
    lin = Premeasure.from_gauge(HausdorffFunction.linear())
    xi0 = product_premeasure(lin, lin)
    rect = Rectangle(Ball("a", 0.1), Ball("b", 1.0))
    assert eval_premeasure(xi0, prod, rect) == pytest.approx(0.2 * 2.0)


def test_product_premeasure_needs_rectangles(two_points):
    left, _ = two_points
    lin = Premeasure.from_gauge(HausdorffFunction.linear())
    xi0 = product_premeasure(lin, lin)
    with pytest.raises(TypeError):
        eval_premeasure(xi0, left, Ball("a", 0.1))


def test_hxh_uses_shared_diameter(two_points):
    left, _ = two_points
    prod = product_space(left, left)
    lin = HausdorffFunction.linear()
    joint = hxh_premeasure(lin, lin)
    rect = Rectangle(Ball("a", 0.1), Ball("b", 1.0))
    # shared nominal diameter max(0.2, 2.0) = 2.0 in both factors
    assert eval_premeasure(joint, prod, rect) == pytest.approx(4.0)
    even = Rectangle(Ball("a", 0.1), Ball("b", 0.1))
    assert eval_premeasure(joint, prod, even) == pytest.approx(0.04)


def test_hxh_dominates_product_pointwise(two_points):
    left, _ = two_points
    prod = product_space(left, left)
    lin = HausdorffFunction.linear()
    plain = product_premeasure(
        Premeasure.from_gauge(lin), Premeasure.from_gauge(lin)
    )
    joint = hxh_premeasure(lin, lin)
    for rl in (0.1, 1.0):
        for rr in (0.1, 1.0):
            rect = Rectangle(Ball("a", rl), Ball("b", rr))
            assert eval_premeasure(joint, prod, rect) >= eval_premeasure(
                plain, prod, rect
            ) - 1e-15


def test_weight_term_conventions(two_points):
    space, _ = two_points
    degenerate = validate_space(
        dist=np.array([[0.0, 1.0], [1.0, 0.0]]), epsilon_net=0.1, point_ids=["a", "b"]
    )
    measure = point_measure(degenerate, {"a": 1.0, "b": 0.0})
    xi = Premeasure.from_gauge(HausdorffFunction.linear())
    ball = Ball("b", 0.1)
    # zero mass, q <= 0: infinite cost
    assert weight_term(degenerate, measure, 0.0, xi, ball) == INF
    assert weight_term(degenerate, measure, -1.0, xi, ball) == INF
    # zero mass, q > 0: zero cost
    assert weight_term(degenerate, measure, 1.0, xi, ball) == 0.0
    # zero premeasure absorbs the infinite power
    zero_xi = Premeasure.constant_nonempty(0.0)
    assert weight_term(degenerate, measure, -1.0, zero_xi, ball) == 0.0


def test_weight_term_two_point_value(two_points):
    space, measure = two_points
    xi = Premeasure.from_gauge(HausdorffFunction.linear())
    assert weight_term(space, measure, 1.0, xi, Ball("a", 0.1)) == pytest.approx(0.1)


# --- gauges on arrays, and candidates priced as grids -------------------------


_GAUGES = [
    HausdorffFunction.linear(),
    HausdorffFunction.power_law(math.log(2.0) / math.log(3.0)),
    HausdorffFunction.from_table([(0.25, 0.5), (1.0, 1.0), (2.0, 1.5)]),
    HausdorffFunction.constant_after_zero(2.5),
]


def _close(got: float, want: float) -> bool:
    """Within 1e-12 relative, and inf only against inf."""
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("gauge", _GAUGES, ids=lambda h: h.kind)
def test_a_gauge_on_an_array_is_the_gauge_per_element(gauge):
    r = np.array([0.0, 1e-12, 0.1, 0.25, 0.6, 1.0, 1.7, 2.0, 9.0])
    got = gauge(r)
    assert isinstance(got, np.ndarray) and got.shape == r.shape
    for x, g in zip(r.tolist(), got.tolist()):
        one = gauge(x)
        assert type(one) is float and _close(one, g), (x, one, g)
        assert _close(g, scalar_reference.gauge(gauge, x)), (x, g)


@pytest.mark.parametrize("gauge", _GAUGES, ids=lambda h: h.kind)
@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_a_gauge_rejects_an_array_with_one_bad_entry(gauge, bad):
    with pytest.raises(InvalidInput, match="gauge argument must be nonnegative"):
        gauge(np.array([0.0, 0.3, bad, 1.0]))


def _premeasures_for(mu):
    lin, half = HausdorffFunction.linear(), HausdorffFunction.power_law(0.5)
    return [Premeasure.from_gauge(h, mode) for h in _GAUGES for mode in ("nominal", "realized")] + [
        Premeasure.measure_power(mu, 0.5, half, 1.0, 3.0),
        Premeasure.measure_power(mu, 0.0, lin, 2.0, 2.0),
        Premeasure.constant_nonempty(1.5),
        hxh_premeasure(lin, half),
        hxh_premeasure(lin, half, "realized"),
    ]


def _shuffled_balls(space, rng):
    """Grid balls, off-grid radii, the floor, radius 0, beyond the diameter, a repeat."""
    ids, diam = space.point_ids, float(space.dist.max())
    grid = ball_grid(space, ids, diam).balls()
    balls = [grid[int(i)] for i in rng.choice(len(grid), 8, replace=False)]
    balls += [
        Ball(ids[int(i)], float(r))
        for i, r in zip(rng.integers(0, space.n, 8), rng.uniform(0.0, diam, 8))
    ]
    balls += [Ball(ids[0], space.epsilon_net), Ball(ids[-1], 0.0), Ball(ids[1], 2.0 * diam)]
    balls.append(balls[0])
    return [balls[int(i)] for i in rng.permutation(len(balls))]


def test_candidate_grid_prices_balls_as_the_scalar_reference():
    rng = np.random.default_rng(5)
    for space in (random_cloud(12, 2, 3), cantor_net(3)[0]):
        masses = rng.random(space.n)
        mu = point_measure(space, dict(zip(space.point_ids, masses / masses.sum())))
        balls = _shuffled_balls(space, rng)
        grid = candidate_grid(space, balls)
        assert grid.balls() == balls
        ref = scalar_reference
        assert grid.mass(mu).tolist() == [ref.ball_mass(space, mu, b) for b in balls]
        for mode in ("nominal", "realized"):
            want = [ref.diameter(space, b, mode) for b in balls]
            assert grid.diameter(mode).tolist() == want
        for xi in _premeasures_for(mu):
            got = premeasure_values(xi, grid).tolist()
            want = [ref.eval_premeasure(xi, space, b) for b in balls]
            assert all(map(_close, got, want)), (xi, got, want)
            for q in (-1.0, 0.0, 1.5):
                got = weight_terms(grid, mu, q, xi).tolist()
                want = [ref.weight_term(space, mu, q, xi, b) for b in balls]
                assert all(map(_close, got, want)), (xi, q, got, want)


def test_candidate_grid_prices_rectangles_as_the_scalar_reference():
    rng = np.random.default_rng(9)
    left, (right, rmu) = random_cloud(5, 1, 5), cantor_net(2, 1.0 / 3.0, 0.4)
    lmu = point_measure(left, dict(zip(left.point_ids, [0.1, 0.3, 0.0, 0.2, 0.4])))
    prod, pm = product_space(left, right), product_measure(lmu, rmu)
    pairs = zip(_shuffled_balls(left, rng), _shuffled_balls(right, rng))
    rects = [Rectangle(a, b) for a, b in pairs]
    grid = candidate_grid(prod, rects)
    assert grid.rectangles() == rects
    ref = scalar_reference
    got, want = grid.mass(pm).tolist(), [ref.ball_mass(prod, pm, r) for r in rects]
    assert all(map(_close, got, want)), (got, want)
    for mode in ("nominal", "realized"):
        assert grid.diameter(mode).tolist() == [ref.diameter(prod, r, mode) for r in rects]
    lin, half = HausdorffFunction.linear(), HausdorffFunction.power_law(0.5)
    premeasures = _premeasures_for(pm) + [
        product_premeasure(Premeasure.from_gauge(lin), Premeasure.from_gauge(half, "realized")),
        product_premeasure(
            Premeasure.measure_power(lmu, 1.0, lin, 1.0, 1.0), Premeasure.constant_nonempty(2.0)
        ),
    ]
    for xi in premeasures:
        got = premeasure_values(xi, grid).tolist()
        want = [ref.eval_premeasure(xi, prod, r) for r in rects]
        assert all(map(_close, got, want)), (xi, got, want)
        for q in (-1.0, 0.0, 1.0):
            got = weight_terms(grid, pm, q, xi).tolist()
            want = [ref.weight_term(prod, pm, q, xi, r) for r in rects]
            assert all(map(_close, got, want)), (xi, q, got, want)
    # a ball of a product is a ball of its combined space
    ball = Ball(prod.space.point_ids[7], 0.4)
    one = candidate_grid(prod, [ball])
    assert one.space is prod.space and one.balls() == [ball]
    assert one.mass(pm).tolist() == [ref.ball_mass(prod, pm, ball)]
