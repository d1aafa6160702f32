import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmeasure import (
    Ball,
    Rectangle,
    ball_mass,
    ball_members,
    dilate,
    enumerate_centered_balls,
    enumerate_centered_rectangles,
    point_measure,
    product_measure,
    product_space,
    random_cloud,
    uniform_measure,
    validate_space,
)
from fracmeasure.errors import (
    AsymmetricDistance,
    CoordsMismatch,
    DeltaBelowResolution,
    EpsilonAboveResolution,
    InvalidInput,
    NonFiniteDistance,
    NonPositiveEpsilon,
    SpaceValidationError,
    TriangleViolation,
    UnknownCenter,
)
from fracmeasure.metric import ball_grid


def test_validate_accepts_matrix(two_points):
    space, _ = two_points
    assert space.n == 2
    assert space.point_ids == ("a", "b")
    assert space.dist[0, 1] == 1.0


def test_validate_accepts_coords():
    space = validate_space(coords=np.array([[0.0], [3.0], [4.0]]), epsilon_net=0.5)
    assert space.dist[0, 2] == pytest.approx(4.0)
    assert space.point_ids == ("0", "1", "2")


def test_validate_coords_matrix_mismatch():
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(
            dist=np.array([[0.0, 5.0], [5.0, 0.0]]),
            coords=np.array([[0.0], [1.0]]),
            epsilon_net=0.1,
        )
    assert any(isinstance(v, CoordsMismatch) for v in exc.value.violations)


def test_validate_rejects_asymmetry():
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(
            dist=np.array([[0.0, 1.0], [2.0, 0.0]]), epsilon_net=0.1
        )
    assert any(isinstance(v, AsymmetricDistance) for v in exc.value.violations)


def test_validate_rejects_triangle_violation():
    d = np.array(
        [
            [0.0, 1.0, 3.0],
            [1.0, 0.0, 1.0],
            [3.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(dist=d, epsilon_net=0.1)
    assert any(isinstance(v, TriangleViolation) for v in exc.value.violations)


def test_triangle_violation_names_the_first_pivot_of_least_sum():
    # d(0, 4) = 5 exceeds d(0, j) + d(j, 4), which is 3 at pivot 1 and
    # ties at 2 for pivots 2 and 3; every other triangle holds.
    d = np.array(
        [
            [0.0, 1.0, 1.0, 1.0, 5.0],
            [1.0, 0.0, 1.0, 1.0, 2.0],
            [1.0, 1.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 0.0, 1.0],
            [5.0, 2.0, 1.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(dist=d, epsilon_net=0.5)
    assert [(v.i, v.j, v.k) for v in exc.value.violations] == [(0, 2, 4), (4, 2, 0)]


def test_validate_accepts_coords_whose_distances_round_past_the_tolerance():
    # On [0, 1e4] the sums d(i,j) + d(j,k) along the line miss d(i,k) by
    # more than INVARIANT_TOL in the last bits; the metric is Euclidean.
    space = validate_space(coords=[[1e4 * k / 29] for k in range(30)], epsilon_net=100.0)
    assert space.n == 30


def test_validate_scans_a_given_matrix_beside_coords_at_any_size():
    x = np.arange(520.0)
    d = np.abs(x[:, None] - x[None, :])
    # Each entry within 1e-12 of the coordinates, the triangle 0-1-2 broken by 1.5e-12.
    for i, k, step in ((0, 2, 0.5e-12), (0, 1, -0.5e-12), (1, 2, -0.5e-12)):
        d[i, k] += step
        d[k, i] += step
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(dist=d, coords=x, epsilon_net=0.5)
    assert {type(v) for v in exc.value.violations} == {TriangleViolation}


def test_validate_rejects_bad_epsilon():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(dist=d, epsilon_net=0.0)
    assert any(isinstance(v, NonPositiveEpsilon) for v in exc.value.violations)
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(dist=d, epsilon_net=2.0)
    assert any(isinstance(v, EpsilonAboveResolution) for v in exc.value.violations)


def test_validate_collects_multiple_violations():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(dist=d, epsilon_net=0.0)
    kinds = {type(v) for v in exc.value.violations}
    assert AsymmetricDistance in kinds and NonPositiveEpsilon in kinds


@pytest.mark.parametrize(
    "dist, coords, kind",
    [
        ([[0.0, math.nan], [math.nan, 0.0]], None, NonFiniteDistance),
        ([[0.0, math.nan], [1.0, 0.0]], None, NonFiniteDistance),
        ([[0.0, math.inf], [math.inf, 0.0]], None, NonFiniteDistance),
        (None, [[0.0], [math.nan]], NonFiniteDistance),
        ([[0.0, 1.0], [1.0, 0.0]], [[0.0], [math.nan]], CoordsMismatch),
    ],
)
def test_validate_rejects_nonfinite(dist, coords, kind):
    with pytest.raises(SpaceValidationError) as exc:
        validate_space(dist=dist, coords=coords, epsilon_net=0.1)
    assert any(isinstance(v, kind) for v in exc.value.violations)


def test_index_of_unknown_center(two_points):
    space, _ = two_points
    assert space.index_of("b") == 1
    assert "a" in space and "zz" not in space
    with pytest.raises(UnknownCenter):
        space.index_of("zz")


def test_point_measure_validation(two_points):
    space, _ = two_points
    with pytest.raises(Exception):
        point_measure(space, {"a": 0.5, "b": 0.6})
    with pytest.raises(Exception):
        point_measure(space, {"a": 1.0, "zz": 0.0})
    with pytest.raises(Exception):
        point_measure(space, {"a": -0.2, "b": 1.2})
    m = point_measure(space, {"a": 1.0, "b": 0.0})
    assert m.support == frozenset({"a"})
    assert m.mass_of("b") == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_measure_rejects_nonfinite(two_points, bad):
    space, _ = two_points
    with pytest.raises(InvalidInput):
        point_measure(space, {"a": 1.0, "b": bad})


def test_ball_members_and_mass(line3):
    space, measure = line3
    assert ball_members(space, Ball("0", 0.1)) == frozenset({"0"})
    assert ball_members(space, Ball("0", 0.4)) == frozenset({"0", "1"})
    assert ball_members(space, Ball("1", 0.4)) == frozenset({"0", "1", "2"})
    assert ball_mass(space, measure, Ball("1", 0.4)) == pytest.approx(1.0)


def _cloud_with_random_masses():
    space = random_cloud(30, 2, 7)
    masses = np.random.default_rng(7).random(space.n)
    return space, point_measure(space, dict(zip(space.point_ids, masses / masses.sum())))


def test_ball_mass_equals_the_grid_mass_bit_for_bit():
    space, measure = _cloud_with_random_masses()
    grid = ball_grid(space, space.point_ids, 0.5)
    masses = grid.mass(measure)
    assert grid.size > 300
    for ball, m in zip(grid.balls(), masses.tolist()):
        assert ball_mass(space, measure, ball) == m


def test_a_dilated_grid_holds_the_dilated_balls():
    space, measure = _cloud_with_random_masses()
    grid = ball_grid(space, space.point_ids[::3], 0.2)
    wide = grid.dilate(3.0)
    balls = wide.balls()
    assert balls == [dilate(b, 3.0) for b in grid.balls()]
    assert wide.length.max() > grid.order.shape[1]  # beyond the undilated cut
    for j, (ball, m) in enumerate(zip(balls, wide.mass(measure).tolist())):
        members = wide.order[wide.row[j], : wide.length[j]].tolist()
        assert {space.point_ids[i] for i in members} == ball_members(space, ball)
        assert ball_mass(space, measure, ball) == m


def test_rectangle_mass_sums_in_row_major_order():
    space, measure = _cloud_with_random_masses()
    left = validate_space(dist=space.dist[:6, :6], epsilon_net=space.epsilon_net)
    right = validate_space(dist=space.dist[6:11, 6:11], epsilon_net=space.epsilon_net)
    prod = product_space(left, right)
    rng = np.random.default_rng(3)
    masses = rng.random(prod.space.n)
    pair = point_measure(prod.space, dict(zip(prod.space.point_ids, masses / masses.sum())))
    rect = Rectangle(Ball("0", 0.3), Ball("2", 0.3))
    total = 0.0
    for a in left.point_ids:
        for b in right.point_ids:
            if (a, b) in ball_members(prod, rect):
                total += pair.mass_of((a, b))
    assert ball_mass(prod, pair, rect) == total


def test_ball_mass_does_not_depend_on_the_hash_seed():
    code = (
        "import numpy as np\n"
        "from fracmeasure import ball_mass, point_measure, random_cloud\n"
        "from fracmeasure.metric import ball_grid\n"
        "space = random_cloud(30, 2, 7)\n"
        "m = np.random.default_rng(7).random(space.n)\n"
        "mu = point_measure(space, dict(zip(space.point_ids, m / m.sum())))\n"
        "print([ball_mass(space, mu, b) for b in ball_grid(space, space.point_ids, 0.5).balls()])\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_dilate():
    assert dilate(Ball("a", 0.2), 3.0) == Ball("a", 0.6000000000000001)
    rect = Rectangle(Ball("a", 0.1), Ball("b", 0.3))
    big = dilate(rect, 5.0)
    assert big.left.radius == pytest.approx(0.5)
    assert big.right.radius == pytest.approx(1.5)


def test_rectangle_nominal_diameter():
    rect = Rectangle(Ball("a", 0.1), Ball("b", 0.3))
    assert rect.nominal_diameter == pytest.approx(0.6)


def test_enumeration_two_points(two_points):
    space, _ = two_points
    balls = list(enumerate_centered_balls(space, space.point_ids, 0.6))
    assert balls == [Ball("a", 0.1), Ball("b", 0.1)]
    balls = list(enumerate_centered_balls(space, space.point_ids, 1.0))
    assert balls == [Ball("a", 0.1), Ball("a", 1.0), Ball("b", 0.1), Ball("b", 1.0)]


def test_enumeration_grid_content(line3):
    space, _ = line3
    balls = list(enumerate_centered_balls(space, ["1"], 0.45))
    assert balls == [Ball("1", 0.1), Ball("1", 0.4)]


def test_enumeration_rejects_small_delta(two_points):
    space, _ = two_points
    with pytest.raises(DeltaBelowResolution):
        list(enumerate_centered_balls(space, space.point_ids, 0.05))


def test_product_space_max_metric(two_points, line3):
    left, lm = two_points
    right, rm = line3
    prod = product_space(left, right)
    assert prod.space.n == 6
    i = prod.space.index_of(("a", "0"))
    j = prod.space.index_of(("b", "2"))
    assert prod.space.dist[i, j] == pytest.approx(max(1.0, 0.8))
    k = prod.space.index_of(("a", "2"))
    assert prod.space.dist[i, k] == pytest.approx(0.8)
    assert prod.epsilon_net == pytest.approx(0.1)

    pm = product_measure(lm, rm)
    assert pm.mass_of(("a", "0")) == pytest.approx(0.5 / 3.0)
    assert sum(pm.mass_of(p) for p in prod.space.point_ids) == pytest.approx(1.0)


def test_rectangle_members_are_products(two_points, line3):
    left, _ = two_points
    right, _ = line3
    prod = product_space(left, right)
    rect = Rectangle(Ball("a", 0.1), Ball("1", 0.4))
    members = ball_members(prod, rect)
    assert members == frozenset({("a", "0"), ("a", "1"), ("a", "2")})


def test_rectangle_enumeration_counts(two_points):
    left, _ = two_points
    prod = product_space(left, left)
    rects = list(
        enumerate_centered_rectangles(prod, left.point_ids, left.point_ids, 0.6)
    )
    assert len(rects) == 4
    rects = list(
        enumerate_centered_rectangles(prod, left.point_ids, left.point_ids, 1.0)
    )
    assert len(rects) == 16


def _seeded_space(n, seed):
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    pos = dist[dist > 0]
    if pos.size == 0 or pos.min() < 1e-6:
        coords = coords + np.arange(n)[:, None]
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        pos = dist[dist > 0]
    eps = float(pos.min()) / 2.0
    return validate_space(coords=coords, epsilon_net=eps)


@st.composite
def small_space(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return _seeded_space(n, seed)


@settings(max_examples=40, deadline=None)
@given(small_space(), st.floats(min_value=0.0, max_value=1.0))
@example(space=_seeded_space(4, 0), frac=0.9999999999999999)
def test_grid_radii_are_lossless(space, frac):
    """Any admissible radius is matched by a grid radius with equal members."""
    delta = float(space.dist.max())
    for center in space.point_ids:
        rho = space.epsilon_net + frac * (delta - space.epsilon_net)
        grid = [
            b.radius
            for b in enumerate_centered_balls(space, [center], delta)
            if b.radius <= rho
        ]
        assert grid, "the resolution radius itself is always on the grid"
        r = max(grid)
        assert ball_members(space, Ball(center, r)) == ball_members(
            space, Ball(center, rho)
        )


@settings(max_examples=40, deadline=None)
@given(small_space())
def test_grid_radii_monotone_members(space):
    delta = float(space.dist.max())
    for center in space.point_ids:
        prev = None
        for b in enumerate_centered_balls(space, [center], delta):
            members = ball_members(space, b)
            if prev is not None:
                assert prev < members
            prev = members
