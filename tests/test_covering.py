import numpy as np
import pytest

from fracmeasure import (
    Ball,
    HausdorffFunction,
    Premeasure,
    besicovitch_families,
    check_besicovitch,
    check_vitali,
    cycle_metric,
    point_measure,
    subfamily_3r_reduction,
    uniform_grid,
    uniform_measure,
    validate_space,
    vitali_5r_packing,
)
from fracmeasure.errors import DimensionUnsupported, InvalidInput, InvalidWeightedCover


@pytest.fixture
def int_line():
    space = validate_space(
        coords=np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]), epsilon_net=0.5
    )
    return space


def test_vitali_single_blocker(int_line):
    balls = [Ball("0", 1.0), Ball("2", 2.0), Ball("4", 1.0)]
    result = vitali_5r_packing(int_line, balls)
    assert [(b.center, b.radius) for b in result.packing] == [("2", 2.0)]
    assert result.blocker[Ball("0", 1.0)] == Ball("2", 2.0)
    assert result.blocker[Ball("4", 1.0)] == Ball("2", 2.0)
    assert check_vitali(int_line, balls, result) == []


def test_vitali_keeps_disjoint(int_line):
    balls = [Ball("0", 0.5), Ball("4", 0.5)]
    result = vitali_5r_packing(int_line, balls)
    assert len(result.packing) == 2
    assert check_vitali(int_line, balls, result) == []


def test_vitali_deterministic(int_line):
    rng = np.random.default_rng(7)
    balls = [
        Ball(str(int(rng.integers(0, 5))), float(rng.uniform(0.5, 4.0)))
        for _ in range(12)
    ]
    a = vitali_5r_packing(int_line, balls)
    b = vitali_5r_packing(int_line, balls)
    assert a.packing == b.packing


def test_besicovitch_line_two_families():
    space = validate_space(
        coords=np.array([[0.0], [0.5], [1.0], [1.5], [2.0]]), epsilon_net=0.25
    )
    families = besicovitch_families(space, list(space.point_ids), [1.0] * 5)
    assert len(families) == 2
    shape = [[(b.center, b.radius) for b in fam] for fam in families]
    assert shape == [[("0", 1.0)], [("3", 1.0)]]
    assert check_besicovitch(space, list(space.point_ids), families) == []


def test_besicovitch_plane():
    rng = np.random.default_rng(3)
    coords = rng.random((8, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    eps = float(dist[dist > 0].min()) / 2.0
    space = validate_space(coords=coords, epsilon_net=eps)
    radii = [float(rng.uniform(eps, 0.7)) for _ in range(8)]
    families = besicovitch_families(space, list(space.point_ids), radii)
    assert check_besicovitch(space, list(space.point_ids), families) == []


@pytest.mark.parametrize("radius", [float("nan"), -1.0])
def test_vitali_rejects_nan_and_negative_radii(int_line, radius):
    with pytest.raises(InvalidInput):
        vitali_5r_packing(int_line, [Ball("0", 1.0), Ball("2", radius)])


def test_besicovitch_needs_coords(five_cycle):
    space, _ = five_cycle
    with pytest.raises(DimensionUnsupported):
        besicovitch_families(space, list(space.point_ids), [1.0] * 5)


def test_3r_reduction_disjoint_cover_keeps_all(two_points, linear_gauge):
    space, measure = two_points
    kept, ratio = subfamily_3r_reduction(
        space,
        [1.0, 1.0],
        [Ball("a", 0.1), Ball("b", 0.1)],
        space.point_ids,
        measure,
        0.0,
        linear_gauge,
    )
    assert kept == [0, 1]
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_3r_reduction_five_cycle(five_cycle, unit_constant):
    space, measure = five_cycle
    balls = [Ball(str(i), 1.0) for i in range(5)]
    kept, ratio = subfamily_3r_reduction(
        space, [1.0 / 3.0] * 5, balls, space.point_ids, measure, 0.0, unit_constant
    )
    # the 3r dilation of one ball swallows the whole cycle
    assert kept == [0]
    assert ratio == pytest.approx(0.6, abs=1e-12)


def test_3r_reduction_rejects_noncover(five_cycle, unit_constant):
    space, measure = five_cycle
    balls = [Ball("0", 1.0)]
    with pytest.raises(InvalidWeightedCover):
        subfamily_3r_reduction(
            space, [1.0], balls, space.point_ids, measure, 0.0, unit_constant
        )


@pytest.mark.parametrize(
    "weights",
    [[float("nan")] * 4, [float("inf")] * 4, [float("inf"), 1.0, 1.0, 1.0], [-1.0, 2.0, 2.0, 2.0]],
)
def test_3r_reduction_rejects_bad_weights(weights, linear_gauge):
    # Each of these passes the cover check: the NaN weights would give a
    # NaN ratio, the infinite ones a ratio of 0, the negative one 0.214.
    space = uniform_grid(4, 1)
    balls = [Ball(p, 0.4) for p in space.point_ids]
    with pytest.raises(InvalidInput, match="finite and nonnegative"):
        subfamily_3r_reduction(
            space, weights, balls, space.point_ids, uniform_measure(space), 1.0, linear_gauge
        )
