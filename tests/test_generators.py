import numpy as np
import pytest

from fracmeasure import cantor_net, cycle_metric, random_cloud, uniform_grid
from fracmeasure.errors import InvalidInput, LevelTooLarge


def test_cantor_level_one():
    space, measure = cantor_net(1, 1.0 / 3.0, 0.3)
    assert space.point_ids == ("0", "1")
    assert [float(c[0]) for c in space.coords] == pytest.approx([0.0, 2.0 / 3.0])
    assert measure.mass_of("0") == pytest.approx(0.3)
    assert measure.mass_of("1") == pytest.approx(0.7)
    assert space.epsilon_net == pytest.approx(1.0 / 3.0)


def test_cantor_level_two():
    space, measure = cantor_net(2, 1.0 / 3.0, 0.3)
    assert space.point_ids == ("00", "01", "10", "11")
    xs = [float(c[0]) for c in space.coords]
    assert xs == pytest.approx([0.0, 2.0 / 9.0, 2.0 / 3.0, 8.0 / 9.0])
    assert measure.mass_of("00") == pytest.approx(0.09)
    assert measure.mass_of("01") == pytest.approx(0.21)
    assert measure.mass_of("10") == pytest.approx(0.21)
    assert measure.mass_of("11") == pytest.approx(0.49)
    assert sum(measure.mass_of(p) for p in space.point_ids) == pytest.approx(1.0)


def test_cantor_resolution_below_min_gap():
    for level in (1, 2, 3, 4):
        space, _ = cantor_net(level, 1.0 / 3.0, 0.5)
        pos = space.dist[space.dist > 0]
        assert space.epsilon_net <= pos.min() + 1e-12


def test_cantor_level_cap():
    with pytest.raises(LevelTooLarge):
        cantor_net(15)


@pytest.mark.parametrize("level", [0, -1])
def test_cantor_level_below_one_is_invalid_input(level):
    with pytest.raises(InvalidInput, match=r"level must lie in 1\.\.14") as info:
        cantor_net(level)
    assert not isinstance(info.value, LevelTooLarge)


def test_cantor_parameter_validation():
    with pytest.raises(Exception):
        cantor_net(2, 0.6, 0.5)
    with pytest.raises(Exception):
        cantor_net(2, 1.0 / 3.0, 0.0)
    with pytest.raises(Exception):
        cantor_net(0)


def test_cycle_distances():
    space = cycle_metric(5)
    assert space.dist[0, 2] == 2.0
    assert space.dist[0, 4] == 1.0
    assert space.epsilon_net == 0.5
    assert space.point_ids == ("0", "1", "2", "3", "4")
    with pytest.raises(Exception):
        cycle_metric(2)


def test_grid_unit_diameter():
    space = uniform_grid(3, 1)
    xs = sorted(float(c[0]) for c in space.coords)
    assert xs == pytest.approx([0.0, 0.5, 1.0])
    assert space.epsilon_net == pytest.approx(0.25)
    square = uniform_grid(2, 2)
    assert float(square.dist.max()) == pytest.approx(1.0)


def test_cloud_deterministic():
    a = random_cloud(6, 2, 42)
    b = random_cloud(6, 2, 42)
    assert np.array_equal(a.dist, b.dist)
    c = random_cloud(6, 2, 43)
    assert not np.array_equal(a.dist, c.dist)


def test_cloud_resolution():
    space = random_cloud(8, 2, 7)
    pos = space.dist[space.dist > 0]
    assert space.epsilon_net == pytest.approx(float(pos.min()) / 2.0)


def test_all_ids_are_strings():
    for space in (
        cantor_net(2)[0],
        cycle_metric(4),
        uniform_grid(3, 2),
        random_cloud(5, 1, 1),
    ):
        assert all(isinstance(p, str) for p in space.point_ids)
