import json
import pickle

import numpy as np
import pytest

from fracmeasure import (
    cantor_net,
    point_measure,
    random_cloud,
    read_instance,
    uniform_measure,
    write_instance,
)
from fracmeasure.errors import (
    ConfigParseError,
    InvalidInput,
    MissingInstance,
    SpaceValidationError,
)


def test_round_trip_is_bit_exact(tmp_path):
    space, measure = cantor_net(3, 1.0 / 3.0, 0.4)
    path = tmp_path / "inst.json"
    write_instance(path, space, measure)
    back_space, back_measure = read_instance(path)
    assert back_space.point_ids == space.point_ids
    assert np.array_equal(back_space.dist, space.dist)
    assert back_space.epsilon_net == space.epsilon_net
    for p in space.point_ids:
        assert back_measure.mass_of(p) == measure.mass_of(p)


def test_round_trip_matrix_only(tmp_path):
    from fracmeasure import cycle_metric

    space = cycle_metric(6)
    measure = uniform_measure(space)
    path = tmp_path / "cycle.json"
    write_instance(path, space, measure)
    back_space, _ = read_instance(path)
    assert np.array_equal(back_space.dist, space.dist)
    assert back_space.coords is None


def test_missing_file():
    with pytest.raises(MissingInstance):
        read_instance("/nonexistent/inst.json")


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigParseError):
        read_instance(path)


def test_missing_keys(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"points": ["a"], "epsilon_net": 0.1}))
    with pytest.raises(ConfigParseError):
        read_instance(path)


def test_written_file_is_valid_json(tmp_path):
    space = random_cloud(4, 2, 5)
    measure = uniform_measure(space)
    path = tmp_path / "cloud.json"
    write_instance(path, space, measure)
    doc = json.loads(path.read_text())
    assert set(doc["points"]) == set(space.point_ids)
    assert "coords" in doc or "dist" in doc


@pytest.mark.parametrize(
    "changes, error",
    [
        ({"dist": [[0.0, float("nan")], [1.0, 0.0]]}, SpaceValidationError),
        ({"dist": None, "coords": [[[0.0]], [[1.0]]]}, InvalidInput),
        ({"measure": {"a": 0.6, "b": 0.6}}, InvalidInput),
    ],
    ids=["dist-nan", "coords-3d", "mass-1.2"],
)
def test_space_and_measure_errors_name_the_file(tmp_path, changes, error):
    doc = {"points": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]],
           "measure": {"a": 0.5, "b": 0.5}, "epsilon_net": 0.5}
    doc = {key: value for key, value in {**doc, **changes}.items() if value is not None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as info:
        read_instance(path)
    exc = info.value
    assert type(exc) is error and str(exc).startswith(f"instance file {path}: ")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is error and str(back) == str(exc)
    assert vars(back).keys() == vars(exc).keys()
