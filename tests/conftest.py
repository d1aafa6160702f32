import numpy as np
import pytest

from fracmeasure import (
    HausdorffFunction,
    Premeasure,
    cycle_metric,
    uniform_measure,
    validate_space,
)


@pytest.fixture
def two_points():
    """Two points at distance 1, uniform mass, resolution 0.1."""
    space = validate_space(
        dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
        epsilon_net=0.1,
        point_ids=["a", "b"],
    )
    return space, uniform_measure(space)


@pytest.fixture
def five_cycle():
    space = cycle_metric(5)
    return space, uniform_measure(space)


@pytest.fixture
def line3():
    """Three collinear points 0, 0.4, 0.8 with resolution 0.1."""
    space = validate_space(
        coords=np.array([[0.0], [0.4], [0.8]]), epsilon_net=0.1
    )
    return space, uniform_measure(space)


@pytest.fixture
def linear_gauge():
    return Premeasure.from_gauge(HausdorffFunction.linear())


@pytest.fixture
def unit_constant():
    return Premeasure.constant_nonempty(1.0)


def covered(instance) -> tuple[frozenset, ...]:
    """The members of each candidate of a cover instance, as frozensets of target ids."""
    tgt, bounds = instance.target, instance.indptr.tolist()
    return tuple(
        frozenset(tgt[k] for k in instance.indices[a:b].tolist())
        for a, b in zip(bounds, bounds[1:])
    )
