"""Deterministic instance generators."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, LevelTooLarge
from .metric import FiniteMetricSpace, PointMeasure, point_measure, validate_space

__all__ = ["cantor_net", "cycle_metric", "uniform_grid", "random_cloud"]

_MAX_LEVEL = 14


def cantor_net(
    level: int, ratio: float = 1.0 / 3.0, p: float = 0.5
) -> tuple[FiniteMetricSpace, PointMeasure]:
    """Level-``level`` net of the two-map contraction x -> c x, x -> c x + (1 - c).

    Points are the left endpoints of the level cylinders, ids are the
    binary address strings, and the mass of an address is
    p^(number of 0s) * (1 - p)^(number of 1s).  The resolution floor is
    ratio^level, the length of one cylinder.
    """
    if level > _MAX_LEVEL:
        raise LevelTooLarge(level, _MAX_LEVEL)
    if level < 1:
        raise InvalidInput(f"level must lie in 1..{_MAX_LEVEL}, got {level}")
    c = float(ratio)
    if not 0.0 < c <= 0.5:
        raise InvalidInput("contraction ratio must lie in (0, 1/2]")
    if not 0.0 < p < 1.0:
        raise InvalidInput("branch weight must lie in (0, 1)")
    weights = [(1.0 - c) * c ** (k - 1) for k in range(1, level + 1)]
    ids = []
    xs = []
    masses = {}
    for w in range(1 << level):
        address = format(w, f"0{level}b")
        x = sum(weights[k] for k, digit in enumerate(address) if digit == "1")
        ids.append(address)
        xs.append([x])
        zeros = address.count("0")
        masses[address] = p**zeros * (1.0 - p) ** (level - zeros)
    space = validate_space(
        coords=np.array(xs), epsilon_net=c**level, point_ids=tuple(ids)
    )
    return space, point_measure(space, masses)


def cycle_metric(n: int) -> FiniteMetricSpace:
    """Unit n-cycle with the shortest-path metric; resolution floor 0.5."""
    if n < 3:
        raise InvalidInput("a cycle needs at least 3 points")
    idx = np.arange(n)
    around = np.abs(idx[:, None] - idx[None, :])
    d = np.minimum(around, n - around).astype(float)
    return validate_space(
        dist=d, epsilon_net=0.5, point_ids=tuple(str(i) for i in range(n))
    )


def uniform_grid(n: int, d: int) -> FiniteMetricSpace:
    """n^d lattice scaled to unit diameter; resolution floor half the spacing."""
    if n < 2 or d < 1:
        raise InvalidInput("need at least 2 points per axis and dimension >= 1")
    axes = [np.arange(n, dtype=float) for _ in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    scale = (n - 1) * np.sqrt(d)  # largest pairwise distance before scaling
    coords = mesh / scale
    spacing = 1.0 / scale
    return validate_space(
        coords=coords,
        epsilon_net=spacing / 2.0,
        point_ids=tuple(f"p{i}" for i in range(len(coords))),
    )


def random_cloud(n: int, d: int, seed: int) -> FiniteMetricSpace:
    """n uniform points in the unit cube; reproducible bit for bit per seed."""
    if n < 2 or d < 1:
        raise InvalidInput("need at least 2 points and dimension >= 1")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, d))
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    positive = dist[dist > 0.0]
    if positive.size == 0:
        raise InvalidInput("degenerate cloud: all points coincide")
    return validate_space(
        coords=coords,
        epsilon_net=float(positive.min()) / 2.0,
        point_ids=tuple(f"p{i}" for i in range(n)),
    )
