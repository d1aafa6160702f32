"""Instance files: JSON with points, dist or coords, measure, epsilon_net.

Floats survive the round trip bit-exactly (shortest-repr encoding on
write, exact parse on read).  Point ids are strings in the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, MissingInstance
from .metric import FiniteMetricSpace, PointMeasure, point_measure, validate_space

__all__ = ["write_instance", "read_instance"]


def write_instance(path, space: FiniteMetricSpace, measure: PointMeasure) -> None:
    doc = {
        "points": [str(p) for p in space.point_ids],
        "measure": {str(p): measure.mass_of(p) for p in space.point_ids},
        "epsilon_net": space.epsilon_net,
    }
    if space.coords is not None:
        doc["coords"] = [[float(v) for v in row] for row in space.coords]
    else:
        doc["dist"] = [[float(v) for v in row] for row in space.dist]
    Path(path).write_text(json.dumps(doc, indent=1))


def read_instance(path) -> tuple[FiniteMetricSpace, PointMeasure]:
    p = Path(path)
    if not p.exists():
        raise MissingInstance(str(path))
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"instance file {path}: {exc}") from exc
    for key in ("points", "measure", "epsilon_net"):
        if key not in doc:
            raise ConfigParseError(f"instance file {path} lacks key {key!r}")
    if not isinstance(doc["measure"], dict):
        raise ConfigParseError(f"instance file {path}: measure must be an object")
    try:
        ids = tuple(doc["points"])
        epsilon_net = float(doc["epsilon_net"])
        masses = {p: float(m) for p, m in doc["measure"].items()}
        kwargs = {
            key: np.array(doc[key], dtype=float) for key in ("coords", "dist") if key in doc
        }
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"instance file {path}: {exc}") from exc
    if not kwargs:
        raise ConfigParseError(f"instance file {path} needs 'dist' or 'coords'")
    space = validate_space(epsilon_net=epsilon_net, point_ids=ids, **kwargs)
    return space, point_measure(space, masses)
