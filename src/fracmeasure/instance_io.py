"""Instance files: JSON with points, dist or coords, measure, epsilon_net.

Floats survive the round trip bit-exactly (shortest-repr encoding on
write, exact parse on read).  Point ids are strings in the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, FracmeasureError, MissingInstance
from .metric import FiniteMetricSpace, PointMeasure, point_measure, validate_space

__all__ = ["write_instance", "read_instance", "read_json_object"]


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


def read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``.

    A file that cannot be read or decoded, or that holds anything but
    an object, raises ConfigParseError naming ``what`` and the path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{what} {path} must hold a JSON object")
    return doc


def read_instance(path) -> tuple[FiniteMetricSpace, PointMeasure]:
    if not Path(path).exists():
        raise MissingInstance(str(path))
    doc = read_json_object(path, "instance file")
    for key in ("points", "measure", "epsilon_net"):
        if key not in doc:
            raise ConfigParseError(f"instance file {path} lacks key {key!r}")
    if not isinstance(doc["measure"], dict):
        raise ConfigParseError(f"instance file {path}: measure must be an object")
    ids = doc["points"]
    if not isinstance(ids, list) or not all(isinstance(p, str) for p in ids):
        raise ConfigParseError(f"instance file {path}: points must be a list of strings")
    try:
        epsilon_net = float(doc["epsilon_net"])
        masses = {p: float(m) for p, m in doc["measure"].items()}
        kwargs = {
            key: np.array(doc[key], dtype=float) for key in ("coords", "dist") if key in doc
        }
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"instance file {path}: {exc}") from exc
    if not kwargs:
        raise ConfigParseError(f"instance file {path} needs 'dist' or 'coords'")
    try:
        space = validate_space(epsilon_net=epsilon_net, point_ids=tuple(ids), **kwargs)
        return space, point_measure(space, masses)
    except FracmeasureError as exc:
        # Name the file, as the checks above do; the class stays, and
        # ``args`` is what survives pickling out of a sweep worker.
        exc.args = (f"instance file {path}: {exc}", *exc.args[1:])
        raise
