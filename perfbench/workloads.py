"""Benchmark workloads: input generation, one pass of operations, and the correctness gate.

A workload makes its inputs from a seed (``setup``), runs one pass of its
operations through public fracmeasure entry points (``run_pass``, the
only timed part), and checks the pass's outputs (``check``), which
returns the operations attempted and failed and a message per failure.

An operation is one CSV row (one family solve) in a sweep, or one case
of a verification suite.  A pass that raises fails all its operations.

Why each workload exists, and which layer it exercises or bypasses, is
in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# The seed whose inputs the reference outputs were generated from.
REFERENCE_SEED = 0
# SOLVER_TOL of the commit that generated the references; kept here so a
# later change to the program's tolerance cannot loosen the gate.
TOL = 1e-9

POWER_S = math.log(2.0) / math.log(3.0)
Q_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
DELTA_GRID = (0.5, 0.2, 0.1)
FAMILIES = ("H", "W", "Wtilde")


def _cli(argv: list[str]) -> None:
    """Run the command line in-process; its stdout is dropped."""
    from fracmeasure import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fracmeasure {argv[0]} exited with {code}")


def _isometric_copy(path: Path, seed: int) -> None:
    """Rotate, maybe reflect, and translate the coordinates of a 2-D instance file.

    Distances, and so every H, W and Wtilde value, are unchanged up to
    rounding, while the file's bytes depend on the seed.  The resolution
    floor is recomputed by the generator's rule (half the least distance).
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    if rng.integers(2):
        rot = rot @ np.diag([1.0, -1.0])
    doc = json.loads(path.read_text())
    coords = np.array(doc["coords"], dtype=float) @ rot.T + rng.uniform(-1.0, 1.0, 2)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    doc["coords"] = coords.tolist()
    doc["epsilon_net"] = float(dist[dist > 0.0].min()) / 2.0
    path.write_text(json.dumps(doc))


class Sweep:
    """``fracmeasure sweep --jobs 1`` over one generated instance and the pinned grid."""

    def __init__(self, name: str, instance: str, gen: list[str], isometry: bool, reference: Path | None):
        self.name = name
        self.instance = instance
        self.gen = gen
        self.isometry = isometry
        self.reference = reference
        self.ops = len(Q_GRID) * len(DELTA_GRID) * len(FAMILIES)

    def setup(self, work: Path, seed: int) -> dict:
        inst = work / f"{self.instance}.json"
        _cli(["gen", *self.gen, "--out", str(inst)])
        if self.isometry and seed != REFERENCE_SEED:
            _isometric_copy(inst, seed)
        config = work / f"{self.name}.json"
        config.write_text(
            json.dumps(
                {
                    "instances": [str(inst)],
                    "premeasure": {"kind": "hausdorff", "h": {"kind": "power", "s": POWER_S}},
                    "q_grid": list(Q_GRID),
                    "delta_grid": list(DELTA_GRID),
                }
            )
        )
        return {"config": config, "out": work / f"{self.name}.csv"}

    def run_pass(self, state: dict, tracer=None) -> None:
        state["out"].unlink(missing_ok=True)
        _cli(["sweep", "--config", str(state["config"]), "--jobs", "1", "--out", str(state["out"])])

    def read_rows(self, state: dict) -> dict:
        return keyed_rows(state["out"])

    def check(self, state: dict, error: Exception | None) -> tuple[int, int, list[str]]:
        if error is not None:
            return self.ops, self.ops, [f"{self.name}: pass raised {error!r}"]
        rows = self.read_rows(state)
        bad: dict[tuple, str] = {}
        expected = {(q, d, f) for q in Q_GRID for d in DELTA_GRID for f in FAMILIES}
        for key in expected - rows.keys():
            bad[key] = "row missing"
        for key in rows.keys() - expected:
            bad[key] = "unexpected row"
        for key, row in rows.items():
            if Path(row["instance_id"]).stem != self.instance:
                bad[key] = f"instance_id {row['instance_id']!r}"
        if self.reference is not None:
            for key, ref in keyed_rows(self.reference).items():
                row = rows.get(key)
                if row is None:
                    continue
                if row["status"] != ref["status"]:
                    bad[key] = f"status {row['status']!r}, reference {ref['status']!r}"
                elif not values_match(_number(row["value"]), float(ref["value"])):
                    bad[key] = f"value {row['value']}, reference {ref['value']}"
        # Relations that need no oracle, on every seed.
        for q in Q_GRID:
            for d in DELTA_GRID:
                h, w, wt = (rows.get((q, d, f)) for f in FAMILIES)
                if h is None or w is None or wt is None:
                    continue
                hv, wv, wtv = (_number(r["value"]) for r in (h, w, wt))
                if not wtv <= wv + TOL:
                    bad[(q, d, "Wtilde")] = f"Wtilde={wtv!r} exceeds W={wv!r}"
                if not (wv <= hv + TOL or math.isinf(hv)):
                    bad[(q, d, "W")] = f"W={wv!r} exceeds H={hv!r}"
        messages = [f"{self.name} q={k[0]} delta={k[1]} {k[2]}: {v}" for k, v in sorted(bad.items())]
        return self.ops, len(bad), messages


def _number(text: str) -> float:
    """A CSV value; unparsable text becomes NaN, which fails every comparison."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def values_match(value: float, ref: float) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= TOL * max(1.0, abs(ref))


def keyed_rows(path: Path) -> dict:
    """Rows of a sweep CSV (or of a reference file) keyed by (q, delta, family)."""
    with open(path, newline="") as handle:
        return {
            (float(r["q"]), float(r["delta"]), r["family"]): r for r in csv.DictReader(handle)
        }


class Suites:
    """Verification suites run through ``fracmeasure.verify.run_suite``."""

    def __init__(self, name: str, suites: tuple, reference: Path | None):
        self.name = name
        self.suites = suites  # (suite name, case count or None for the suite default)
        self.reference = reference

    def expected_cases(self) -> dict | None:
        if self.reference is None:
            return None
        doc = json.loads(self.reference.read_text())
        return {s: doc[s] for s, _ in self.suites}

    def setup(self, work: Path, seed: int) -> dict:
        """Nothing to write: the suites draw their corpora in the pass.

        The suite seed stays at the reference seed whatever ``seed`` is:
        the corpora of other seeds hold different cases, and their work
        differs up to fivefold (NOTES.md), which no bound on ``wall_s``
        could absorb.
        """
        return {"seed": REFERENCE_SEED}

    def run_pass(self, state: dict, tracer=None) -> list:
        from fracmeasure import verify

        reports = []
        for suite, count in self.suites:
            span = tracer.span(f"verify.{suite}") if tracer else contextlib.nullcontext()
            with span:
                report = verify.run_suite(suite, count=count, seed=state["seed"])
            if tracer:
                tracer.counts["verify.cases"] += report.cases
            reports.append(report)
        state["reports"] = reports
        return reports

    def check(self, state: dict, error: Exception | None) -> tuple[int, int, list[str]]:
        expected = self.expected_cases()
        if error is not None:
            ops = sum(expected.values()) if expected else len(self.suites)
            return ops, ops, [f"{self.name}: pass raised {error!r}"]
        attempted, failed, messages = 0, 0, []
        for report in state["reports"]:
            want = expected[report.name] if expected else report.cases
            attempted += want
            failed += len(report.violations)
            messages += [f"{report.name}: {v}" for v in report.violations]
            if report.cases != want:
                failed += max(1, abs(want - report.cases))
                messages.append(f"{report.name}: {report.cases} cases, reference {want}")
        return attempted, min(failed, attempted), messages


SUITE_REFERENCE = REFERENCE_DIR / "suites.json"
NET_GEN = ["--kind", "cantor", "--p", "0.5", "--level"]
CLOUD_GEN = ["--kind", "cloud", "--dim", "2", "--seed", "7", "--n"]

WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-net1d", "net5", [*NET_GEN, "5"], False, REFERENCE_DIR / "sweep-net1d.csv"),
        Sweep("sweep-cloud2d", "cloud40", [*CLOUD_GEN, "40"], True, REFERENCE_DIR / "sweep-cloud2d.csv"),
        Suites("suites-small", (("wh-order", None), ("product-w", None)), SUITE_REFERENCE),
        Suites("chain-net8", (("example-zero", None),), SUITE_REFERENCE),
    )
}

# Tiny variants for the smoke test (``run.py --smoke``); no references, so
# only the oracle-free relations and the suites' own checks apply.
# ``example-zero`` has no size to shrink, so chain-net8 has no variant.
SMOKE = {
    w.name: w
    for w in (
        Sweep("sweep-net1d", "net3", [*NET_GEN, "3"], False, None),
        Sweep("sweep-cloud2d", "cloud8", [*CLOUD_GEN, "8"], True, None),
        Suites("suites-small", (("wh-order", 5), ("product-w", 5)), None),
    )
}
