"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs ``run.py --smoke`` (level-3 net, 8-point cloud, suite count 5) in
both trace modes, checks that every metric named in BENCHMARK.json is
printed with its unit, and checks that the correctness gate catches a
perturbed reference value and a wrong suite case count.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_WORKLOADS = ("sweep-net1d", "sweep-cloud2d", "suites-small")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
def test_every_registered_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--smoke", "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in registered}
    for metric in registered:
        assert printed[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(printed[metric["name"]]["value"], (int, float))


def _tiny_sweep_rows(tmp_path: Path) -> tuple[workloads.Sweep, dict]:
    sweep = workloads.SMOKE["sweep-net1d"]
    state = sweep.setup(tmp_path, 0)
    sweep.run_pass(state)
    return sweep, state


def test_perturbed_reference_value_is_a_failure(tmp_path):
    sweep, state = _tiny_sweep_rows(tmp_path)
    rows = sweep.read_rows(state)
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["instance", "q", "delta", "family", "value", "status"])
        for (q, delta, family), row in sorted(rows.items()):
            writer.writerow([sweep.instance, q, delta, family, row["value"], row["status"]])
    gated = workloads.Sweep("gated", sweep.instance, sweep.gen, False, ref)
    assert gated.check(state, None)[:2] == (45, 0)

    with open(ref, newline="") as handle:
        table = list(csv.reader(handle))
    value = float(table[1][4])
    table[1][4] = repr(value + 1e-6 * max(1.0, abs(value)))
    with open(ref, "w", newline="") as handle:
        csv.writer(handle).writerows(table)
    attempted, failed, messages = gated.check(state, None)
    assert (attempted, failed) == (45, 1)
    assert "reference" in messages[0]


def test_failed_pass_fails_every_operation(tmp_path):
    sweep = workloads.SMOKE["sweep-net1d"]
    assert sweep.check({}, RuntimeError("boom"))[:2] == (45, 45)


def test_wrong_suite_case_count_is_a_failure(tmp_path):
    suites = workloads.SMOKE["suites-small"]
    state = suites.setup(tmp_path, 0)
    reports = suites.run_pass(state)
    counts = {r.name: r.cases for r in reports}
    ref = tmp_path / "suites.json"
    ref.write_text(json.dumps(counts))
    gated = workloads.Suites("gated", suites.suites, ref)
    assert gated.check(state, None)[1] == 0
    ref.write_text(json.dumps({**counts, "wh-order": counts["wh-order"] + 1}))
    attempted, failed, _ = gated.check(state, None)
    assert failed == 1 and attempted == sum(counts.values()) + 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "chain-net8", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
