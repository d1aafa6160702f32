"""Outside-in benchmark of fracmeasure.

Usage, from the root of a source checkout (nothing needs installing;
the program is imported from ``src/``):

    python3 perfbench/run.py --workload sweep-net1d --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

One run makes the workload's inputs from ``--seed``, then repeats passes
of the workload's operations in this process, single-threaded, checking
every pass's outputs.  The number of passes is ``--seconds`` divided by
the first pass's time, rounded down (at least one pass), so a run
measures at most about ``--seconds``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``wall_s`` (median pass time), ``setup_s`` (median over separate
processes of the time from interpreter start until fracmeasure is
imported and the inputs are written) and ``peak_rss_mb``.

``--trace 1`` runs one untraced pass, then one pass with the tracer of
``tracer.py`` installed, and reports the per-layer metrics of the traced
pass, ``trace.overhead_s`` (traced minus untraced pass time) and
``fail_ratio``.  A sweep's per-cell table goes to
``.perfbench/trace/<workload>-seed<seed>-cells.csv`` in the checkout.

The exit code is 0 only when every operation passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 3
STRAGGLERS = 5


def import_program() -> None:
    """Import fracmeasure from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import fracmeasure
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fracmeasure from {SRC}: {exc}")
    if SRC.resolve() not in Path(fracmeasure.__file__).resolve().parents:
        sys.exit(f"perfbench: fracmeasure was imported from {fracmeasure.__file__}, not {SRC}")


def probe_setup(workload: str, seed: int, work: Path, smoke: bool) -> float:
    """Seconds from starting a fresh interpreter until it has imported and set up."""
    probe_dir = work / "probe"
    probe_dir.mkdir(exist_ok=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only", str(probe_dir), *(["--smoke"] if smoke else [])]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_pass(workload, state, tracer) -> tuple[float, Exception | None]:
    t0 = time.perf_counter()
    try:
        workload.run_pass(state, tracer)
        error = None
    except Exception as exc:  # a failing pass is counted, not fatal
        error = exc
    return time.perf_counter() - t0, error


def checked(workload, state, error) -> tuple[int, int, list[str]]:
    try:
        return workload.check(state, error)
    except (OSError, KeyError, ValueError) as exc:  # unreadable outputs fail the pass
        ops = getattr(workload, "ops", 1)
        return ops, ops, [f"{workload.name}: outputs unreadable: {exc!r}"]


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run the workload once as described in the module docstring."""
    from tracer import Tracer

    work = OUT / "work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics: dict = {}
        if not trace:
            setup = [probe_setup(workload.name, seed, work, smoke) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = (statistics.median(setup), "s")
        state = workload.setup(work, seed)
        walls, attempted, failed, messages = [], 0, 0, []

        def account(error):
            nonlocal attempted, failed
            a, f, m = checked(workload, state, error)
            attempted, failed = attempted + a, failed + f
            messages.extend(m)

        wall, error = timed_pass(workload, state, None)
        account(error)
        walls.append(wall)
        extra = 0 if trace else max(1, int(seconds / wall)) - 1
        for _ in range(extra):
            wall, error = timed_pass(workload, state, None)
            account(error)
            walls.append(wall)
        print(f"{workload.name}: passes {[round(w, 3) for w in walls]} s", file=sys.stderr)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                wall_traced, error = timed_pass(workload, state, tracer)
            finally:
                tracer.restore()
            account(error)
            layer, absent = tracer.metrics(walls[0], wall_traced)
            metrics.update(layer)
            metrics["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
            report_trace(workload.name, seed, tracer, absent)
        else:
            metrics["wall_s"] = (statistics.median(walls), "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in messages[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report_trace(name: str, seed: int, tracer, absent: list[str]) -> None:
    if tracer.missing:
        print(f"{name}: traced names not found: {', '.join(tracer.missing)}", file=sys.stderr)
    if absent:
        print(f"{name}: metrics absent: {', '.join(absent)}", file=sys.stderr)
    if tracer.cells:
        path = OUT / "trace" / f"{name}-seed{seed}-cells.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_cells(path)
        slow = sorted(tracer.cells, key=lambda c: -c[-1])[:STRAGGLERS]
        print(f"{name}: per-cell table in {path}; slowest cells:", file=sys.stderr)
        for inst, q, delta, fam, nodes, lp, ms in slow:
            print(f"  {inst} q={q} delta={delta} {fam}: {ms:.1f} ms, nodes={nodes}, lp={lp}",
                  file=sys.stderr)


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced and traced, each in its own process; prints a metric table."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    # Internal: the set-up probe's child process, and the smoke test's tiny inputs.
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.all:
        return run_all(args.seed, int(args.seconds))
    from workloads import SMOKE, WORKLOADS

    table = SMOKE if args.smoke else WORKLOADS
    if args.workload not in table:
        parser.error(f"--workload must be one of {', '.join(table)}")
    workload = table[args.workload]
    import_program()
    if args.setup_only:
        workload.setup(Path(args.setup_only), args.seed)
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
