"""Outside-in tracer: spans around public fracmeasure names, wrapped where imported.

The program is not edited. ``Tracer.install`` replaces each traced name in
the module that imports it (``fracmeasure.cli``, ``fracmeasure.optimizer``,
``fracmeasure.verify``, and scipy's ``linprog`` as ``optimizer`` imports
it) with a wrapper that records a span, and ``Tracer.restore`` puts the
originals back.  A name that no longer exists is recorded as absent and
the metrics that depend on it are left out of the report, so a later
refactor that renames a function loses those metrics instead of crashing
the benchmark.

Every span adds its duration to its parent's child time, so each parent
reports a self time: work that moves out of a wrapped function still
lands in the self time of the span that now does it.  Per-candidate
calls (``weight_term``, ``ball_members``) are aggregated as a count and
a total time; only the entry-point spans keep per-call samples.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from collections import defaultdict

# Entry points that return one value (a CSV row in a sweep); the family
# label is the CSV ``family`` column the CLI writes for each.
_FAMILY = {
    "hausdorff_premeasure": "H",
    "weighted_premeasure": "W",
    "noncentered_weighted_premeasure": "Wtilde",
}

SUITES = ("wh-order", "product-w", "example-zero")

CELL_COLUMNS = ("instance", "q", "delta", "family", "nodes", "lp_calls", "ms")


class _Frame:
    __slots__ = ("name", "t0", "child", "lp0")

    def __init__(self, name: str, lp0: int):
        self.name = name
        self.t0 = time.perf_counter()
        self.child = 0.0
        self.lp0 = lp0


class Tracer:
    """Span recorder; totals and self times are kept in seconds per span name."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.value_samples: list[float] = []
        self.cells: list[tuple] = []
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self._last_instance = ""

    # --- spans ----------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.calls["lp"])
        self.stack.append(frame)
        return frame

    def _exit(self) -> float:
        frame = self.stack.pop()
        dur = time.perf_counter() - frame.t0
        self.total[frame.name] += dur
        self.self_time[frame.name] += dur - frame.child
        self.calls[frame.name] += 1
        if self.stack:
            self.stack[-1].child += dur
        return dur

    @contextlib.contextmanager
    def span(self, name: str):
        self.present.add(name)
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enclosing(self, *names: str) -> str | None:
        for frame in reversed(self.stack):
            if frame.name in names:
                return frame.name
        return None

    # --- wrapping -------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, after=None) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = tracer._exit()
            if after is not None:
                after(frame, dur, attr, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))
        self.present.add(name)

    def install(self) -> None:
        """Wrap every traced name; missing names are recorded, not raised."""
        from fracmeasure import cli, optimizer, verify

        self._wrap(cli, "read_instance", "instance_io.read", self._after_read)
        for attr in _FAMILY:
            self._wrap(cli, attr, "optimizer.value", self._after_cell)
        for attr in (*_FAMILY, "product_premeasure_values"):
            self._wrap(verify, attr, "optimizer.value", self._after_value)
        self._wrap(verify, "besicovitch_families", "covering.besicovitch")
        for attr in ("build_cover_instance", "build_product_cover_instance"):
            self._wrap(optimizer, attr, "optimizer.build", self._after_build)
        self._wrap(optimizer, "solve_integer", "optimizer.integer", self._after_integer)
        self._wrap(optimizer, "solve_fractional", "optimizer.fractional")
        self._wrap(optimizer, "linprog", "lp", self._after_lp)
        for attr in ("enumerate_centered_balls", "enumerate_centered_rectangles"):
            self._wrap(optimizer, attr, "metric.enumerate")
        self._wrap(optimizer, "ball_members", "metric.ball_members")
        self._wrap(optimizer, "weight_term", "premeasure.weight_term")

    def restore(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    # --- hooks ----------------------------------------------------------

    # Hooks read results with getattr, so a changed result type costs a
    # counter, not the run.

    def _after_read(self, frame, dur, attr, args, kwargs, result):
        self._last_instance = os.path.basename(str(_arg(args, kwargs, 0, "path")))

    def _after_value(self, frame, dur, attr, args, kwargs, result):
        self.value_samples.append(dur)

    def _after_cell(self, frame, dur, attr, args, kwargs, result):
        self.value_samples.append(dur)
        self.cells.append(
            (
                self._last_instance,
                _arg(args, kwargs, 2, "q"),
                _arg(args, kwargs, 5, "delta"),
                _FAMILY[attr],
                getattr(result, "nodes", ""),
                self.calls["lp"] - frame.lp0,
                dur * 1000.0,
            )
        )

    def _after_build(self, frame, dur, attr, args, kwargs, result):
        self.counts["candidates"] += len(getattr(result, "candidates", ()))

    def _after_integer(self, frame, dur, attr, args, kwargs, result):
        self.counts["nodes"] += getattr(result, "nodes", 0)

    def _after_lp(self, frame, dur, attr, args, kwargs, result):
        owner = self._enclosing("optimizer.integer", "optimizer.fractional")
        if owner is not None:
            self.counts[f"lp.{owner}"] += 1

    # --- report ---------------------------------------------------------

    def metrics(self, wall_untraced: float, wall_traced: float) -> tuple[dict, list[str]]:
        """Per-layer metrics as {name: (value, unit)}, and the names left out."""
        ms = lambda name: self.total[name] * 1000.0  # noqa: E731
        self_ms = lambda name: self.self_time[name] * 1000.0  # noqa: E731
        nodes = self.counts["nodes"]
        lp_int = self.counts["lp.optimizer.integer"]
        lp_calls = self.calls["lp"]
        samples = sorted(self.value_samples)
        # Each metric is listed with the spans it needs.
        table = [
            ("optimizer.integer_ms", ms("optimizer.integer"), "ms", ("optimizer.integer",)),
            ("optimizer.integer_self_ms", self_ms("optimizer.integer"), "ms", ("optimizer.integer",)),
            ("optimizer.integer_solves", self.calls["optimizer.integer"], "count", ("optimizer.integer",)),
            ("optimizer.nodes", nodes, "count", ("optimizer.integer",)),
            ("optimizer.lp_per_node", lp_int / nodes if nodes else 0.0, "ratio", ("optimizer.integer", "lp")),
            ("lp.ms", ms("lp"), "ms", ("lp",)),
            ("lp.calls", lp_calls, "count", ("lp",)),
            ("lp.calls_integer", lp_int, "count", ("lp", "optimizer.integer")),
            ("lp.calls_fractional", self.counts["lp.optimizer.fractional"], "count", ("lp", "optimizer.fractional")),
            ("lp.ms_per_call", ms("lp") / lp_calls if lp_calls else 0.0, "ms", ("lp",)),
            ("optimizer.build_ms", ms("optimizer.build"), "ms", ("optimizer.build",)),
            ("optimizer.build_self_ms", self_ms("optimizer.build"), "ms", ("optimizer.build",)),
            ("optimizer.builds", self.calls["optimizer.build"], "count", ("optimizer.build",)),
            ("optimizer.candidates", self.counts["candidates"], "count", ("optimizer.build",)),
            ("metric.enumerate_ms", ms("metric.enumerate"), "ms", ("metric.enumerate",)),
            ("metric.ball_members_ms", ms("metric.ball_members"), "ms", ("metric.ball_members",)),
            ("metric.ball_members_calls", self.calls["metric.ball_members"], "count", ("metric.ball_members",)),
            ("premeasure.weight_term_ms", ms("premeasure.weight_term"), "ms", ("premeasure.weight_term",)),
            ("premeasure.weight_term_calls", self.calls["premeasure.weight_term"], "count", ("premeasure.weight_term",)),
            ("optimizer.fractional_ms", ms("optimizer.fractional"), "ms", ("optimizer.fractional",)),
            ("optimizer.fractional_self_ms", self_ms("optimizer.fractional"), "ms", ("optimizer.fractional",)),
            ("optimizer.fractional_solves", self.calls["optimizer.fractional"], "count", ("optimizer.fractional",)),
            ("optimizer.value_ms_p50", _quantile(samples, 0.5) * 1000.0, "ms", ("optimizer.value",)),
            ("optimizer.value_ms_p90", _quantile(samples, 0.9) * 1000.0, "ms", ("optimizer.value",)),
            ("optimizer.value_calls", len(samples), "count", ("optimizer.value",)),
            ("optimizer.value_self_ms", self_ms("optimizer.value"), "ms", ("optimizer.value",)),
            ("instance_io.read_ms", ms("instance_io.read"), "ms", ("instance_io.read",)),
            ("instance_io.reads", self.calls["instance_io.read"], "count", ("instance_io.read",)),
            *(
                (f"verify.{suite}_ms", ms(f"verify.{suite}"), "ms", ())
                for suite in SUITES
            ),
            ("verify.cases", self.counts["verify.cases"], "count", ()),
            ("covering.besicovitch_ms", ms("covering.besicovitch"), "ms", ("covering.besicovitch",)),
            ("trace.overhead_s", wall_traced - wall_untraced, "s", ()),
        ]
        out, absent = {}, []
        for name, value, unit, needs in table:
            if all(n in self.present for n in needs):
                out[name] = (value, unit)
            else:
                absent.append(name)
        return out, absent

    def write_cells(self, path) -> None:
        """Per-cell table of a sweep, in the order the cells ran."""
        with open(path, "w") as handle:
            handle.write(",".join(CELL_COLUMNS) + "\n")
            for row in self.cells:
                *keys, ms = row
                handle.write(",".join([*map(str, keys), f"{ms:.3f}"]) + "\n")


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, "")


def _quantile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]
