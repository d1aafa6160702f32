"""Command line front end.

Subcommands:

* ``gen``       write a generated instance to a JSON file;
* ``compute``   evaluate H / W / noncentered W on one instance at one
                (q, delta) and emit CSV rows;
* ``sweep``     evaluate a (instances x q_grid x delta_grid) batch from a
                config file, optionally across worker processes;
* ``verify``    run verification suites, exit nonzero on any violation;
* ``diag``      blanketing / doubling / density-bound diagnostics;
* ``covering``  5r packings and bounded-overlap families.

CSV rows carry instance_id, q, delta, family (H, W or Wtilde), value,
status, gap, nodes and wall_ms.  Values are emitted via repr with
infinity spelled "inf"; every column except wall_ms is reproducible
bit for bit across runs on one machine.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import starmap

# The solvers are looked up on the module at call time, so a wrapper
# installed there (perfbench/tracer.py) sees every call.
from . import optimizer
from .covering import besicovitch_families, vitali_5r_packing
from .diagnostics import (
    blanketing_ratio,
    density_upper_bound_check,
    premeasure_doubling,
)
from .errors import ConfigParseError, FracmeasureError
from .generators import cantor_net, cycle_metric, random_cloud, uniform_grid
from .instance_io import read_instance, read_json_object, write_instance
from .metric import Ball, uniform_measure
from .premeasure import HausdorffFunction, Premeasure, hxh_premeasure
from .verify import FIXED_SUITES, SUITE_NAMES, run_suite

CSV_COLUMNS = (
    "instance_id",
    "q",
    "delta",
    "family",
    "value",
    "status",
    "gap",
    "nodes",
    "wall_ms",
)

_DEFAULT_Q_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
_FAMILIES = ("H", "W", "Wtilde")


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return repr(x)
    return "" if x is None else str(x)


def _gauge_from_json(doc) -> HausdorffFunction:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigParseError("gauge must be a JSON object with a 'kind'")
    kind = doc["kind"]
    if kind == "power":
        return HausdorffFunction.power_law(float(doc["s"]))
    if kind == "linear":
        return HausdorffFunction.linear()
    if kind == "table":
        return HausdorffFunction.from_table([(float(r), float(v)) for r, v in doc["points"]])
    if kind == "constant_after_zero":
        return HausdorffFunction.constant_after_zero(float(doc["c"]))
    raise ConfigParseError(f"unknown gauge kind {kind!r}")


def premeasure_from_json(doc, measure) -> Premeasure:
    """Build a premeasure from its JSON description.

    ``measure`` is the instance measure, referenced by the
    ``measure_power`` kind.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigParseError("premeasure must be a JSON object with a 'kind'")
    kind = doc["kind"]
    try:
        if kind == "hausdorff":
            return Premeasure.from_gauge(
                _gauge_from_json(doc["h"]), diam_mode=doc.get("diam_mode", "nominal")
            )
        if kind == "constant":
            return Premeasure.constant_nonempty(float(doc["c"]))
        if kind == "measure_power":
            return Premeasure.measure_power(
                measure,
                float(doc["p"]),
                _gauge_from_json(doc["phi"]),
                float(doc.get("a", 1.0)),
                float(doc.get("b", 1.0)),
            )
        if kind == "gauge_pair":
            return hxh_premeasure(
                _gauge_from_json(doc["h"]),
                _gauge_from_json(doc["h_right"]),
                diam_mode=doc.get("diam_mode", "nominal"),
            )
    except KeyError as exc:
        raise ConfigParseError(f"premeasure missing field {exc}") from exc
    except (TypeError, ValueError) as exc:  # includes InvalidInput from the constructors
        raise ConfigParseError(f"bad premeasure: {exc}") from exc
    raise ConfigParseError(f"unknown premeasure kind {kind!r}")


def _load(instance_path: str, premeasure_doc):
    """The validated instance and its premeasure: (space, measure, xi)."""
    space, measure = read_instance(instance_path)
    return space, measure, premeasure_from_json(premeasure_doc, measure)


def _compute_rows(instance_id, space, measure, xi, q: float, delta: float, families=_FAMILIES):
    instance = weighted = None
    rows = []
    for fam in families:
        t0 = time.perf_counter()
        if instance is None:
            # One instance per cell: H and W share its reduction and root
            # LP, and the first row's wall_ms carries their cost.
            instance = optimizer.build_cover_instance(
                space, measure, q, xi, space.point_ids, delta
            )
        if fam == "H":
            sol = optimizer.solve_integer(instance)
            gap, nodes = None, sol.nodes
        else:
            # The target is the whole space, so free centres add no candidate: Wtilde = W.
            if weighted is None:
                weighted = optimizer.solve_fractional(instance)
            sol = weighted
            gap, nodes = sol.gap, None
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            {
                "instance_id": instance_id,
                "q": q,
                "delta": delta,
                "family": fam,
                "value": sol.value,
                "status": sol.status,
                "gap": gap,
                "nodes": nodes,
                "wall_ms": wall_ms,
            }
        )
    return rows


def _write_csv(rows, out_path: str | None):
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])
    finally:
        if out_path:
            handle.close()


def _cmd_gen(args) -> int:
    _integer(args.seed, "--seed", 0)
    if args.kind == "cantor":
        space, measure = cantor_net(args.level, args.ratio, args.p)
    elif args.kind == "cycle":
        space = cycle_metric(args.n)
        measure = uniform_measure(space)
    elif args.kind == "grid":
        space = uniform_grid(args.n, args.dim)
        measure = uniform_measure(space)
    elif args.kind == "cloud":
        space = random_cloud(args.n, args.dim, args.seed)
        measure = uniform_measure(space)
    else:
        raise ConfigParseError(f"unknown generator {args.kind!r}")
    write_instance(args.out, space, measure)
    print(f"wrote {space.n} points to {args.out}")
    return 0


def _parse_premeasure_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"premeasure is not valid JSON: {exc}") from exc


def _cmd_compute(args) -> int:
    loaded = _load(args.instance, _parse_premeasure_arg(args.premeasure))
    families = _FAMILIES if args.family == "all" else (args.family,)
    _write_csv(_compute_rows(args.instance, *loaded, args.q, args.delta, families), args.out)
    return 0


def _number(kind, value, what: str):
    """``kind(value)`` for a config entry; a malformed value is a ConfigParseError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParseError(f"config {what} must be a number, got {value!r}") from exc


def _numbers(values, what: str) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ConfigParseError(f"config {what} must be a list of numbers, got {values!r}")
    return [_number(float, v, what) for v in values]


def _strings(values, what: str) -> list[str]:
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
        raise ConfigParseError(f"config {what} must be a list of strings, got {values!r}")
    return values


def _integer(value, what: str, least: int) -> int:
    """A count or seed: an int, not a bool, of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigParseError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ConfigParseError(f"{what} must be at least {least}, got {value}")
    return value


def _reject_extra(keys, allowed, message: str) -> None:
    extra = sorted(set(keys) - set(allowed))
    if extra:
        raise ConfigParseError(f"{message}: {', '.join(extra)}")


def _cmd_sweep(args) -> int:
    config = read_json_object(args.config, "config")
    keys = {"instances", "premeasure", "q_grid", "delta_grid"}
    _reject_extra(config, keys, "unknown sweep config key(s)")
    try:
        instances = _strings(config["instances"], "instances")
        premeasure_doc = config["premeasure"]
        delta_grid = _numbers(config["delta_grid"], "delta_grid")
    except KeyError as exc:
        raise ConfigParseError(f"config missing key {exc}") from exc
    q_grid = _numbers(config.get("q_grid", _DEFAULT_Q_GRID), "q_grid")
    loaded = [(path, *_load(path, premeasure_doc)) for path in instances]
    tasks = [(*inst, q, delta) for inst in loaded for q in q_grid for delta in delta_grid]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(_compute_rows, *zip(*tasks)))
    else:
        chunks = list(starmap(_compute_rows, tasks))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["instance_id"], r["q"], r["delta"], r["family"]))
    _write_csv(rows, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        config = read_json_object(args.config, "config")
        _reject_extra(config, {"suites", "seed", "counts"}, "unknown verify config key(s)")
        names = _strings(config.get("suites", list(SUITE_NAMES)), "suites")
        seed = _integer(config.get("seed", args.seed), "config seed", 0)
        counts = config.get("counts", {})
        if not isinstance(counts, dict):
            raise ConfigParseError(f"config counts must be an object, got {counts!r}")
        _reject_extra(counts, names, "counts given for suite(s) not run")
        # A run that checks no case must not pass.
        counts = {name: _integer(c, f"counts.{name}", 1) for name, c in counts.items()}
    else:
        names = SUITE_NAMES if args.suites == "all" else [n.strip() for n in args.suites.split(",")]
        seed = _integer(args.seed, "--seed", 0)
        counts = {}
        if args.count is not None:
            count = _integer(args.count, "--count", 1)
            counts = {name: count for name in names if name not in FIXED_SUITES}
    failed = False
    reports = []
    for name in names:
        report = run_suite(name, count=counts.get(name), seed=seed)
        reports.append(report)
        state = "PASS" if report.passed else "FAIL"
        print(f"{report.name}: {state} ({report.cases} cases)")
        for tol in report.tolerances:
            print(f"  tolerance {tol.tol!r}: {tol.relation}")
        for line in report.violations:
            print(f"  {line}")
        failed = failed or not report.passed
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                [
                    {
                        "suite": r.name,
                        "cases": r.cases,
                        "violations": r.violations,
                        "tolerances": [t._asdict() for t in r.tolerances],
                    }
                    for r in reports
                ],
                handle,
                indent=1,
            )
    return 1 if failed else 0


def _parse_radii(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigParseError(f"bad radius list {text!r}") from exc


def _cmd_diag(args) -> int:
    space, measure = read_instance(args.instance)
    if args.what == "blanketing":
        value = blanketing_ratio(space, measure, args.a, _parse_radii(args.radii))
        print(_fmt(value))
        return 0
    if args.what == "doubling":
        xi = premeasure_from_json(_parse_premeasure_arg(args.premeasure), measure)
        value = premeasure_doubling(space, xi, _parse_radii(args.radii))
        print(_fmt(value))
        return 0
    xi = premeasure_from_json(_parse_premeasure_arg(args.premeasure), measure)
    report = density_upper_bound_check(
        space, measure, args.q, xi, measure, space.point_ids, args.delta
    )
    print(
        f"nu_total={_fmt(report.nu_total)} density_sup={_fmt(report.density_sup)} "
        f"h_value={_fmt(report.h_value)} bound={_fmt(report.bound)} "
        f"ok={report.ok} slack={_fmt(report.slack)}"
    )
    return 0 if report.ok else 1


def _cmd_covering(args) -> int:
    space, _ = read_instance(args.instance)
    if args.op == "vitali":
        try:
            doc = json.loads(args.balls)
            balls = [Ball(center=str(c), radius=float(r)) for c, r in doc]
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise ConfigParseError(f"bad ball list: {exc}") from exc
        result = vitali_5r_packing(space, balls)
        for b in result.packing:
            print(f"{b.center} {_fmt(b.radius)}")
        return 0
    radii = [args.radius] * space.n
    families = besicovitch_families(space, list(space.point_ids), radii)
    print(f"families: {len(families)}")
    for i, fam in enumerate(families):
        ids = " ".join(str(b.center) for b in fam)
        print(f"family {i}: {ids}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmeasure",
        description="exact covering premeasures on finite metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", required=True, choices=["cantor", "cycle", "grid", "cloud"])
    gen.add_argument("--level", type=int, default=3)
    gen.add_argument("--ratio", type=float, default=1.0 / 3.0)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--n", type=int, default=5)
    gen.add_argument("--dim", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_gen)

    comp = sub.add_parser("compute", help="evaluate one instance at one (q, delta)")
    comp.add_argument("--instance", required=True)
    comp.add_argument("--premeasure", required=True, help="premeasure JSON")
    comp.add_argument("--q", type=float, required=True)
    comp.add_argument("--delta", type=float, required=True)
    comp.add_argument("--family", default="all", choices=["H", "W", "Wtilde", "all"])
    comp.add_argument("--out", default=None)
    comp.set_defaults(fn=_cmd_compute)

    sweep = sub.add_parser("sweep", help="batch evaluation from a config file")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.set_defaults(fn=_cmd_sweep)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suites", default="all", help="comma list or 'all'")
    ver.add_argument("--config", default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--count", type=int, default=None, help="case count (not for example-zero)")
    ver.add_argument("--out", default=None, help="write a JSON report")
    ver.set_defaults(fn=_cmd_verify)

    diag = sub.add_parser("diag", help="diagnostics on one instance")
    diag.add_argument("--instance", required=True)
    diag.add_argument("--what", required=True, choices=["blanketing", "doubling", "density"])
    diag.add_argument("--a", type=float, default=2.0)
    diag.add_argument("--radii", default="")
    diag.add_argument("--premeasure", default='{"kind": "hausdorff", "h": {"kind": "linear"}}')
    diag.add_argument("--q", type=float, default=1.0)
    diag.add_argument("--delta", type=float, default=1.0)
    diag.set_defaults(fn=_cmd_diag)

    cov = sub.add_parser("covering", help="packing and family constructions")
    cov.add_argument("--instance", required=True)
    cov.add_argument("--op", required=True, choices=["vitali", "besicovitch"])
    cov.add_argument("--balls", default="[]", help='JSON [["id", radius], ...]')
    cov.add_argument("--radius", type=float, default=1.0)
    cov.set_defaults(fn=_cmd_covering)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FracmeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
