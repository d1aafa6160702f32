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

from .covering import besicovitch_families, vitali_5r_packing
from .diagnostics import (
    blanketing_ratio,
    density_upper_bound_check,
    premeasure_doubling,
)
from .errors import ConfigParseError, FracmeasureError
from .extended import CHECK_TOL
from .generators import cantor_net, cycle_metric, random_cloud, uniform_grid
from .instance_io import read_instance, write_instance
from .metric import Ball, uniform_measure
from .optimizer import (
    hausdorff_premeasure,
    noncentered_weighted_premeasure,
    weighted_premeasure,
)
from .premeasure import HausdorffFunction, Premeasure, hxh_premeasure
from .verify import SUITE_NAMES, run_suite

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


def _compute_rows(instance_path: str, premeasure_doc, q: float, delta: float, families):
    space, measure = read_instance(instance_path)
    xi = premeasure_from_json(premeasure_doc, measure)
    target = space.point_ids
    rows = []
    for fam in families:
        t0 = time.perf_counter()
        if fam == "H":
            sol = hausdorff_premeasure(space, measure, q, xi, target, delta)
            gap, nodes = None, sol.nodes
        elif fam == "W":
            sol = weighted_premeasure(space, measure, q, xi, target, delta)
            gap, nodes = sol.gap, None
        else:
            sol = noncentered_weighted_premeasure(space, measure, q, xi, target, delta)
            gap, nodes = sol.gap, None
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            {
                "instance_id": instance_path,
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
    doc = _parse_premeasure_arg(args.premeasure)
    families = ("H", "W", "Wtilde") if args.family == "all" else (args.family,)
    rows = _compute_rows(args.instance, doc, args.q, args.delta, families)
    _write_csv(rows, args.out)
    return 0


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError("config must be a JSON object")
    return doc


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


def _sweep_task(task):
    instance_path, premeasure_doc, q, delta = task
    return _compute_rows(instance_path, premeasure_doc, q, delta, ("H", "W", "Wtilde"))


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    try:
        instances = list(config["instances"])
        premeasure_doc = config["premeasure"]
    except KeyError as exc:
        raise ConfigParseError(f"config missing key {exc}") from exc
    q_grid = _numbers(config.get("q_grid", _DEFAULT_Q_GRID), "q_grid")
    if "delta_grid" not in config:
        raise ConfigParseError("config must list a delta_grid")
    delta_grid = _numbers(config["delta_grid"], "delta_grid")
    tasks = [
        (path, premeasure_doc, q, delta)
        for path in instances
        for q in q_grid
        for delta in delta_grid
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(_sweep_task, tasks))
    else:
        chunks = [_sweep_task(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["instance_id"], r["q"], r["delta"], r["family"]))
    _write_csv(rows, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        config = _load_config(args.config)
        names = config.get("suites", list(SUITE_NAMES))
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ConfigParseError(f"config suites must be a list of names, got {names!r}")
        seed = _number(int, config.get("seed", args.seed), "seed")
        counts = config.get("counts", {})
        tolerances = config.get("tolerances", {})
        for key, value in (("counts", counts), ("tolerances", tolerances)):
            if not isinstance(value, dict):
                raise ConfigParseError(f"config {key} must be an object, got {value!r}")
        counts = {name: _number(int, c, f"counts.{name}") for name, c in counts.items()}
        check_tol = _number(float, tolerances.get("check", args.tolerance), "tolerances.check")
    else:
        names = list(SUITE_NAMES) if args.suites == "all" else args.suites.split(",")
        seed = args.seed
        counts = {}
        if args.count is not None:
            counts = {name: args.count for name in names}
        check_tol = args.tolerance
    failed = False
    reports = []
    for name in names:
        report = run_suite(
            name.strip(), count=counts.get(name.strip()), seed=seed, check_tol=check_tol
        )
        reports.append(report)
        state = "PASS" if report.passed else "FAIL"
        print(f"{report.name}: {state} ({report.cases} cases)")
        for tol in report.tolerances:
            kind = "check tolerance" if tol.configured else "fixed"
            print(f"  tolerance {tol.tol!r} ({kind}): {tol.relation}")
        if not report.applies_check_tol:
            print(f"  the check tolerance {check_tol!r} is not applied by this suite")
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
                        "applies_check_tol": r.applies_check_tol,
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
    ver.add_argument("--count", type=int, default=None, help="override case count")
    ver.add_argument("--tolerance", type=float, default=CHECK_TOL)
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
