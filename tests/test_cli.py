import csv
import json
import pickle

import pytest

from fracmeasure import cli, optimizer
from fracmeasure.cli import main, premeasure_from_json
from fracmeasure.errors import (
    CandidateLimitExceeded,
    DeltaBelowResolution,
    MissingInstance,
    NumericalFailure,
    SpaceValidationError,
    TriangleViolation,
)
from fracmeasure.instance_io import read_instance
from fracmeasure.optimizer import noncentered_weighted_premeasure


def _read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def test_gen_and_compute(tmp_path, capsys):
    inst = tmp_path / "cycle.json"
    assert main(["gen", "--kind", "cycle", "--n", "5", "--out", str(inst)]) == 0
    out = tmp_path / "rows.csv"
    code = main(
        [
            "compute",
            "--instance",
            str(inst),
            "--premeasure",
            '{"kind": "constant", "c": 1.0}',
            "--q",
            "0",
            "--delta",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(out)
    assert [r["family"] for r in rows] == ["H", "W", "Wtilde"]
    by_family = {r["family"]: r for r in rows}
    assert float(by_family["H"]["value"]) == pytest.approx(2.0)
    assert float(by_family["W"]["value"]) == pytest.approx(5.0 / 3.0)
    assert by_family["H"]["status"] == "optimal"
    assert by_family["H"]["gap"] == ""
    assert by_family["W"]["nodes"] == ""


def test_compute_emits_inf(tmp_path):
    inst = tmp_path / "inst.json"
    doc = {
        "points": ["x", "y"],
        "measure": {"x": 1.0, "y": 0.0},
        "epsilon_net": 0.25,
        "coords": [[0.0], [5.0]],
    }
    inst.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    code = main(
        [
            "compute",
            "--instance",
            str(inst),
            "--premeasure",
            '{"kind": "hausdorff", "h": {"kind": "linear"}}',
            "--q",
            "0",
            "--delta",
            "1.0",
            "--family",
            "H",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(out)
    assert rows[0]["value"] == "inf"
    assert rows[0]["status"] == "infeasible-infinite"


def test_compute_accepts_a_wide_segment_given_by_coords(tmp_path):
    n = 30
    doc = {
        "points": [str(k) for k in range(n)],
        "measure": {str(k): 1.0 / n for k in range(n)},
        "epsilon_net": 100.0,
        "coords": [[1e4 * k / (n - 1)] for k in range(n)],
    }
    inst = tmp_path / "segment.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    code = main(
        [
            "compute",
            "--instance",
            str(inst),
            "--premeasure",
            '{"kind": "constant", "c": 1.0}',
            "--q",
            "0",
            "--delta",
            "2000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert [r["family"] for r in _read_csv(out)] == ["H", "W", "Wtilde"]


def test_sweep_deterministic_order(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["gen", "--kind", "cycle", "--n", "4", "--out", str(a)])
    main(["gen", "--kind", "grid", "--n", "3", "--dim", "1", "--out", str(b)])
    config = {
        "instances": [str(a), str(b)],
        "premeasure": {"kind": "hausdorff", "h": {"kind": "linear"}},
        "q_grid": [0.0, 1.0],
        "delta_grid": [1.0, 0.5],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    rows1 = _read_csv(out1)
    rows2 = _read_csv(out2)
    assert len(rows1) == 2 * 2 * 2 * 3
    strip = lambda rows: [
        {k: v for k, v in row.items() if k != "wall_ms"} for row in rows
    ]
    assert strip(rows1) == strip(rows2)


_POWER = {"kind": "hausdorff", "h": {"kind": "power", "s": 0.6309297535714574}}


def test_sweep_reads_each_instance_once_and_reports_wtilde_from_w(tmp_path, monkeypatch, capsys):
    # compute and sweep take the whole space as the target, where free
    # centres add no candidate: their Wtilde row is the W solve, and must
    # equal the non-centered value itself bit for bit.
    paths = [str(tmp_path / name) for name in ("net.json", "cloud.json", "cycle.json")]
    main(["gen", "--kind", "cantor", "--level", "3", "--out", paths[0]])
    main(["gen", "--kind", "cloud", "--n", "10", "--dim", "2", "--seed", "7", "--out", paths[1]])
    main(["gen", "--kind", "cycle", "--n", "6", "--out", paths[2]])
    cfg = tmp_path / "config.json"
    q_grid, delta_grid = [-1.0, 0.0, 1.0], [1.0, 0.5]
    cfg.write_text(
        json.dumps(
            {"instances": paths, "premeasure": _POWER, "q_grid": q_grid, "delta_grid": delta_grid}
        )
    )
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_instance(path)

    monkeypatch.setattr(cli, "read_instance", counting_read)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert reads == paths
    rows = {
        (r["instance_id"], float(r["q"]), float(r["delta"]), r["family"]): r
        for r in _read_csv(out)
    }
    assert len(rows) == 3 * 3 * 2 * 3
    for path in paths:
        space, measure = read_instance(path)
        xi = premeasure_from_json(_POWER, measure)
        for q in q_grid:
            for delta in delta_grid:
                free = noncentered_weighted_premeasure(
                    space, measure, q, xi, space.point_ids, delta
                )
                assert float(rows[(path, q, delta, "Wtilde")]["value"]) == free.value

    for path in paths:
        capsys.readouterr()
        argv = ["compute", "--instance", path, "--premeasure", json.dumps(_POWER),
                "--q", "0", "--delta", "0.5", "--family"]
        assert main([*argv, "Wtilde"]) == 0
        wtilde = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert main([*argv, "W"]) == 0
        (w,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert [r["family"] for r in wtilde] == ["Wtilde"]
        same = lambda row: {k: v for k, v in row.items() if k not in ("family", "wall_ms")}
        assert same(wtilde[0]) == same(w)


@pytest.mark.parametrize("instance", ["net", "cloud"])
def test_compute_cell_builds_one_instance_and_poses_one_lp(tmp_path, monkeypatch, instance):
    # H, W and Wtilde of a cell whose branch and bound closes at the root
    # share one cover instance and one priced LP, in one HiGHS model, and
    # build no reduction.
    path = str(tmp_path / "inst.json")
    gen = {
        "net": ["--kind", "cantor", "--level", "5"],
        "cloud": ["--kind", "cloud", "--n", "40", "--dim", "2", "--seed", "7"],
    }[instance]
    assert main(["gen", *gen, "--out", path]) == 0
    builds, lps, models, reductions = [], [], [], []
    build, solve_lp, reduce = (
        optimizer.build_cover_instance, optimizer.linprog, optimizer._reduce
    )

    class Model(optimizer._highs._Highs):
        def __init__(self):
            super().__init__()
            models.append(self)

    monkeypatch.setattr(
        optimizer, "build_cover_instance", lambda *a, **k: builds.append(a) or build(*a, **k)
    )
    monkeypatch.setattr(optimizer, "linprog", lambda *lp: lps.append(lp) or solve_lp(*lp))
    monkeypatch.setattr(optimizer._highs, "_Highs", Model)
    monkeypatch.setattr(optimizer, "_reduce", lambda *a: reductions.append(a) or reduce(*a))
    out = tmp_path / "cell.csv"
    argv = ["compute", "--instance", path, "--premeasure", json.dumps(_POWER),
            "--q", "0", "--delta", "0.5", "--family", "all", "--out", str(out)]
    assert main(argv) == 0
    rows = {r["family"]: r for r in _read_csv(out)}
    assert rows["H"]["nodes"] == "1"
    assert float(rows["W"]["value"]) == pytest.approx(float(rows["H"]["value"]), rel=1e-9)
    assert len(builds) == 1 and len(models) == 1
    assert not lps and not reductions  # no node LP, and no reduction


@pytest.mark.parametrize(
    "error",
    [
        DeltaBelowResolution(1e-9, 0.5),
        NumericalFailure(1.0, 2.0, "gap"),
        NumericalFailure(float("nan"), float("nan"), "no solution"),
        CandidateLimitExceeded(1.0, 2.0, 3000),
        SpaceValidationError([TriangleViolation(0, 1, 2)]),
        MissingInstance("inst.json"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_errors_survive_pickling(error):
    # Errors raised in a sweep worker reach the parent through pickle.
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    plain = lambda exc: {k: str(v) for k, v in vars(exc).items()}  # NaN != NaN; nested errors
    assert plain(back) == plain(error)


def test_sweep_worker_error_exits_2_without_traceback(tmp_path, capsys):
    inst = tmp_path / "net.json"
    main(["gen", "--kind", "cantor", "--level", "3", "--out", str(inst)])
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {"instances": [str(inst)], "premeasure": _POWER, "q_grid": [0.0],
             "delta_grid": [1e-9, 0.5]}
        )
    )
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta 1e-09 is below the resolution floor")
    assert "Traceback" not in err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def recording_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


def _sweep_config(tmp_path, delta_grid):
    inst = tmp_path / "net.json"
    main(["gen", "--kind", "cantor", "--level", "3", "--out", str(inst)])
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {"instances": [str(inst)], "premeasure": _POWER, "q_grid": [0.0],
             "delta_grid": delta_grid}
        )
    )
    return cfg


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exits_2(tmp_path, capsys, recording_pool, jobs):
    cfg = _sweep_config(tmp_path, [0.5, 0.25])
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert captured.out == ""
    assert recording_pool.sizes == []


@pytest.mark.parametrize(("delta_grid", "sizes"), [([0.5, 0.25], [2]), ([0.5], [])])
def test_sweep_starts_no_more_workers_than_cells(tmp_path, recording_pool, delta_grid, sizes):
    cfg = _sweep_config(tmp_path, delta_grid)
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
    assert recording_pool.sizes == []
    assert main(["sweep", "--config", str(cfg), "--out", str(pooled), "--jobs", "64"]) == 0
    assert recording_pool.sizes == sizes
    same = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert same(_read_csv(pooled)) == same(_read_csv(serial))


def test_verify_exit_codes(capsys):
    # --count sizes the corpus suites; the example-zero chain keeps its 10 cases.
    argv = ["verify", "--suites", "wh-order,example-zero", "--count", "3", "--seed", "1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "wh-order: PASS (4 cases)" in captured.out
    assert "example-zero: PASS (10 cases)" in captured.out
    assert "tolerance 1e-09: W <= H + tol" in captured.out


def test_verify_notes_that_count_skips_the_fixed_chain(capsys):
    assert main(["verify", "--suites", "example-zero"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["verify", "--suites", "example-zero", "--count", "1"]) == 0
    counted = capsys.readouterr()
    assert counted.out == plain.out
    assert counted.out.startswith("example-zero: PASS (10 cases)\n")
    assert counted.err == "note: --count does not apply to example-zero (a fixed 10-case chain)\n"


@pytest.mark.parametrize("level", ["0", "-1"])
def test_gen_cantor_level_below_one_exits_2(tmp_path, capsys, level):
    code = main(["gen", "--kind", "cantor", "--level", level, "--out", str(tmp_path / "n.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: level must lie in 1..14, got {level}\n"
    assert not (tmp_path / "n.json").exists()


def test_verify_prints_the_configured_tolerance(tmp_path, capsys):
    # The check tolerance is the fixed CHECK_TOL; it is printed and written to --out.
    out_file = tmp_path / "verify.json"
    argv = ["verify", "--suites", "product-w", "--count", "2", "--out", str(out_file)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "tolerance 1e-07: |W(ExF) - W(E)W(F)| <= tol * max(1, |W(E)W(F)|)" in out
    (report,) = json.loads(out_file.read_text())
    assert set(report) == {"suite", "cases", "violations", "tolerances"}
    assert report["tolerances"] == [
        {"relation": "|W(ExF) - W(E)W(F)| <= tol * max(1, |W(E)W(F)|)", "tol": 1e-07}
    ]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suites", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_diag_blanketing(tmp_path, capsys):
    inst = tmp_path / "grid.json"
    main(["gen", "--kind", "grid", "--n", "3", "--dim", "1", "--out", str(inst)])
    capsys.readouterr()
    code = main(
        [
            "diag",
            "--instance",
            str(inst),
            "--what",
            "blanketing",
            "--a",
            "2.0",
            "--radii",
            "0.5",
        ]
    )
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value >= 1.0


@pytest.mark.parametrize(
    "what, radii", [("doubling", "inf"), ("doubling", "0.1,inf"), ("blanketing", "nan")]
)
def test_diag_nonfinite_radius_exits_2(tmp_path, capsys, what, radii):
    inst = tmp_path / "grid.json"
    main(["gen", "--kind", "grid", "--n", "3", "--dim", "1", "--out", str(inst)])
    capsys.readouterr()
    code = main(["diag", "--instance", str(inst), "--what", what, "--radii", radii])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "positive and finite" in err and "Traceback" not in err


def test_covering_besicovitch(tmp_path, capsys):
    inst = tmp_path / "grid.json"
    main(["gen", "--kind", "grid", "--n", "3", "--dim", "1", "--out", str(inst)])
    capsys.readouterr()
    code = main(
        [
            "covering",
            "--instance",
            str(inst),
            "--op",
            "besicovitch",
            "--radius",
            "0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("families:")


@pytest.mark.parametrize("radius", ['"nan"', "-1"])
def test_covering_vitali_bad_radius_exits_2(tmp_path, capsys, radius):
    inst = tmp_path / "net.json"
    main(["gen", "--kind", "cantor", "--level", "3", "--out", str(inst)])
    capsys.readouterr()
    balls = f'[["000", {radius}]]'
    code = main(["covering", "--instance", str(inst), "--op", "vitali", "--balls", balls])
    assert code == 2
    err = capsys.readouterr().err
    assert "radii must be nonnegative" in err and "Traceback" not in err


def test_bad_premeasure_json(tmp_path, capsys):
    inst = tmp_path / "c.json"
    main(["gen", "--kind", "cycle", "--n", "4", "--out", str(inst)])
    code = main(
        [
            "compute",
            "--instance",
            str(inst),
            "--premeasure",
            "{bad",
            "--q",
            "0",
            "--delta",
            "1.0",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "premeasure, q",
    [
        ('{"kind": "hausdorff", "h": {"kind": "power", "s": -1}}', "0"),
        ('{"kind": "hausdorff", "h": {"kind": "power", "s": NaN}}', "0"),
        ('{"kind": "hausdorff", "h": {"kind": "power", "s": "x"}}', "0"),
        ('{"kind": "hausdorff", "h": {"kind": "table", "points": 3}}', "0"),
        ('{"kind": "hausdorff", "h": {"kind": "constant_after_zero", "c": Infinity}}', "0"),
        ('{"kind": "constant", "c": -1}', "0"),
        ('{"kind": "constant", "c": 1}', "nan"),
        ('{"kind": "constant", "c": 1}', "inf"),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, premeasure, q):
    inst = tmp_path / "c.json"
    main(["gen", "--kind", "cycle", "--n", "4", "--out", str(inst)])
    capsys.readouterr()
    code = main(
        ["compute", "--instance", str(inst), "--premeasure", premeasure, "--q", q, "--delta", "1.0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "dist, mass_b",
    [
        ([[0.0, float("nan")], [float("nan"), 0.0]], 0.5),
        ([[0.0, float("inf")], [float("inf"), 0.0]], 0.5),
        ([[0.0, 1.0], [1.0, 0.0]], float("nan")),
    ],
)
def test_nonfinite_instance_exits_2_without_traceback(tmp_path, capsys, dist, mass_b):
    inst = tmp_path / "bad.json"
    doc = {
        "points": ["a", "b"],
        "dist": dist,
        "measure": {"a": 0.5, "b": mass_b},
        "epsilon_net": 0.5,
    }
    inst.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
    code = main(
        [
            "compute",
            "--instance",
            str(inst),
            "--premeasure",
            '{"kind": "constant", "c": 1}',
            "--q",
            "0",
            "--delta",
            "1.0",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_TWO_POINTS = {
    "points": ["a", "b"],
    "dist": [[0.0, 1.0], [1.0, 0.0]],
    "measure": {"a": 0.5, "b": 0.5},
    "epsilon_net": 0.5,
}


_CONSTANT = '{"kind": "constant", "c": 1}'


@pytest.mark.parametrize(
    "changes, mentions",
    [
        ({"points": "ab"}, "points must be a list of strings"),
        ({"points": [["a"], ["b"]]}, "points must be a list of strings"),
        ({"points": [1, 2]}, "points must be a list of strings"),
        ({"dist": None, "coords": [[[0.0]], [[1.0]]]}, "coords must be 1-D or 2-D"),
        ({"dist": [[0.0, float("nan")], [1.0, 0.0]]}, "dist[0,1] is not finite"),
        ({"measure": {"a": 0.6, "b": 0.6}}, "masses sum to 1.2"),
    ],
    ids=["points-string", "points-lists", "points-numbers", "coords-3d", "dist-nan", "mass-1.2"],
)
def test_malformed_instance_file_exits_2_from_compute(tmp_path, capsys, changes, mentions):
    inst = tmp_path / "bad.json"
    doc = {key: value for key, value in {**_TWO_POINTS, **changes}.items() if value is not None}
    inst.write_text(json.dumps(doc))
    code = main(
        ["compute", "--instance", str(inst), "--premeasure", _CONSTANT, "--q", "0", "--delta", "1.0"]
    )
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: instance file {inst}") and "Traceback" not in err
    assert mentions in err


def test_sweep_names_the_bad_instance_file(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_TWO_POINTS))
    bad.write_text(json.dumps({**_TWO_POINTS, "dist": [[0.0, float("nan")], [1.0, 0.0]]}))
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {"instances": [str(good), str(bad)], "premeasure": {"kind": "constant", "c": 1},
             "q_grid": [0.0], "delta_grid": [1.0]}
        )
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: instance file {bad}: ") and "Traceback" not in err
    assert str(good) not in err


@pytest.mark.parametrize(
    "target, changes, mentions",
    [
        ("sweep", {}, None),
        ("sweep", {"q_grid": ["abc"]}, "q_grid"),
        ("sweep", {"delta_grid": 0.5}, "delta_grid"),
        ("sweep", {"instances": "/abs/inst.json"}, "instances"),
        ("sweep", {"instances": 3}, "instances"),
        ("sweep", {"instances": [3]}, "instances"),
        ("sweep", b'{"instances": ["\xff"]}', "config"),
        ("sweep", {"q_gird": [0.0]}, "q_gird"),
        ("verify", {}, None),
        ("verify", {"seed": "abc"}, "seed"),
        ("verify", {"seed": float("inf")}, "seed"),
        ("verify", {"seed": 2.7}, "seed"),
        ("verify", {"seed": True}, "seed"),
        ("verify", {"seed": "3"}, "seed"),
        ("verify", {"seed": -4}, "seed"),
        ("verify", {"tolerances": {"check": 1e-7}}, "tolerances"),
        ("verify", {"suites": 3}, "suites"),
        ("verify", {"counts": {"wh-order": "abc"}}, "counts.wh-order"),
        ("verify", {"counts": {"wh-order": 0}}, "counts.wh-order"),
        ("verify", {"counts": {"wh-order": 2.7}}, "counts.wh-order"),
        ("verify", {"counts": {"wh-order": True}}, "counts.wh-order"),
        ("verify", {"counts": {"wh-order": "3"}}, "counts.wh-order"),
        ("verify", {"counts": {"nope": 2}}, "nope"),
        ("verify", {"suites": ["example-zero"], "counts": {"example-zero": 1}}, "example-zero"),
        ("verify", b'{"suites": ["\xff"]}', "config"),
        ("instance", {"measure": {"a": "x", "b": 0.5}}, "'x'"),
        ("instance", {"measure": [0.5, 0.5]}, "measure"),
        ("instance", {"epsilon_net": "abc"}, "'abc'"),
        ("instance", {"dist": [[0.0, "far"], ["far", 0.0]]}, "'far'"),
        ("instance", 3, "instance file"),
        ("instance", b'{"points": ["\xff"]}', "instance file"),
        ("argv", ["compute", "--instance", "TMP", "--premeasure", _CONSTANT,
                  "--q", "0", "--delta", "1.0"], "instance file"),
        ("argv", ["verify", "--suites", "subadd", "--count", "-3"], "--count"),
        ("argv", ["verify", "--suites", "product-w", "--count", "0"], "--count"),
        ("argv", ["verify", "--suites", "wh-order", "--tolerance", "1e-6"], "--tolerance"),
        ("argv", ["verify", "--suites", "wh-order", "--count", "1", "--seed", "-1"], "--seed"),
        ("argv", ["gen", "--kind", "cloud", "--n", "4", "--seed", "-1", "--out", "TMP"], "--seed"),
    ],
    ids=[
        "sweep-valid", "q_grid-string", "delta_grid-scalar",
        "instances-string", "instances-number", "instances-number-list", "sweep-config-bytes",
        "sweep-unknown-key",
        "verify-valid", "seed-string", "seed-inf", "seed-float", "seed-bool",
        "seed-numeric-string", "seed-negative", "tolerances-key",
        "suites-scalar", "count-string", "count-zero",
        "count-float", "count-bool", "count-numeric-string", "count-suite-not-run",
        "count-fixed-chain", "verify-config-bytes",
        "mass-string", "measure-list", "epsilon_net-string", "dist-string",
        "instance-number", "instance-bytes",
        "instance-directory", "count-arg-negative", "count-arg-zero", "tolerance-arg",
        "seed-arg-negative", "gen-seed-negative",
    ],
)
def test_malformed_config_values_exit_2_without_traceback(
    tmp_path, capsys, target, changes, mentions
):
    # ``changes`` replaces keys of a valid verify config, or of a sweep
    # config or the instance file it reads; bytes or a non-object value
    # replace the whole file.  An "argv" case runs its own command line,
    # with TMP standing for a directory.  No change must exit 0.
    def write(path, base, own):
        if isinstance(own, bytes):
            path.write_bytes(own)
        else:
            path.write_text(json.dumps({**base, **own} if isinstance(own, dict) else own))

    inst = tmp_path / "inst.json"
    cfg = tmp_path / "config.json"
    write(inst, _TWO_POINTS, changes if target == "instance" else {})
    if target == "verify":
        write(cfg, {"suites": ["wh-order"], "counts": {"wh-order": 1}}, changes)
    else:
        sweep = {
            "instances": [str(inst)],
            "premeasure": json.loads(_CONSTANT),
            "q_grid": [0.0],
            "delta_grid": [1.0],
        }
        write(cfg, sweep, changes if target == "sweep" else {})
    if target == "argv":
        argv = [str(tmp_path) if arg == "TMP" else arg for arg in changes]
    else:
        argv = ["verify" if target == "verify" else "sweep", "--config", str(cfg)]
    try:
        code, rejected = main(argv), False
    except SystemExit as exc:
        code, rejected = exc.code, True
    err = capsys.readouterr().err
    if mentions is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and mentions in err.splitlines()[-1] and "Traceback" not in err
        # argparse prints its usage line before the error
        assert err.startswith("usage:" if rejected else "error:")
