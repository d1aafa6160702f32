import csv
import json

import pytest

from fracmeasure.cli import main


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


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suites", "wh-order", "--count", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "wh-order: PASS" in captured.out


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
