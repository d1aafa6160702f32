"""Acceptance gate: thirteen criteria, one test and one report line each.

Every test prints "ACCEPTANCE <n> <PASS|FAIL>: <summary>" (visible under
pytest -s and in failure output) and asserts the criterion at its pinned
tolerance; the stated runtime budgets are asserted on wall time.
"""

import math
import time

import numpy as np
import pytest

from fracmeasure import (
    HausdorffFunction,
    Premeasure,
    blanketing_ratio,
    brute_force_oracle,
    build_cover_instance,
    cantor_net,
    cycle_metric,
    density_upper_bound_check,
    point_measure,
    random_cloud,
    solve_fractional,
    solve_integer,
    uniform_grid,
    uniform_measure,
    validate_space,
)
from fracmeasure.verify import (
    _doubling_corpus,
    build_mixed_corpus,
    build_product_corpus,
    run_suite,
)


def _report(num: int, ok: bool, summary: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {state}: {summary}")


def _oracle_corpus(count: int, seed: int):
    """Seeded tiny instances: at most 7 points and 14 candidates."""
    rng = np.random.default_rng(seed)
    xi_pool = [
        Premeasure.from_gauge(HausdorffFunction.linear()),
        Premeasure.from_gauge(HausdorffFunction.power_law(0.5)),
        Premeasure.constant_nonempty(1.0),
        None,  # placeholder replaced by a measure_power draw below
    ]
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            n = int(rng.integers(3, 8))
            space = random_cloud(n, int(rng.integers(1, 3)), int(rng.integers(0, 2**31)))
            measure = uniform_measure(space)
        elif kind == 1:
            space = cycle_metric(int(rng.integers(3, 8)))
            measure = uniform_measure(space)
        else:
            space, measure = cantor_net(2, 1.0 / 3.0, float(rng.uniform(0.3, 0.7)))
        if i % 4 == 0 and space.n >= 3:
            masses = np.array([measure.mass_of(p) for p in space.point_ids])
            masses[int(rng.integers(0, space.n))] = 0.0
            measure = point_measure(
                space, dict(zip(space.point_ids, masses / masses.sum()))
            )
        xi = xi_pool[i % 4]
        if xi is None:
            xi = Premeasure.measure_power(
                measure, 1.0, HausdorffFunction.linear(), 1.0, 1.0
            )
        q = float(rng.choice([-1.0, 0.0, 1.0]))
        pos = space.dist[space.dist > 0.0]
        delta = max(space.epsilon_net, float(np.quantile(pos, 0.4)))
        if i % 5 == 0:
            k = max(1, space.n // 2)
            target = tuple(space.point_ids[j] for j in range(k))
        else:
            target = space.point_ids
        inst = build_cover_instance(space, measure, q, xi, target, delta)
        if len(inst.candidates) > 14:
            inst = build_cover_instance(
                space, measure, q, xi, target, space.epsilon_net
            )
        assert space.n <= 7 and len(inst.candidates) <= 14
        out.append((f"orc-{i}", inst))
    return out


def test_acceptance_01_oracle_equivalence():
    t0 = time.perf_counter()
    bad = []
    corpus = _oracle_corpus(200, seed=101)
    for cid, inst in corpus:
        int_oracle, frac_oracle = brute_force_oracle(inst)
        sol_i = solve_integer(inst)
        sol_f = solve_fractional(inst)
        if math.isinf(int_oracle) != math.isinf(sol_i.value) or (
            not math.isinf(int_oracle) and abs(sol_i.value - int_oracle) > 1e-9
        ):
            bad.append(f"{cid}: ILP {sol_i.value!r} vs oracle {int_oracle!r}")
        if math.isinf(frac_oracle) != math.isinf(sol_f.value) or (
            not math.isinf(frac_oracle) and abs(sol_f.value - frac_oracle) > 1e-9
        ):
            bad.append(f"{cid}: LP {sol_f.value!r} vs oracle {frac_oracle!r}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(1, ok, f"200 instances vs oracle, {len(bad)} mismatches, {elapsed:.1f}s (< 60s)")
    assert not bad, bad[:5]
    assert elapsed < 60.0


def test_acceptance_02_w_below_h():
    t0 = time.perf_counter()
    report = run_suite("wh-order", count=500, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 120.0
    _report(
        2,
        ok,
        f"W <= H + 1e-9 on {report.cases} cases incl. 5-cycle gap witness, "
        f"{len(report.violations)} violations, {elapsed:.1f}s (< 120s)",
    )
    assert report.passed, report.violations[:5]
    assert elapsed < 120.0


def test_acceptance_03_product_w_equality():
    t0 = time.perf_counter()
    report = run_suite("product-w", count=100, seed=31)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 300.0
    _report(
        3,
        ok,
        f"|W(ExF) - W(E)W(F)| <= 1e-7*max(1, prod) on {report.cases} products, "
        f"{len(report.violations)} violations, {elapsed:.1f}s (< 300s)",
    )
    assert report.passed, report.violations[:5]
    assert elapsed < 300.0


def test_acceptance_04_sandwich():
    t0 = time.perf_counter()
    report = run_suite("sandwich", count=100, seed=31)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 300.0
    _report(
        4,
        ok,
        f"W(E)H(F) - 1e-7 <= H(ExF) <= H(E)H(F) + 1e-7 on {report.cases} products, "
        f"{len(report.violations)} violations, {elapsed:.1f}s (< 300s)",
    )
    assert report.passed, report.violations[:5]
    assert elapsed < 300.0


def test_acceptance_05_zero_infinite():
    report = run_suite("zero-infinite", count=20, seed=5)
    _report(
        5,
        report.passed,
        f"H(E)=inf, H(F)=0, H(ExF)=0 exactly on {report.cases} constructed instances, "
        f"{len(report.violations)} violations",
    )
    assert report.passed, report.violations[:5]


def test_acceptance_06_noncentered():
    report = run_suite("noncentered", count=200, seed=6)
    _report(
        6,
        report.passed,
        f"free-center W <= centered W + 1e-9 on {report.cases} instances, "
        f"{len(report.violations)} violations",
    )
    assert report.passed, report.violations[:5]


def test_acceptance_07_hxh_domination():
    report = run_suite("hxh", count=50, seed=7)
    _report(
        7,
        report.passed,
        f"joint-gauge W >= product-gauge W - 1e-9 on {report.cases} products, "
        f"{len(report.violations)} violations",
    )
    assert report.passed, report.violations[:5]


def test_acceptance_08_covering_algorithms():
    vit = run_suite("vitali", count=100, seed=8)
    bes = run_suite("besicovitch", count=100, seed=8)
    ok = vit.passed and bes.passed
    _report(
        8,
        ok,
        f"5r packing checks on {vit.cases} families and bounded-overlap checks on "
        f"{bes.cases} families (dims 1-2, determinism included), "
        f"{len(vit.violations) + len(bes.violations)} violations",
    )
    assert vit.passed, vit.violations[:5]
    assert bes.passed, bes.violations[:5]


def test_acceptance_09_density_bound_everywhere():
    """nu = mu on every corpus instance drawn by criteria 2, 3, 6 and 10."""
    bad = []
    cases = 0
    singles = (
        build_mixed_corpus(2024, 500)
        + build_mixed_corpus(6, 200)
        + _doubling_corpus(10, 40)
    )
    for case in singles:
        supp = case.measure.support
        target = tuple(p for p in case.target if p in supp)
        if not target:
            continue
        cases += 1
        rep = density_upper_bound_check(
            case.space, case.measure, case.q, case.xi, case.measure, target, case.delta
        )
        if not rep.ok:
            bad.append(f"{case.cid}: nu(E)={rep.nu_total!r} > bound={rep.bound!r}")
    for case in build_product_corpus(31, 100):
        for space, measure, xi, target in (
            (case.left, case.left_measure, case.left_xi, case.left_target),
            (case.right, case.right_measure, case.right_xi, case.right_target),
        ):
            cases += 1
            rep = density_upper_bound_check(
                space, measure, case.q, xi, measure, target, case.delta
            )
            if not rep.ok:
                bad.append(f"{case.cid}: nu(E)={rep.nu_total!r} > bound={rep.bound!r}")
    ok = not bad
    _report(9, ok, f"nu(E) <= s*H + 1e-9 with nu=mu on {cases} corpus instances, {len(bad)} failures")
    assert not bad, bad[:5]


def test_acceptance_10_dilation_bound_on_doubling_corpora():
    report = run_suite("lemma-8c", count=40, seed=10)
    _report(
        10,
        report.passed,
        f"H <= 8*C3*W on {report.cases} doubling instances, "
        f"{len(report.violations)} violations",
    )
    assert report.passed, report.violations[:5]


def test_acceptance_11_vanishing_chain():
    t0 = time.perf_counter()
    report = run_suite("example-zero", seed=11)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 120.0
    _report(
        11,
        ok,
        f"level-8 net chain bound and monotone profile over {report.cases} "
        f"(q, delta) cells, {len(report.violations)} violations, {elapsed:.1f}s (< 120s)",
    )
    assert report.passed, report.violations[:5]
    assert elapsed < 120.0


def test_acceptance_12_subadditivity():
    report = run_suite("subadd", count=100, seed=12)
    _report(
        12,
        report.passed,
        f"union subadditivity + separated additivity on {report.cases} instances, "
        f"{len(report.violations)} violations",
    )
    assert report.passed, report.violations[:5]


def test_acceptance_13_blanketing_regression():
    space, measure = cantor_net(6, 1.0 / 3.0, 0.5)
    radii = [3.0**-k for k in range(1, 6)]
    value = blanketing_ratio(space, measure, 2.0, radii)
    ok = value <= 10.0 and abs(value - 2.0) <= 1e-9
    _report(13, ok, f"blanketing ratio {value!r} (pinned 2.0, envelope <= 10)")
    assert value <= 10.0
    assert abs(value - 2.0) <= 1e-9
