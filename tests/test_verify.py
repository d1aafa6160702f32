import copy

import numpy as np
import pytest

from fracmeasure import CHECK_TOL, SOLVER_TOL, SUITE_NAMES, run_suite
from fracmeasure import verify
from fracmeasure.errors import SuiteUnknown
from fracmeasure.verify import FIXED_SUITES


def test_suite_names_complete():
    assert set(SUITE_NAMES) == {
        "wh-order",
        "subadd",
        "product-w",
        "sandwich",
        "zero-infinite",
        "noncentered",
        "hxh",
        "density",
        "vitali",
        "besicovitch",
        "lemma-8c",
        "example-zero",
    }


def test_unknown_suite_raises():
    with pytest.raises(SuiteUnknown):
        run_suite("no-such-suite")


@pytest.mark.parametrize(
    "name",
    [n for n in SUITE_NAMES if n != "example-zero"],
)
def test_suites_pass_small(name):
    report = run_suite(name, count=8, seed=11)
    assert report.passed, report.violations
    assert report.cases > 0


def test_suite_reports_are_deterministic():
    a = run_suite("wh-order", count=5, seed=3)
    b = run_suite("wh-order", count=5, seed=3)
    assert a.cases == b.cases
    assert a.violations == b.violations


_CHECK_TOL_SUITES = {"product-w", "sandwich", "example-zero"}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_reports_state_the_tolerance_each_relation_applied(name):
    report = run_suite(name, count=None if name in FIXED_SUITES else 2, seed=5)
    assert report.tolerances
    applied = {tol.tol for tol in report.tolerances}
    assert applied <= {CHECK_TOL, SOLVER_TOL, 0.0}
    assert (CHECK_TOL in applied) == (name in _CHECK_TOL_SUITES)


def test_product_w_runs_no_integer_search_and_wh_order_builds_once_per_case(monkeypatch):
    from fracmeasure import optimizer

    def no_search(*args, **kwargs):
        raise AssertionError("product-w solved an integer cover")

    with monkeypatch.context() as mp:
        mp.setattr(optimizer, "solve_integer", no_search)
        assert run_suite("product-w", count=5).passed
    builds = []
    build = optimizer.build_cover_instance
    monkeypatch.setattr(
        optimizer, "build_cover_instance", lambda *a, **k: builds.append(a) or build(*a, **k)
    )
    report = run_suite("wh-order", count=5)
    assert report.passed and len(builds) == report.cases


@pytest.mark.parametrize(
    "name, builds, integer, fractional",
    [
        ("hxh", 2, 0, 2),  # W of two gauges on one product
        ("sandwich", 3, 3, 1),  # product H; left W and H; right H
        ("zero-infinite", 3, 3, 2),  # left W and H; right H; product H and W
        ("lemma-8c", 1, 1, 1),
    ],
)
def test_suites_solve_what_they_check_on_one_instance_per_question(
    monkeypatch, name, builds, integer, fractional
):
    from fracmeasure import optimizer

    calls = {"build": 0, "solve_integer": 0, "solve_fractional": 0}

    def count(attr, key):
        orig = getattr(optimizer, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(optimizer, attr, wrapper)

    count("build_cover_instance", "build")
    count("build_product_cover_instance", "build")
    count("solve_integer", "solve_integer")
    count("solve_fractional", "solve_fractional")
    report = run_suite(name, count=4, seed=2)
    assert report.passed and report.cases == 4
    per_case = {"build": builds, "solve_integer": integer, "solve_fractional": fractional}
    assert calls == {key: n * report.cases for key, n in per_case.items()}


def _two_quantile_delta(rng, space):
    """``verify._draw_delta`` as it was written first: one ``np.quantile`` call per level."""
    pos = space.dist[space.dist > 0.0]
    options = [
        space.epsilon_net,
        float(np.quantile(pos, 0.3)),
        float(np.quantile(pos, 0.7)),
        float(pos.max()),
    ]
    return max(space.epsilon_net, float(rng.choice(options)))


@pytest.mark.parametrize("seed", range(6))
def test_drawn_deltas_equal_the_two_quantile_form_bit_for_bit(monkeypatch, seed):
    draw = verify._draw_delta
    drawn = []

    def checked(rng, space):
        want = _two_quantile_delta(copy.deepcopy(rng), space)
        got = draw(rng, space)
        assert got.hex() == want.hex()
        drawn.append(got)
        return got

    monkeypatch.setattr(verify, "_draw_delta", checked)
    verify.build_mixed_corpus(seed, 60)
    verify.build_product_corpus(seed, 30)
    verify._doubling_corpus(seed, 40)
    assert len(drawn) == 60 + 2 * 30 + 40
