import pytest

from fracmeasure import CHECK_TOL, SOLVER_TOL, SUITE_NAMES, run_suite
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
