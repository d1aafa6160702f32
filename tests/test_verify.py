import pytest

from fracmeasure import SOLVER_TOL, SUITE_NAMES, run_suite
from fracmeasure.errors import SuiteUnknown


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


_FIXED_TOLERANCE_SUITES = {
    "wh-order",
    "subadd",
    "zero-infinite",
    "noncentered",
    "hxh",
    "density",
    "vitali",
    "besicovitch",
    "lemma-8c",
}


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "example-zero"])
def test_reports_state_the_tolerance_each_relation_applied(name):
    report = run_suite(name, count=2, seed=5, check_tol=3e-8)
    assert report.tolerances
    assert report.applies_check_tol == (name not in _FIXED_TOLERANCE_SUITES)
    for tol in report.tolerances:
        if tol.configured:
            assert tol.tol == 3e-8
        else:
            assert tol.tol in (SOLVER_TOL, 0.0)
