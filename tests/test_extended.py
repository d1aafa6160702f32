import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmeasure import INF, xdiv, xmul, xpow
from fracmeasure.extended import xdiv_array, xpow_array


def test_xmul_zero_absorbs_infinity():
    assert xmul(0.0, INF) == 0.0
    assert xmul(INF, 0.0) == 0.0
    assert xmul(0.0, 0.0) == 0.0


def test_xmul_ordinary():
    assert xmul(2.0, 3.0) == 6.0
    assert xmul(INF, 2.0) == INF
    assert xmul(2.0, INF) == INF


def test_xpow_zero_base():
    assert xpow(0.0, -1.0) == INF
    assert xpow(0.0, 0.0) == INF
    assert xpow(0.0, 0.5) == 0.0
    assert xpow(0.0, 2.0) == 0.0


def test_xpow_positive_base():
    assert xpow(4.0, 0.5) == 2.0
    assert xpow(3.0, 0.0) == 1.0
    assert xpow(2.0, -1.0) == 0.5


def test_xdiv_zero_denominator():
    assert xdiv(1.0, 0.0) == INF
    assert xdiv(0.0, 0.0) == 0.0


def test_xdiv_infinite_denominator():
    assert xdiv(1.0, INF) == 0.0
    assert xdiv(INF, INF) == INF


def test_xdiv_ordinary():
    assert xdiv(6.0, 3.0) == 2.0


def test_xdiv_array_is_xdiv_elementwise():
    values = [0.0, 1e-9, 0.3, 1.0, 7.5, 1e9, INF]
    num, den = (a.ravel() for a in np.meshgrid(values, values))
    expected = [xdiv(a, b) for a, b in zip(num.tolist(), den.tolist())]
    assert xdiv_array(num, den).tolist() == expected


def test_xpow_array_is_xpow_elementwise():
    bases = [0.0, 1e-9, 0.3, 1.0, 7.5, 1e9]
    for q in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.log(2.0) / math.log(3.0)):
        got = xpow_array(np.array(bases), q).tolist()
        want = [xpow(b, q) for b in bases]
        assert got[0] == want[0] == (INF if q <= 0.0 else 0.0)
        # numpy's power may differ from Python's in the last bit
        assert all(math.isclose(g, w, rel_tol=5e-16) for g, w in zip(got, want)), (q, got, want)


@given(st.floats(min_value=1e-9, max_value=1e9))
def test_xmul_matches_product_on_positives(x):
    assert xmul(x, 2.0) == pytest.approx(2.0 * x)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_xpow_matches_pow_on_positives(base, q):
    assert xpow(base, q) == pytest.approx(math.pow(base, q))
