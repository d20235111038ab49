import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqlat.intmath import Vec3, sqrt_exact

ints = st.integers(min_value=-10**9, max_value=10**9)


@pytest.mark.parametrize(
    "x,y,g",
    [(0, -3, 3), (-5, 19, 1), (561, 31, 1), (0, 0, 0), (12, 18, 6), (-4, -6, 2)],
)
def test_gcd_nonneg(x, y, g):
    """The closed forms call math.gcd and rely on this sign convention."""
    assert math.gcd(x, y) == g


@pytest.mark.parametrize("n,r", [(0, 0), (1, 1), (25, 5), (97, None), (674, None), (675, None)])
def test_sqrt_exact(n, r):
    assert sqrt_exact(n) == r


def test_sqrt_exact_negative():
    with pytest.raises(ValueError):
        sqrt_exact(-1)


@given(st.integers(min_value=0, max_value=10**12))
def test_sqrt_exact_squares(n):
    assert sqrt_exact(n * n) == n
    if n >= 1:
        assert sqrt_exact(n * n + 1) is None or n * n + 1 == (n + 1) ** 2


vecs = st.builds(Vec3, ints, ints, ints)


@given(vecs, vecs)
def test_cross_properties(u, v):
    c = u.cross(v)
    assert c.dot(u) == 0 and c.dot(v) == 0
    assert v.cross(u) == -c


@given(vecs)
def test_norm_nonnegative(v):
    assert v.norm_sq() >= 0
    assert (v.norm_sq() == 0) == v.is_zero()


def test_vec_algebra():
    u = Vec3(1, 2, 3)
    v = Vec3(-1, 0, 4)
    assert u + v == Vec3(0, 2, 7)
    assert u - v == Vec3(2, 2, -1)
    assert 3 * u == Vec3(3, 6, 9) == u * 3
    assert u.dot(v) == 11
    assert u.as_tuple() == (1, 2, 3)
