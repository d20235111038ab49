import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqlat.ehrhart import (
    EhrhartPoly,
    SideDecomposition,
    c0_doubled,
    c1_aeqb,
    c1_general,
    ehrhart_from_frame,
    ehrhart_poly,
    frame_system,
    side_divisors,
)
from eqlat.frame import AlphaBeta, enumerate_triples
from eqlat.lattice import Triple


def all_triples(d_max):
    out = []
    for d in range(1, d_max + 1, 2):
        out.extend(enumerate_triples(d))
    return out


def test_evaluate_minimal_plane():
    # d = 1 triangle: L(t) = (t^2 + 3t)/2 + 1 counts the triangular layers
    p = ehrhart_poly(Triple(1, 1, 1, 1))
    assert (p.quad_num, p.lin_num) == (1, 3)
    assert [p.evaluate(t) for t in range(5)] == [1, 3, 6, 10, 15]


def test_evaluate_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        EhrhartPoly(1, 3).evaluate(-1)
    with pytest.raises(ValueError, match="malformed"):
        EhrhartPoly(1, 2).evaluate(1)


def test_render():
    assert EhrhartPoly(11, 13).render() == "(11t^2 + 13t)/2 + 1"


def test_side_decomposition():
    s = SideDecomposition(3, 11, 17)
    assert s.total() == 31
    assert s.interior_counts() == (2, 10, 16)
    assert s.interior_counts(t=2) == (5, 21, 33)


def test_c0_doubled():
    assert c0_doubled(9, 1, 0) == 9
    assert c0_doubled(9, 3, 1) == 63
    assert c0_doubled(11, 2, 1) == 33
    with pytest.raises(ValueError, match="degenerate"):
        c0_doubled(9, 0, 0)


def test_c1_known_polynomials():
    assert ehrhart_poly(Triple.from_abc(5, 7, 13)).lin_num == 5
    assert ehrhart_poly(Triple.from_abc(1, 11, 11)).lin_num == 11
    assert ehrhart_poly(Triple.from_abc(5, 13, 13)) == EhrhartPoly(11, 13)
    assert ehrhart_poly(Triple.from_abc(1, 1, 19)) == EhrhartPoly(11, 13)
    assert ehrhart_poly(Triple.from_abc(1, 7, 25)) == EhrhartPoly(15, 5)


def test_large_worked_example():
    t = Triple.from_abc(245, 613, 713)
    assert t.d == 561
    f, ab = frame_system(t)
    nus = side_divisors(f, ab, 1, 0)
    assert sorted(nus.interior_counts()) == [2, 10, 16]
    p = ehrhart_from_frame(f, ab, 1, 0)
    assert p == EhrhartPoly(561, 31)
    assert p.evaluate(1) == 297


@given(
    st.sampled_from(all_triples(41)),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=2, max_value=4),
)
def test_side_divisors_homogeneous(t, m, n, g):
    # every divisor is a gcd of forms linear in (m, n), so it scales with g
    if (m, n) == (0, 0):
        return
    f, ab = frame_system(t)
    nus = side_divisors(f, ab, m, n)
    assert side_divisors(f, ab, g * m, g * n) == SideDecomposition(
        g * nus.nu_op, g * nus.nu_pq, g * nus.nu_oq
    )
    with pytest.raises(ValueError, match="degenerate"):
        side_divisors(f, ab, 0, 0)


def test_side_divisors_frame_mismatch():
    f, _ = frame_system(Triple(1, 1, 1, 1))
    bogus = AlphaBeta(alpha=1, beta=0, r_red=1, s_red=1, d=5, tau_sign=1)
    with pytest.raises(ValueError, match="disagree"):
        side_divisors(f, bogus, 1, 0)


def c1_minimal(ab: AlphaBeta) -> int:
    """Boundary count of the minimal triangle, written in its direct form."""
    hs = (ab.r_red + ab.s_red) // 2
    hd = (ab.r_red - ab.s_red) // 2
    return (
        math.gcd(ab.r_red, ab.beta)
        + math.gcd(hs, ab.alpha)
        + math.gcd(hd, ab.alpha + ab.beta)
    )


@pytest.mark.parametrize("t", all_triples(41))
def test_minimal_form_matches_general(t):
    f, ab = frame_system(t)
    assert c1_minimal(ab) == c1_general(f, ab, 1, 0)


@pytest.mark.parametrize("t", all_triples(41))
def test_side_divisors_structure(t):
    # the three divisors of the minimal triangle are pairwise coprime
    # and each divides d, so their product divides d too
    f, ab = frame_system(t)
    nus = side_divisors(f, ab, 1, 0)
    trio = (nus.nu_op, nus.nu_pq, nus.nu_oq)
    for i in range(3):
        for j in range(i + 1, 3):
            assert math.gcd(trio[i], trio[j]) == 1
    for nu in trio:
        assert nu >= 1 and t.d % nu == 0
    assert t.d % (trio[0] * trio[1] * trio[2]) == 0


mn_pairs = [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (0, 1), (-1, 2), (5, 3)]


@pytest.mark.parametrize("t", all_triples(19))
@pytest.mark.parametrize("mn", mn_pairs)
def test_parity_invariant(t, mn):
    p = ehrhart_poly(t, *mn)
    assert (p.quad_num + p.lin_num) % 2 == 0


@pytest.mark.parametrize("t", [Triple.from_abc(1, 1, 5), Triple.from_abc(5, 13, 13), Triple.from_abc(1, 11, 11)])
@pytest.mark.parametrize("mn", mn_pairs)
def test_equal_pair_shortcut(t, mn):
    m, n = mn
    g = math.gcd(m, n)
    f, ab = frame_system(t)
    assert c1_general(f, ab, m // g, n // g) == c1_aeqb(t.d, m // g, n // g)


def test_c1_aeqb_values():
    assert c1_aeqb(11, 1, 0) == 13
    assert c1_aeqb(9, 1, 0) == 11
    assert c1_aeqb(3, 1, 1) == 5
    with pytest.raises(ValueError, match="degenerate"):
        c1_aeqb(9, 0, 0)


def test_non_coprime_dilation_identity():
    t = Triple.from_abc(245, 613, 713)
    p2 = ehrhart_poly(t, 2, 0)
    assert (p2.quad_num, p2.lin_num) == (2244, 62)
    assert p2.evaluate(1) == ehrhart_poly(t, 1, 0).evaluate(2) == 1154


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
def test_scaling_property(m, n, g):
    # the (g*m, g*n) triangle is the (m, n) triangle dilated g times
    if (m, n) == (0, 0) or math.gcd(m, n) != 1:
        return
    t = Triple(5, 7, 13, 9)
    f, ab = frame_system(t)
    base = ehrhart_from_frame(f, ab, m, n)
    scaled = ehrhart_from_frame(f, ab, g * m, g * n)
    for k in range(4):
        assert scaled.evaluate(k) == base.evaluate(g * k)


def test_degenerate_rejected():
    f, ab = frame_system(Triple(1, 1, 1, 1))
    with pytest.raises(ValueError, match="degenerate"):
        ehrhart_from_frame(f, ab, 0, 0)
