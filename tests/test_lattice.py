import builtins
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eqlat import lattice
from eqlat.intmath import Vec3
from eqlat.lattice import (
    Triple,
    coordinates_in_basis,
    generators,
    membership,
    plane_basis,
    solve_in_plane,
)


def test_from_abc_canonicalizes():
    t = Triple.from_abc(13, -5, 7)
    assert t.abc() == (5, 7, 13) and t.d == 9


@pytest.mark.parametrize("abc", [(1, 1, 1), (1, 5, 7), (5, 13, 13), (1, 7, 25), (245, 613, 713)])
def test_from_abc_known(abc):
    t = Triple.from_abc(*abc)
    assert t.a**2 + t.b**2 + t.c**2 == 3 * t.d**2


@pytest.mark.parametrize("abc", [(1, 1, 2), (2, 3, 6), (1, 2, 3), (0, 1, 1)])
def test_from_abc_rejects(abc):
    with pytest.raises(ValueError):
        Triple.from_abc(*abc)


def test_triple_validation():
    with pytest.raises(ValueError, match="canonical order"):
        Triple(7, 5, 13, 9)
    with pytest.raises(ValueError, match="primitive"):
        Triple(5, 5, 5, 5)
    with pytest.raises(ValueError, match="3"):
        Triple(1, 1, 1, 2)


def test_generators_d9():
    t = Triple(5, 7, 13, 9)
    g = generators(t)
    assert g.u == Vec3(-7, 5, 0)
    assert g.v == Vec3(-13, 0, 5)
    assert g.w == Vec3(0, -13, 7)
    assert g.omega == 1
    assert g.bezout_k * 5 + g.bezout_l * 7 == 1
    assert 0 < g.bezout_k <= 7


def test_generators_shared_factor():
    # a and b share a factor, so u gets divided down
    t = Triple.from_abc(5, 13, 13)
    g = generators(t)
    assert g.omega == 1
    assert g.u == Vec3(-13, 5, 0)
    t2 = Triple.from_abc(11, 11, 25)  # omega = 11
    assert generators(t2).u == Vec3(-1, 1, 0)


def test_generators_rejects_wrong_bezout(monkeypatch):
    # the check must hold under python -O, so it may not be an assert
    def wrong_inverse(base, exp, mod):
        return builtins.pow(base, exp, mod) + 1

    monkeypatch.setattr(lattice, "pow", wrong_inverse, raising=False)
    with pytest.raises(RuntimeError, match="Bezout"):
        generators(Triple(5, 7, 13, 9))


def test_basis_d15():
    t = Triple(1, 7, 25, 15)
    basis = plane_basis(t)
    assert basis.u == Vec3(-7, 1, 0)
    assert basis.tau == Vec3(-25, 0, 1)


def triples_upto(d_max):
    from eqlat.frame import enumerate_triples

    out = []
    for d in range(1, d_max + 1, 2):
        out.extend(enumerate_triples(d))
    return out


@pytest.mark.parametrize("t", triples_upto(15))
def test_basis_spans_plane(t):
    basis = plane_basis(t)
    assert membership(basis.u, t) and membership(basis.tau, t)
    # u x tau equal to the primitive normal means (u, tau) is a full basis,
    # not a sublattice
    assert basis.u.cross(basis.tau) == t.normal()
    gens = generators(t)
    for vec in (gens.u, gens.v, gens.w):
        assert membership(vec, t)
        assert coordinates_in_basis(vec, basis, t) is not None


def reference_tau(t):
    """The paper's form tau = gcd(a,c)*k*v + gcd(b,c)*l*w."""
    g = generators(t)
    return g.v * (math.gcd(t.a, t.c) * g.bezout_k) + g.w * (math.gcd(t.b, t.c) * g.bezout_l)


def test_tau_matches_plane_basis():
    # the closed form (-k*c, -l*c, omega) against the paper's form
    for t in triples_upto(101):
        assert plane_basis(t).tau == generators(t).tau == reference_tau(t)


def test_u_no_longer_than_tau():
    # the oracle scans rows of fixed tau coordinate; |u| <= |tau| keeps them
    # within 2/sqrt(3) of the rows of fixed u coordinate
    equal = []
    for t in triples_upto(401):
        basis = plane_basis(t)
        u2, tau2 = basis.u.norm_sq(), basis.tau.norm_sq()
        assert u2 <= tau2, t.abc()
        if u2 == tau2:
            equal.append(t.abc())
    assert (1, 11, 11) in equal
    assert all(a == 1 and b == c for a, b, c in equal)


def test_coordinates_roundtrip():
    t = Triple(5, 7, 13, 9)
    basis = plane_basis(t)
    p = basis.u * 4 + basis.tau * -7
    assert coordinates_in_basis(p, basis, t) == (4, -7)


def test_coordinates_reject_off_plane():
    t = Triple(5, 7, 13, 9)
    basis = plane_basis(t)
    assert coordinates_in_basis(Vec3(1, 0, 0), basis, t) is None


def test_solve_in_plane_degenerate_pair():
    t = Triple(1, 1, 1, 1)
    u = Vec3(-1, 1, 0)
    with pytest.raises(ValueError, match="generator pair"):
        solve_in_plane(u, u, u * 3, t.normal())


def test_solve_in_plane_non_member():
    t = Triple(1, 1, 1, 1)
    basis = plane_basis(t)
    # on the plane but not an integer combination of a doubled basis
    assert solve_in_plane(basis.u, basis.u * 2, basis.tau, t.normal()) is None


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
def test_roundtrip_property(i, j):
    t = Triple(1, 7, 25, 15)
    basis = plane_basis(t)
    p = basis.u * i + basis.tau * j
    assert coordinates_in_basis(p, basis, t) == (i, j)


def reference_solve(target, b1, b2, normal):
    """solve_in_plane through Vec3 cross products and a Vec3 recomposition."""
    den = b1.cross(b2).dot(normal)
    x_num, y_num = target.cross(b2).dot(normal), b1.cross(target).dot(normal)
    if x_num % den != 0 or y_num % den != 0:
        return None
    x, y = x_num // den, y_num // den
    return (x, y) if b1 * x + b2 * y == target else None


small = st.integers(min_value=-3, max_value=3)


# targets off the plane (offset e with e.n != 0) and pairs spanning a
# sublattice of index k, so non-members of both kinds are common; an offset
# along the normal leaves both numerators unchanged, so only the
# recomposition check rejects it
@example(Triple(1, 1, 1, 1), 2, -3, Vec3(1, 1, 1), 1)
@given(
    st.sampled_from(triples_upto(45)),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.builds(Vec3, small, small, small),
    st.integers(min_value=1, max_value=3),
)
def test_solve_in_plane_equals_vector_reference(t, i, j, e, k):
    basis = plane_basis(t)
    b1, n = basis.u * k, t.normal()
    target = basis.u * i + basis.tau * j + e
    got = solve_in_plane(target, b1, basis.tau, n)
    assert got == reference_solve(target, b1, basis.tau, n)
    if e.dot(n) != 0:
        assert got is None
    elif e.is_zero() and i % k == 0:
        assert got == (i // k, j)
