import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqlat import frame
from eqlat.frame import (
    aeqb_generate,
    build_frame,
    check_frame_vectors,
    enumerate_triples,
    find_rs,
    rs_structure,
    solve_alpha_beta,
    sublattice_coords,
    triangle_vertices,
)
from eqlat.intmath import Vec3
from eqlat.lattice import BasisPair, Triple, plane_basis


def all_triples(d_max):
    out = []
    for d in range(1, d_max + 1, 2):
        out.extend(enumerate_triples(d))
    return out


def test_enumerate_small():
    assert [t.abc() for t in enumerate_triples(1)] == [(1, 1, 1)]
    assert [t.abc() for t in enumerate_triples(3)] == [(1, 1, 5)]
    assert [t.abc() for t in enumerate_triples(9)] == [(1, 11, 11), (5, 7, 13)]
    assert [t.abc() for t in enumerate_triples(11)] == [(1, 1, 19), (5, 7, 17), (5, 13, 13)]
    assert [t.abc() for t in enumerate_triples(15)] == [(1, 7, 25), (5, 11, 23), (5, 17, 19)]


@pytest.mark.parametrize("d", [2, 4, 10, 40])
def test_no_triples_for_even_d(d):
    # a^2+b^2+c^2 = 3*d^2 has no primitive solutions when d is even
    assert enumerate_triples(d) == []


def reference_triples(d):
    """Every canonical primitive triple of radius d by the O(d^2) search, even d too."""
    target = 3 * d * d
    out = []
    for a in range(1, math.isqrt(target // 3) + 1):
        for b in range(a, math.isqrt((target - a * a) // 2) + 1):
            rest = target - a * a - b * b
            c = math.isqrt(rest)
            if c * c == rest and c >= b and math.gcd(a, b, c) == 1:
                out.append((a, b, c))
    return out


def mod6_triples(d):
    """The O(d^2) search over a, b = 1 or 5 (mod 6) only: 1/9 of the pairs.

    Mod 4: squares are 0 or 1, and 3*d^2 is 0 (d even) or 3 (d odd), so a,
    b, c are all even (not primitive) or all odd.  Mod 3: squares are 0 or 1
    and 3*d^2 is 0, so a, b, c are all multiples of 3 (not primitive) or
    none is.  So every coordinate of a primitive triple is 1 or 5 (mod 6);
    a and b step through that class with steps alternating 4 and 2.
    """
    target = 3 * d * d
    out = []
    a, a_step = 1, 4
    while 3 * a * a <= target:
        b, b_step = a, a_step
        while a * a + 2 * b * b <= target:
            c = math.isqrt(target - a * a - b * b)
            if c * c == target - a * a - b * b and c >= b and math.gcd(a, b, c) == 1:
                out.append((a, b, c))
            b += b_step
            b_step = 6 - b_step
        a += a_step
        a_step = 6 - a_step
    return out


def test_enumerate_matches_reference_search():
    for d in range(1, 202):
        expected = reference_triples(d)
        assert mod6_triples(d) == expected, f"d={d}"
        assert [t.abc() for t in enumerate_triples(d)] == expected, f"d={d}"
        if d % 2 == 0:
            assert expected == [], f"d={d}"


def test_primitive_coordinates_are_plus_minus_one_mod_6():
    # the lemma mod6_triples stands on, checked on the full search;
    # enumerate_triples does not use it
    for d in range(1, 202):
        for abc in reference_triples(d):
            assert all(x % 6 in (1, 5) for x in abc), f"d={d} {abc}"


@pytest.mark.parametrize("d", [999, 1001, 1155])
def test_enumerate_matches_reference_at_large_radii(d):
    # 1155 = 3*5*7*11: every small odd prime divides d
    expected = reference_triples(d)
    assert mod6_triples(d) == expected
    assert [t.abc() for t in enumerate_triples(d)] == expected


def test_enumerate_matches_mod6_search():
    for d in range(1, 602):
        assert [t.abc() for t in enumerate_triples(d)] == mod6_triples(d), f"d={d}"


@pytest.mark.slow
def test_enumerate_matches_mod6_search_to_3001():
    # the completeness of the quaternion enumeration, checked exhaustively
    for d in range(1, 3002):
        assert [t.abc() for t in enumerate_triples(d)] == mod6_triples(d), f"d={d}"


def quat_mul(p, q):
    """Hamilton product of quaternions given as (w, x, y, z)."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def rotation(q):
    """Euler-Rodrigues matrix of q, scaled by its norm: no division."""
    w, x, y, z = q
    return (
        (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z),
    )


def quat_triple(q):
    """M_q (1, 1, 1), canonicalized: absolute values, sorted."""
    return tuple(sorted(abs(sum(row)) for row in rotation(q)))


UNITS = [tuple(sign * (j == k) for j in range(4)) for k in range(4) for sign in (1, -1)]

quaternions = st.tuples(*[st.integers(min_value=-22, max_value=22)] * 4).filter(
    lambda q: 0 < sum(c * c for c in q) <= 500
)


@given(quaternions)
def test_rotation_is_norm_times_orthogonal(q):
    m = rotation(q)
    n = sum(c * c for c in q)
    for i in range(3):
        for j in range(3):
            assert sum(m[i][k] * m[j][k] for k in range(3)) == (n * n if i == j else 0)


@given(quaternions)
def test_quaternion_triple_is_kept_by_the_orbit_moves(q):
    w, x, y, z = q
    v = quat_triple(q)
    assert sum(c * c for c in v) == 3 * sum(c * c for c in q) ** 2
    # left multiplication by a unit permutes and signs q's coordinates
    for u in UNITS:
        assert quat_triple(quat_mul(u, q)) == v
    # conjugation by (1+i+j+k)/2 is the cyclic shift of (x, y, z) ...
    omega, omega_bar = (1, 1, 1, 1), (1, -1, -1, -1)
    cycled = tuple(c // 4 for c in quat_mul(quat_mul(omega, q), omega_bar))
    assert cycled == (w, z, x, y)
    assert quat_triple(cycled) == v
    # ... and conjugation by (i - j)/sqrt(2), the half turn about (1, -1, 0),
    # sends (x, y, z) to (-y, -x, -z)
    h, h_bar = (0, 1, -1, 0), (0, -1, 1, 0)
    turned = tuple(c // 2 for c in quat_mul(quat_mul(h, q), h_bar))
    assert turned == (w, -y, -x, -z)
    assert quat_triple(turned) == v


@given(quaternions)
def test_primitive_quaternion_triple_is_enumerated(q):
    v = quat_triple(q)
    if math.gcd(*v) == 1:
        assert v in [t.abc() for t in enumerate_triples(sum(c * c for c in q))]


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_triples(0)


def test_find_rs_known():
    assert find_rs(Triple(1, 1, 1, 1)) == (1, 1)
    assert find_rs(Triple(5, 7, 13, 9)) == (3, 11)
    assert find_rs(Triple(1, 7, 25, 15)) == (5, 5)


def test_frame_d1():
    f = build_frame(Triple(1, 1, 1, 1))
    assert f.e1 == Vec3(-1, 0, 1)
    assert f.perp == Vec3(1, -2, 1)
    assert f.e2 == Vec3(0, -1, 1)
    assert (f.omega, f.r_red, f.s_red) == (1, 1, 1)


def test_frame_d15_canonical():
    f = build_frame(Triple(1, 7, 25, 15))
    assert (f.r, f.s) == (5, 5)
    assert f.e1 == Vec3(-13, -16, 5)
    assert f.e2 == Vec3(8, -19, 5)


def test_frame_d15_alternative_rs():
    # a different admissible representation gives a different, equally valid frame
    f = build_frame(Triple(1, 7, 25, 15), rs=(-5, 5))
    assert f.e1 == Vec3(-8, 19, -5)
    assert f.perp == Vec3(-34, -13, 5)
    assert f.e2 == Vec3(-21, 3, 0)
    checks = check_frame_vectors(f.triple, f.e1, f.e2)
    assert all(checks.values())


def test_build_frame_rejects_non_representation():
    with pytest.raises(ValueError, match="not a representation"):
        build_frame(Triple(1, 7, 25, 15), rs=(1, 7))


def test_build_frame_rejects_fractional():
    # (4, 10) solves s^2 + 3*r^2 = 2*q for q = 74 but the entries are not integers
    with pytest.raises(ValueError, match="fractional"):
        build_frame(Triple(5, 7, 13, 9), rs=(4, 10))


def test_build_frame_accepts_larger_representation():
    # (7, 1) also works for (5, 7, 13); the canonical search just prefers |r| = 3
    f = build_frame(Triple(5, 7, 13, 9), rs=(7, 1))
    assert f.e1 == Vec3(-7, -8, 7)
    assert all(check_frame_vectors(f.triple, f.e1, f.e2).values())


def test_build_frame_raises_on_failed_frame_check(monkeypatch):
    # shifting e1 by 2 keeps the parity of e1 + perp but breaks e1's norm
    real = frame._frame_entries

    def shifted(*args):
        (x, y, z), perp = real(*args)
        return (x + 2, y, z), perp

    monkeypatch.setattr(frame, "_frame_entries", shifted)
    with pytest.raises(RuntimeError, match="e1_norm_2d2"):
        build_frame(Triple(5, 7, 13, 9), rs=(3, 11))


@pytest.mark.parametrize("t", all_triples(21))
def test_frame_invariants(t):
    f = build_frame(t)
    d = t.d
    assert f.e1.norm_sq() == 2 * d * d
    assert f.e2.norm_sq() == 2 * d * d
    assert f.e1.dot(f.e2) == d * d
    assert f.perp == 2 * f.e2 - f.e1
    # the frame spans an index-d sublattice of the plane lattice
    assert f.e1.cross(f.e2).norm_sq() == 3 * d**4
    assert all(check_frame_vectors(t, f.e1, f.e2).values())


@pytest.mark.parametrize("t", all_triples(21))
def test_alpha_beta_identity(t):
    f = build_frame(t)
    ab = solve_alpha_beta(f, plane_basis(t))
    hs = (ab.r_red + ab.s_red) // 2
    assert hs * ab.beta + ab.r_red * ab.alpha == t.d
    assert ab.tau_sign in (1, -1)
    # reconstruct both basis rows from the recorded coordinates
    basis = plane_basis(t)
    assert basis.u * t.d == f.e1 * hs - f.e2 * ab.r_red
    assert basis.tau * (t.d * ab.tau_sign) == f.e1 * ab.alpha + f.e2 * ab.beta


def test_alpha_beta_d15():
    t = Triple(1, 7, 25, 15)
    ab = solve_alpha_beta(build_frame(t), plane_basis(t))
    assert (ab.alpha, ab.beta) == (19, -16)
    ab2 = solve_alpha_beta(build_frame(t, rs=(-5, 5)), plane_basis(t))
    assert (ab2.alpha, ab2.beta, ab2.tau_sign) == (-3, 19, 1)


def test_alpha_beta_d1():
    t = Triple(1, 1, 1, 1)
    ab = solve_alpha_beta(build_frame(t), plane_basis(t))
    assert (ab.alpha, ab.beta) == (1, 0)


def test_solve_alpha_beta_rejects_frame_mismatch():
    t = Triple(1, 7, 25, 15)
    f = build_frame(t)
    flipped = dataclasses.replace(f, r_red=-f.r_red, s_red=-f.s_red)
    with pytest.raises(RuntimeError, match="basis gives"):
        solve_alpha_beta(flipped, plane_basis(t))


def test_solve_alpha_beta_rejects_wrong_determinant():
    t = Triple(1, 7, 25, 15)
    basis = plane_basis(t)
    with pytest.raises(RuntimeError, match="determinant 30 is not"):
        solve_alpha_beta(build_frame(t), BasisPair(basis.u, 2 * basis.tau))


def test_sublattice_coords_rejects_off_plane():
    f = build_frame(Triple(1, 1, 1, 1))
    with pytest.raises(RuntimeError, match="mismatch"):
        sublattice_coords(f, Vec3(1, 0, 0))


def test_equal_pair_frame():
    # (r, s) = (a, a) always gives an integral frame when a == b
    triples = {
        t.abc(): t
        for k in range(1, 10, 2)
        for l in range(1, 10)
        if math.gcd(k, l) == 1
        for t in aeqb_generate(k, l)
        if t.a == t.b
    }
    assert len(triples) == 36
    for t in triples.values():
        f = build_frame(t, rs=(t.a, t.a))
        assert (f.r_red, f.s_red) == (1, 1), t.abc()
        assert all(check_frame_vectors(t, f.e1, f.e2).values()), t.abc()


def test_triangle_vertices():
    f = build_frame(Triple(5, 7, 13, 9))
    p, q = triangle_vertices(f, 3, 1)
    m2 = 9 - 3 + 1
    assert p.norm_sq() == q.norm_sq() == (p - q).norm_sq() == 2 * 81 * m2
    with pytest.raises(ValueError, match="degenerate"):
        triangle_vertices(f, 0, 0)


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_triangle_always_equilateral(m, n):
    if (m, n) == (0, 0):
        return
    f = build_frame(Triple(1, 7, 25, 15))
    p, q = triangle_vertices(f, m, n)
    assert p.norm_sq() == q.norm_sq() == (p - q).norm_sq()


def test_aeqb_generate_small():
    assert [t.abc() for t in aeqb_generate(1, 1)] == [(1, 1, 5)]
    assert [t.abc() for t in aeqb_generate(3, 1)] == [(1, 1, 19), (5, 13, 13)]


def test_aeqb_generate_collision():
    # both branches land on d = 2011, producing two distinct triples
    triples = aeqb_generate(43, 9)
    assert [t.abc() for t in triples] == [(913, 913, 3235), (139, 2461, 2461)]
    assert all(t.d == 2011 for t in triples)


@pytest.mark.parametrize("k,l", [(2, 1), (0, 1), (-1, 1), (1, 0), (3, 3)])
def test_aeqb_generate_rejects(k, l):
    with pytest.raises(ValueError):
        aeqb_generate(k, l)


@given(st.integers(min_value=1, max_value=15), st.integers(min_value=1, max_value=15))
def test_aeqb_generate_property(k, l):
    from math import gcd

    if k % 2 == 0 or gcd(k, l) != 1:
        return
    triples = aeqb_generate(k, l)
    assert 1 <= len(triples) <= 2
    for t in triples:
        assert t.a == t.b or t.b == t.c
        assert t.d == 2 * l * l + k * k


def test_rs_structure():
    info = rs_structure(build_frame(Triple(5, 7, 13, 9)))
    assert info == {"omega": 1, "chi": 1, "divides": True, "cofactors_coprime": True}
    info15 = rs_structure(build_frame(Triple(1, 7, 25, 15)))
    assert info15["chi"] == 5 and info15["divides"]
    # 5^2 divides gcd(d, q) = 25, so the prime 5 is found inside the trial
    # loop; this frame is one of the representations chi does not divide
    info25 = rs_structure(build_frame(Triple(11, 23, 35, 25)))
    assert info25 == {"omega": 1, "chi": 25, "divides": False, "cofactors_coprime": False}
