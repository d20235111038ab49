"""Hexagonal frames: generators of the sublattice of equilateral vertices.

For a plane lattice with primitive normal (a, b, c), a^2+b^2+c^2 = 3*d^2, the
points that appear as vertices of equilateral triangles having one vertex at
the origin form a sublattice of index d.  It is spanned by a pair (e1, e2)
with

    |e1|^2 = |e2|^2 = 2*d^2,   e1.e2 = d^2,

so every equilateral triangle with a vertex at the origin is, up to lattice
symmetry, the triangle with the other two vertices

    P = m*e1 - n*e2,   Q = n*e1 + (m - n)*e2

for some integers (m, n) != (0, 0); its squared side is 2*d^2*(m^2 - m*n + n^2).

The pair is produced in closed form from a representation 2*q = s^2 + 3*r^2,
q = a^2 + b^2:

    e1 = ( -(r*a*c + d*b*s)/q,  (d*a*s - b*c*r)/q,  r )
    perp = ( (3*d*b*r - a*c*s)/q,  -(3*d*a*r + b*c*s)/q,  s )
    e2 = (e1 + perp) / 2

where perp is orthogonal to e1 with |perp|^2 = 6*d^2.  Any representation
making all entries integral works; the two smallest coordinates of the triple
play the (a, b) slots by default, and a role permutation can assign them
differently (all choices yield the same counts downstream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intmath import Vec3, sqrt_exact
from .lattice import BasisPair, Triple, membership, solve_in_plane

Roles = tuple[int, int, int]

IDENTITY_ROLES: Roles = (0, 1, 2)


@dataclass(frozen=True, slots=True)
class Frame:
    """Frame data for one triple under one role assignment.

    e1, e2 span the equilateral-vertex sublattice; perp = 2*e2 - e1.
    omega divides both r and s; r_red = r/omega and s_red = s/omega have
    equal parity.  roles records which triple coordinate filled each slot
    of the closed form.
    """

    triple: Triple
    roles: Roles
    r: int
    s: int
    q: int
    omega: int
    r_red: int
    s_red: int
    e1: Vec3
    e2: Vec3
    perp: Vec3


@dataclass(frozen=True, slots=True)
class AlphaBeta:
    """Coordinates of a plane basis in the frame.

    d * u   = ((r_red + s_red)/2) * e1 - r_red * e2
    d * tau = alpha * e1 + beta * e2   (tau sign-flipped when tau_sign = -1)

    normalized so that ((r_red + s_red)/2)*beta + r_red*alpha = +d.
    For the default role assignment r_red and s_red agree with the frame's.
    """

    alpha: int
    beta: int
    r_red: int
    s_red: int
    d: int
    tau_sign: int


def enumerate_triples(d: int) -> list[Triple]:
    """All canonical primitive triples with a^2 + b^2 + c^2 = 3*d^2, lex order.

    A quaternion q = w + x*i + y*j + z*k of norm d gives the Euler-Rodrigues
    matrix M_q, M_q M_q^T = d^2 I, so v = M_q (1, 1, 1) has |v|^2 = 3*d^2 and
    sorted |v| is a triple.  One q is visited per orbit of three moves that
    keep the triple:
    - q -> u*q, u in {+-1, +-i, +-j, +-k}, adds a half turn about an axis,
      which only signs v; some u moves the largest |coordinate| into w > 0;
    - conjugating by (1+i+j+k)/2 cycles (x, y, z), and v;
    - the half turn about (1, -1, 0) sends (x, y, z) to (-y, -x, -z), and v
      to a signed permutation of v.
    So w >= x >= y >= z >= 0 (4*w^2 >= d, z an exact root: O(d^1.5) steps),
    and every sign of (x, y, z) is tried.  g = gcd(w, x, y, z) multiplies v by
    g^2, so g > 1 is skipped.  Completeness, every primitive triple being some
    M_q (1, 1, 1), is not proved here: a slow test in tests/test_frame.py
    checks it against the O(d^2) search for every d <= 3001.  Even d has no
    triples (all three would be even), yet its quaternions are walked.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    found = set()
    for w in range(math.isqrt(d), math.isqrt(d // 4) - 1, -1):
        rest_w = d - w * w
        for x in range(min(w, math.isqrt(rest_w)), math.isqrt(rest_w // 3) - 1, -1):
            rest_x = rest_w - x * x
            for y in range(min(x, math.isqrt(rest_x)), math.isqrt(rest_x // 2) - 1, -1):
                yy = y * y
                z = math.isqrt(rest_x - yy)
                if z * z != rest_x - yy or math.gcd(w, x, y, z) != 1:
                    continue
                a1, a2, a3 = d - 2 * (yy + z * z), d - 2 * (x * x + z * z), d - 2 * (x * x + yy)
                for xs, ys in ((x, y), (-x, y), (x, -y), (-x, -y)):
                    # M_q (1, 1, 1) for +-z is v +- t: t holds the terms in z
                    v1, v2, v3 = a1 + 2 * (xs + w) * ys, a2 + 2 * (ys - w) * xs, a3 + 2 * w * (xs - ys)
                    t1, t2, t3 = 2 * z * (xs - w), 2 * z * (ys + w), 2 * z * (xs + ys)
                    for v in ((v1 + t1, v2 + t2, v3 + t3), (v1 - t1, v2 - t2, v3 - t3)):
                        if math.gcd(*v) == 1:
                            found.add(tuple(sorted(map(abs, v))))
    return [Triple(a, b, c, d) for a, b, c in sorted(found)]


def _role_values(t: Triple, roles: Roles) -> tuple[int, int, int]:
    abc = t.abc()
    if sorted(roles) != [0, 1, 2]:
        raise ValueError(f"roles {roles} is not a permutation of (0, 1, 2)")
    return abc[roles[0]], abc[roles[1]], abc[roles[2]]


def _permute_back(components: tuple[int, int, int], roles: Roles) -> Vec3:
    out = [0, 0, 0]
    for slot, coord in enumerate(roles):
        out[coord] = components[slot]
    return Vec3(*out)


def _frame_entries(
    av: int, bv: int, cv: int, d: int, q: int, r: int, s: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]] | None:
    """Slot components of (e1, perp) for candidate (r, s), or None if fractional."""
    z1 = -(r * av * cv + d * bv * s)
    z2 = d * av * s - bv * cv * r
    p1 = 3 * d * bv * r - av * cv * s
    p2 = -(3 * d * av * r + bv * cv * s)
    if z1 % q or z2 % q or p1 % q or p2 % q:
        return None
    e1 = (z1 // q, z2 // q, r)
    perp = (p1 // q, p2 // q, s)
    for ce, cp in zip(e1, perp):
        if (ce + cp) % 2:
            return None
    return e1, perp


def find_rs(t: Triple, roles: Roles = IDENTITY_ROLES) -> tuple[int, int]:
    """Canonical representation 2*q = s^2 + 3*r^2 yielding an integral frame.

    Candidates with r = 0 are excluded: they can pass the integrality filter
    but make the basis equations degenerate.  Among the rest the choice is
    minimal |r|, then r > 0, then s > 0.  (s = 0 has no solutions at all.)
    """
    av, bv, cv = _role_values(t, roles)
    q = av * av + bv * bv
    two_q = 2 * q
    r_abs = 1
    while 3 * r_abs * r_abs <= two_q:
        s_abs = sqrt_exact(two_q - 3 * r_abs * r_abs)
        if s_abs is not None:
            for r in (r_abs, -r_abs):
                for s in (s_abs, -s_abs):
                    if _frame_entries(av, bv, cv, t.d, q, r, s) is not None:
                        return (r, s)
        r_abs += 1
    raise RuntimeError(f"no representation found for triple {t.abc()}")


def build_frame(t: Triple, roles: Roles = IDENTITY_ROLES, rs: tuple[int, int] | None = None) -> Frame:
    """Construct the frame for a triple; rs overrides the canonical search."""
    av, bv, cv = _role_values(t, roles)
    q = av * av + bv * bv
    if rs is None:
        rs = find_rs(t, roles)
    r, s = rs
    if s * s + 3 * r * r != 2 * q:
        raise ValueError(f"(r, s) = {rs} is not a representation of 2*q = {2 * q}")
    entries = _frame_entries(av, bv, cv, t.d, q, r, s)
    if entries is None:
        raise ValueError(f"(r, s) = {rs} gives a fractional frame for {t.abc()}")
    e1 = _permute_back(entries[0], roles)
    perp = _permute_back(entries[1], roles)
    e2 = Vec3((e1.x + perp.x) // 2, (e1.y + perp.y) // 2, (e1.z + perp.z) // 2)
    # _frame_entries checked the parity, so 2*e2 - e1 == perp exactly
    failed = [k for k, ok in check_frame_vectors(t, e1, e2).items() if not ok]
    if failed:
        raise RuntimeError(f"frame for {t.abc()}: invariant check failed: {', '.join(failed)}")
    omega = math.gcd(av, bv)
    # r and s are forced to be multiples of omega with quotients of equal
    # parity; d*u having integer frame coordinates guarantees it
    if r % omega != 0 or s % omega != 0:
        raise RuntimeError(f"frame for {t.abc()}: (r, s) not multiples of omega = {omega}")
    r_red, s_red = r // omega, s // omega
    if (r_red - s_red) % 2 != 0:
        raise RuntimeError(f"frame for {t.abc()}: r_red and s_red of unequal parity")
    return Frame(
        triple=t,
        roles=roles,
        r=r,
        s=s,
        q=q,
        omega=omega,
        r_red=r_red,
        s_red=s_red,
        e1=e1,
        e2=e2,
        perp=perp,
    )


def equal_pair_frame(t: Triple) -> Frame:
    """Closed-form frame for triples with two equal coordinates.

    The equal pair fills the (a, b) slots, where (r, s) = (a, a) always gives
    an integral frame: e1 = (-(d+c)/2, (d-c)/2, a) in slot coordinates.
    Here r_red = s_red = 1.
    """
    if t.a == t.b:
        roles: Roles = (0, 1, 2)
        equal = t.a
    elif t.b == t.c:
        roles = (1, 2, 0)
        equal = t.b
    else:
        raise ValueError(f"triple {t.abc()} has no equal pair of coordinates")
    return build_frame(t, roles=roles, rs=(equal, equal))


def check_frame_vectors(t: Triple, e1: Vec3, e2: Vec3) -> dict[str, bool]:
    """Validate a claimed frame pair; all True means it spans the sublattice."""
    d = t.d
    perp = 2 * e2 - e1
    return {
        "e1_on_plane": membership(e1, t),
        "e2_on_plane": membership(e2, t),
        "e1_norm_2d2": e1.norm_sq() == 2 * d * d,
        "perp_norm_6d2": perp.norm_sq() == 6 * d * d,
        "orthogonal": e1.dot(perp) == 0,
    }


def sublattice_coords(f: Frame, p: Vec3) -> tuple[int, int]:
    """Integer (x, y) with d*p = x*e1 + y*e2; any plane lattice point has one."""
    coords = solve_in_plane(p * f.triple.d, f.e1, f.e2, f.triple.normal())
    if coords is None:
        raise RuntimeError(f"frame/basis mismatch: {p.as_tuple()} not in the plane lattice")
    return coords


def solve_alpha_beta(f: Frame, basis: BasisPair) -> AlphaBeta:
    """Express the basis in the frame and normalize signs.

    Solves d*u and d*tau exactly in (e1, e2).  The u row fixes (r_red, s_red)
    so the result stays valid under any role assignment; the determinant of
    the two rows is +-d, and tau's representation is negated when needed to
    land on +d.
    """
    d = f.triple.d
    p, h = sublattice_coords(f, basis.u)
    r_red, s_red = -h, 2 * p + h
    if f.roles == IDENTITY_ROLES and (r_red, s_red) != (f.r_red, f.s_red):
        raise RuntimeError(
            f"basis gives (r_red, s_red) = {(r_red, s_red)}, frame has {(f.r_red, f.s_red)}"
        )
    alpha, beta = sublattice_coords(f, basis.tau)
    dio = p * beta - h * alpha
    if dio == d:
        tau_sign = 1
    elif dio == -d:
        alpha, beta, tau_sign = -alpha, -beta, -1
    else:
        raise RuntimeError(f"frame/basis mismatch: determinant {dio} is not +-{d}")
    return AlphaBeta(alpha=alpha, beta=beta, r_red=r_red, s_red=s_red, d=d, tau_sign=tau_sign)


def triangle_vertices(f: Frame, m: int, n: int) -> tuple[Vec3, Vec3]:
    """Nonzero vertices (P, Q) of the (m, n) equilateral triangle at the origin."""
    if m == 0 and n == 0:
        raise ValueError("degenerate triangle: (m, n) = (0, 0)")
    p = f.e1 * m - f.e2 * n
    q = f.e1 * n + f.e2 * (m - n)
    return p, q


def aeqb_generate(k: int, l: int) -> list[Triple]:
    """Triples with an equal pair, from odd k and positive l, gcd(k, l) = 1.

    d = 2*l^2 + k^2.  Two sign branches exist; each applies when its ratio
    condition mod 3 holds, and both may:

        k != l (mod 3):   a = |2*l^2 + 2*k*l - k^2|,  c = |k^2 + 4*k*l - 2*l^2|
        k != -l (mod 3):  a = |2*l^2 - 2*k*l - k^2|,  c = |k^2 - 4*k*l - 2*l^2|

    Results are canonicalized (sorted, divided by any common factor) and
    deduplicated, so the list has one or two triples.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("not a valid generator pair: k must be a positive odd integer")
    if l < 1:
        raise ValueError("not a valid generator pair: l must be a positive integer")
    if math.gcd(k, l) != 1:
        raise ValueError("not a valid generator pair: k and l must be coprime")
    d = 2 * l * l + k * k
    branches = []
    if (k - l) % 3 != 0:
        branches.append((abs(2 * l * l + 2 * k * l - k * k), abs(k * k + 4 * k * l - 2 * l * l)))
    if (k + l) % 3 != 0:
        branches.append((abs(2 * l * l - 2 * k * l - k * k), abs(k * k - 4 * k * l - 2 * l * l)))
    out: list[Triple] = []
    for a, c in branches:
        g = math.gcd(a, c)
        t = Triple.from_abc(a // g, a // g, c // g)
        if t.d != d:
            raise RuntimeError(f"branch output {t.abc()} has d = {t.d}, expected {d}")
        if all(t.abc() != seen.abc() for seen in out):
            out.append(t)
    return out


def rs_structure(f: Frame) -> dict:
    """Diagnostic on the shape of (r, s): r = r'*omega*chi, s = s'*omega*chi.

    chi is the contribution of primes congruent to 5 mod 6 in gcd(d, q).
    The factorization holds for the intended canonical choice; the search can
    legitimately land on other representations, so this reports rather than
    enforces.
    """
    g = math.gcd(f.triple.d, f.q)
    chi = 1
    rem = g
    p = 2
    while p * p <= rem:
        while rem % p == 0:
            if p % 6 == 5:
                chi *= p
            rem //= p
        p += 1
    if rem > 1 and rem % 6 == 5:
        chi *= rem
    unit = f.omega * chi
    divides = f.r % unit == 0 and f.s % unit == 0
    cofactors_coprime = math.gcd(f.r // unit, f.s // unit) == 1 if divides else False
    return {
        "omega": f.omega,
        "chi": chi,
        "divides": divides,
        "cofactors_coprime": cofactors_coprime,
    }
