"""The plane lattice of integer points on a*x + b*y + c*z = 0.

A triangle-admitting plane is one whose primitive normal (a, b, c) satisfies
a^2 + b^2 + c^2 = 3*d^2 for an integer d.  This module builds the standard
integer generators of that plane lattice, a two-vector basis (u, tau), and
exact coordinates of lattice points in that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intmath import Vec3, sqrt_exact


@dataclass(frozen=True, slots=True)
class Triple:
    """Primitive normal (a, b, c) in canonical order with its radius d.

    Invariants: 0 < a <= b <= c, gcd(a, b, c) = 1, a^2 + b^2 + c^2 = 3*d^2.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if not (0 < self.a <= self.b <= self.c):
            raise ValueError(f"triple {self.abc()} not in canonical order 0 < a <= b <= c")
        if math.gcd(self.a, self.b, self.c) != 1:
            raise ValueError(f"triple {self.abc()} is not primitive")
        if self.a**2 + self.b**2 + self.c**2 != 3 * self.d**2:
            raise ValueError(f"triple {self.abc()} does not satisfy a^2+b^2+c^2 = 3*{self.d}^2")

    @classmethod
    def from_abc(cls, a: int, b: int, c: int) -> "Triple":
        """Canonicalize (a, b, c) and derive d; error if no valid d exists."""
        a, b, c = sorted((abs(a), abs(b), abs(c)))
        n = a * a + b * b + c * c
        if n % 3 != 0:
            raise ValueError(f"({a},{b},{c}): a^2+b^2+c^2 = {n} is not 3 times a square")
        d = sqrt_exact(n // 3)
        if d is None:
            raise ValueError(f"({a},{b},{c}): a^2+b^2+c^2 = {n} is not 3 times a square")
        return cls(a, b, c, d)

    def abc(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def normal(self) -> Vec3:
        return Vec3(self.a, self.b, self.c)


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """The three standard generators of the plane lattice and its basis.

    u = (-b, a, 0)/gcd(a,b),  v = (-c, 0, a)/gcd(a,c),  w = (0, -c, b)/gcd(b,c),
    plus the Bezout pair (k, l) with k*a + l*b = gcd(a, b) and k minimal positive.
    tau = gcd(a,c)*k*v + gcd(b,c)*l*w = (-k*c, -l*c, gcd(a,b)) is the second
    basis vector, and u x tau = (a, b, c).
    """

    u: Vec3
    v: Vec3
    w: Vec3
    omega: int
    bezout_k: int
    bezout_l: int
    tau: Vec3

    def basis(self) -> BasisPair:
        return BasisPair(u=self.u, tau=self.tau)


@dataclass(frozen=True, slots=True)
class BasisPair:
    """A two-vector integer basis (u, tau) of the plane lattice."""

    u: Vec3
    tau: Vec3


def generators(t: Triple) -> GeneratorSet:
    """Standard generators and the (u, tau) basis of the plane lattice.

    The certificate u x tau = (a, b, c) is checked here: the cross product
    of two lattice vectors is an integer multiple of the primitive normal,
    and the multiple is the index of the sublattice they span, so index 1
    proves that (u, tau) spans the whole plane lattice.
    """
    a, b, c = t.a, t.b, t.c
    omega = math.gcd(a, b)
    u = Vec3(-b // omega, a // omega, 0)
    gac = math.gcd(a, c)
    v = Vec3(-c // gac, 0, a // gac)
    gbc = math.gcd(b, c)
    w = Vec3(0, -c // gbc, b // gbc)
    # all Bezout k are the inverses of a/omega mod b/omega; pick the least
    # positive one
    step = b // omega
    k = pow(a // omega, -1, step) or step
    l = (omega - k * a) // b
    tau = Vec3(-k * c, -l * c, omega)
    cert = u.cross(tau)
    if cert != t.normal():
        raise RuntimeError(f"Bezout certificate u x tau = {cert.as_tuple()} != {t.abc()}")
    return GeneratorSet(u=u, v=v, w=w, omega=omega, bezout_k=k, bezout_l=l, tau=tau)


def plane_basis(t: Triple) -> BasisPair:
    """The (u, tau) basis of the triple's plane lattice, as certified by generators."""
    return generators(t).basis()


def membership(p: Vec3, t: Triple) -> bool:
    """Whether the integer point p lies on the plane a*x + b*y + c*z = 0."""
    return p.dot(t.normal()) == 0


def solve_in_plane(target: Vec3, b1: Vec3, b2: Vec3, normal: Vec3) -> tuple[int, int] | None:
    """Exact integer (x, y) with target = x*b1 + y*b2, or None.

    Works for any independent pair b1, b2 spanning the plane orthogonal to
    normal.  Divisions are checked for exactness and the recomposition is
    verified, so a non-member can never produce a bogus answer.
    """
    px, py, pz, ux, uy, uz = target.x, target.y, target.z, b1.x, b1.y, b1.z
    vx, vy, vz, nx, ny, nz = b2.x, b2.y, b2.z, normal.x, normal.y, normal.z
    # (b1 x b2).n, (target x b2).n and (b1 x target).n as dot products with
    # s = b2 x n and n x b1
    sx, sy, sz = vy * nz - vz * ny, vz * nx - vx * nz, vx * ny - vy * nx
    den = ux * sx + uy * sy + uz * sz
    if den == 0:
        raise ValueError("not a valid generator pair")
    x_num = px * sx + py * sy + pz * sz
    y_num = px * (ny * uz - nz * uy) + py * (nz * ux - nx * uz) + pz * (nx * uy - ny * ux)
    if x_num % den != 0 or y_num % den != 0:
        return None
    x, y = x_num // den, y_num // den
    if (ux * x + vx * y, uy * x + vy * y, uz * x + vz * y) != (px, py, pz):
        return None
    return (x, y)


def coordinates_in_basis(p: Vec3, basis: BasisPair, t: Triple) -> tuple[int, int] | None:
    """Exact (i, j) with p = i*u + j*tau, or None when p is not in the lattice."""
    if not membership(p, t):
        return None
    return solve_in_plane(p, basis.u, basis.tau, t.normal())
