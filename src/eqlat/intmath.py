"""Exact integer arithmetic helpers: extended gcd, square roots, 3-vectors.

Everything here works on arbitrary-precision Python integers; nothing ever
goes through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def extended_gcd(x: int, y: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*x + t*y = g = gcd(x, y) > 0.

    Deterministic: the iterative Euclid below always yields the same
    certificate for the same inputs.  (0, 0) has no positive gcd and raises.
    """
    if x == 0 and y == 0:
        raise ValueError("extended_gcd(0, 0) is undefined")
    r0, r1 = x, y
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 < 0:
        r0, s0, t0 = -r0, -s0, -t0
    return r0, s0, t0


def sqrt_exact(n: int) -> int | None:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        raise ValueError("sqrt_exact of a negative number")
    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True, slots=True)
class Vec3:
    """Integer vector in Z^3 with exact dot and cross products."""

    x: int
    y: int
    z: int

    def dot(self, other: "Vec3") -> int:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self) -> int:
        return self.dot(self)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, k: int) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0
