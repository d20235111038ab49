"""Exact integer arithmetic helpers: square roots and 3-vectors.

Everything here works on arbitrary-precision Python integers; nothing ever
goes through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
