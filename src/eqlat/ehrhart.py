"""Closed-form Ehrhart data for equilateral lattice triangles.

The counting polynomial of the (m, n) triangle is

    L(t) = (A*t^2 + B*t)/2 + 1

with A = d*(m^2 - m*n + n^2) twice the quadratic coefficient and B the number
of boundary points at t = 1.  B splits into one gcd per side, each computed
from the frame coordinates (r_red, s_red, alpha, beta) of the plane basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frame import AlphaBeta, Frame, build_frame, solve_alpha_beta
from .lattice import Triple, plane_basis


@dataclass(frozen=True, slots=True)
class EhrhartPoly:
    """Counting polynomial (quad_num*t^2 + lin_num*t)/2 + 1 with integer halves."""

    quad_num: int
    lin_num: int

    def evaluate(self, t: int) -> int:
        if t < 0:
            raise ValueError("dilation must be nonnegative")
        if (self.quad_num + self.lin_num) % 2:
            raise ValueError(f"malformed polynomial ({self.quad_num}, {self.lin_num}): odd sum")
        return (self.quad_num * t * t + self.lin_num * t) // 2 + 1

    def render(self) -> str:
        return f"({self.quad_num}t^2 + {self.lin_num}t)/2 + 1"


@dataclass(frozen=True, slots=True)
class SideDecomposition:
    """Per-side divisors: side S has nu_S * t - 1 interior lattice points."""

    nu_op: int
    nu_pq: int
    nu_oq: int

    def total(self) -> int:
        return self.nu_op + self.nu_pq + self.nu_oq

    def interior_counts(self, t: int = 1) -> tuple[int, int, int]:
        return (self.nu_op * t - 1, self.nu_pq * t - 1, self.nu_oq * t - 1)


def c0_doubled(d: int, m: int, n: int) -> int:
    """Twice the quadratic coefficient: d*(m^2 - m*n + n^2)."""
    if m == 0 and n == 0:
        raise ValueError("degenerate triangle: (m, n) = (0, 0)")
    return d * (m * m - m * n + n * n)


def side_divisors(f: Frame, ab: AlphaBeta, m: int, n: int) -> SideDecomposition:
    """One gcd per side of the (m, n) triangle.

    Each gcd is of expressions linear in (m, n), so the divisors of
    (g*m, g*n) are g times those of (m, n).
    """
    if m == 0 and n == 0:
        raise ValueError("degenerate triangle: (m, n) = (0, 0)")
    if ab.d != f.triple.d:
        raise ValueError("frame and basis data disagree")
    hs = (ab.r_red + ab.s_red) // 2
    hd = (ab.r_red - ab.s_red) // 2
    alpha, beta = ab.alpha, ab.beta
    nu_op = math.gcd(m * ab.r_red - n * hs, m * beta + n * alpha)
    nu_pq = math.gcd(-m * hd + n * ab.r_red, m * (alpha + beta) - n * beta)
    nu_oq = math.gcd(m * hs + n * hd, m * alpha - n * (alpha + beta))
    return SideDecomposition(nu_op=nu_op, nu_pq=nu_pq, nu_oq=nu_oq)


def c1_general(f: Frame, ab: AlphaBeta, m: int, n: int) -> int:
    """Boundary count at t = 1 for the (m, n) triangle."""
    return side_divisors(f, ab, m, n).total()


def c1_aeqb(d: int, m: int, n: int) -> int:
    """Boundary count shortcut for triples with an equal coordinate pair."""
    if m == 0 and n == 0:
        raise ValueError("degenerate triangle: (m, n) = (0, 0)")
    return math.gcd(m, d) + math.gcd(n, d) + math.gcd(m - n, d)


def frame_system(t: Triple) -> tuple[Frame, AlphaBeta]:
    """Canonical frame plus basis coordinates, the inputs every formula needs."""
    f = build_frame(t)
    ab = solve_alpha_beta(f, plane_basis(t))
    return f, ab


def ehrhart_from_frame(f: Frame, ab: AlphaBeta, m: int, n: int) -> EhrhartPoly:
    """Polynomial of the (m, n) triangle given precomputed frame data."""
    d = f.triple.d
    c1 = c1_general(f, ab, m, n)
    t = f.triple
    if t.a == t.b or t.b == t.c:
        # the shortcut and the general formula must agree on equal-pair
        # triples; the shortcut holds for coprime pairs only
        g = math.gcd(m, n)
        shortcut = g * c1_aeqb(d, m // g, n // g)
        if c1 != shortcut:
            raise RuntimeError(
                f"equal-pair cross-check failed for {t.abc()}, ({m},{n}): {c1} vs {shortcut}"
            )
    return EhrhartPoly(quad_num=c0_doubled(d, m, n), lin_num=c1)


def ehrhart_poly(t: Triple, m: int = 1, n: int = 0) -> EhrhartPoly:
    """Counting polynomial of the (m, n) equilateral triangle in t's plane."""
    f, ab = frame_system(t)
    return ehrhart_from_frame(f, ab, m, n)
