"""Brute-force lattice point counting, independent of the closed forms.

A dilated triangle t*(O, P, Q) is counted in coordinates of the plane basis
(u, tau), where its vertices are the integer points (0, 0), t*cp and t*cq.
The scan covers their integer bounding box.  With s the sign of det(cp, cq)
and A2 = |det(cp, cq)| > 0, a point X = (i, j) lies in the dilation iff

    lam = s*det(X, cq) >= 0,  mu = s*det(cp, X) >= 0,  lam + mu <= t*A2,

lam/A2 and mu/A2 being X's barycentric weights on P and Q.  Within a box
row each constraint is linear in the inner index, so the row's points form
an exact interval and scan_box adds its length without visiting them.  The
cost grows with the number of rows rather than of points; everything is
arbitrary-precision integer arithmetic.

Only the total is scanned.  The boundary comes from cp and cq too: a
lattice segment whose ends differ by (di, dj) holds gcd(di, dj) + 1 lattice
points, so side S of the dilation has t*g_S - 1 points strictly inside it.
Pick's theorem in basis units,

    2*total = A2*t^2 + boundary + 2,

then ties the scanned total to those counts; a miscounted row or a clipped
box breaks it and raises RuntimeError.  The same A2 bounds the scan.

The triangle is validated once, when a Triangle is built: vertex membership,
equal sides by their 3-D norms, exact basis coordinates and a nonzero
det(cp, cq).  Each dilation then only sizes the box, scans and checks Pick,
so a campaign over several dilations of one triangle pays for the setup once.
count() is that path for a single dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intmath import Vec3
from .lattice import BasisPair, Triple, coordinates_in_basis, membership, plane_basis


@dataclass(frozen=True, slots=True)
class CountReport:
    """Exact counts for one dilated triangle.

    per_side holds boundary points interior to sides (OP, PQ, OQ); boundary
    adds the three vertices.
    """

    total: int
    boundary: int
    interior: int
    per_side: tuple[int, int, int]


def scan_box(
    o_lo: int,
    o_hi: int,
    i_lo: int,
    i_hi: int,
    a_o: int,
    a_i: int,
    b_o: int,
    b_i: int,
    bound: int,
) -> int:
    """Number of box points (o, i) with lam >= 0, mu >= 0, lam + mu <= bound.

    lam = o*a_o + i*a_i and mu = o*b_o + i*b_i.  Each row o is cut to the
    exact interval [lo, hi] of inner indices meeting all three constraints.
    """
    total = 0
    c_s = a_i + b_i
    for o in range(o_lo, o_hi + 1):
        ka = o * a_o
        kb = o * b_o
        rest = bound - ka - kb
        # -(x // y) is the ceiling of -x / y for y > 0
        lo = i_lo
        hi = i_hi
        if a_i > 0:
            x = -(ka // a_i)
            if x > lo:
                lo = x
        elif a_i < 0:
            x = ka // -a_i
            if x < hi:
                hi = x
        elif ka < 0:
            continue
        if b_i > 0:
            x = -(kb // b_i)
            if x > lo:
                lo = x
        elif b_i < 0:
            x = kb // -b_i
            if x < hi:
                hi = x
        elif kb < 0:
            continue
        if c_s > 0:
            x = rest // c_s
            if x < hi:
                hi = x
        elif c_s < 0:
            x = -(rest // -c_s)
            if x > lo:
                lo = x
        elif rest < 0:
            continue
        if lo <= hi:
            total += hi - lo + 1
    return total


def _check_dilation(dilation: int) -> None:
    if dilation < 1:
        raise ValueError("dilation must be a positive integer")


class Triangle:
    """A validated equilateral lattice triangle (O, p, q), countable at any dilation.

    Construction checks the triangle and derives everything that does not
    depend on the dilation from its basis coordinates cp and cq: the side
    gcds, the doubled area, the box of the undilated triangle and the row
    coefficients of lam and mu.
    """

    __slots__ = ("_sides", "_area2", "_box", "_coeffs")

    def __init__(self, p: Vec3, q: Vec3, t: Triple, basis: BasisPair | None = None) -> None:
        if p.is_zero() or q.is_zero() or p == q:
            raise ValueError("degenerate triangle: coincident vertices")
        if not (membership(p, t) and membership(q, t)):
            raise ValueError("not an equilateral lattice triangle: vertex off the plane")
        if not (p.norm_sq() == q.norm_sq() == (p - q).norm_sq()):
            raise ValueError("not an equilateral lattice triangle: unequal sides")

        if basis is None:
            basis = plane_basis(t)
        cp = coordinates_in_basis(p, basis, t)
        cq = coordinates_in_basis(q, basis, t)
        if cp is None or cq is None:
            raise RuntimeError("vertex not representable in the plane basis")
        (pi, pj), (qi, qj) = cp, cq
        det = pi * qj - pj * qi
        if det == 0:
            raise RuntimeError(f"vertices {cp} and {cq} of an equilateral triangle are collinear")
        s = 1 if det > 0 else -1
        self._sides = (math.gcd(pi, pj), math.gcd(qi - pi, qj - pj), math.gcd(qi, qj))
        self._area2 = abs(det)
        i_lo, i_hi = min(0, pi, qi), max(0, pi, qi)
        j_lo, j_hi = min(0, pj, qj), max(0, pj, qj)

        # lam = s*(i*qj - j*qi) and mu = s*(j*pi - i*pj); scan rows along the
        # shorter box dimension, which dilating the box never changes
        if j_hi - j_lo <= i_hi - i_lo:
            self._box = (j_lo, j_hi, i_lo, i_hi)
            self._coeffs = (-s * qi, s * qj, s * pi, -s * pj)
        else:
            self._box = (i_lo, i_hi, j_lo, j_hi)
            self._coeffs = (s * qj, -s * qi, -s * pj, s * pi)

    def count(self, dilation: int) -> CountReport:
        """Count lattice points of the triangle dilated by `dilation`."""
        _check_dilation(dilation)
        o_lo, o_hi, i_lo, i_hi = self._box
        total = scan_box(
            dilation * o_lo,
            dilation * o_hi,
            dilation * i_lo,
            dilation * i_hi,
            *self._coeffs,
            dilation * self._area2,
        )
        g_op, g_pq, g_oq = self._sides
        per_side = (dilation * g_op - 1, dilation * g_pq - 1, dilation * g_oq - 1)
        boundary = 3 + sum(per_side)
        if 2 * total != self._area2 * dilation * dilation + boundary + 2:
            raise RuntimeError(
                f"Pick's theorem fails: scanned {total} points, boundary {boundary}, "
                f"doubled area {self._area2 * dilation * dilation}"
            )
        return CountReport(
            total=total,
            boundary=boundary,
            interior=total - boundary,
            per_side=per_side,
        )


def count(
    p: Vec3,
    q: Vec3,
    t: Triple,
    dilation: int,
    basis: BasisPair | None = None,
) -> CountReport:
    """Count lattice points of the dilated triangle with vertices O, p, q."""
    # a bad dilation is reported before a bad triangle
    _check_dilation(dilation)
    return Triangle(p, q, t, basis).count(dilation)


def pick_check(report: CountReport, quad_num: int, dilation: int) -> bool:
    """Pick's identity: normalized area equals 2*interior + boundary - 2."""
    return quad_num * dilation * dilation == 2 * report.interior + report.boundary - 2
