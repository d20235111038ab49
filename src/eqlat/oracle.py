"""Brute-force lattice point counting, independent of the closed forms.

A dilated triangle t*(O, P, Q) is counted in coordinates of the plane basis
(u, tau), where its vertices are the integer points (0, 0), t*cp and t*cq.
P and Q are taken counterclockwise: when det(cp, cq) < 0 they are swapped,
which bounds the same points.  With A2 = det(cp, cq) > 0, a point X = (i, j)
lies in the dilation iff

    lam = det(X, cq) >= 0,  mu = det(cp, X) >= 0,  lam + mu <= t*A2,

lam/A2 and mu/A2 being X's barycentric weights on P and Q.  The scan covers
the integer bounding box in rows of fixed j, one per multiple of tau.
Within a row each constraint is linear in i, so the row's points form an
exact interval and scan_box adds its length without visiting them.  The
cost grows with the number of rows rather than of points; everything is
arbitrary-precision integer arithmetic.

Rows of fixed j number at most 2/sqrt(3) ~ 1.155 times rows of fixed i.
Row counts go as |u| and |tau| times the triangle's width across them; an
equilateral triangle's widths differ by at most 2/sqrt(3), and |u| <= |tau|
since |u|^2 = (a^2 + b^2)/omega^2 and |tau|^2 = c^2*(k^2 + l^2) + omega^2
with k >= 1 (equal only when a = 1 and b = c).

Only the total is scanned.  The boundary comes from cp and cq too: a
lattice segment whose ends differ by (di, dj) holds gcd(di, dj) + 1 lattice
points, so side S of the dilation has t*g_S - 1 points strictly inside it.
Pick's theorem in basis units,

    2*total = A2*t^2 + boundary + 2,

which pick_check states, then ties the scanned total to those counts; a
miscounted row or a clipped box breaks it and raises RuntimeError.  The
same A2 bounds the scan.

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
    gcds in the caller's (OP, PQ, OQ) order, then, with cp and cq in
    counterclockwise order, the doubled area, the box of the undilated
    triangle and the row coefficients of lam and mu along j.
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
        # the caller's (OP, PQ, OQ) order, which the swap below must not change
        self._sides = (math.gcd(pi, pj), math.gcd(qi - pi, qj - pj), math.gcd(qi, qj))
        det = pi * qj - pj * qi
        if det == 0:
            raise RuntimeError(f"vertices {cp} and {cq} of an equilateral triangle are collinear")
        if det < 0:
            # O, Q, P is counterclockwise and bounds the same points
            (pi, pj), (qi, qj), det = cq, cp, -det
        self._area2 = det
        # rows along j: lam = i*qj - j*qi and mu = j*pi - i*pj
        self._box = (min(0, pj, qj), max(0, pj, qj), min(0, pi, qi), max(0, pi, qi))
        self._coeffs = (-qi, qj, pi, -pj)

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
        report = CountReport(total, boundary, total - boundary, per_side)
        if not pick_check(report, self._area2, dilation):
            raise RuntimeError(
                f"Pick's theorem fails: scanned {total} points, boundary {boundary}, "
                f"doubled area {self._area2 * dilation * dilation}"
            )
        return report


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
