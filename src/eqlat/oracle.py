"""Brute-force lattice point counting, independent of the closed forms.

A dilated triangle t*(O, P, Q) is counted by scanning the integer bounding
box, in (u, tau) basis coordinates, of its three vertices.  Candidates X are
classified through exact barycentric numerators built from Gram data of the
vertices:

    lam_num = (X.P)*g22 - (X.Q)*g12      (= lam * D)
    mu_num  = (X.Q)*g11 - (X.P)*g12      (= mu * D)
    D = g11*g22 - g12^2 > 0

X lies in the dilation iff lam_num >= 0, mu_num >= 0 and
lam_num + mu_num <= t*D.  Within a box row each constraint is linear in the
inner index, so the row's points form an exact interval and scan_box adds its
length without visiting them.  The cost grows with the number of rows rather
than of points; everything is arbitrary-precision integer arithmetic.

Only the total is scanned.  The boundary comes from the vertices' basis
coordinates cp and cq: a lattice segment whose ends differ by (di, dj) holds
gcd(di, dj) + 1 lattice points, so side S of the dilation has t*g_S - 1
points strictly inside it.  Pick's theorem in basis units,

    2*total = A2*t^2 + boundary + 2,   A2 = |det(cp, cq)|,

then ties the scanned total to those counts; a miscounted row or a clipped
box breaks it and raises RuntimeError.

The triangle is validated once, when a Triangle is built: vertex membership,
the Gram determinant, basis coordinates, side gcds, area and barycentric
coefficients.  Each dilation then only sizes the box, scans and checks Pick,
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
    depend on the dilation: the Gram determinant, the side gcds and doubled
    area in basis coordinates, the box of the undilated triangle and the
    barycentric coefficients.
    """

    __slots__ = ("_det", "_sides", "_area2", "_box", "_coeffs")

    def __init__(self, p: Vec3, q: Vec3, t: Triple, basis: BasisPair | None = None) -> None:
        if p.is_zero() or q.is_zero() or p == q:
            raise ValueError("degenerate triangle: coincident vertices")
        if not (membership(p, t) and membership(q, t)):
            raise ValueError("not an equilateral lattice triangle: vertex off the plane")
        g11 = p.dot(p)
        g22 = q.dot(q)
        g12 = p.dot(q)
        if not (g11 == g22 == (p - q).norm_sq()):
            raise ValueError("not an equilateral lattice triangle: unequal sides")
        det = g11 * g22 - g12 * g12
        if det <= 0:
            raise RuntimeError(f"Gram determinant {det} of an equilateral triangle is not positive")
        self._det = det

        if basis is None:
            basis = plane_basis(t)
        cp = coordinates_in_basis(p, basis, t)
        cq = coordinates_in_basis(q, basis, t)
        if cp is None or cq is None:
            raise RuntimeError("vertex not representable in the plane basis")
        self._sides = (
            math.gcd(*cp),
            math.gcd(cq[0] - cp[0], cq[1] - cp[1]),
            math.gcd(*cq),
        )
        self._area2 = abs(cp[0] * cq[1] - cp[1] * cq[0])
        i_lo, i_hi = min(0, cp[0], cq[0]), max(0, cp[0], cq[0])
        j_lo, j_hi = min(0, cp[1], cq[1]), max(0, cp[1], cq[1])

        up, uq = basis.u.dot(p), basis.u.dot(q)
        tp, tq = basis.tau.dot(p), basis.tau.dot(q)
        c_lu = up * g22 - uq * g12
        c_lt = tp * g22 - tq * g12
        c_mu = uq * g11 - up * g12
        c_mt = tq * g11 - tp * g12

        # scan rows along the shorter box dimension; dilating the box never
        # changes which one that is
        if j_hi - j_lo <= i_hi - i_lo:
            self._box = (j_lo, j_hi, i_lo, i_hi)
            self._coeffs = (c_lt, c_lu, c_mt, c_mu)
        else:
            self._box = (i_lo, i_hi, j_lo, j_hi)
            self._coeffs = (c_lu, c_lt, c_mu, c_mt)

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
            dilation * self._det,
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
