"""Brute-force lattice point counting, independent of the closed forms.

A dilated triangle t*(O, P, Q) is counted in coordinates of the plane basis
(u, tau), where its vertices are the integer points (0, 0), t*cp and t*cq.
P and Q are taken counterclockwise: when det(cp, cq) < 0 they are swapped,
which bounds the same points.  With A2 = det(cp, cq) > 0, a point X = (i, j)
lies in the dilation iff

    lam = det(X, cq) >= 0,  mu = det(cp, X) >= 0,  t*A2 - lam - mu >= 0,

lam/A2 and mu/A2 being X's barycentric weights on P and Q.  Each constraint
has the form a*i + b*j + c*t >= 0, and the scan runs over rows of fixed j,
one per multiple of tau.  In a row an edge with a > 0 gives the lower end
of i, a ceiling, and one with a < 0 an upper end, a floor.  The three a sum
to 0; when two are positive the triangle is mirrored by i -> -i, which
keeps every row.  Then one edge, joining the lowest and the highest vertex,
gives every row's lower end, and the two upper edges meet at the middle
vertex.  So the rows form two slabs, t*j_low .. t*j_mid and
t*j_mid + 1 .. t*j_high, each with one fixed lower and one fixed upper edge,
and scan_slabs adds upper end - lower end + 1 per row, two floor divisions,
without visiting the points.  An edge with a = 0 lies along a row, where
the row range already ends, and is dropped; the other upper edge then
bounds both slabs.  The cost grows with the number of rows rather than of
points; everything is arbitrary-precision integer arithmetic.

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
miscounted, missed or repeated row breaks it and raises RuntimeError.

The triangle is validated once, when a Triangle is built: vertex membership,
equal sides by their 3-D norms, exact basis coordinates and a nonzero
det(cp, cq); triangle_slabs then splits it into slabs.  Each dilation only
scales the slabs' rows and edge constants, scans and checks Pick, so a
campaign over several dilations of one triangle pays for the setup once.
count() is that path for a single dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intmath import Vec3
from .lattice import BasisPair, Triple, coordinates_in_basis, membership, plane_basis

# an edge a*i + b*j + c*t >= 0 with a != 0, kept as (|a|, b, c): in row j of
# the dilation by t it gives i >= -(b*j + c*t)/a if a > 0, else i <= (b*j + c*t)/|a|
Bound = tuple[int, int, int]
Slab = tuple[int, int, Bound, Bound]  # first row, last row, lower edge, upper edge


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


def triangle_slabs(cp: tuple[int, int], cq: tuple[int, int]) -> tuple[int, tuple[Slab, Slab]]:
    """Doubled area and the two slabs of the triangle O, cp, cq.

    The triangle is taken counterclockwise and, if need be, mirrored; each
    slab is (first row, last row, lower edge, upper edge) of the undilated
    triangle, the first ending at the middle vertex's row.
    """
    (pi, pj), (qi, qj) = cp, cq
    det = pi * qj - pj * qi
    if det == 0:
        raise RuntimeError(f"vertices {cp} and {cq} of an equilateral triangle are collinear")
    if det < 0:
        # O, Q, P is counterclockwise and bounds the same points
        (pi, pj), (qi, qj), det = cq, cp, -det
    # the edges opposite O, P and Q: t*A2 - lam - mu, lam, mu
    edges = [(pj - qj, qi - pi, det), (qj, -qi, 0), (-pj, pi, 0)]
    if sum(a > 0 for a, _, _ in edges) == 2:
        # mirror i -> -i, so that one edge bounds every row from below
        edges = [(-a, b, c) for a, b, c in edges]
    rows = (0, pj, qj)
    # the lower edge lies opposite the middle vertex and joins the lowest
    # and the highest, which never share a row
    mid = next(k for k in range(3) if edges[k][0] > 0)
    low, high = sorted((k for k in range(3) if k != mid), key=rows.__getitem__)
    # the first slab's upper edge lies opposite the highest vertex; an edge
    # with a == 0 lies along a row and drops out here
    upper = [(-a, b, c) for a, b, c in (edges[high], edges[low]) if a < 0]
    return det, (
        (rows[low], rows[mid], edges[mid], upper[0]),
        (rows[mid], rows[high], edges[mid], upper[-1]),
    )


def scan_slabs(slabs: tuple[Slab, Slab], dilation: int) -> int:
    """Number of lattice points in the triangle dilated by `dilation`.

    slabs are triangle_slabs' for the undilated triangle; the second starts
    one row past its dilated first row, which the first has counted.  Every
    row meets the triangle, so its count upper end - lower end + 1 is never
    negative.
    """
    total = 0
    for skip, (first, last, (a0, b0, c0), (a1, b1, c1)) in enumerate(slabs):
        c0, c1 = c0 * dilation, c1 * dilation
        # -(x // a) is the ceiling of -x / a for a > 0, so the row's count
        # upper - lower + 1 is a sum of two floors
        for j in range(dilation * first + skip, dilation * last + 1):
            total += (b1 * j + c1) // a1 + (b0 * j + c0) // a0 + 1
    return total


def _check_dilation(dilation: int) -> None:
    if dilation < 1:
        raise ValueError("dilation must be a positive integer")


class Triangle:
    """A validated equilateral lattice triangle (O, p, q), countable at any dilation.

    Construction checks the triangle and derives everything that does not
    depend on the dilation from its basis coordinates cp and cq: the side
    gcds in the caller's (OP, PQ, OQ) order, then, through triangle_slabs,
    the doubled area and the two slabs with the edges that bound their rows.
    """

    __slots__ = ("_sides", "_area2", "_slabs")

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
        self._sides = (math.gcd(pi, pj), math.gcd(qi - pi, qj - pj), math.gcd(qi, qj))
        self._area2, self._slabs = triangle_slabs(cp, cq)

    def count(self, dilation: int) -> CountReport:
        """Count lattice points of the triangle dilated by `dilation`."""
        _check_dilation(dilation)
        total = scan_slabs(self._slabs, dilation)
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
