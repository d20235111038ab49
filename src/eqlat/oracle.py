"""Brute-force lattice point counting, independent of the closed forms.

A dilated triangle t*(O, P, Q) is scanned by enumerating the integer
bounding box, in (u, tau) basis coordinates, of its three vertices.  Each
candidate X is classified through exact barycentric numerators built from
Gram data of the vertices:

    lam_num = (X.P)*g22 - (X.Q)*g12      (= lam * D)
    mu_num  = (X.Q)*g11 - (X.P)*g12      (= mu * D)
    D = g11*g22 - g12^2 > 0

X lies in the dilation iff lam_num >= 0, mu_num >= 0 and
lam_num + mu_num <= t*D; side OP carries mu_num = 0, side OQ lam_num = 0 and
side PQ lam_num + mu_num = t*D.  Everything is integer arithmetic.

The triangle is validated once, when a Triangle is built: vertex membership,
the Gram determinant, basis coordinates and barycentric coefficients.  Each
dilation then only sizes the box, scans and checks that exactly three
vertices were found, so a campaign over several dilations of one triangle
pays for the setup once.  count() is that path for a single dilation.

The scan is _countcore_py.scan_box, in arbitrary precision.  It counts each
row of the box from its exact feasible interval, doing edge work only on rows
where a constraint has an integral zero, so its cost grows with the number of
rows rather than of points.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _countcore_py
from .intmath import Vec3
from .lattice import BasisPair, Triple, coordinates_in_basis, membership, plane_basis

@dataclass(frozen=True, slots=True)
class CountReport:
    """Exact counts for one dilated triangle.

    per_side holds boundary points interior to sides (OP, PQ, OQ); the three
    vertices are counted separately.
    """

    total: int
    boundary: int
    interior: int
    per_side: tuple[int, int, int]
    vertices: int


def _check_scan(dilation: int, inflate: int) -> None:
    if dilation < 1:
        raise ValueError("dilation must be a positive integer")
    if inflate < 0:
        raise ValueError("inflate margin must be nonnegative")


class Triangle:
    """A validated equilateral lattice triangle (O, p, q), countable at any dilation.

    Construction checks the triangle and derives everything that does not
    depend on the dilation: the Gram determinant, the box of the undilated
    triangle in basis coordinates and the barycentric coefficients.
    """

    __slots__ = ("_det", "_box", "_coeffs")

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
        i_lo, i_hi = min(0, cp[0], cq[0]), max(0, cp[0], cq[0])
        j_lo, j_hi = min(0, cp[1], cq[1]), max(0, cp[1], cq[1])

        up, uq = basis.u.dot(p), basis.u.dot(q)
        tp, tq = basis.tau.dot(p), basis.tau.dot(q)
        c_lu = up * g22 - uq * g12
        c_lt = tp * g22 - tq * g12
        c_mu = uq * g11 - up * g12
        c_mt = tq * g11 - tp * g12

        # scan rows along the shorter box dimension; dilating and inflating
        # the box never changes which one that is
        if j_hi - j_lo <= i_hi - i_lo:
            self._box = (j_lo, j_hi, i_lo, i_hi)
            self._coeffs = (c_lt, c_lu, c_mt, c_mu)
        else:
            self._box = (i_lo, i_hi, j_lo, j_hi)
            self._coeffs = (c_lu, c_lt, c_mu, c_mt)

    def count(self, dilation: int, inflate: int = 0) -> CountReport:
        """Count lattice points of the triangle dilated by `dilation`."""
        _check_scan(dilation, inflate)
        o_lo, o_hi, i_lo, i_hi = self._box
        total, on_op, on_pq, on_oq, verts = _countcore_py.scan_box(
            dilation * o_lo - inflate,
            dilation * o_hi + inflate,
            dilation * i_lo - inflate,
            dilation * i_hi + inflate,
            *self._coeffs,
            dilation * self._det,
        )
        if verts != 3:
            raise RuntimeError(f"scan found {verts} vertices, expected 3")
        boundary = 3 + on_op + on_pq + on_oq
        return CountReport(
            total=total,
            boundary=boundary,
            interior=total - boundary,
            per_side=(on_op, on_pq, on_oq),
            vertices=3,
        )


def count(
    p: Vec3,
    q: Vec3,
    t: Triple,
    dilation: int,
    basis: BasisPair | None = None,
    inflate: int = 0,
) -> CountReport:
    """Count lattice points of the dilated triangle with vertices O, p, q."""
    # a bad dilation or margin is reported before a bad triangle
    _check_scan(dilation, inflate)
    return Triangle(p, q, t, basis).count(dilation, inflate)


def pick_check(report: CountReport, quad_num: int, dilation: int) -> bool:
    """Pick's identity: normalized area equals 2*interior + boundary - 2."""
    return quad_num * dilation * dilation == 2 * report.interior + report.boundary - 2
