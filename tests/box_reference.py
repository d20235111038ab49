"""Test-side references for the oracle: point-by-point box classification
and the row scan.

Shared by the oracle unit tests and the acceptance gate.  Nothing here
comes from the oracle: the box is classified cell by cell, in the
coordinates of a reduced basis, with 2x2 determinants.  row_bounds and
scan_rows are the oracle's earlier kernel, one row at a time with three
edges and min(upper ends), kept as the reference for its slab scan.
"""

from eqlat.lattice import BasisPair, coordinates_in_basis, plane_basis

# an edge a*i + b*j + c*t >= 0 with a != 0, kept as (|a|, b, c): in row j of
# the dilation by t it gives i >= -(b*j + c*t)/a if a > 0, else i <= (b*j + c*t)/|a|
Bound = tuple[int, int, int]


def naive_scan(o_lo, o_hi, i_lo, i_hi, a_o, a_i, b_o, b_i, bound):
    """Reference: classify every box cell, no interval shortcuts."""
    total = on_op = on_pq = on_oq = verts = 0
    for o in range(o_lo, o_hi + 1):
        for i in range(i_lo, i_hi + 1):
            lam = o * a_o + i * a_i
            mu = o * b_o + i * b_i
            if lam < 0 or mu < 0 or lam + mu > bound:
                continue
            total += 1
            edges = (lam == 0) + (mu == 0) + (lam + mu == bound)
            if edges >= 2:
                verts += 1
            elif edges == 1:
                if mu == 0:
                    on_op += 1
                elif lam == 0:
                    on_oq += 1
                else:
                    on_pq += 1
    return total, on_op, on_pq, on_oq, verts


def reduced_basis(t):
    """Lagrange-Gauss reduction of the plane basis, so boxes are not skewed."""
    basis = plane_basis(t)
    u, v = basis.u, basis.tau
    if u.norm_sq() > v.norm_sq():
        u, v = v, u
    while True:
        n = u.norm_sq()
        v = v - u * ((2 * u.dot(v) + n) // (2 * n))
        if v.norm_sq() >= n:
            return BasisPair(u, v)
        u, v = v, u


def classify_triangle(a, b, inflate=0):
    """(total, boundary, per_side) of the triangle O, a, b with integer vertices.

    Classifies every cell of the triangle's box widened by `inflate` on each
    side, so a box that is too small for the triangle cannot hide here, and
    classifies every cell on its own, not whole rows by their interval ends:
    X = lam*a + mu*b.  a and b may come in either orientation.
    """
    det = a[0] * b[1] - a[1] * b[0]
    s = 1 if det > 0 else -1
    box = [(min(0, a[k], b[k]) - inflate, max(0, a[k], b[k]) + inflate) for k in (0, 1)]
    # lam = s*det(X, b), mu = s*det(a, X), bound |det(a, b)|
    total, on_op, on_pq, on_oq, verts = naive_scan(
        *box[0], *box[1], s * b[1], -s * b[0], -s * a[1], s * a[0], abs(det)
    )
    # an explicit raise, not an assert: helper modules are not rewritten by
    # pytest, and python -O would drop a bare assert here
    if verts != 3:
        raise AssertionError(f"classified {verts} vertices, expected 3")
    return total, 3 + on_op + on_pq + on_oq, (on_op, on_pq, on_oq)


def classify_cells(p, q, t, dil, inflate):
    """classify_triangle of the dilated triangle O, p, q.

    Works in coordinates of a reduced basis, not the oracle's.
    """
    basis = reduced_basis(t)
    a = [dil * x for x in coordinates_in_basis(p, basis, t)]
    b = [dil * x for x in coordinates_in_basis(q, basis, t)]
    return classify_triangle(a, b, inflate)


def row_bounds(
    cp: tuple[int, int], cq: tuple[int, int]
) -> tuple[int, tuple[int, int], tuple[Bound, Bound, Bound]]:
    """Doubled area, row range and bounding edges of the triangle O, cp, cq.

    The edges come as (lower, upper, upper), after the triangle is taken
    counterclockwise and, if need be, mirrored.  The row range is that of
    the undilated triangle.
    """
    (pi, pj), (qi, qj) = cp, cq
    det = pi * qj - pj * qi
    if det == 0:
        raise RuntimeError(f"vertices {cp} and {cq} of an equilateral triangle are collinear")
    if det < 0:
        # O, Q, P is counterclockwise and bounds the same points
        (pi, pj), (qi, qj), det = cq, cp, -det
    edges = [(qj, -qi, 0), (-pj, pi, 0), (pj - qj, qi - pi, det)]  # lam, mu, t*A2 - lam - mu
    if sum(a > 0 for a, _, _ in edges) == 2:
        # mirror i -> -i, so that one edge bounds every row from below
        edges = [(-a, b, c) for a, b, c in edges]
    lower = next(e for e in edges if e[0] > 0)
    # an edge with a == 0 lies along a row and drops out here
    upper = [(-a, b, c) for a, b, c in edges if a < 0]
    return det, (min(0, pj, qj), max(0, pj, qj)), (lower, upper[0], upper[-1])


def scan_rows(rows: tuple[int, int], bounds: tuple[Bound, Bound, Bound], dilation: int) -> int:
    """Number of lattice points in the rows of the triangle dilated by `dilation`.

    rows and bounds are row_bounds' for the undilated triangle.  Every row
    meets the triangle, so its interval of real i is not empty and the count
    of integers in it, min(upper ends) - lower end + 1, is never negative.
    """
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = bounds
    c0, c1, c2 = c0 * dilation, c1 * dilation, c2 * dilation
    total = 0
    for j in range(dilation * rows[0], dilation * rows[1] + 1):
        # -(x // a) is the ceiling of -x / a for a > 0
        lo = -((b0 * j + c0) // a0)
        hi = (b1 * j + c1) // a1
        x = (b2 * j + c2) // a2
        if x < hi:
            hi = x
        total += hi - lo + 1
    return total
