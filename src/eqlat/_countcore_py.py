"""Pure-Python row-interval scan kernel, arbitrary precision.

Counts lattice points of the box {(o, i)} classified against the triangle
with barycentric numerators

    lam(o, i) = o*a_o + i*a_i,   mu(o, i) = o*b_o + i*b_i,

a point being inside iff lam >= 0, mu >= 0, lam + mu <= bound.  Rows run over
the outer index.  Within a row each of the three constraints is linear in i,
so the feasible points form an exact interval [lo, hi], and the row adds
hi - lo + 1 to the total without visiting its points.  Each of lam, mu and
lam + mu - bound vanishes at no more than one i unless it is zero along the
whole row, so only those at most three indices are classified as edge
points.  A row lying wholly on an edge line is classified point by point.
The cost is O(rows) plus the length of such edge rows, and the result
equals a classification of every cell of the box.

The compiled kernel in _countcore.pyx returns identical results by testing
every point of each row's interval in int64 arithmetic.
"""

from __future__ import annotations


def _ceildiv(a: int, b: int) -> int:
    # b > 0 everywhere below
    return -((-a) // b)


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
) -> tuple[int, int, int, int, int]:
    """Return (total, on_op, on_pq, on_oq, vertices) over the box."""
    total = on_op = on_pq = on_oq = verts = 0
    c_s = a_i + b_i
    for o in range(o_lo, o_hi + 1):
        ka = o * a_o
        kb = o * b_o
        lo, hi = i_lo, i_hi
        if a_i > 0:
            lo = max(lo, _ceildiv(-ka, a_i))
        elif a_i < 0:
            hi = min(hi, ka // (-a_i))
        elif ka < 0:
            continue
        if b_i > 0:
            lo = max(lo, _ceildiv(-kb, b_i))
        elif b_i < 0:
            hi = min(hi, kb // (-b_i))
        elif kb < 0:
            continue
        rest = bound - ka - kb
        if c_s > 0:
            hi = min(hi, rest // c_s)
        elif c_s < 0:
            lo = max(lo, _ceildiv(-rest, -c_s))
        elif rest < 0:
            continue
        if lo > hi:
            continue
        total += hi - lo + 1
        if (a_i == 0 and ka == 0) or (b_i == 0 and kb == 0) or (c_s == 0 and rest == 0):
            candidates = range(lo, hi + 1)
        else:
            # the zero of each constraint along the row, where it is integral
            candidates = set()
            if a_i and ka % a_i == 0:
                candidates.add(-ka // a_i)
            if b_i and kb % b_i == 0:
                candidates.add(-kb // b_i)
            if c_s and rest % c_s == 0:
                candidates.add(rest // c_s)
        for i in candidates:
            if i < lo or i > hi:
                continue
            lam = ka + i * a_i
            mu = kb + i * b_i
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
