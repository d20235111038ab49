"""Pure-Python row-interval scan kernel, arbitrary precision.

Counts lattice points of the box {(o, i)} classified against the triangle
with barycentric numerators

    lam(o, i) = o*a_o + i*a_i,   mu(o, i) = o*b_o + i*b_i,

a point being inside iff lam >= 0, mu >= 0, lam + mu <= bound.  Rows run over
the outer index.  Within a row each of the three constraints is linear in i,
so the feasible points form an exact interval [lo, hi], and the row adds
hi - lo + 1 to the total without visiting its points.

Edge points are the zeros of lam, mu and lam + mu - bound.  Unless it is
zero along the whole row, each vanishes at no more than one i, and only where
the row's offset is divisible by its slope (ka % a_i == 0, kb % b_i == 0,
rest % c_s == 0).  Most rows have no such integral zero and do no edge work
at all; the others classify at most three indices, a vertex being counted at
the first of the zeros that meet there.  A row lying wholly on an edge line
is classified point by point.  The cost is O(rows) plus the length of such
edge rows, and the result equals a classification of every cell of the box.
"""

from __future__ import annotations


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
        if lo > hi:
            continue
        total += hi - lo + 1
        if (a_i == 0 and ka == 0) or (b_i == 0 and kb == 0) or (c_s == 0 and rest == 0):
            for i in range(lo, hi + 1):
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
            continue
        # lam = 0 on side OQ; a vertex there also has mu = 0 or mu = bound
        if a_i and ka % a_i == 0:
            i = -ka // a_i
            if lo <= i <= hi:
                mu = kb + i * b_i
                if mu == 0 or mu == bound:
                    verts += 1
                else:
                    on_oq += 1
        # mu = 0 on side OP; lam = 0 there is the vertex counted above
        if b_i and kb % b_i == 0:
            i = -kb // b_i
            if lo <= i <= hi:
                lam = ka + i * a_i
                if lam:
                    if lam == bound:
                        verts += 1
                    else:
                        on_op += 1
        # lam + mu = bound on side PQ; lam = 0 or mu = 0 there was counted above
        if c_s and rest % c_s == 0:
            i = rest // c_s
            if lo <= i <= hi:
                lam = ka + i * a_i
                if lam and lam != bound:
                    on_pq += 1
    return total, on_op, on_pq, on_oq, verts
