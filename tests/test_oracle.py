import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqlat import oracle
from eqlat.ehrhart import ehrhart_poly, frame_system, side_divisors
from eqlat.frame import enumerate_triples, triangle_vertices
from eqlat.intmath import Vec3
from eqlat.lattice import Triple
from eqlat.oracle import CountReport, Triangle, count, pick_check, scan_slabs, triangle_slabs

from box_reference import classify_cells, classify_triangle, row_bounds, scan_rows


coord = st.integers(min_value=-9, max_value=9)
point = st.tuples(coord, coord)
wide = st.integers(min_value=-30, max_value=30)
any_point = point | st.tuples(wide, wide)
dilation = st.integers(min_value=1, max_value=4)
big = st.integers(min_value=2**64, max_value=2**200)
shear = big | big.map(lambda k: -k)


def det(cp, cq):
    return cp[0] * cq[1] - cp[1] * cq[0]


def scan_triangle(cp, cq, dil):
    """The oracle's total for the triangle O, cp, cq of basis coordinates."""
    _, slabs = triangle_slabs(cp, cq)
    return scan_slabs(slabs, dil)


def row_scan_total(cp, cq, dil):
    """The row-scan reference's total: three edges, min(upper ends) per row."""
    _, rows, bounds = row_bounds(cp, cq)
    return scan_rows(rows, bounds, dil)


def cells_total(cp, cq, dil, inflate=0):
    return classify_triangle([dil * x for x in cp], [dil * x for x in cq], inflate)[0]


# any nondegenerate lattice triangle with a vertex at O, either orientation;
# small coordinates make edges along rows and vertices sharing a row common
@settings(max_examples=1000)
@given(point, point, dilation)
def test_row_scan_equals_naive(cp, cq, dil):
    assume(det(cp, cq) != 0)
    assert scan_triangle(cp, cq, dil) == cells_total(cp, cq, dil)


# the slab scan against the row-scan reference, in both orientations
@settings(max_examples=1000)
@given(any_point, any_point, dilation)
def test_slab_scan_equals_row_scan(cp, cq, dil):
    assume(det(cp, cq) != 0)
    for a, b in ((cp, cq), (cq, cp)):
        assert scan_triangle(a, b, dil) == row_scan_total(a, b, dil)


# Triangles with an edge along a row, whose constraint triangle_slabs drops:
# OQ (qj = 0), OP (pj = 0) and PQ (pj = qj), all with det(cp, cq) > 0, and
# the first two mirrored by i -> -i (det < 0), which makes the other end of
# that edge the middle vertex.  The middle vertex shares the highest row, so
# the second slab, which starts past that row, is empty (flat = 1); or it
# shares the lowest row, which the first slab holds alone (flat = 0).
edge_rows = [
    pytest.param((2, -3), (5, 0), 1, id="lam-row-a_i-0"),
    pytest.param((3, 0), (1, 4), 0, id="mu-row-b_i-0"),
    pytest.param((1, 3), (-4, 3), 1, id="pq-row-c_s-0"),
    pytest.param((-2, -3), (-5, 0), 1, id="lam-row-mirrored"),
    pytest.param((-3, 0), (-1, 4), 0, id="mu-row-mirrored"),
]


@pytest.mark.parametrize("cp,cq,flat", edge_rows)
def test_row_scan_edge_rows(cp, cq, flat):
    end_row = (min if flat == 0 else max)(0, cp[1], cq[1])
    for a, b in ((cp, cq), (cq, cp)):
        _, slabs = triangle_slabs(a, b)
        assert slabs[0][3] == slabs[1][3]
        assert slabs[flat][0] == slabs[flat][1] == end_row
        for dil in (1, 2, 3):
            assert scan_triangle(a, b, dil) == cells_total(a, b, dil) == row_scan_total(a, b, dil)


# Triangles with no edge along a row, so both end rows and the middle
# vertex's row meet an edge pair at one point.  With det(cp, cq) > 0 the i
# coefficients of (lam, mu, t*A2 - lam - mu) are (qj, -pj, pj - qj); with two
# of them positive, triangle_slabs mirrors the triangle.  The other cases are
# the first triangle under i <-> j, under i -> -i, and dilated by 2 with the
# reference's box widened.
vertex_rows = [
    pytest.param((3, 1), (1, 4), 1, 0, id="vertex-rows"),
    pytest.param((4, 1), (1, 3), 1, 0, id="vertex-rows-transposed"),
    pytest.param((-1, 4), (-3, 1), 2, 0, id="vertex-rows-mirrored"),
    pytest.param((6, 2), (2, 8), 1, 2, id="vertex-rows-dilated-inflated"),
]


@pytest.mark.parametrize("cp,cq,positive,inflate", vertex_rows)
def test_row_scan_vertex_rows(cp, cq, positive, inflate):
    pj, qj = cp[1], cq[1]
    assert det(cp, cq) > 0 and 0 not in (pj, qj, pj - qj)
    assert sum(a > 0 for a in (qj, -pj, pj - qj)) == positive
    for a, b in ((cp, cq), (cq, cp)):
        for dil in (1, 2, 3):
            assert scan_triangle(a, b, dil) == cells_total(a, b, dil, inflate)


# The shear (i, j) -> (i + K*j, j) maps Z^2 onto itself and keeps every row,
# so it keeps the count, while every product and quotient in the scan
# exceeds 64 bits.
@settings(max_examples=300)
@given(point, point, dilation, shear)
def test_row_scan_arbitrary_precision(cp, cq, dil, k):
    assume(det(cp, cq) != 0)
    sheared = [(i + k * j, j) for i, j in (cp, cq)]
    assert scan_triangle(*sheared, dil) == cells_total(cp, cq, dil)


@settings(max_examples=1000)
@given(point, point, dilation, shear)
def test_slab_scan_equals_row_scan_sheared(cp, cq, dil, k):
    assume(det(cp, cq) != 0)
    sheared = [(i + k * j, j) for i, j in (cp, cq)]
    for a, b in (sheared, sheared[::-1]):
        assert scan_triangle(a, b, dil) == row_scan_total(a, b, dil)


def test_count_minimal_plane():
    t = Triple(1, 1, 1, 1)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, 1, 0)
    rep = count(p, q, t, 1)
    assert rep == CountReport(total=3, boundary=3, interior=0, per_side=(0, 0, 0))
    rep3 = count(p, q, t, 3)
    assert rep3.total == 10 and rep3.boundary == 9 and rep3.interior == 1
    assert rep3.per_side == (2, 2, 2)


worked_examples = [
    # explicit vertex coordinates with known counts at dilations 1 and 2
    ((5, 13, 13), Vec3(13, -8, 3), Vec3(0, -11, 11), 13, 36),
    ((1, 1, 19), Vec3(4, 15, -1), Vec3(15, 4, -1), 13, 36),
]


@pytest.mark.parametrize("abc,p,q,at1,at2", worked_examples)
def test_worked_examples(abc, p, q, at1, at2):
    t = Triple.from_abc(*abc)
    assert count(p, q, t, 1).total == at1
    assert count(p, q, t, 2).total == at2
    poly = ehrhart_poly(t)
    assert poly.evaluate(1) == at1 and poly.evaluate(2) == at2


def test_large_triple_sides():
    t = Triple.from_abc(245, 613, 713)
    f, ab = frame_system(t)
    p, q = triangle_vertices(f, 1, 0)
    rep = count(p, q, t, 1)
    assert rep.total == 297
    assert rep.per_side == side_divisors(f, ab, 1, 0).interior_counts(1)
    assert sorted(rep.per_side) == [2, 10, 16]
    assert pick_check(rep, ehrhart_poly(t).quad_num, 1)


def test_formula_matches_oracle_small_grid():
    for abc in [(1, 1, 5), (5, 7, 13), (1, 7, 25)]:
        t = Triple.from_abc(*abc)
        f, ab = frame_system(t)
        for m, n in [(1, 0), (1, 1), (2, 1), (-1, 2)]:
            p, q = triangle_vertices(f, m, n)
            poly = ehrhart_poly(t, m, n)
            for dil in (1, 2, 3):
                rep = count(p, q, t, dil)
                assert rep.total == poly.evaluate(dil)
                assert rep.boundary == poly.lin_num * dil
                assert pick_check(rep, poly.quad_num, dil)


def test_large_dilation():
    t = Triple(1, 1, 1, 1)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, 1, 0)
    dil = 10**4
    rep = count(p, q, t, dil)
    assert rep.total == ehrhart_poly(t).evaluate(dil)
    assert rep.per_side == (dil - 1, dil - 1, dil - 1)


small_triples = [t for d in range(1, 42, 2) for t in enumerate_triples(d)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(small_triples),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_triangle_setup_equals_fresh_count(t, m, n):
    if m == 0 and n == 0:
        return
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, m, n)
    tri = Triangle(p, q, t)
    poly = ehrhart_poly(t, m, n)
    for dil in range(1, 6):
        rep = tri.count(dil)
        assert rep == count(p, q, t, dil)
        assert rep.total == poly.evaluate(dil)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(small_triples),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from((0, 2)),
)
def test_triangle_counts_equal_cell_classification(t, m, n, dil, inflate):
    # the per-side split comes from gcds of basis coordinates; check it
    # against a point-by-point classification of a box that may be wider
    # than the oracle's
    if m == 0 and n == 0:
        return
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, m, n)
    rep = Triangle(p, q, t).count(dil)
    assert (rep.total, rep.boundary, rep.per_side) == classify_cells(p, q, t, dil, inflate)


# triangle_vertices gives det(cp, cq) > 0 on almost every plane, so both
# orientations are checked here by name; (1, 11, 11) with (-1, 2) is a case
# where rows of fixed i would be fewer, and rows of fixed j must count it too
@pytest.mark.parametrize("abc,m,n", [((5, 7, 13), 2, 1), ((1, 11, 11), -1, 2)])
@pytest.mark.parametrize("swap", [False, True], ids=["det>0", "det<0"])
def test_orientations_and_row_axes(abc, m, n, swap):
    t = Triple.from_abc(*abc)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, m, n)
    if swap:
        p, q = q, p
    tri = Triangle(p, q, t)
    for dil in (1, 2, 3):
        rep = tri.count(dil)
        assert (rep.total, rep.boundary, rep.per_side) == classify_cells(p, q, t, dil, 0)


def test_collinear_basis_coordinates_raise(monkeypatch):
    monkeypatch.setattr(oracle, "coordinates_in_basis", lambda p, basis, t: (1, 1))
    t = Triple.from_abc(5, 7, 13)
    f, _ = frame_system(t)
    with pytest.raises(RuntimeError, match="collinear"):
        Triangle(*triangle_vertices(f, 1, 0), t)


def test_pick_check_catches_miscounted_scan(monkeypatch):
    # the check must hold under python -O, so it may not be an assert
    real = oracle.scan_slabs
    monkeypatch.setattr(oracle, "scan_slabs", lambda *args: real(*args) + 1)
    t = Triple.from_abc(5, 7, 13)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, 2, 1)
    with pytest.raises(RuntimeError, match="Pick"):
        count(p, q, t, 3)


def moved_slab_row(slab, end, by):
    """Triangle (5, 7, 13), (2, 1), with one row bound of one slab moved by `by`.

    Its middle vertex lies strictly between the lowest and highest rows, so
    both slabs hold rows.
    """
    t = Triple.from_abc(5, 7, 13)
    f, _ = frame_system(t)
    tri = Triangle(*triangle_vertices(f, 2, 1), t)
    slabs = [list(s) for s in tri._slabs]
    assert slabs[0][0] < slabs[0][1] < slabs[1][1]
    slabs[slab][end] += by
    tri._slabs = tuple(tuple(s) for s in slabs)
    return tri


# the first row of the first slab and the last row of the last slab each
# hold a vertex, so clipping either drops at least that vertex from the scan
@pytest.mark.parametrize("end", range(2))
def test_clipped_box_breaks_pick(end):
    for dil in (1, 3):
        with pytest.raises(RuntimeError, match="Pick"):
            moved_slab_row(-end, end, 1 if end == 0 else -1).count(dil)


# The middle row holds the middle vertex.  Ending the first slab one row
# early leaves it to neither slab, and starting the second one row early
# counts it in both; at dilation 1 exactly that row moves.
@pytest.mark.parametrize("slab,end", [(0, 1), (1, 0)], ids=["middle-row-dropped", "middle-row-twice"])
def test_moved_split_row_breaks_pick(slab, end):
    for dil in (1, 3):
        with pytest.raises(RuntimeError, match="Pick"):
            moved_slab_row(slab, end, -1).count(dil)


def test_count_input_validation():
    t = Triple(1, 1, 1, 1)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, 1, 0)
    with pytest.raises(ValueError, match="positive"):
        count(p, q, t, 0)
    with pytest.raises(ValueError, match="coincident"):
        count(p, p, t, 1)
    with pytest.raises(ValueError, match="coincident"):
        count(Vec3(0, 0, 0), q, t, 1)
    with pytest.raises(ValueError, match="off the plane"):
        count(p, Vec3(0, 0, 1), t, 1)
    with pytest.raises(ValueError, match="unequal sides"):
        count(Vec3(-1, 1, 0), Vec3(-2, 1, 1), t, 1)
    with pytest.raises(ValueError, match="unequal sides"):
        count(Vec3(-1, 1, 0), Vec3(1, -1, 0), t, 1)  # collinear
    tri = Triangle(p, q, t)
    with pytest.raises(ValueError, match="positive"):
        tri.count(0)


def test_skewed_basis_minimal_triangle():
    # the plane basis of this triple is badly skewed: many short scan rows
    t = Triple.from_abc(139, 2461, 2461)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, 1, 0)
    assert count(p, q, t, 1).total == ehrhart_poly(t).evaluate(1)


def test_pick_check():
    t = Triple.from_abc(5, 7, 13)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, 1, 0)
    rep = count(p, q, t, 1)
    assert pick_check(rep, 9, 1)
    assert not pick_check(rep, 11, 1)
