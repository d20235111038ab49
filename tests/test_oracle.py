import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlat import oracle
from eqlat.ehrhart import ehrhart_poly, frame_system, side_divisors
from eqlat.frame import enumerate_triples, triangle_vertices
from eqlat.intmath import Vec3
from eqlat.lattice import Triple
from eqlat.oracle import CountReport, Triangle, count, pick_check, scan_box

from box_reference import classify_cells, naive_scan


coeff = st.integers(min_value=-40, max_value=40)
edge = st.integers(min_value=-8, max_value=8)


# coefficients up to 40 leave most rows without an integral zero at an
# interval end, so rows with and without exact ends both occur often
@settings(max_examples=1000)
@given(edge, edge, edge, edge, coeff, coeff, coeff, coeff, st.integers(min_value=-20, max_value=120))
def test_row_scan_equals_naive(o_lo, o_span, i_lo, i_span, a_o, a_i, b_o, b_i, bound):
    o_hi = o_lo + abs(o_span)
    i_hi = i_lo + abs(i_span)
    args = (o_lo, o_hi, i_lo, i_hi, a_o, a_i, b_o, b_i, bound)
    assert scan_box(*args) == naive_scan(*args)[0]


# Rows lying wholly on one edge line, where a constraint is zero along the
# whole row rather than at one interval end; per_side index of that edge.
edge_rows = [
    pytest.param((-2, 13, -4, 8, 1, 0, -1, 2, 12), 2, id="lam-row-a_i-0"),
    pytest.param((-2, 13, -4, 8, -1, 2, 1, 0, 12), 0, id="mu-row-b_i-0"),
    pytest.param((-2, 8, -8, 8, 1, 1, 1, -1, 12), 1, id="pq-row-c_s-0"),
]


@pytest.mark.parametrize("args,side", edge_rows)
def test_row_scan_edge_rows(args, side):
    expected = naive_scan(*args)
    assert expected[4] == 3 and expected[1 + side] > 1
    assert scan_box(*args) == expected[0]


# Triangles O = (0, 0), P = (3, 1), Q = (1, 4) in box coordinates, so
# (lam, mu) = (4o - i, 3i - o) with bound 11, in several orientations.  Each
# vertex row has two zeros meeting at one index, and no row lies on an edge.
vertex_rows = [
    pytest.param((0, 3, 0, 4, 4, -1, -1, 3, 11), id="vertex-rows"),
    pytest.param((0, 4, 0, 3, -1, 4, 3, -1, 11), id="vertex-rows-transposed"),
    pytest.param((0, 3, -4, 0, 4, 1, -1, -3, 11), id="vertex-rows-mirrored"),
    pytest.param((-2, 8, -2, 10, 4, -1, -1, 3, 22), id="vertex-rows-dilated-inflated"),
]


@pytest.mark.parametrize("args", vertex_rows)
def test_row_scan_vertex_rows(args):
    expected = naive_scan(*args)
    assert expected[4] == 3
    a_i, b_i = args[5], args[7]
    assert a_i and b_i and a_i + b_i
    assert scan_box(*args) == expected[0]


# Scaling every coefficient and the bound by K >= 2**64 scales lam, mu and
# lam + mu - bound by K, so the counts stay those of the unscaled box while
# every product and quotient in the scan exceeds 64 bits.
@settings(max_examples=300)
@given(
    edge, edge, edge, edge, coeff, coeff, coeff, coeff,
    st.integers(min_value=-20, max_value=120),
    st.integers(min_value=2**64, max_value=2**200),
)
def test_row_scan_arbitrary_precision(o_lo, o_span, i_lo, i_span, a_o, a_i, b_o, b_i, bound, k):
    box = (o_lo, o_lo + abs(o_span), i_lo, i_lo + abs(i_span))
    scaled = (k * a_o, k * a_i, k * b_o, k * b_i, k * bound)
    assert scan_box(*box, *scaled) == naive_scan(*box, a_o, a_i, b_o, b_i, bound)[0]


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
    real = oracle.scan_box
    monkeypatch.setattr(oracle, "scan_box", lambda *args: real(*args) + 1)
    t = Triple.from_abc(5, 7, 13)
    f, _ = frame_system(t)
    p, q = triangle_vertices(f, 2, 1)
    with pytest.raises(RuntimeError, match="Pick"):
        count(p, q, t, 3)


# every side of the box passes through a vertex, so clipping any side by one
# row drops at least that vertex from the scan
@pytest.mark.parametrize("side", range(4))
def test_clipped_box_breaks_pick(side):
    t = Triple.from_abc(5, 7, 13)
    f, _ = frame_system(t)
    tri = Triangle(*triangle_vertices(f, 2, 1), t)
    box = list(tri._box)
    box[side] += 1 if side % 2 == 0 else -1
    tri._box = tuple(box)
    with pytest.raises(RuntimeError, match="Pick"):
        tri.count(3)


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
