"""Acceptance gate: seven end-to-end criteria, one test (one pass/fail line) each.

Every comparison is exact integer equality, zero tolerance.  Run with

    pytest tests/test_acceptance.py -v

pytest's per-test PASSED/FAILED line is the verdict line; add -s to also see
the printed summaries, including the criterion 7 statement of which boundary
formula variant is in use.
"""

import json
import math
import pathlib

import pytest

from eqlat.catalog import campaign_summary, table1_row, verify_campaign
from eqlat.cli import main
from eqlat.ehrhart import (
    EhrhartPoly,
    c1_general,
    ehrhart_from_frame,
    ehrhart_poly,
    frame_system,
    side_divisors,
)
from eqlat.frame import (
    AlphaBeta,
    aeqb_generate,
    build_frame,
    check_frame_vectors,
    enumerate_triples,
    solve_alpha_beta,
    triangle_vertices,
)
from eqlat.intmath import Vec3
from eqlat.lattice import Triple, plane_basis
from eqlat.oracle import count

from box_reference import classify_cells

GOLDEN = pathlib.Path(__file__).parent / "data" / "table1_golden.json"

ACCEPT_PAIRS = [(1, 0), (1, 1), (2, 1), (3, 2)]


def all_triples(d_max):
    return [t for d in range(1, d_max + 1, 2) for t in enumerate_triples(d)]


def test_criterion_1_table1_reproduction(capsys):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 21
    for key, expected in golden.items():
        row = table1_row(int(key))
        assert [list(t) for t in row.triples] == expected["triples"], f"d={key}: triples"
        assert row.e_size == expected["e_size"], f"d={key}: |E(d)|"
        assert list(row.c1_set) == expected["c1_set"], f"d={key}: c1 set"
    # the same table must come out of the command line interface
    code = main(["table1", "41", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    by_d = {row["d"]: row for row in doc["results"]["rows"]}
    assert len(by_d) == 41
    for key, expected in golden.items():
        row = by_d[key]
        assert row["triples"] == [[str(x) for x in t] for t in expected["triples"]]
        assert row["e_size"] == str(expected["e_size"])
        assert row["c1_set"] == [str(c) for c in expected["c1_set"]]
    for d in range(2, 42, 2):
        assert by_d[str(d)]["triples"] == []
    print("PASS criterion 1: all 21 catalog rows for odd d <= 41 match the golden file exactly")


def test_criterion_2_campaign():
    records = verify_campaign(33, ACCEPT_PAIRS, 3)
    n_triples = len(all_triples(33))
    assert len(records) == n_triples * len(ACCEPT_PAIRS) * 3
    passed, failed = campaign_summary(records)
    bad = [r for r in records if not r.passed]
    assert not bad, f"first failure: {bad[0]}"
    assert (passed, failed) == (len(records), 0)
    for r in records:
        assert r.formula_count == r.oracle_count
        assert r.boundary_actual == r.boundary_expected == r.lin_num * r.t
        assert r.per_side_actual == r.per_side_expected
        assert r.pick_ok
    print(
        f"PASS criterion 2: {len(records)} oracle-vs-formula records "
        f"(d <= 33, {len(ACCEPT_PAIRS)} pairs, t <= 3), zero mismatches"
    )


def test_criterion_3_worked_examples():
    # two congruent triangles on different planes, same polynomial
    t1 = Triple.from_abc(5, 13, 13)
    d1_p, d1_q = Vec3(13, -8, 3), Vec3(0, -11, 11)
    t2 = Triple.from_abc(1, 1, 19)
    d2_p, d2_q = Vec3(4, 15, -1), Vec3(15, 4, -1)
    for t, p, q in ((t1, d1_p, d1_q), (t2, d2_p, d2_q)):
        poly = ehrhart_poly(t)
        assert (poly.quad_num, poly.lin_num) == (11, 13)
        assert count(p, q, t, 1).total == poly.evaluate(1) == 13
        assert count(p, q, t, 2).total == poly.evaluate(2) == 36
    # large-radius example with asymmetric side divisors
    t3 = Triple.from_abc(245, 613, 713)
    assert t3.d == 561
    f, ab = frame_system(t3)
    poly3 = ehrhart_from_frame(f, ab, 1, 0)
    assert (poly3.quad_num, poly3.lin_num) == (561, 31)
    p3, q3 = triangle_vertices(f, 1, 0)
    rep = count(p3, q3, t3, 1)
    assert rep.total == poly3.evaluate(1) == 297
    assert sorted(rep.per_side) == [2, 10, 16]
    assert rep.per_side == side_divisors(f, ab, 1, 0).interior_counts(1)
    print("PASS criterion 3: worked examples (11,13)@t=1,2 and (561,31) with sides {2,10,16}")


def test_criterion_4_d15_frame():
    t = Triple(1, 7, 25, 15)
    f = build_frame(t)
    d = t.d
    assert f.e1.norm_sq() == 2 * d * d
    assert f.e2.norm_sq() == 2 * d * d
    assert f.e1.dot(f.e2) == d * d
    assert f.perp == 2 * f.e2 - f.e1
    assert f.perp.norm_sq() == 6 * d * d
    assert f.e1.dot(f.perp) == 0
    assert all(check_frame_vectors(t, f.e1, f.e2).values())
    # an independently published frame pair for the same plane must also pass
    alt_e1, alt_e2 = Vec3(13, 16, -5), Vec3(21, -3, 0)
    checks = check_frame_vectors(t, alt_e1, alt_e2)
    assert checks == {
        "e1_on_plane": True,
        "e2_on_plane": True,
        "e1_norm_2d2": True,
        "perp_norm_6d2": True,
        "orthogonal": True,
    }
    assert alt_e1.norm_sq() == 450
    assert (2 * alt_e2 - alt_e1).norm_sq() == 1350
    print("PASS criterion 4: d=15 frame invariants, constructed and published vectors")


def test_criterion_5_equal_pair_family():
    for k in (1, 3, 5, 7, 9):
        for l in range(1, 10):
            if math.gcd(k, l) != 1:
                continue
            triples = aeqb_generate(k, l)
            assert 1 <= len(triples) <= 2
            for t in triples:
                # canonical form may place the equal pair first or last
                eq, other = (t.a, t.c) if t.a == t.b else (t.b, t.a)
                assert t.a == t.b or t.b == t.c
                assert 2 * eq * eq + other * other == 3 * t.d**2
                assert math.gcd(eq, other) == 1
                assert t.d == 2 * l * l + k * k
    # radius 2011 collision: two distinct planes, identical polynomial
    triples = aeqb_generate(43, 9)
    assert sorted(t.abc() for t in triples) == [(139, 2461, 2461), (913, 913, 3235)]
    for t in triples:
        poly = ehrhart_poly(t)
        assert (poly.quad_num, poly.lin_num) == (2011, 2013)
        f, _ = frame_system(t)
        p, q = triangle_vertices(f, 1, 0)
        assert count(p, q, t, 1).total == poly.evaluate(1) == 2013
    print("PASS criterion 5: equal-pair sweep k,l <= 9 valid; both d=2011 planes give (2011,2013)")


def test_criterion_6_property_suites():
    universe = all_triples(41)

    # (alpha, beta) shift invariance of the boundary count, 5 shifts per triple
    for t in universe:
        f, ab = frame_system(t)
        hs = (ab.r_red + ab.s_red) // 2
        base = {mn: c1_general(f, ab, *mn) for mn in ACCEPT_PAIRS}
        for h in (-2, -1, 1, 2, 3):
            shifted = AlphaBeta(
                alpha=ab.alpha + h * hs,
                beta=ab.beta - h * ab.r_red,
                r_red=ab.r_red,
                s_red=ab.s_red,
                d=ab.d,
                tau_sign=ab.tau_sign,
            )
            assert hs * shifted.beta + shifted.r_red * shifted.alpha == t.d
            for mn, c1 in base.items():
                assert c1_general(f, shifted, *mn) == c1, (t.abc(), h, mn)

    # side divisors of the minimal triangle: pairwise coprime, each divides d
    for t in universe:
        f, ab = frame_system(t)
        nus = side_divisors(f, ab, 1, 0)
        trio = (nus.nu_op, nus.nu_pq, nus.nu_oq)
        assert all(t.d % nu == 0 for nu in trio)
        assert math.gcd(trio[0], trio[1]) == 1
        assert math.gcd(trio[0], trio[2]) == 1
        assert math.gcd(trio[1], trio[2]) == 1

    # frame choice: every representation 2*q = s^2 + 3*r^2 (r != 0) giving an
    # integral frame yields the same polynomials (and the conjugate pair at
    # norm 7 agrees as an unordered pair)
    for t in universe:
        basis = plane_basis(t)
        per_mn = {mn: set() for mn in [(1, 0), (1, 1), (2, 1)]}
        conjugate_pairs = set()
        two_q = 2 * (t.a * t.a + t.b * t.b)
        frames = 0
        for r in range(-math.isqrt(two_q // 3), math.isqrt(two_q // 3) + 1):
            s_abs = math.isqrt(two_q - 3 * r * r)
            if r == 0 or s_abs * s_abs != two_q - 3 * r * r:
                continue
            for s in (s_abs, -s_abs):
                try:
                    f = build_frame(t, rs=(r, s))
                except ValueError as exc:
                    assert "fractional" in str(exc), exc
                    continue
                frames += 1
                ab = solve_alpha_beta(f, basis)
                for mn in per_mn:
                    per_mn[mn].add(ehrhart_from_frame(f, ab, *mn))
                conjugate_pairs.add(
                    tuple(sorted((c1_general(f, ab, 3, 1), c1_general(f, ab, 3, 2))))
                )
        assert frames >= 4, (t.abc(), frames)
        for mn, polys in per_mn.items():
            assert len(polys) == 1, (t.abc(), mn, polys)
        assert len(conjugate_pairs) == 1, (t.abc(), conjugate_pairs)

    # parity: quadratic plus linear numerator is always even
    for t in universe:
        f, ab = frame_system(t)
        for mn in ACCEPT_PAIRS + [(2, 0), (4, 2), (-1, 1)]:
            poly = ehrhart_from_frame(f, ab, *mn)
            assert (poly.quad_num + poly.lin_num) % 2 == 0

    # oracle counts equal a cell-by-cell classification of a widened box
    for abc, mn in [((5, 7, 13), (2, 1)), ((1, 7, 25), (1, 1)), ((245, 613, 713), (1, 0))]:
        t = Triple.from_abc(*abc)
        f, _ = frame_system(t)
        p, q = triangle_vertices(f, *mn)
        for dil in (1, 2):
            rep = count(p, q, t, dil)
            assert (rep.total, rep.boundary, rep.per_side) == classify_cells(p, q, t, dil, 2)

    print("PASS criterion 6: shift invariance, divisor structure, frame choice, parity, widened box")


def test_criterion_7_adjudication():
    statement = (
        "boundary formula in use: nu_pq = gcd(-m*(r_red-s_red)/2 + n*r_red, "
        "m*(alpha+beta) - n*beta) with alpha+beta entering whole (not halved)"
    )
    # the whole-(alpha+beta) form must be flawless on an oracle campaign
    records = verify_campaign(15, ACCEPT_PAIRS, 2)
    assert campaign_summary(records) == (len(records), 0)
    # the halved alternative is not even well defined on this grid: the
    # combination m*(alpha+beta) - n*beta is odd in most cells, starting with
    # the d = 1 minimal triangle
    odd_cells = 0
    total_cells = 0
    for t in all_triples(33):
        _, ab = frame_system(t)
        for m, n in ACCEPT_PAIRS:
            total_cells += 1
            if (m * (ab.alpha + ab.beta) - n * ab.beta) % 2:
                odd_cells += 1
    _, ab1 = frame_system(Triple(1, 1, 1, 1))
    assert (ab1.alpha + ab1.beta) % 2 == 1
    assert odd_cells > total_cells // 2
    print(f"PASS criterion 7: {statement}; zero failures on {len(records)} records; "
          f"halving would be fractional in {odd_cells}/{total_cells} grid cells")
