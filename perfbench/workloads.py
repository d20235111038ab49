"""The four workloads: seeded inputs, the timed call, its traced replay, its check.

Each workload class is built from the imported eqlat modules (`eq`), a seeded
`random.Random`, and whether to use the tiny sizes of the smoke test.  It
exposes

    inputs          the seeded item list; a run walks it in order and wraps
    run(x)          one item: the public call a user would make
    replay(x, tr)   the same item split into its public calls, each in a span
    check(x, out, delta) -> points
                    verify the output, raising CheckFailed on any mismatch;
                    delta is added to expected values to prove a wrong
                    expectation is caught.  Returns the lattice points the
                    item verified.
    final_check(delta)
                    checks made once per run, outside the timed items
    trace_items     how many items the traced run replays
    overhead_span   the span whose time the traced run sets against the
                    untraced items to state the tracing overhead
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import types

WORKERS = 2


class CheckFailed(Exception):
    pass


class Workload:
    overhead_span = "item"

    def final_check(self, delta):
        """Checks made once per run, after the timed items; raise CheckFailed."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def traced_frame_system(eq, t, tr):
    """ehrhart.frame_system(t), one span per public call it makes."""
    with tr.span("frame.find_rs") as c:
        rs = eq.frame.find_rs(t)
        c["r_abs"] = abs(rs[0])
    with tr.span("frame.build_frame"):
        f = eq.frame.build_frame(t, rs=rs)
    with tr.span("lattice.plane_basis"):
        basis = eq.lattice.plane_basis(t)
    with tr.span("frame.solve_alpha_beta"):
        ab = eq.frame.solve_alpha_beta(f, basis)
    return f, ab, basis


def box_cells(eq, p, q, t, dil, basis) -> int:
    """Cells of the oracle's bounding box: the dilated vertices in (u, tau)."""
    cp = eq.lattice.coordinates_in_basis(p, basis, t)
    cq = eq.lattice.coordinates_in_basis(q, basis, t)
    spans = []
    for k in (0, 1):
        ends = (0, dil * cp[k], dil * cq[k])
        spans.append(max(ends) - min(ends) + 1)
    return spans[0] * spans[1]


def check_count(eq, rep, poly, nus, g, dil, delta) -> int:
    """Oracle report against the closed forms of the (m, n) triangle at dil."""
    eff = g * dil
    expect(rep.total == poly.evaluate(dil) + delta, f"total {rep.total} != L({dil})")
    expect(rep.boundary == nus.total() * eff, "boundary != side_divisors total")
    expect(rep.per_side == nus.interior_counts(eff), "per-side counts != side_divisors")
    expect(eq.oracle.pick_check(rep, poly.quad_num, dil), "Pick identity fails")
    return rep.total


class Catalog(Workload):
    """catalog.table1_row(d) over seeded contiguous windows of radii.

    enumerate_triples is O(d^2) and takes about 95% of a row at d ~ 1000.
    The band d = 925-1075 is cut into 25 strata of 6 radii; the seed picks
    one of 5 window starts in each.  Windows are taken round-robin over the
    strata, alternating low and high ones, so every stretch of a run sees the
    whole band and the seed moves cost little.  The band is narrow because
    the tail percentile comes from the rows of its top few strata: in a wider
    band the seed and the row count of a run decide which rows those are, and
    over d = 800-1200 the tail spread by up to 13% over 10 seeds.
    """

    name = "catalog"
    # t = 6 makes the area term dominate the points a row verifies, so the
    # verified point rate does not hinge on which triple each row samples
    CHECK_DILATIONS = (1, 6)

    def __init__(self, eq, rng, tiny, root):
        self.eq = eq
        lo, hi, strata, window = (1, 41, 4, 3) if tiny else (925, 1075, 25, 2)
        width = (hi - lo) // strata
        order = [s for pair in zip(range(strata), reversed(range(strata))) for s in pair]
        # a window's rows run upward, as table1 walks them; neighbouring radii
        # are one odd (with triples) and one even (with none), so every
        # stretch of a run has as many of each
        self.inputs = []
        for s in order[:strata]:
            start = lo + s * width + rng.randrange(width - window + 1)
            # each row carries a draw that picks the triple its check counts
            self.inputs += [(start + k, rng.random()) for k in range(window)]
        golden = json.loads((root / "tests" / "data" / "table1_golden.json").read_text())
        self.golden = {int(d): row for d, row in golden.items()}
        self.trace_items = strata

    def run(self, x):
        return self.eq.catalog.table1_row(x[0])

    def replay(self, x, tr):
        eq, d = self.eq, x[0]
        with tr.span("catalog.table1_row"):
            with tr.span("frame.enumerate_triples") as c:
                triples = eq.frame.enumerate_triples(d)
                c["triples"] = len(triples)
            c1s = set()
            for t in triples:
                f, ab, _ = traced_frame_system(eq, t, tr)
                with tr.span("ehrhart.ehrhart_from_frame"):
                    c1s.add(eq.ehrhart.ehrhart_from_frame(f, ab, 1, 0).lin_num)
            return eq.catalog.CatalogRow(
                d=d,
                triples=tuple(t.abc() for t in triples),
                e_size=len(c1s),
                c1_set=tuple(sorted(c1s)),
            )

    def _check_row(self, d, row, delta):
        expect(row.d == d, f"row for {row.d}, asked {d}")
        triples = list(row.triples)
        expect(triples == sorted(set(triples)), "triples not in strict lex order")
        for a, b, c in triples:
            expect(0 < a <= b <= c, f"{(a, b, c)} not canonical")
            expect(math.gcd(a, b, c) == 1, f"{(a, b, c)} not primitive")
            expect(a * a + b * b + c * c == 3 * d * d, f"{(a, b, c)} off the sphere 3d^2")
        expect(row.e_size == len(row.c1_set), "e_size != |c1_set|")
        gold = self.golden.get(d)
        if gold is not None:
            expect([list(t) for t in triples] == gold["triples"], "triples != golden")
            expect(row.e_size == gold["e_size"] + delta, "e_size != golden")
            expect(list(row.c1_set) == gold["c1_set"], "c1_set != golden")

    def check(self, x, row, delta):
        eq, (d, draw) = self.eq, x
        self._check_row(d, row, delta)
        if not row.triples:
            expect(not row.c1_set, "empty row with boundary counts")
            return 0
        t = eq.lattice.Triple(*row.triples[int(draw * len(row.triples))], d)
        f, ab = eq.ehrhart.frame_system(t)
        poly = eq.ehrhart.ehrhart_from_frame(f, ab, 1, 0)
        expect(poly.lin_num in row.c1_set, "sampled triple's c1 not in row")
        p, q = eq.frame.triangle_vertices(f, 1, 0)
        nus = eq.ehrhart.side_divisors(f, ab, 1, 0)
        return sum(
            check_count(eq, eq.oracle.count(p, q, t, dil), poly, nus, 1, dil, delta)
            for dil in self.CHECK_DILATIONS
        )

    def final_check(self, delta):
        for d in sorted(self.golden):
            self._check_row(d, self.eq.catalog.table1_row(d), delta)


class BigPlanes(Workload):
    """frame_system plus ehrhart_from_frame on large equal-pair planes.

    find_rs scans r linearly until a representation works, so a plane costs
    O(|r|) and |r|/d is spread nearly uniformly over (0, 1).  d is drawn from
    a narrow band near 10^5: a wide band would let a few planes near its top
    decide the throughput and the tail of each seed.
    """

    name = "big_planes"
    PAIRS = ((1, 0), (2, 1), (3, 1), (3, 2), (4, 1), (5, 2))

    def __init__(self, eq, rng, tiny, root):
        self.eq = eq
        lo, hi, n = (500, 2000, 50) if tiny else (99_000, 101_000, 4000)
        self.inputs = [self._plane(rng, lo, hi) for _ in range(n)]
        self.trace_items = 10 if tiny else 300

    def _plane(self, rng, lo, hi):
        while True:
            d = rng.randint(lo, hi)
            l = rng.randint(1, math.isqrt(d // 2))
            k = math.isqrt(d - 2 * l * l)
            k -= 1 - k % 2
            if k >= 1 and math.gcd(k, l) == 1:
                planes = self.eq.frame.aeqb_generate(k, l)
                return planes[rng.randrange(len(planes))]

    def run(self, t):
        f, ab = self.eq.ehrhart.frame_system(t)
        return f, [self.eq.ehrhart.ehrhart_from_frame(f, ab, m, n) for m, n in self.PAIRS]

    def replay(self, t, tr):
        f, ab, _ = traced_frame_system(self.eq, t, tr)
        polys = []
        for m, n in self.PAIRS:
            with tr.span("ehrhart.ehrhart_from_frame"):
                polys.append(self.eq.ehrhart.ehrhart_from_frame(f, ab, m, n))
        return f, polys

    def check(self, t, out, delta):
        eh = self.eq.ehrhart
        f, polys = out
        checks = self.eq.frame.check_frame_vectors(t, f.e1, f.e2)
        expect(all(checks.values()), f"frame checks {checks}")
        expect(len(polys) == len(self.PAIRS), "a polynomial is missing")
        points = 0
        for (m, n), poly in zip(self.PAIRS, polys):
            g = math.gcd(m, n)
            expect(poly.quad_num == eh.c0_doubled(t.d, m // g, n // g) * g * g + delta,
                   f"A != c0_doubled for {(m, n)}")
            expect(poly.lin_num == eh.c1_aeqb(t.d, m // g, n // g) * g, f"B != c1_aeqb for {(m, n)}")
            points += poly.evaluate(1)
        return points


class DeepCount(Workload):
    """One oracle.count per item at a dilation sized to about 10^5 points.

    Triples are drawn from every triple with d <= 61; every eighth item is
    one of two skewed-basis planes instead, whose long scan rows are what
    basis reduction would shorten.
    """

    name = "deep_count"
    PAIRS = ((1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2))
    SKEWED = ((139, 2461, 2461), (913, 913, 3235))

    def __init__(self, eq, rng, tiny, root):
        self.eq = eq
        d_max, target, n = (15, 1000, 32) if tiny else (61, 100_000, 1000)
        pool = [t for d in range(1, d_max + 1) for t in eq.frame.enumerate_triples(d)]
        skewed = [eq.lattice.Triple.from_abc(*abc) for abc in self.SKEWED]
        prepared = {}
        self.inputs = []
        turn = rng.randrange(len(self.PAIRS))
        for i in range(n):
            if i % 8:
                t, mn = rng.choice(pool), rng.choice(self.PAIRS)
            else:
                # the skewed planes are the slowest items and set the tail, so
                # they take every (m, n) in turn rather than a random draw
                t, mn = skewed[(i // 8) % 2], self.PAIRS[(turn + i // 16) % len(self.PAIRS)]
            key = (t.abc(), mn)
            if key not in prepared:
                prepared[key] = self._prepare(t, *mn, target)
            self.inputs.append(prepared[key])
        self.trace_items = 8 if tiny else 60

    def _prepare(self, t, m, n, target):
        eq = self.eq
        f, ab = eq.ehrhart.frame_system(t)
        basis = eq.lattice.plane_basis(t)
        p, q = eq.frame.triangle_vertices(f, m, n)
        poly = eq.ehrhart.ehrhart_from_frame(f, ab, m, n)
        g = math.gcd(m, n)
        dil = max(1, round(math.sqrt(2 * target / poly.quad_num)))
        return types.SimpleNamespace(
            t=t, p=p, q=q, basis=basis, dil=dil, poly=poly, g=g,
            nus=eq.ehrhart.side_divisors(f, ab, m // g, n // g),
            cells=box_cells(eq, p, q, t, dil, basis),
        )

    def run(self, x):
        return self.eq.oracle.count(x.p, x.q, x.t, x.dil, basis=x.basis)

    def replay(self, x, tr):
        with tr.span("oracle.count") as c:
            rep = self.eq.oracle.count(x.p, x.q, x.t, x.dil, basis=x.basis)
            c["points"] = rep.total
            c["box_cells"] = x.cells
        return rep

    def check(self, x, rep, delta):
        return check_count(self.eq, rep, x.poly, x.nus, x.g, x.dil, delta)


def count_triples(d_max: int) -> int:
    """Canonical primitive triples with d <= d_max, counted without eqlat."""
    n = 0
    for d in range(1, d_max + 1):
        target = 3 * d * d
        for a in range(1, math.isqrt(target // 3) + 1):
            for b in range(a, math.isqrt((target - a * a) // 2) + 1):
                c = math.isqrt(target - a * a - b * b)
                if c * c == target - a * a - b * b and c >= b and math.gcd(a, b, c) == 1:
                    n += 1
    return n


class Campaign(Workload):
    """In-process `eqlat verify` with 2 pool workers and machine output.

    Thousands of tiny scans, so per-call overhead, the process pool and JSON
    rendering dominate.  Each item takes one seeded (m, n) pair from each of
    four norm classes m^2 - mn + n^2 = 1, 3, 7, 13, so every item scans
    about the same number of points.
    """

    name = "campaign"
    overhead_span = "cli.main"
    CLASSES = (
        ((1, 0), (1, 1), (0, 1)),
        ((2, 1), (1, 2)),
        ((3, 1), (3, 2), (1, 3), (2, 3)),
        ((4, 1), (4, 3), (1, 4), (3, 4)),
    )

    def __init__(self, eq, rng, tiny, root):
        self.eq = eq
        self.d_max, self.t_max, n = (9, 2, 20) if tiny else (45, 3, 200)
        self.inputs = []
        for _ in range(n):
            pairs = [rng.choice(cls) for cls in self.CLASSES]
            rng.shuffle(pairs)
            self.inputs.append(pairs)
        self.records = count_triples(self.d_max) * len(self.CLASSES) * self.t_max
        self.triples = [t for d in range(1, self.d_max + 1) for t in eq.frame.enumerate_triples(d)]
        self.trace_items = 2 if tiny else 4

    def _argv(self, pairs):
        text = ",".join(f"({m},{n})" for m, n in pairs)
        return ["verify", str(self.d_max), text, str(self.t_max),
                "--parallel", str(WORKERS), "--format", "machine"]

    def run(self, pairs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.eq.cli.main(self._argv(pairs))
        return code, buf.getvalue()

    def replay(self, pairs, tr):
        eq = self.eq
        # cli reaches the campaign through the catalog module attribute; wrap
        # it there so the campaign shows as a child of cli.main
        campaign = eq.catalog.verify_campaign

        def traced_campaign(*args, **kwargs):
            with tr.span("catalog.verify_campaign"):
                return campaign(*args, **kwargs)

        eq.catalog.verify_campaign = traced_campaign
        try:
            with tr.span("cli.main"):
                out = self.run(pairs)
        finally:
            eq.catalog.verify_campaign = campaign
        # the same triangles again, serially, as verify_triple's public calls
        scans = []
        for t in self.triples:
            with tr.span("catalog.verify_triple"):
                f, ab, basis = traced_frame_system(eq, t, tr)
                for m, n in pairs:
                    with tr.span("ehrhart.ehrhart_from_frame"):
                        eq.ehrhart.ehrhart_from_frame(f, ab, m, n)
                    g = math.gcd(m, n)
                    eq.ehrhart.side_divisors(f, ab, m // g, n // g)
                    p, q = eq.frame.triangle_vertices(f, m, n)
                    for dil in range(1, self.t_max + 1):
                        with tr.span("oracle.count") as c:
                            c["points"] = eq.oracle.count(p, q, t, dil, basis=basis).total
                        scans.append((c, p, q, t, dil, basis))
        for c, *args in scans:
            c["box_cells"] = box_cells(eq, *args)
        return out

    def check(self, pairs, out, delta):
        code, text = out
        expect(code == 0, f"exit code {code}")
        results = json.loads(text)["results"]
        expect(results["failed"] == "0", f"failed = {results['failed']}")
        records = results["records"]
        expect(len(records) == self.records + delta, f"{len(records)} records, expected {self.records}")
        expect(all(r["passed"] for r in records), "a record did not pass")
        return sum(int(r["oracle_count"]) for r in records)


WORKLOADS = {cls.name: cls for cls in (Catalog, BigPlanes, DeepCount, Campaign)}
