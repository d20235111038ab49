"""Catalog rows per radius d and the formula-versus-oracle campaign."""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import Pool
from typing import NamedTuple

from .ehrhart import (
    EhrhartPoly,
    c0_doubled,
    ehrhart_from_frame,
    frame_system,
    side_divisors,
)
from .frame import (
    AlphaBeta,
    Frame,
    Triple,
    build_frame,
    enumerate_triples,
    solve_alpha_beta,
    triangle_vertices,
)
from .lattice import BasisPair, plane_basis
from .oracle import Triangle, pick_check


@dataclass(frozen=True, slots=True)
class CatalogRow:
    """All triples of one radius with their distinct boundary counts."""

    d: int
    triples: tuple[tuple[int, int, int], ...]
    e_size: int
    c1_set: tuple[int, ...]


class VerificationRecord(NamedTuple):
    """One formula-versus-oracle comparison.

    A named tuple: it pickles as its field values, which a campaign's parent
    unpickles cheaply, and it also compares equal to the plain tuple of them.
    """

    triple: tuple[int, int, int]
    d: int
    m: int
    n: int
    t: int
    quad_num: int
    lin_num: int
    formula_count: int
    oracle_count: int
    boundary_expected: int
    boundary_actual: int
    per_side_expected: tuple[int, int, int]
    per_side_actual: tuple[int, int, int]
    pick_ok: bool
    passed: bool


def table1_row(d: int) -> CatalogRow:
    """Triples and minimal-triangle boundary counts for one radius."""
    triples = enumerate_triples(d)
    c1s = set()
    for t in triples:
        f, ab = frame_system(t)
        c1s.add(ehrhart_from_frame(f, ab, 1, 0).lin_num)
    return CatalogRow(
        d=d,
        triples=tuple(t.abc() for t in triples),
        e_size=len(c1s),
        c1_set=tuple(sorted(c1s)),
    )


def e_of_d(d: int) -> set[EhrhartPoly]:
    """Distinct minimal-triangle polynomials over all triples of radius d."""
    return {EhrhartPoly(c0_doubled(d, 1, 0), c1) for c1 in table1_row(d).c1_set}


def _check_pairs(mn_list: list[tuple[int, int]]) -> None:
    for m, n in mn_list:
        if m == 0 and n == 0:
            raise ValueError("degenerate triangle: (m, n) = (0, 0)")


def verify_pair(
    f: Frame,
    ab: AlphaBeta,
    basis: BasisPair,
    m: int,
    n: int,
    dilations: Sequence[int],
) -> list[VerificationRecord]:
    """Run every dilation comparison for the (m, n) triangle of one frame."""
    t = f.triple
    poly = ehrhart_from_frame(f, ab, m, n)
    nus = side_divisors(f, ab, m, n)
    tri = Triangle(*triangle_vertices(f, m, n), t, basis)
    records = []
    for dil in dilations:
        rep = tri.count(dil)
        expected_sides = nus.interior_counts(dil)
        expected_boundary = nus.total() * dil
        formula = poly.evaluate(dil)
        pick_ok = pick_check(rep, poly.quad_num, dil)
        ok = (
            formula == rep.total
            and rep.boundary == expected_boundary
            and rep.per_side == expected_sides
            and pick_ok
        )
        records.append(
            VerificationRecord(
                triple=t.abc(),
                d=t.d,
                m=m,
                n=n,
                t=dil,
                quad_num=poly.quad_num,
                lin_num=poly.lin_num,
                formula_count=formula,
                oracle_count=rep.total,
                boundary_expected=expected_boundary,
                boundary_actual=rep.boundary,
                per_side_expected=expected_sides,
                per_side_actual=rep.per_side,
                pick_ok=pick_ok,
                passed=ok,
            )
        )
    return records


def verify_triple(
    t: Triple,
    mn_list: list[tuple[int, int]],
    dilations: Sequence[int],
) -> list[VerificationRecord]:
    """Run every (m, n, dilation) comparison for one triple."""
    _check_pairs(mn_list)
    f = build_frame(t)
    basis = plane_basis(t)
    ab = solve_alpha_beta(f, basis)
    return [rec for m, n in mn_list for rec in verify_pair(f, ab, basis, m, n, dilations)]


def _verify_stripe(
    triples: list[Triple],
    mn_list: list[tuple[int, int]],
    dilations: Sequence[int],
) -> list[list[VerificationRecord]]:
    return [verify_triple(t, mn_list, dilations) for t in triples]


def verify_campaign(
    d_max: int,
    mn_list: list[tuple[int, int]],
    t_max: int,
    workers: int = 1,
) -> list[VerificationRecord]:
    """Compare formulas against the oracle for every triple with d <= d_max.

    At most os.cpu_count() workers run, and no more than there are triples.
    Each gets one stripe, triples[i::workers]: cost grows with d, so
    interleaved stripes balance.  The caller runs stripe 0 itself while a
    pool of workers - 1 processes, created for this call, runs the rest; an
    exception from any stripe propagates after the pool is shut down.
    Records come back in serial order.
    """
    if d_max < 1 or t_max < 1:
        raise ValueError("d_max and t_max must be positive integers")
    if workers < 1:
        raise ValueError("workers must be a positive integer")
    _check_pairs(mn_list)
    triples = [t for d in range(1, d_max + 1) for t in enumerate_triples(d)]
    dilations = range(1, t_max + 1)
    workers = min(workers, os.cpu_count() or 1, len(triples))
    if workers > 1:
        tasks = [(triples[i::workers], mn_list, dilations) for i in range(1, workers)]
        with Pool(workers - 1) as pool:
            rest = pool.starmap_async(_verify_stripe, tasks)
            stripes = [_verify_stripe(triples[::workers], mn_list, dilations), *rest.get()]
        chunks = [None] * len(triples)
        for i, stripe in enumerate(stripes):
            chunks[i::workers] = stripe
    else:
        chunks = _verify_stripe(triples, mn_list, dilations)
    return [rec for chunk in chunks for rec in chunk]


def campaign_summary(records: list[VerificationRecord]) -> tuple[int, int]:
    """(passed, failed) totals."""
    passed = sum(1 for r in records if r.passed)
    return passed, len(records) - passed
