import itertools
import json
import multiprocessing
import os
import pathlib
import pickle
import types

import pytest

from eqlat import catalog
from eqlat.catalog import (
    campaign_summary,
    e_of_d,
    table1_row,
    verify_campaign,
    verify_triple,
)
from eqlat.ehrhart import EhrhartPoly
from eqlat.lattice import Triple

GOLDEN = pathlib.Path(__file__).parent / "data" / "table1_golden.json"


def test_table1_row_d9():
    row = table1_row(9)
    assert row.d == 9
    assert row.triples == ((1, 11, 11), (5, 7, 13))
    assert row.e_size == 2
    assert row.c1_set == (5, 11)


def test_table1_row_even_d_is_empty():
    row = table1_row(4)
    assert row.triples == () and row.e_size == 0 and row.c1_set == ()


def test_table1_rows_match_golden():
    golden = json.loads(GOLDEN.read_text())
    for key, expected in golden.items():
        row = table1_row(int(key))
        assert [list(t) for t in row.triples] == expected["triples"], f"d={key}"
        assert row.e_size == expected["e_size"], f"d={key}"
        assert list(row.c1_set) == expected["c1_set"], f"d={key}"


def test_e_of_d():
    assert e_of_d(1) == {EhrhartPoly(1, 3)}
    assert e_of_d(9) == {EhrhartPoly(9, 5), EhrhartPoly(9, 11)}
    # three triples of radius 15 share a single polynomial
    assert e_of_d(15) == {EhrhartPoly(15, 5)}


def test_verify_triple_fields():
    recs = verify_triple(Triple.from_abc(5, 7, 13), [(1, 0), (2, 1)], range(1, 3))
    assert len(recs) == 4
    for rec in recs:
        assert rec.passed
        assert rec.formula_count == rec.oracle_count
        assert rec.boundary_expected == rec.boundary_actual == rec.lin_num * rec.t
        assert rec.per_side_expected == rec.per_side_actual
        assert rec.pick_ok
        assert rec.triple == (5, 7, 13) and rec.d == 9


def test_verify_triple_non_coprime_pair():
    (rec,) = verify_triple(Triple(1, 1, 1, 1), [(2, 0)], [1])
    # (2, 0) at dilation 1 is (1, 0) at dilation 2: 6 points, boundary 6
    assert rec.passed and rec.oracle_count == 6 and rec.boundary_actual == 6


def test_campaign_small():
    records = verify_campaign(9, [(1, 0), (1, 1)], 2)
    # six triples have d <= 9: one each for d in (1, 3, 5, 7), two for d = 9
    assert len(records) == 6 * 2 * 2
    assert campaign_summary(records) == (24, 0)


def test_verify_triple_rejects_degenerate():
    with pytest.raises(ValueError, match=r"^degenerate triangle: \(m, n\) = \(0, 0\)$"):
        verify_triple(Triple.from_abc(5, 7, 13), [(0, 0)], [1])


def test_campaign_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        verify_campaign(3, [(1, 0), (0, 0)], 1)


@pytest.mark.parametrize("d_max,t_max", [(3, 0), (0, 1), (-1, 2)])
def test_campaign_rejects_empty_ranges(d_max, t_max):
    # a campaign that checks nothing must not pass
    with pytest.raises(ValueError, match="positive"):
        verify_campaign(d_max, [(1, 0)], t_max)


@pytest.mark.parametrize("workers", [0, -3])
def test_campaign_rejects_nonpositive_workers(monkeypatch, workers):
    # rejected before any work, not run serially
    def no_work(d):
        raise AssertionError("triples enumerated")

    monkeypatch.setattr(catalog, "enumerate_triples", no_work)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        verify_campaign(5, [(1, 0)], 1, workers=workers)


def test_campaign_parallel_matches_serial(monkeypatch):
    # nine triples with d <= 11: the two stripes hold five and four, and the
    # records must come back interleaved into serial order, whole
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = verify_campaign(11, [(1, 0), (2, 1)], 2, workers=1)
    parallel = verify_campaign(11, [(1, 0), (2, 1)], 2, workers=2)
    assert len({r.triple for r in serial}) == 9
    assert parallel == serial


def test_record_pickles_as_itself():
    (rec,) = verify_triple(Triple.from_abc(5, 7, 13), [(2, 1)], [3])
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is catalog.VerificationRecord
    # a named tuple also equals the plain tuple of its fields
    assert rec == tuple(rec)


@pytest.mark.parametrize("stripe", [0, 1])
def test_campaign_stripe_error_propagates(monkeypatch, stripe):
    # stripe 0 runs in the caller, stripe 1 in the pool's one worker; the
    # failing stand-in reaches that worker only through fork, whatever the
    # platform's default start method
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(catalog, "Pool", multiprocessing.get_context("fork").Pool)
    triples = [t for d in range(1, 12) for t in catalog.enumerate_triples(d)]
    bad = triples[stripe]
    real = catalog.verify_triple

    def failing(t, *args):
        if t == bad:
            raise RuntimeError(f"stripe failed in process {os.getpid()}")
        return real(t, *args)

    monkeypatch.setattr(catalog, "verify_triple", failing)
    with pytest.raises(RuntimeError, match="stripe failed in process") as info:
        verify_campaign(11, [(1, 0)], 1, workers=2)
    in_caller = str(info.value).endswith(f"process {os.getpid()}")
    assert in_caller == (stripe == 0)
    # the pool is shut down before the error leaves verify_campaign
    assert multiprocessing.active_children() == []


def test_campaign_caps_workers_at_triple_count(monkeypatch):
    # d <= 1 has one triple, so a second worker would get an empty stripe
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(catalog, "Pool", no_pool)
    records = verify_campaign(1, [(1, 0)], 1, workers=2)
    assert [(r.triple, r.passed) for r in records] == [((1, 1, 1), True)]


def test_campaign_caps_workers_at_cpu_count(monkeypatch):
    # a stand-in pool that records its size and runs the tasks in-process
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap_async(self, func, tasks):
            results = list(itertools.starmap(func, tasks))
            return types.SimpleNamespace(get=lambda: results)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(catalog, "Pool", RecordingPool)
    # three triples with d <= 5, so the cpu count is the binding cap: two
    # stripes, one of them run by the caller
    records = verify_campaign(5, [(1, 0)], 1, workers=64)
    assert sizes == [1]
    assert records == verify_campaign(5, [(1, 0)], 1)
    assert sizes == [1]
