"""Layered benchmark of eqlat: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

eqlat is imported from the checkout's `src/`.  The run sets up (imports eqlat
and generates the seeded inputs, several times, reporting the median), then
calls items one after another in a closed loop until --seconds have passed,
checking each output outside the item's timer.  Times are rescaled to the
machine's typical speed with the reference loop of reference.py.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it is an `info` object with the environment,
sample counts, which percentile `item_tail_ref_ms` is, and the raw wall-clock
figures.

--trace 0 reports the end-to-end metrics.  --trace 1 replays a fixed number
of items twice, first as plain calls and then split into spans around each
public call, and reports per-layer metrics and the tracing overhead; the
spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
import types
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("lattice", "frame", "ehrhart", "oracle", "catalog", "cli")
SETUP_REPS = 7
TAIL_BEYOND = 10  # item_tail_ref_ms is the highest percentile with this many samples above it
MAX_REPORTED_FAILURES = 5

# spans of the traced run whose self time is reported as <name>.s
TIMED_SPANS = (
    "frame.enumerate_triples", "frame.find_rs", "frame.build_frame",
    "frame.solve_alpha_beta", "lattice.plane_basis", "ehrhart.ehrhart_from_frame",
    "oracle.count", "catalog.table1_row", "catalog.verify_campaign",
    "catalog.verify_triple", "cli.main",
)
COUNTED_SPANS = ("frame.enumerate_triples", "frame.find_rs", "ehrhart.ehrhart_from_frame", "oracle.count")


def import_eqlat():
    """Import eqlat afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "eqlat" or n.startswith("eqlat.")]:
        del sys.modules[name]
    eq = types.SimpleNamespace(**{m: importlib.import_module("eqlat." + m) for m in MODULES})
    if not Path(eq.oracle.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: eqlat imported from {eq.oracle.__file__}, not from {SRC}")
    return eq


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(eq) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    kernel_name = getattr(eq.oracle, "kernel_name", None)
    return {
        "python": platform.python_version(),
        "kernel": kernel_name() if kernel_name else None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def set_up(make):
    """Call make() SETUP_REPS times; returns its last result and the median time in ref seconds."""
    probe = reference.SpeedProbe()
    reps = []
    for _ in range(SETUP_REPS):
        probe.sample()
        start = time.perf_counter()
        wl = make()
        reps.append((start, time.perf_counter() - start))
    probe.sample()
    return wl, statistics.median(probe.rescale(start, wall) for start, wall in reps)


def attempt(wl, call, x, delta, errors):
    """Time call(x), then check its output. Returns (seconds, points or None)."""
    start = time.perf_counter()
    try:
        out = call(x)
    except Exception as exc:  # a failing item is counted, and the run goes on
        elapsed = time.perf_counter() - start
        errors.append(f"raised {exc!r}")
        return elapsed, None
    elapsed = time.perf_counter() - start
    # work left running would slow the reference loop and flatter the metrics
    if threading.active_count() > 1 or multiprocessing.active_children():
        errors.append("a thread or child process outlived the call")
        return elapsed, None
    try:
        return elapsed, wl.check(x, out, delta)
    except Exception as exc:
        errors.append(f"check failed: {exc}")
        return elapsed, None


def timed_items(make, wl, seconds, delta, errors):
    """Closed loop over the seeded inputs until `seconds` of wall time pass.

    The reference loop is sampled before every item and once more at the
    end.  Before the inputs come round again, eqlat is imported afresh, so
    nothing it cached in one pass speeds up the next.  Returns per item
    (wall seconds, ref seconds, points or None).
    """
    probe = reference.SpeedProbe()
    items = []
    elapsed = 0.0
    begin = time.perf_counter()
    while len(items) <= TAIL_BEYOND or time.perf_counter() - begin < seconds:
        index = len(items) % len(wl.inputs)
        if items and index == 0:
            wl = make()
        probe.sample(elapsed)
        start = time.perf_counter()
        elapsed, pts = attempt(wl, wl.run, wl.inputs[index], delta, errors)
        items.append((start, elapsed, pts))
    probe.sample(elapsed)
    return [(wall, probe.rescale(start, wall), pts) for start, wall, pts in items], probe


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(make, wl, setup_s, seconds, delta, errors):
    items, probe = timed_items(make, wl, seconds, delta, errors)
    n = len(items)
    passed = sum(pts is not None for _, _, pts in items)
    points = sum(pts for _, _, pts in items if pts is not None)
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    info = {"samples": n, "item_tail_percentile": round(100 * rank / n, 2),
            "reference_median_ms": probe.median_s() * 1000}
    metrics = {}
    for column, suffix, unit in ((1, "ref_", "ref_"), (0, "", "")):
        times = sorted(item[column] for item in items)
        busy = sum(times)
        values = {
            f"items_per_{suffix}s": (passed / busy, f"1/{unit}s"),
            f"points_per_{suffix}s": (points / busy, f"points/{unit}s"),
            f"item_p50_{suffix}ms": (statistics.median(times) * 1000, f"{unit}ms"),
            f"item_tail_{suffix}ms": (times[rank - 1] * 1000, f"{unit}ms"),
        }
        # the rescaled figures are the metrics; raw wall-clock ones go to info
        (metrics if suffix else info).update(values)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, n, n - passed, info


def per_layer(wl, delta, errors, trace_path):
    """The same fixed items untraced, then traced; per-layer totals in ref seconds."""
    items = [wl.inputs[i % len(wl.inputs)] for i in range(wl.trace_items)]
    probe = reference.SpeedProbe()
    tr = tracing.Tracer()

    def traced(x):
        with tr.span("item"):
            return wl.replay(x, tr)

    # a first call pays one-time costs (lazy imports, the first pool) that
    # would otherwise land in the untraced pass only
    elapsed, pts = attempt(wl, wl.run, items[0], delta, errors)
    failed = pts is None
    untraced_runs, traced_runs = [], []
    for call, runs in ((wl.run, untraced_runs), (traced, traced_runs)):
        for i, x in enumerate(items):
            probe.sample(elapsed)
            tr.item = i
            start = time.perf_counter()
            elapsed, pts = attempt(wl, call, x, delta, errors)
            runs.append((start, elapsed))
            failed += pts is None
    probe.sample(elapsed)
    untraced = sum(probe.rescale(start, wall) for start, wall in untraced_runs)
    scale = {i: probe.rescale(start, wall) / wall for i, (start, wall) in enumerate(traced_runs)}
    by_name, consistent = tracing.summarize(tr.spans, scale)
    if not consistent:
        errors.append("a span lies outside its parent, or its children outlast it")
    OUT.mkdir(exist_ok=True)
    tr.write(trace_path)

    def agg(name, key):
        return by_name.get(name, {}).get(key, 0)

    def counted(name, key):
        return by_name.get(name, {}).get("counts", {}).get(key, 0)

    metrics = {f"{s}.s": (agg(s, "self_ns") / 1e9, "ref_s") for s in TIMED_SPANS}
    metrics.update({f"{s}.calls": (agg(s, "calls"), "count") for s in COUNTED_SPANS})
    points, cells = counted("oracle.count", "points"), counted("oracle.count", "box_cells")
    campaign_ns = agg("catalog.verify_campaign", "total_ns")
    metrics.update({
        "frame.enumerate_triples.triples": (counted("frame.enumerate_triples", "triples"), "count"),
        "frame.find_rs.r_abs": (counted("frame.find_rs", "r_abs"), "count"),
        "oracle.count.points": (points, "count"),
        "oracle.count.box_cells": (cells, "count"),
        "oracle.count.points_per_cell": (points / cells if cells else 0.0, "ratio"),
        "catalog.parallel_efficiency": (
            agg("catalog.verify_triple", "total_ns") / (workloads.WORKERS * campaign_ns)
            if campaign_ns else 0.0,
            "ratio",
        ),
        "trace.overhead_frac": (agg(wl.overhead_span, "total_ns") / 1e9 / untraced - 1, "ratio"),
        "trace.spans": (len(tr.spans), "count"),
    })
    info = {"samples": len(items), "untraced_ref_s": untraced, "spans_consistent": consistent,
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, 2 * len(items) + 1, failed, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload on small inputs, for the smoke test")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="add 1 to an expected value in every check, to show failures are caught")
    args = ap.parse_args(argv)

    if not (SRC / "eqlat" / "__init__.py").is_file():
        print(f"error: no eqlat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    delta = 1 if args.corrupt_expected else 0
    def make():
        return workloads.WORKLOADS[args.workload](
            import_eqlat(), random.Random(args.seed), args.size == "tiny", ROOT)

    wl, setup_s = set_up(make)
    errors: list[str] = []
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed, info = per_layer(wl, delta, errors, trace_path)
    else:
        metrics, attempted, failed, info = end_to_end(make, wl, setup_s, args.seconds, delta, errors)
    try:
        wl.final_check(delta)
    except workloads.CheckFailed as exc:
        errors.append(f"final check failed: {exc}")
    for err in errors[:MAX_REPORTED_FAILURES]:
        print(err, file=sys.stderr)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "setup_s": setup_s,
        "failed_frac": failed / attempted, "env": environment(wl.eq),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
