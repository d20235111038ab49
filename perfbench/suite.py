"""Run the benchmark over many seeds, summarize the results, compare two sets.

    python3 perfbench/suite.py run --seeds 1-10 --out perfbench/out/a.jsonl
    python3 perfbench/suite.py report perfbench/out/a.jsonl
    python3 perfbench/suite.py compare perfbench/out/a.jsonl perfbench/out/b.jsonl

`run` calls perfbench/run.py once per (seed, workload), seeds in the outer
loop so that slow drift of the machine spreads over every workload, appends
each run's info and result to --out, and prints the report.  The report
gives, per workload and metric, the median, the quartiles and the spread
(interquartile distance over the median) beside the metric's bound, plus the
share of failed items.  `compare` refuses two sets measured on different
scan kernels.  It flags every end-to-end metric whose median got worse by
more than its bound, and calls a metric unresolved when either set spreads
wider than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for name in [w["name"] for w in SPEC["workloads"]]:
            cmd = SPEC["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            record = {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}
            with out.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{name} seed {seed}: correct={record['result']['correct']}", file=sys.stderr)
    return report_files([out])


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def group(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        out.setdefault(rec["info"]["workload"], []).append(rec)
    return out


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def bounds() -> dict[str, dict]:
    return {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def report_files(paths: list[Path]) -> int:
    records = [rec for path in paths for rec in load(path)]
    spec = bounds()
    kernels = sorted({str(rec["info"]["env"]["kernel"]) for rec in records})
    print(f"kernel: {', '.join(kernels)}   python: "
          f"{', '.join(sorted({rec['info']['env']['python'] for rec in records}))}")
    for name, recs in group(records).items():
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        correct = all(r["result"]["correct"] for r in recs)
        pct = statistics.median(r["info"].get("item_tail_percentile", 0) for r in recs)
        samples = statistics.median(r["info"]["samples"] for r in recs)
        print(f"\n{name}: {len(recs)} runs, seeds {sorted(r['info']['seed'] for r in recs)}")
        print(f"  failed_frac {failed / attempted:.4g} ({failed}/{attempted}), correct={correct}, "
              f"median {samples:g} items per run, item_tail_ref_ms = p{pct:g}")
        print(f"  {'metric':34} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for metric in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in recs]
            st = stats(values)
            unit = recs[0]["result"]["metrics"][metric]["unit"]
            bound = spec.get(metric, {}).get("bound")
            print(f"  {metric:34} {unit:9} {st['median']:12.6g} {st['q1']:12.6g} {st['q3']:12.6g} "
                  f"{st['spread']:7.3f} {'' if bound is None else bound:>6}")
    return 0


def compare(args) -> int:
    base, new = load(Path(args.base)), load(Path(args.new))
    kernels = {side: {rec["info"]["env"]["kernel"] for rec in recs} - {None}
               for side, recs in (("base", base), ("new", new))}
    if kernels["base"] and kernels["new"] and kernels["base"] != kernels["new"]:
        print(f"refusing to compare: scan kernel {sorted(kernels['base'])} versus "
              f"{sorted(kernels['new'])}", file=sys.stderr)
        return 2
    worse_any = False
    base_g, new_g = group(base), group(new)
    for metric in SPEC["end_to_end"]:
        for name in sorted(set(base_g) & set(new_g)):
            b = stats([r["result"]["metrics"][metric["name"]]["value"] for r in base_g[name]])
            n = stats([r["result"]["metrics"][metric["name"]]["value"] for r in new_g[name]])
            change = (n["median"] - b["median"]) / b["median"]
            worse = change if metric["better"] == "lower" else -change
            if worse > metric["bound"]:
                verdict = "WORSE"
            elif max(b["spread"], n["spread"]) > metric["bound"]:
                verdict = "unresolved: spread wider than the bound"
            else:
                verdict = "ok"
            worse_any |= verdict == "WORSE"
            print(f"{name:11} {metric['name']:16} {b['median']:12.6g} -> {n['median']:12.6g} "
                  f"{change:+8.2%}  bound {metric['bound']:.2f}  {verdict}")
    return 1 if worse_any else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("run")
    sp.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    sp.add_argument("--out", required=True)
    sp = sub.add_parser("report")
    sp.add_argument("files", nargs="+")
    sp = sub.add_parser("compare")
    sp.add_argument("base")
    sp.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        return run(args)
    if args.cmd == "report":
        return report_files([Path(p) for p in args.files])
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
