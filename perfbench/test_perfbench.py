"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*args):
    proc = bench("--size", "tiny", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    info, res = result("--workload", workload, "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 11
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert info["failed_frac"] == 0
    assert set(info["env"]) == {"python", "kernel", "nproc", "commit", "src_sha256"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_spec(workload):
    info, res = result("--workload", workload, "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(res["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    assert info["spans_consistent"]
    assert res["metrics"]["trace.spans"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_fails_items(workload):
    info, res = result("--workload", workload, "--trace", "0", "--corrupt-expected")
    assert not res["correct"]
    assert info["failed_frac"] > 0 and res["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_kernels(tmp_path):
    def write(name, kernel):
        rec = {"info": {"workload": "catalog", "env": {"kernel": kernel}},
               "result": {"metrics": {}}}
        (tmp_path / name).write_text(json.dumps(rec) + "\n")

    write("a.jsonl", "pure")
    write("b.jsonl", "compiled")
    proc = subprocess.run(
        [sys.executable, "perfbench/suite.py", "compare", str(tmp_path / "a.jsonl"),
         str(tmp_path / "b.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "refusing" in proc.stderr
