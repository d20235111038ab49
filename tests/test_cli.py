import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eqlat import catalog, cli, ehrhart, frame, lattice, oracle
from eqlat.cli import _parse_mn_list, main

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_machine(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "machine")
    return code, json.loads(out), err


def no_bare_numbers(node):
    """Machine output carries every integer as a decimal string."""
    if isinstance(node, bool) or node is None:
        return True
    if isinstance(node, (int, float)):
        return False
    if isinstance(node, list):
        return all(no_bare_numbers(v) for v in node)
    if isinstance(node, dict):
        return all(no_bare_numbers(v) for v in node.values())
    return isinstance(node, str)


def reference_stringify(value):
    """Every int as its decimal string, tuples as lists, records as field dicts."""
    if isinstance(value, catalog.VerificationRecord):
        value = value._asdict()
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [reference_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: reference_stringify(v) for k, v in value.items()}
    return value


def reference_render(doc):
    return json.dumps(reference_stringify(doc), sort_keys=True, indent=2)


def emitted(doc):
    out = []
    cli._emit(doc, "", out)
    return "".join(out)


json_scalars = st.one_of(st.booleans(), st.integers(), st.integers(-(2**70), 2**70), st.text())
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25,
)


@given(json_documents)
@example({"failures": ["Zähler ≠ Formel: \u00e9\ud800 \"quoted\"\n"], "results": {}})
@example({"a": [], "b": {}, "c": [[], {}], "": [True, False]})
@example([-1, 0, 2**64 + 1, -(2**64) - 1, 10**30])
@example("")
def test_emitter_matches_json(value):
    # a machine document is a dict at the top
    doc = {"results": value}
    assert emitted(doc) == reference_render(doc)


def test_emitter_renders_failing_record():
    (rec,) = catalog.verify_triple(lattice.Triple.from_abc(5, 7, 13), [(2, 1)], [3])
    bad = rec._replace(formula_count=rec.formula_count + 3, passed=False)
    doc = {"results": {"records": [rec, bad], "failed": 1}, "failures": [bad]}
    text = emitted(doc)
    assert text == reference_render(doc)
    assert json.loads(text)["failures"][0]["passed"] is False


wide_ints = st.one_of(st.integers(), st.integers(-(2**70), 2**70))
int_triples = st.tuples(wide_ints, wide_ints, wide_ints)
verification_records = st.builds(
    catalog.VerificationRecord,
    triple=int_triples,
    d=wide_ints,
    m=wide_ints,
    n=wide_ints,
    t=wide_ints,
    quad_num=wide_ints,
    lin_num=wide_ints,
    formula_count=wide_ints,
    oracle_count=wide_ints,
    boundary_expected=wide_ints,
    boundary_actual=wide_ints,
    per_side_expected=int_triples,
    per_side_actual=int_triples,
    pick_ok=st.booleans(),
    passed=st.booleans(),
)


@given(st.lists(verification_records, max_size=3), st.lists(verification_records, max_size=2))
@example(
    [catalog.VerificationRecord((1, -2, 2**64), *range(-5, 5), (0, -1, -(2**64) - 1), (7, 7, 7), True, False)],
    [catalog.VerificationRecord((2**65, 3, 1), *range(10), (1, 2, 3), (3, 2, 1), False, True)],
)
def test_emitter_renders_records(records, failures):
    # records sit at two depths in a verify document, so at two indents
    doc = {"results": {"records": records, "failed": len(failures)}, "failures": failures}
    assert emitted(doc) == reference_render(doc)


def test_emitter_rejects_other_types():
    with pytest.raises(TypeError, match="float"):
        emitted({"x": 1.5})


def test_parse_mn_list():
    assert _parse_mn_list("(1,0),(2,1)") == [(1, 0), (2, 1)]
    assert _parse_mn_list(" ( 1 , 0 ) , ( -3 , 2 ) ") == [(1, 0), (-3, 2)]
    with pytest.raises(ValueError):
        _parse_mn_list("1,0")
    with pytest.raises(ValueError):
        _parse_mn_list("(1,0),(2;1)")


def test_triples_human(capsys):
    code, out, err = run_cli(capsys, "triples", "9")
    assert code == 0 and err == ""
    assert "d = 9: 2 triple(s)" in out
    assert "1 11 11" in out and "5 7 13" in out


def test_triples_machine(capsys):
    code, doc, _ = run_machine(capsys, "triples", "9")
    assert code == 0
    assert doc["schema_version"] == "2"
    assert doc["command"] == "triples"
    assert doc["inputs"]["d"] == "9"
    assert doc["results"]["triples"] == [["1", "11", "11"], ["5", "7", "13"]]
    assert doc["failures"] == []
    assert no_bare_numbers(doc)


def test_frame_machine(capsys):
    code, doc, _ = run_machine(capsys, "frame", "5", "7", "13")
    assert code == 0
    res = doc["results"]
    assert res["r"] == "3" and res["s"] == "11"
    assert res["e1"] == ["-12", "3", "3"]
    assert res["e2"] == ["-7", "-8", "7"]
    assert all(res["checks"].values())
    assert no_bare_numbers(doc)


def test_frame_human(capsys):
    code, out, _ = run_cli(capsys, "frame", "1", "7", "25")
    assert code == 0
    assert "r = 5" in out and "s = 5" in out
    assert "e1 = (-13, -16, 5)" in out
    assert "checks:" in out


def test_ehrhart_human(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "5", "13", "13")
    assert code == 0
    assert "(A, B) = (11, 13)" in out
    assert "L(t) = (11t^2 + 13t)/2 + 1" in out


def test_ehrhart_machine_nondefault_mn(capsys):
    code, doc, _ = run_machine(capsys, "ehrhart", "5", "7", "13", "--m", "3", "--n", "1")
    assert code == 0
    assert doc["inputs"]["m"] == "3" and doc["inputs"]["n"] == "1"
    assert doc["results"]["quad_num"] == "63"
    assert (int(doc["results"]["quad_num"]) + int(doc["results"]["lin_num"])) % 2 == 0


def test_count_matches_formula(capsys):
    code, doc, _ = run_machine(capsys, "count", "5", "7", "13", "1", "0", "2")
    assert code == 0
    res = doc["results"]
    assert res["total"] == res["formula_count"] == "24"
    assert res["match"] is True and res["pick_ok"] is True
    assert "kernel" not in res
    assert no_bare_numbers(doc)


def test_count_builds_one_frame_and_scans_once(capsys, monkeypatch):
    calls = {"find_rs": 0, "generators": 0, "scan_slabs": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(frame, "find_rs")
    # plane_basis is imported by name everywhere, but reaches generators
    # through its module global: one generators call is one plane basis
    counted(lattice, "generators")
    counted(oracle, "scan_slabs")
    code, _, _ = run_cli(capsys, "count", "139", "2461", "2461", "2", "1", "3")
    assert code == 0
    assert calls == {"find_rs": 1, "generators": 1, "scan_slabs": 1}


def test_frame_builds_generators_once(capsys, monkeypatch):
    calls = []
    real = lattice.generators

    def counted(t):
        calls.append(t)
        return real(t)

    # cli imports generators by name; plane_basis reaches it through the
    # lattice module global
    monkeypatch.setattr(lattice, "generators", counted)
    monkeypatch.setattr(cli, "generators", counted)
    code, _, _ = run_cli(capsys, "frame", "245", "613", "713")
    assert code == 0
    assert len(calls) == 1


def test_table1(capsys):
    code, doc, _ = run_machine(capsys, "table1", "9")
    assert code == 0
    rows = doc["results"]["rows"]
    assert len(rows) == 9
    # even radii have no triples but still get a row
    assert rows[1] == {"d": "2", "triples": [], "e_size": "0", "c1_set": []}
    assert rows[8]["triples"] == [["1", "11", "11"], ["5", "7", "13"]]
    assert rows[8]["c1_set"] == ["5", "11"]
    code2, out, _ = run_cli(capsys, "table1", "9")
    assert code2 == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 5  # header + one line per odd radius


@pytest.mark.parametrize("d_max", ["0", "-3"])
def test_table1_nonpositive_exit_1(capsys, d_max):
    code, doc, err = run_machine(capsys, "table1", d_max)
    assert code == 1 and "positive" in err
    assert doc["results"] == {}
    assert doc["failures"] == ["d_max must be a positive integer"]


def test_ed(capsys):
    code, doc, _ = run_machine(capsys, "ed", "9")
    assert code == 0
    polys = doc["results"]["polynomials"]
    assert [p["lin_num"] for p in polys] == ["5", "11"]


def test_verify(capsys):
    code, doc, _ = run_machine(capsys, "verify", "5", "(1,0),(1,1)", "2")
    assert code == 0
    res = doc["results"]
    assert res["failed"] == "0"
    assert len(res["records"]) == 3 * 2 * 2
    for rec in res["records"]:
        assert rec["passed"] is True
        assert "elapsed" not in rec
    assert no_bare_numbers(doc)


def test_verify_parallel_same_output(capsys, monkeypatch):
    # byte for byte, apart from the echoed input
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("verify", "15", "(1,0),(2,1)", "3", "--format", "machine")
    _, serial, _ = run_cli(capsys, *argv, "--parallel", "1")
    _, parallel, _ = run_cli(capsys, *argv, "--parallel", "2")
    assert '"parallel": "1"' in serial
    assert parallel == serial.replace('"parallel": "1"', '"parallel": "2"')


def test_parallel_capped_at_cpu_count(capsys, monkeypatch):
    argv = ("verify", "7", "(1,0),(2,1)", "2")
    _, serial, _ = run_machine(capsys, *argv)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(catalog, "Pool", no_pool)
    code, capped, _ = run_machine(capsys, *argv, "--parallel", "2")
    assert code == 0
    assert capped["inputs"]["parallel"] == "2"
    assert capped["results"] == serial["results"] and capped["failures"] == []


@pytest.fixture
def wrong_formula(monkeypatch):
    """Shift every closed-form B by 2 so that each formula count mismatches."""
    real = catalog.ehrhart_from_frame

    def shifted(*args):
        poly = real(*args)
        return ehrhart.EhrhartPoly(poly.quad_num, poly.lin_num + 2)

    monkeypatch.setattr(catalog, "ehrhart_from_frame", shifted)


def test_count_mismatch_exit_1(capsys, wrong_formula):
    argv = ("count", "5", "7", "13", "1", "0", "2")
    code, doc, _ = run_machine(capsys, *argv)
    assert code == 1
    assert doc["results"]["match"] is False
    assert doc["failures"] == [
        {
            "triple": ["5", "7", "13"],
            "m": "1",
            "n": "0",
            "t": "2",
            "formula_count": "26",
            "oracle_count": "24",
        }
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "  match: NO, pick identity: ok" in out.splitlines()


def test_verify_mismatch_exit_1(capsys, wrong_formula):
    code, doc, _ = run_machine(capsys, "verify", "3", "(1,0)", "2")
    assert code == 1
    res = doc["results"]
    assert (res["passed"], res["failed"]) == ("0", "4")
    assert doc["failures"] == res["records"]
    assert all(not rec["passed"] for rec in doc["failures"])
    code, out, _ = run_cli(capsys, "verify", "3", "(1,0)", "2")
    assert code == 1
    # B + 2 in place of B adds t to every formula count
    assert out.splitlines()[1:] == [
        "  records: 4, passed: 0, failed: 4",
        "  FAIL (1, 1, 1) (m,n)=(1,0) t=1: formula 4 oracle 3",
        "  FAIL (1, 1, 1) (m,n)=(1,0) t=2: formula 8 oracle 6",
        "  FAIL (1, 1, 5) (m,n)=(1,0) t=1: formula 6 oracle 5",
        "  FAIL (1, 1, 5) (m,n)=(1,0) t=2: formula 14 oracle 12",
    ]


# Machine documents that must stay byte-identical; the count one scans a
# badly skewed basis with many edge rows.
golden_documents = [
    pytest.param(("verify", "9", "(1,0),(2,1),(3,1)", "2"), "verify_golden.json", id="verify"),
    pytest.param(
        ("count", "139", "2461", "2461", "2", "1", "3"),
        "count_skewed_golden.json",
        id="count-skewed",
    ),
]


@pytest.mark.parametrize("argv,name", golden_documents)
def test_machine_document_golden(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv, "--format", "machine")
    assert code == 0 and err == ""
    assert out == (DATA / name).read_text()


# Every subcommand in both formats, and one failing call per format: argv,
# stdout, stderr and exit code, byte for byte.
cli_golden = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", cli_golden, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_golden(capsys, case):
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_machine_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "5", "(1,0)", "2", "--format", "machine")
    _, out2, _ = run_cli(capsys, "verify", "5", "(1,0)", "2", "--format", "machine")
    assert out1 == out2
    _, f1, _ = run_cli(capsys, "frame", "245", "613", "713", "--format", "machine")
    _, f2, _ = run_cli(capsys, "frame", "245", "613", "713", "--format", "machine")
    assert f1 == f2


def test_domain_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "ehrhart", "1", "2", "3")
    assert code == 1
    assert "error:" in err
    code2, doc, err2 = run_machine(capsys, "triples", "0")
    assert code2 == 1
    assert doc["failures"] and "positive" in doc["failures"][0]


def test_degenerate_mn_exit_1(capsys):
    code, _, err = run_cli(capsys, "count", "1", "1", "1", "0", "0", "1")
    assert code == 1 and "degenerate" in err
    code2, _, err2 = run_cli(capsys, "verify", "3", "(0,0)", "1")
    assert code2 == 1 and "degenerate" in err2


@pytest.mark.parametrize("d_max,t_max", [("3", "0"), ("0", "1")])
def test_verify_empty_range_exit_1(capsys, d_max, t_max):
    code, doc, err = run_machine(capsys, "verify", d_max, "(1,0)", t_max)
    assert code == 1 and "positive" in err
    assert doc["results"] == {} and "positive" in doc["failures"][0]


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_verify_nonpositive_parallel_exit_1(capsys, parallel):
    code, doc, err = run_machine(capsys, "verify", "5", "(1,0)", "1", "--parallel", parallel)
    assert code == 1 and "positive" in err
    assert doc["inputs"]["parallel"] == parallel
    assert doc["results"] == {}
    assert doc["failures"] == ["workers must be a positive integer"]


def test_bad_mn_list_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "3", "nonsense", "1")
    assert code == 1 and "cannot parse" in err


def test_internal_error_gives_machine_document(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("frame/basis mismatch")

    monkeypatch.setitem(cli._HANDLERS, "count", broken)
    code, doc, err = run_machine(capsys, "count", "5", "7", "13", "1", "0", "1")
    assert code == 1
    assert doc["command"] == "count" and doc["results"] == {}
    assert doc["failures"] == ["frame/basis mismatch"]
    assert "error: frame/basis mismatch" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triples"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["no-such-command"])
    assert exc2.value.code == 2
    with pytest.raises(SystemExit) as exc3:
        main([])
    assert exc3.value.code == 2
    with pytest.raises(SystemExit) as exc4:
        main(["count", "5", "7", "13", "1", "0", "2", "--inflate-check"])
    assert exc4.value.code == 2


def child_env():
    """The environment of a child process that finds the package where this
    process imported it."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eqlat.cli", "triples", "3"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "1 1 5" in proc.stdout


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_closed_stdout_exits_1_without_traceback(fmt):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eqlat.cli", "triples", "15", "--format", fmt],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(shutil.which("eqlat") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["eqlat", "ehrhart", "245", "613", "713", "--format", "machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["quad_num"] == "561"
    assert doc["results"]["lin_num"] == "31"
