"""Command line interface.

Exit codes: 0 on success, 1 on domain errors or verification failures, 2 on
usage errors.  Machine output is one JSON document per invocation with every
integer rendered as a decimal string by _emit, which writes each
VerificationRecord with one format template.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import typing
from operator import attrgetter

from . import catalog, ehrhart, frame
from .lattice import Triple, generators, plane_basis


_encode_str = json.encoder.encode_basestring_ascii
_RECORD_KEYS = sorted(catalog.VerificationRecord._fields)
_record_values = attrgetter(*_RECORD_KEYS)
_JSON_BOOL = ("false", "true")


@functools.cache
def _record_types() -> tuple:
    """Each record field's declared type, in _RECORD_KEYS order: int, bool or
    a tuple of ints.  Resolved on first use, not at import."""
    hints = typing.get_type_hints(catalog.VerificationRecord)
    return tuple(hints[k] for k in _RECORD_KEYS)


@functools.cache
def _record_template(pad: str) -> str:
    """One record's %-format at indent pad, laid out as _emit writes a dict:
    a quoted %d per int, a bare %s per bool and a list of quoted %d per
    tuple.  It holds no values, so it is safe to keep per indent."""
    inner = pad + "  "
    lines = []
    for key, kind in zip(_RECORD_KEYS, _record_types()):
        if kind is bool:
            slot = "%s"
        elif kind is int:
            slot = '"%d"'
        else:
            items = [inner + '  "%d"'] * len(typing.get_args(kind))
            slot = "[\n" + ",\n".join(items) + "\n" + inner + "]"
        lines.append(inner + _encode_str(key) + ": " + slot)
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


def _record_args(rec: catalog.VerificationRecord) -> tuple:
    args = []
    for kind, value in zip(_record_types(), _record_values(rec)):
        if kind is int:
            args.append(value)
        elif kind is bool:
            args.append(_JSON_BOOL[value])
        else:
            args += value
    return tuple(args)


def _emit(value, pad: str, out: list[str]) -> None:
    """Append value as json.dumps(sort_keys=True, indent=2) would write it
    once every int is turned into its decimal string.

    value is a VerificationRecord, which renders as the dict of its fields
    through one %-format, or a dict with str keys, a list or a tuple.  Other
    leaves are str, bool and int, written in the loop without a call each.
    """
    if isinstance(value, catalog.VerificationRecord):
        out.append(_record_template(pad) % _record_args(value))
        return
    if isinstance(value, dict):
        keys = sorted(value)
        heads = [_encode_str(k) + ": " for k in keys]
        items = [value[k] for k in keys]
    elif isinstance(value, (list, tuple)):
        heads, items = None, value
    else:
        raise TypeError(f"cannot render {type(value).__name__} as machine output")
    opening, closing = "[]" if heads is None else "{}"
    if not items:
        out.append(opening + closing)
        return
    inner = pad + "  "
    sep = opening + "\n" + inner
    for i, item in enumerate(items):
        head = sep if heads is None else sep + heads[i]
        if item is True or item is False:
            out.append(head + _JSON_BOOL[item])
        elif isinstance(item, int):
            out.append(f'{head}"{item}"')
        elif isinstance(item, str):
            out.append(head + _encode_str(item))
        else:
            out.append(head)
            _emit(item, inner, out)
        sep = ",\n" + inner
    out.append("\n" + pad + closing)


def _vec(v) -> list[int]:
    return list(v.as_tuple())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqlat",
        description="Ehrhart polynomials of equilateral lattice triangles in Z^3",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("triples", help="list canonical triples for a radius")
    sp.add_argument("d", type=int)

    sp = sub.add_parser("frame", help="frame, basis and invariant checks for a plane")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("c", type=int)

    sp = sub.add_parser("ehrhart", help="counting polynomial of the (m, n) triangle")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("c", type=int)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=0)

    sp = sub.add_parser("count", help="oracle count of a dilated triangle versus the formula")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("c", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("t", type=int)

    sp = sub.add_parser("table1", help="catalog rows for all radii up to d_max")
    sp.add_argument("d_max", type=int)

    sp = sub.add_parser("ed", help="distinct polynomials of minimal triangles for a radius")
    sp.add_argument("d", type=int)

    sp = sub.add_parser("verify", help="formula-versus-oracle campaign")
    sp.add_argument("d_max", type=int)
    sp.add_argument("mn_list", type=str, help='pairs like "(1,0),(2,1)"')
    sp.add_argument("t_max", type=int)
    sp.add_argument("--parallel", type=int, default=1, metavar="N")

    # declared last, so --format stays each subcommand's last option in usage and -h
    for sp in sub.choices.values():
        sp.add_argument(
            "--format",
            choices=["human", "machine"],
            default="human",
            help="output style (default: human)",
        )
    return p


def _parse_mn_list(text: str) -> list[tuple[int, int]]:
    pairs = re.findall(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", text)
    if not pairs or not re.fullmatch(r"\s*(\(\s*-?\d+\s*,\s*-?\d+\s*\)\s*,?\s*)+", text):
        raise ValueError(f'cannot parse (m, n) list from {text!r}')
    return [(int(m), int(n)) for m, n in pairs]


def cmd_triples(args) -> tuple[dict, list, list[str]]:
    ts = frame.enumerate_triples(args.d)
    results = {"d": args.d, "count": len(ts), "triples": [list(t.abc()) for t in ts]}
    human = [f"d = {args.d}: {len(ts)} triple(s)"]
    human += [f"  {t.a} {t.b} {t.c}" for t in ts]
    return results, [], human


def cmd_frame(args) -> tuple[dict, list, list[str]]:
    t = Triple.from_abc(args.a, args.b, args.c)
    f = frame.build_frame(t)
    gens = generators(t)
    ab = frame.solve_alpha_beta(f, gens.basis())
    checks = frame.check_frame_vectors(t, f.e1, f.e2)
    diag = frame.rs_structure(f)
    results = {
        "triple": list(t.abc()),
        "d": t.d,
        "r": f.r,
        "s": f.s,
        "q": f.q,
        "omega": f.omega,
        "r_red": f.r_red,
        "s_red": f.s_red,
        "e1": _vec(f.e1),
        "e2": _vec(f.e2),
        "perp": _vec(f.perp),
        "u": _vec(gens.u),
        "v": _vec(gens.v),
        "w": _vec(gens.w),
        "bezout_k": gens.bezout_k,
        "bezout_l": gens.bezout_l,
        "tau": _vec(gens.tau),
        "alpha": ab.alpha,
        "beta": ab.beta,
        "tau_sign": ab.tau_sign,
        "checks": checks,
        "rs_diagnostic": diag,
    }
    human = [f"triple ({t.a}, {t.b}, {t.c}), d = {t.d}"]
    for key in ("r", "s", "q", "omega", "r_red", "s_red"):
        human.append(f"  {key} = {results[key]}")
    for key in ("e1", "e2", "perp", "u", "v", "w", "tau"):
        human.append(f"  {key} = {tuple(results[key])}")
    human.append(f"  bezout (k, l) = ({gens.bezout_k}, {gens.bezout_l})")
    human.append(f"  alpha = {ab.alpha}, beta = {ab.beta}, tau_sign = {ab.tau_sign}")
    human.append("  checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    human.append("  rs structure: " + ", ".join(f"{k}={v}" for k, v in diag.items()))
    # build_frame has already raised on any failed check
    return results, [], human


def cmd_ehrhart(args) -> tuple[dict, list, list[str]]:
    t = Triple.from_abc(args.a, args.b, args.c)
    poly = ehrhart.ehrhart_poly(t, args.m, args.n)
    results = {
        "triple": list(t.abc()),
        "d": t.d,
        "m": args.m,
        "n": args.n,
        "quad_num": poly.quad_num,
        "lin_num": poly.lin_num,
        "polynomial": poly.render(),
    }
    human = [
        f"triple ({t.a}, {t.b}, {t.c}), d = {t.d}, (m, n) = ({args.m}, {args.n})",
        f"  (A, B) = ({poly.quad_num}, {poly.lin_num})",
        f"  L(t) = {poly.render()}",
    ]
    return results, [], human


def cmd_count(args) -> tuple[dict, list, list[str]]:
    t = Triple.from_abc(args.a, args.b, args.c)
    f = frame.build_frame(t)
    basis = plane_basis(t)
    ab = frame.solve_alpha_beta(f, basis)
    p_vert, q_vert = frame.triangle_vertices(f, args.m, args.n)
    (rec,) = catalog.verify_pair(f, ab, basis, args.m, args.n, [args.t])
    interior = rec.oracle_count - rec.boundary_actual
    results = {
        "triple": list(t.abc()),
        "d": t.d,
        "m": args.m,
        "n": args.n,
        "t": args.t,
        "vertices": [_vec(p_vert), _vec(q_vert)],
        "total": rec.oracle_count,
        "boundary": rec.boundary_actual,
        "interior": interior,
        "per_side": list(rec.per_side_actual),
        "formula_count": rec.formula_count,
        "quad_num": rec.quad_num,
        "lin_num": rec.lin_num,
        "match": rec.passed,
        "pick_ok": rec.pick_ok,
    }
    failures = []
    if not rec.passed:
        failures.append(
            {
                "triple": list(t.abc()),
                "m": args.m,
                "n": args.n,
                "t": args.t,
                "formula_count": rec.formula_count,
                "oracle_count": rec.oracle_count,
            }
        )
    rendered = ehrhart.EhrhartPoly(rec.quad_num, rec.lin_num).render()
    human = [
        f"triangle ({args.m}, {args.n}) on ({t.a}, {t.b}, {t.c}), dilation {args.t}",
        f"  P = {p_vert.as_tuple()}, Q = {q_vert.as_tuple()}",
        f"  oracle: total {rec.oracle_count}, boundary {rec.boundary_actual}, "
        f"interior {interior}, per side {rec.per_side_actual}",
        f"  formula: {rec.formula_count}  [{rendered}]",
        f"  match: {'yes' if rec.passed else 'NO'}, "
        f"pick identity: {'ok' if rec.pick_ok else 'FAILED'}",
    ]
    return results, failures, human


def cmd_table1(args) -> tuple[dict, list, list[str]]:
    if args.d_max < 1:
        raise ValueError("d_max must be a positive integer")
    rows = []
    human = ["d | triples | |E(d)| | c1 set", "--+---------+--------+-------"]
    for d in range(1, args.d_max + 1):
        row = catalog.table1_row(d)
        rows.append(
            {
                "d": d,
                "triples": [list(t) for t in row.triples],
                "e_size": row.e_size,
                "c1_set": list(row.c1_set),
            }
        )
        if row.triples:
            shown = "; ".join(",".join(str(x) for x in t) for t in row.triples)
            c1s = "{" + ", ".join(str(c) for c in row.c1_set) + "}"
            human.append(f"{d} | {shown} | {row.e_size} | {c1s}")
    return {"d_max": args.d_max, "rows": rows}, [], human


def cmd_ed(args) -> tuple[dict, list, list[str]]:
    polys = sorted(catalog.e_of_d(args.d), key=lambda p: (p.quad_num, p.lin_num))
    results = {
        "d": args.d,
        "count": len(polys),
        "polynomials": [
            {"quad_num": p.quad_num, "lin_num": p.lin_num, "rendered": p.render()}
            for p in polys
        ],
    }
    human = [f"d = {args.d}: {len(polys)} distinct polynomial(s)"]
    human += [f"  {p.render()}" for p in polys]
    return results, [], human


def cmd_verify(args) -> tuple[dict, list, list[str]]:
    mn_list = _parse_mn_list(args.mn_list)
    records = catalog.verify_campaign(args.d_max, mn_list, args.t_max, workers=args.parallel)
    passed, failed = catalog.campaign_summary(records)

    results = {
        "d_max": args.d_max,
        "mn_list": [list(p) for p in mn_list],
        "t_max": args.t_max,
        "records": records,
        "passed": passed,
        "failed": failed,
    }
    failures = [r for r in records if not r.passed]
    human = [
        f"campaign: d <= {args.d_max}, (m, n) in {mn_list}, t <= {args.t_max}",
        f"  records: {len(records)}, passed: {passed}, failed: {failed}",
    ]
    for r in records:
        if not r.passed:
            human.append(
                f"  FAIL {r.triple} (m,n)=({r.m},{r.n}) t={r.t}: "
                f"formula {r.formula_count} oracle {r.oracle_count}"
            )
    return results, failures, human


_HANDLERS = {
    "triples": cmd_triples,
    "frame": cmd_frame,
    "ehrhart": cmd_ehrhart,
    "count": cmd_count,
    "table1": cmd_table1,
    "ed": cmd_ed,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        results, failures, human = _HANDLERS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        results, failures, human = {}, [str(exc)], []
        print(f"error: {exc}", file=sys.stderr)
    doc = {
        "schema_version": "2",
        "command": args.command,
        "inputs": {
            k: v for k, v in vars(args).items() if k not in ("command", "format")
        },
        "results": results,
        "failures": failures,
    }
    if args.format == "machine":
        out: list[str] = []
        _emit(doc, "", out)
        out.append("\n")
    else:
        out = [line + "\n" for line in human]
    try:
        sys.stdout.write("".join(out))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
