"""Command-line front end.

Exit codes: 0 success, 1 usage or domain error, 2 an audit reported
discrepancies, 3 an internal invariant was violated.  All JSON output is
canonical: fixed field order, compact separators, integers and strings
only, so parse/re-serialize round-trips byte-identically.
"""

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from .catalog import catalog, catalog_names, construct
from .census import audit_theorem, census
from .classify import classify
from .ddg import class_audits, ddg_detect
from .graphs import Graph, GraphError, InternalInvariantError
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .sieve import (SieveVerdict, ddg_sieve, deza_sieve, scan_n2_tuples,
                    scan_small_n_tuples)
from .spectra import (_ddg_spectrum, adjacency_square_identity, char_poly,
                      factor_adjacency_poly)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _read_graph(text: str) -> Graph:
    """Resolve a positional input: catalog name, graph6 literal, or '-'."""
    if text == "-":
        text = sys.stdin.readline().strip()
        return decode_graph6(text)
    try:
        return construct(text)
    except GraphError:
        pass
    try:
        return decode_graph6(text)
    except Graph6Error:
        names = ", ".join(catalog_names())
        raise UsageError(f"{text!r} is neither a catalog name nor a graph6 "
                         f"line; known names: {names}")


def _graph_from_flags(args) -> Graph:
    if args.name is not None:
        return construct(args.name)
    if args.g6 is None:
        raise UsageError("provide --g6 <file> or --name <name>")
    if args.g6 == "-":
        line = sys.stdin.readline().strip()
    else:
        # non-ASCII text reaches decode_graph6, which names it
        with open(args.g6, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            line = fh.readline().strip()
    return decode_graph6(line)


def _parse_range(text: str) -> List[int]:
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"{text!r} is neither an integer nor an A..B "
                         f"range") from None
    if lo > hi:
        raise UsageError(f"range {text!r} is reversed; write it low..high")
    return list(range(lo, hi + 1))


def _jobs(text: str) -> int:
    """Worker count for --jobs: at least 1 and at most the CPU count."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {limit}, the CPU count; got {jobs}")
    return jobs


def _cmd_construct(args) -> int:
    g = construct(args.name)
    if args.adj:
        for i in range(g.v):
            print("".join("1" if g.has_edge(i, j) else "0"
                          for j in range(g.v)))
    else:
        print(encode_graph6(g))
    return 0


def _cmd_classify(args) -> int:
    g = _graph_from_flags(args)
    rep = classify(g)
    if args.json:
        print(_dump(rep.as_dict()))
        return 0
    for key, value in rep.as_dict().items():
        print(f"{key}: {_render(value)}")
    return 0


def _render(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(str(x) for x in value) + ")"
    return str(value)


def _cmd_ddg(args) -> int:
    g = _read_graph(args.input)
    det = ddg_detect(g)
    payload = {
        "regular": det.regular,
        "values": list(det.values),
        "proper": None,
        "improper": [list(p) for p in det.improper],
        "class_audits": None,
        "a2_identity": None,
    }
    if det.proper is not None:
        res = det.proper
        audits = class_audits(g, res)
        violation = adjacency_square_identity(
            g, res.classes, res.lam1, res.lam2, res.k)
        payload["proper"] = res.as_dict()
        payload["class_audits"] = [
            {"index": a.index, "coclique": a.coclique,
             "witness_size": a.witness_size, "divisible": a.divisible}
            for a in audits]
        payload["a2_identity"] = ("ok" if violation is None else
                                  {"u": violation.u, "w": violation.w,
                                   "got": violation.got,
                                   "expected": violation.expected})
    if args.json:
        print(_dump(payload))
        return 0
    if not det.regular:
        print("not regular: no divisible design structure")
        return 0
    print(f"pair values: {_render(payload['values'])}")
    if det.proper is None:
        if det.improper:
            print("improper divisible designs only:")
            for p in det.improper:
                print(f"  (v,k,l1,l2,m,n) = {_render(p)}")
        else:
            print("no divisible design structure")
        return 0
    res = det.proper
    print(f"proper divisible design: (v,k,l1,l2,m,n) = "
          f"{_render(res.params)}")
    print(f"classes: {_render([list(c) for c in res.classes])}")
    print(f"quotient: {_render([list(r) for r in res.quotient])}")
    for a in audits:
        tags = []
        tags.append("coclique" if a.coclique else "not a coclique")
        tags.append(f"common neighbourhood size {a.witness_size}")
        tags.append("divisible by n" if a.divisible else "not divisible")
        print(f"class {a.index}: " + ", ".join(tags))
    print(f"A^2 identity: {_render(payload['a2_identity'])}")
    return 0


def _poly_text(coeffs) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if power == 0:
            terms.append(f"{c:+d}")
        else:
            x = "x" if power == 1 else f"x^{power}"
            if c == 1:
                terms.append(f"+{x}")
            elif c == -1:
                terms.append(f"-{x}")
            else:
                terms.append(f"{c:+d}{x}")
    text = "".join(terms) or "0"
    return text[1:] if text.startswith("+") else text


def _factored_text(factors) -> str:
    parts = []
    for root, mult in factors.int_roots:
        if root == 0:
            base = "x"
        elif root > 0:
            base = f"(x-{root})"
        else:
            base = f"(x+{-root})"
        parts.append(base + (f"^{mult}" if mult > 1 else ""))
    for d, mult in factors.surd_pairs:
        parts.append(f"(x^2-{d})" + (f"^{mult}" if mult > 1 else ""))
    if factors.residual != (1,):
        parts.append(f"[{_poly_text(factors.residual)}]")
    return "".join(parts) or "1"


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.input)
    coeffs = char_poly(g)
    k = g.regular_degree()
    bound = k if k is not None else g.v
    factors = factor_adjacency_poly(coeffs, max(bound, 1))
    payload = {
        "coeffs": list(coeffs),
        "int_roots": [list(p) for p in factors.int_roots],
        "surd_pairs": [list(p) for p in factors.surd_pairs],
        "residual": list(factors.residual),
        "ddg_spectrum": None,
    }
    det = ddg_detect(g)
    if det.proper is not None:
        res = det.proper
        spec = _ddg_spectrum(g, res.params, factors)
        payload["ddg_spectrum"] = {
            "k": spec.k, "d1": spec.d1, "d2": spec.d2,
            "f1": spec.f1, "f2": spec.f2, "g1": spec.g1, "g2": spec.g2,
        }
    if args.json:
        print(_dump(payload))
        return 0
    print(f"charpoly: {_poly_text(coeffs)}")
    print(f"factored: {_factored_text(factors)}")
    if payload["ddg_spectrum"] is not None:
        s = payload["ddg_spectrum"]
        print("design spectrum: k=%d, sqrt(%d) with (f1,f2)=(%d,%d), "
              "sqrt(%d) with (g1,g2)=(%d,%d)"
              % (s["k"], s["d1"], s["f1"], s["f2"],
                 s["d2"], s["g1"], s["g2"]))
    return 0


def _verdict_lines(verdict: SieveVerdict) -> List[str]:
    lines = []
    for r in verdict.trace:
        extra = ""
        if r.witness:
            extra = " " + " ".join(f"{k}={v}" for k, v in r.witness.items())
        lines.append(f"{r.rule} {r.status}{extra}")
    failures = verdict.failures()
    if failures:
        first = verdict.rule(failures[0])
        tail = ""
        if first.witness:
            key, value = next(iter(first.witness.items()))
            tail = f" {key}={value}"
        lines.append(f"infeasible: {failures[0]}{tail}")
    else:
        lines.append("feasible")
    return lines


def _cmd_sieve(args) -> int:
    if args.family == "deza":
        verdict = deza_sieve(*args.params)
    else:
        verdict = ddg_sieve(*args.params)
    if args.json:
        print(_dump(verdict.as_dict()))
        return 0
    for line in _verdict_lines(verdict):
        print(line)
    return 0


def _cmd_sieve_scan(args) -> int:
    if args.family == "n2":
        results = scan_n2_tuples(args.max)
    elif args.family == "small-n":
        results = scan_small_n_tuples(args.max, max(args.max // 3, 4))
    else:
        raise UsageError(f"unknown scan family {args.family!r}; "
                         f"pick n2 or small-n")
    feasible = 0
    if args.json:
        out = []
        for params, verdict in results:
            out.append({"params": list(params),
                        "feasible": verdict.feasible,
                        "failures": list(verdict.failures())})
            feasible += verdict.feasible
        print(_dump({"family": args.family, "count": len(out),
                     "feasible": feasible, "results": out}))
        return 0
    for params, verdict in results:
        status = "feasible" if verdict.feasible else \
            "infeasible (" + ", ".join(verdict.failures()) + ")"
        print(f"{_render(params)}: {status}")
        feasible += verdict.feasible
    print(f"{len(results)} tuples scanned, {feasible} feasible")
    return 0


def _cmd_enumerate(args) -> int:
    records = census(_parse_range(args.v), _parse_range(args.k),
                     filter_spec=args.filter, out=args.out,
                     prune=args.prune, jobs=args.jobs, long=args.long)
    if args.out is not None:
        print(f"wrote {len(records)} records to {args.out}.g6 "
              f"and {args.out}.meta.jsonl")
        return 0
    for rec in records:
        print(rec.as_json() if args.json else rec.graph6)
    return 0


def _cmd_audit(args) -> int:
    report = audit_theorem(args.theorem, vmax=args.vmax, kmax=args.kmax,
                           jobs=args.jobs, long=args.long)
    if args.json:
        print(_dump(report.as_dict()))
    else:
        print(f"theorem {report.theorem} audit, bounds "
              + " ".join(f"{k}={v}" for k, v in report.bounds.items()))
        print(f"expected cases: {len(report.expected)}, found graphs: "
              f"{len(report.found)}, matches: {len(report.matches)}")
        for f in report.found:
            params = f.get("ddg", f["deza"])
            print(f"  found {f['graph6']} params {_render(params)} "
                  f"case {f['case'] or 'NONE'}")
        if report.discrepancies:
            print(f"discrepancies ({len(report.discrepancies)}):")
            for d in report.discrepancies:
                detail = d.get("details", "")
                print(f"  {d['kind']}: "
                      + " ".join(f"{k}={v}" for k, v in d.items()
                                 if k not in ("kind", "details"))
                      + (f" ({detail})" if detail else ""))
        else:
            print("no discrepancies")
    return 2 if report.discrepancies else 0


def _cmd_catalog(args) -> int:
    entries = catalog()
    if args.json:
        out = []
        for e in entries.values():
            out.append({"name": e.name, "summary": e.summary,
                        "deza": list(e.deza) if e.deza else None,
                        "srg": list(e.srg) if e.srg else None,
                        "strictly_deza": e.strictly_deza,
                        "diameter": e.diameter,
                        "ddg": list(e.ddg) if e.ddg else None,
                        "note": e.note})
        print(_dump(out))
        return 0
    for e in entries.values():
        tags = []
        if e.srg:
            tags.append(f"SRG{e.srg}")
        if e.strictly_deza:
            tags.append("strictly Deza")
        if e.ddg:
            tags.append(f"DDG {e.ddg}")
        line = f"{e.name:22s} Deza{e.deza} diameter {e.diameter}"
        if tags:
            line += "  [" + "; ".join(tags) + "]"
        if e.note:
            line += f"  ({e.note})"
        print(line)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and reused by every later one."""
    parser = _Parser(prog="deza", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a catalog graph")
    p.add_argument("name")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--g6", action="store_true", default=True)
    fmt.add_argument("--adj", action="store_true", default=False)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("classify", help="classify a graph")
    p.add_argument("--g6", metavar="FILE",
                   help="file with one graph6 line, or - for stdin")
    p.add_argument("--name", help="catalog graph name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("ddg", help="divisible design detection and audits")
    p.add_argument("input", help="catalog name, graph6 line, or -")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ddg)

    p = sub.add_parser("spectrum", help="exact characteristic polynomial")
    p.add_argument("input", help="catalog name, graph6 line, or -")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sieve", help="parameter feasibility rules")
    ssub = p.add_subparsers(dest="sieve_command", required=True)
    sp = ssub.add_parser("deza")
    sp.add_argument("params", nargs=4, type=int, metavar=("V"))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_sieve, family="deza")
    sp = ssub.add_parser("ddg")
    sp.add_argument("params", nargs=6, type=int, metavar=("V"))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_sieve, family="ddg")
    sp = ssub.add_parser("scan")
    sp.add_argument("--family", required=True, choices=("n2", "small-n"))
    sp.add_argument("--max", required=True, type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_sieve_scan)

    p = sub.add_parser("enumerate", help="isomorph-free regular census")
    p.add_argument("--v", required=True, help="vertex count or A..B range")
    p.add_argument("--k", required=True, help="degree or A..B range")
    p.add_argument("--filter", default="all")
    p.add_argument("--out", help="prefix for .g6 and .meta.jsonl files")
    p.add_argument("--prune", help="prune spec, e.g. maxpair=k-2;sat=0,k-2")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--long", action="store_true",
                   help="allow the stretch bounds (v=16, k=4)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("audit", help="check a classification theorem")
    p.add_argument("--theorem", required=True, type=int, choices=(1, 2, 3))
    p.add_argument("--vmax", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--long", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("catalog", help="list named graphs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
