"""Batch command-line front end.

Subcommands: s, kh, lee, ssr-s, stab, verify.  Inputs come from
--builtin names, PD codes, braid words, or SSr JSON files (a literal string
is accepted wherever a path is; "-" reads stdin).  Output is JSON by
default, deterministic up to the timestamp (suppress it with --no-meta).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .corpus import BUILTIN_S3_NAMES, BUILTIN_SSR_NAMES, builtin_diagram, builtin_ssr
from .diagrams import BraidWord, from_braid
from .errors import KhleeError, ParseError
from .lee import ENGINES, deformed_complex, s_all_orientations, s_invariant
from .pdcode import parse_pd
from .smith import homology_qt
from .ssr import SsrDiagram, s_ssr, stabilization_check
from .verify import run_suite


def _read_source(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if os.path.exists(value):
        with open(value) as fh:
            return fh.read()
    return value


def _orientation_pattern(pat: str) -> tuple:
    if not isinstance(pat, str) or set(pat) - set("ud"):
        raise ParseError(f"orientation pattern {pat!r} must use 'u'/'d'")
    return tuple(ch == "u" for ch in pat)


def _strand_count(value) -> int:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"bad strand count {value!r}")


def _braid_letter(tok: str):
    try:
        return int(tok)
    except ValueError:
        return tok  # "e<i>"; BraidWord rejects anything else


def parse_braid_text(text: str) -> BraidWord:
    """`braid <n> [updown]: w1 w2 ...` with integer or e<i> letters."""
    text = text.strip()
    if not text.startswith("braid"):
        raise ParseError("braid input must start with 'braid <n> [pattern]:'")
    head, _, tail = text.partition(":")
    parts = head.split()
    if len(parts) < 2:
        raise ParseError("missing strand count in braid input")
    orientation = _orientation_pattern(parts[2]) if len(parts) >= 3 else ()
    return BraidWord(_strand_count(parts[1]), tuple(map(_braid_letter, tail.split())),
                     orientation)


def parse_ssr_json(text: str) -> SsrDiagram:
    """SSr JSON: {"strands", "orient", "braid", "handles"}; letters are
    integers or "e<i>" strings, handles [a, b, pos] lists."""
    try:
        data = json.loads(text)
    except ValueError as e:
        raise ParseError(f"SSr input is not valid JSON: {e}") from None
    if not isinstance(data, dict) or "strands" not in data:
        raise ParseError('SSr JSON must be an object with a "strands" count')
    letters, handles = data.get("braid", []), data.get("handles", [])
    if not isinstance(letters, list) or not isinstance(handles, list):
        raise ParseError('SSr "braid" and "handles" must be JSON lists')
    base = BraidWord(_strand_count(data["strands"]), tuple(letters),
                     _orientation_pattern(data.get("orient", "")))
    return SsrDiagram(base, tuple(handles))


def load_diagram(args):
    sources = [x for x in (args.builtin, args.pd, args.braid, args.ssr) if x]
    if len(sources) != 1:
        raise ParseError("give exactly one of --builtin/--pd/--braid/--ssr")
    if args.builtin:
        return builtin_diagram(args.builtin)
    if args.pd:
        return parse_pd(_read_source(args.pd))
    if args.braid:
        return from_braid(parse_braid_text(_read_source(args.braid)))
    raise ParseError("this command needs a diagram in S^3, not an SSr diagram")


def load_ssr(args) -> SsrDiagram:
    if args.builtin:
        return builtin_ssr(args.builtin)
    if args.ssr:
        return parse_ssr_json(_read_source(args.ssr))
    raise ParseError("give --builtin NAME or --ssr FILE for an SSr diagram")


def _emit(args, payload: dict, command: str) -> None:
    if not args.no_meta:
        payload = dict(payload)
        payload["meta"] = {"command": command, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if args.table:
        _print_table(payload)
    else:
        print(json.dumps(payload, sort_keys=True, default=str))


def _print_table(payload, indent=0):
    pad = "  " * indent
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_table(val, indent + 1)
        else:
            print(f"{pad}{key}: {val}")


def _parse_orientation(text, components):
    if not text:
        return None
    if set(text) - set("+-"):
        raise ParseError("orientation must be a +- string, one sign per component")
    if len(text) != components:
        raise ParseError(f"orientation needs {components} signs")
    return tuple(1 if ch == "+" else -1 for ch in text)


def cmd_s(args):
    if args.all_orientations and args.orientation is not None:
        raise ParseError("--orientation and --all-orientations exclude each other")
    d = load_diagram(args)
    orientation = _parse_orientation(args.orientation, d.n_components)
    if args.all_orientations:
        reports = s_all_orientations(d, engine=args.engine, limit=args.limit)
        _emit(args, {"reports": [r.to_dict() for r in reports]}, "s")
    else:
        rep = s_invariant(d, orientation, engine=args.engine, limit=args.limit)
        _emit(args, rep.to_dict(), "s")
    return 0


def cmd_kh(args):
    d = load_diagram(args)
    cx = deformed_complex(d, args.engine, args.limit)
    summary = homology_qt(cx)
    dims0 = {f"{h},{q}": v for (h, q), v in sorted(summary.dims_t0().items())}
    _emit(args, {"module": summary.to_dict(), "kh_dims_t0": dims0}, "kh")
    return 0


def cmd_lee(args):
    d = load_diagram(args)
    cx = deformed_complex(d, args.engine, args.limit)
    dims1 = {str(h): v for h, v in sorted(homology_qt(cx).dims_t1().items())}
    reports = s_all_orientations(d, engine=args.engine, limit=args.limit)
    levels = [{"orientation": list(r.orientation), "s_min": r.s_min, "s_max": r.s_max}
              for r in reports]
    _emit(args, {"lee_dims_t1": dims1, "generator_filtration_levels": levels}, "lee")
    return 0


def cmd_ssr_s(args):
    s = load_ssr(args)
    rep = s_ssr(s, engine=args.engine, limit=args.limit,
                check_stabilized=args.check_stabilized)
    _emit(args, rep.to_dict(), "ssr-s")
    return 0


def cmd_stab(args):
    s = load_ssr(args)
    table, stabilized = stabilization_check(
        s, args.kmax, engine=args.engine, limit=args.limit, shift_per_k=args.shift)
    _emit(args, {
        "sweep": [{"k": k, "s": v, "shifted": sh} for k, v, sh in table],
        "stabilized": stabilized,
    }, "stab")
    return 0


def cmd_verify(args):
    results = run_suite(args.suite, quick=args.quick)
    ok = all(r[1] for r in results)
    payload = {
        "suite": args.suite,
        "passed": ok,
        "checks": [{"name": n, "ok": o, "detail": det} for n, o, det in results],
    }
    _emit(args, payload, "verify")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="khlee",
        description="Deformed Khovanov-Lee homology over Q[t] and s-invariants "
                    "for links in S^3 and #^r(S^1 x S^2)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--json", action="store_true", help="JSON output (default)")
        p.add_argument("--table", action="store_true", help="plain table output")
        p.add_argument("--no-meta", action="store_true",
                       help="omit the timestamp metadata")

    def add_common(p, ssr_input=False):
        p.add_argument("--builtin", help="built-in diagram name, e.g. " +
                       ", ".join(BUILTIN_S3_NAMES if not ssr_input else BUILTIN_SSR_NAMES))
        if not ssr_input:
            p.add_argument("--pd", help="PD code: file path, literal, or '-'")
            p.add_argument("--braid", help="braid word: file path, literal, or '-'")
        p.add_argument("--ssr", help="SSr diagram JSON: file path, literal, or '-'")
        p.add_argument("--engine", default="auto", choices=ENGINES,
                       help="auto: scan on braid input, else brute; both: brute "
                            "checked against scan on braid input")
        p.add_argument("--limit", type=int, default=None,
                       help="generator budget (default KHLEE_LIMIT or 2^22)")
        add_output(p)

    p = sub.add_parser("s", help="Rasmussen s-invariant report")
    add_common(p)
    p.add_argument("--orientation", help="component orientation signs, e.g. +-+")
    p.add_argument("--all-orientations", action="store_true")
    p.set_defaults(func=cmd_s)

    p = sub.add_parser("kh", help="homology as a graded Q[t]-module + t=0 dims")
    add_common(p)
    p.set_defaults(func=cmd_kh)

    p = sub.add_parser("lee", help="t=1 dimensions and Lee filtration levels")
    add_common(p)
    p.set_defaults(func=cmd_lee)

    p = sub.add_parser("ssr-s", help="stabilized s_-, s_+ of a link in #^r(S^1xS^2)")
    add_common(p, ssr_input=True)
    p.add_argument("--check-stabilized", action="store_true")
    p.set_defaults(func=cmd_ssr_s)

    p = sub.add_parser("stab", help="k-sweep of s(D(k,...,k))")
    add_common(p, ssr_input=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--shift", type=int, default=0,
                   help="subtract shift*k from each value before comparing")
    p.set_defaults(func=cmd_stab)

    p = sub.add_parser("verify", help="run an invariant suite")
    add_output(p)
    p.add_argument("--suite", default="all",
                   choices=["all", "oracle", "s3-properties", "ssr-properties"])
    p.add_argument("--quick", action="store_true", help="smaller corpus")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except KhleeError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
