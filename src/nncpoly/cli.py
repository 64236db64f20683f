"""Command line driver: convert representation files, self-check, benchmark."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import eps
from .bench import bench_dual_hypercube
from .counting import OpCounters
from .errors import InvariantError, NncPolyError, ParseError
from .formats import emit_ext, emit_ine, parse_ext, parse_ine
from .polyhedron import NncPolyhedron
from .systems import Constraint, Generator


def _sniff(text: str) -> str:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "H-representation":
            return "H"
        if stripped == "V-representation":
            return "V"
    raise ParseError("no H-representation or V-representation header found")


def _load(path: str) -> tuple[NncPolyhedron, str, int, list[Constraint] | list[Generator]]:
    """Returns (polyhedron, kind, dim, parsed rows) for an input file."""
    text = Path(path).read_text()
    kind = _sniff(text)
    if kind == "H":
        cons, dim = parse_ine(text)
        return NncPolyhedron.from_constraints(cons, dim=dim), kind, dim, cons
    gens, dim = parse_ext(text)
    if not gens:
        return NncPolyhedron.empty(dim), kind, dim, gens
    return NncPolyhedron.from_generators(gens), kind, dim, gens


def _cmd_convert(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    poly, kind, dim, rows_in = _load(args.input)
    if kind == "H":
        rows = poly.generators()
        out_text = emit_ext(rows, dim)
        ctx = poly.gen_ctx()
        direction = "c2g"
    else:
        rows = poly.constraints()
        out_text = emit_ine(rows, dim)
        ctx = poly.con_ctx()
        direction = "g2c"
    wall = time.perf_counter() - started
    if args.output:
        Path(args.output).write_text(out_text)
    else:
        sys.stdout.write(out_text)
    if args.stats:
        counters = ctx.counters if ctx is not None else OpCounters()
        record = {
            "direction": direction,
            "dim": dim,
            "rows_in": len(rows_in),
            "rows_out": len(rows),
            "supports_out": len(ctx.ns) if ctx is not None else 0,
            **asdict(counters),
            "max_size": max(counters.sizes, default=0),
            "wall_seconds": wall,
        }
        Path(args.stats).write_text(json.dumps(record, indent=2) + "\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    poly, kind, dim, rows_in = _load(args.input)
    do_roundtrip = args.roundtrip or args.oracle is None
    ok = True
    if do_roundtrip:
        back = NncPolyhedron.from_constraints(poly.constraints(), dim=dim)
        good = poly.equals(back)
        ok = ok and good
        print(f"roundtrip: {'PASS' if good else 'FAIL'}")
    if args.oracle == "eps":
        if kind == "H":
            if rows_in:
                gens, _cone = eps.eps_c2g(rows_in)
                other = (
                    NncPolyhedron.from_generators(gens)
                    if gens
                    else NncPolyhedron.empty(dim)
                )
            else:
                other = NncPolyhedron.universe(dim)
        else:
            if rows_in:
                cons, _cone = eps.eps_g2c(rows_in)
                other = NncPolyhedron.from_constraints(cons, dim=dim)
            else:
                other = NncPolyhedron.empty(dim)
        good = poly.equals(other)
        ok = ok and good
        print(f"oracle(eps): {'PASS' if good else 'FAIL'}")
    return 0 if ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    report = bench_dual_hypercube(args.dim)
    print(f"{report['workload']} dim={report['dim']}")
    for route in ("new", "eps"):
        r = report[route]
        print(
            f"  {route:4s} max_size={r['max_size']:6d}"
            f"  vec_ops={r['vec_ops']:8d}  sat_ops={r['sat_ops']:8d}"
            f"  wall_s={r['wall_s']:8.4f}"
        )
    if args.stats:
        Path(args.stats).write_text(json.dumps(report, indent=2) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nncdd",
        description="Exact double-description conversions for convex polyhedra "
        "with strict inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a .ine file to .ext or back")
    p.add_argument("input", help="input file (H- or V-representation)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--stats", metavar="FILE", help="write a JSON run record")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("check", help="verify a file against independent routes")
    p.add_argument("input")
    p.add_argument(
        "--roundtrip",
        action="store_true",
        help="convert to the other representation and back, compare (default)",
    )
    p.add_argument(
        "--oracle", choices=["eps"], help="also compare against the slack-encoded route"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bench", help="run a built-in workload on both routes")
    p.add_argument("workload", choices=["dualhypercube"])
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--stats", metavar="FILE", help="write the full report as JSON")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"nncdd: internal invariant broken: {exc}", file=sys.stderr)
        return 3
    except (NncPolyError, OSError) as exc:
        print(f"nncdd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
