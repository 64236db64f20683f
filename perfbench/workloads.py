"""The four workloads: how each case is turned into timed operations, how
each output is canonicalized for the digest check, and how an output is
checked against the extra-coordinate (eps) oracle when no recorded digest
matches.

A case is the unit that a digest covers: one conversion for c2g-mixed and
g2c-points, one program for lattice, one (route, dim) block for
dualhypercube.  ``Workload.run_case`` executes a case through an ``ops``
callable that times each operation; everything else it does (building
tokens, reading counters) happens outside the timed calls.

Every operation starts from input text or from objects built for this pass:
``NncPolyhedron`` caches its two views, so reusing a polyhedron from an
earlier pass would time a cache hit instead of the work.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from nncpoly import conversion, eps, formats
from nncpoly.bench import build_dual_hypercube
from nncpoly.polyhedron import NncPolyhedron
from nncpoly.systems import ConKind, Constraint, GenKind, Generator

import cases
from cases import CLOSURE, GE, GT, Symmetry

# Counter names read from ConvCtx / ClosedCone objects after each case.
EXACT = ("vec_ops", "sat_ops", "iterations", "peak_size", "supports_out",
         "eps_vec_ops", "eps_sat_ops", "eps_peak_size")

_CON = {GE: ConKind.NONSTRICT, GT: ConKind.STRICT}


@dataclass
class CaseRun:
    tokens: list[str] = field(default_factory=list)
    nops: int = 0  # operations the case ran, set by the runner
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(EXACT, 0))

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode()).hexdigest()

    def add_ctx(self, ctx, base=None) -> None:
        """Charge the work a direct-engine context did beyond its base (the
        context it was cloned from, whose counters it inherited)."""
        c = ctx.counters
        for key in ("vec_ops", "sat_ops", "iterations"):
            self.counters[key] += getattr(c, key) - (getattr(base.counters, key) if base else 0)
        self.counters["peak_size"] = max(self.counters["peak_size"], max(c.sizes, default=0))
        self.counters["supports_out"] += len(ctx.ns)

    def add_cone(self, cone) -> None:
        c = cone.counters
        self.counters["eps_vec_ops"] += c.vec_ops
        self.counters["eps_sat_ops"] += c.sat_ops
        self.counters["eps_peak_size"] = max(
            self.counters["eps_peak_size"], max(c.sizes, default=0))


# -- canonical output tokens ---------------------------------------------------


def _canon_row(row, sym: Symmetry, signless: bool) -> tuple[int, ...]:
    row = sym.invert(tuple(row))
    g = 0
    for x in row:
        g = gcd(g, x)
    row = tuple(x // g for x in row)
    if signless and next(x for x in row if x) < 0:
        row = tuple(-x for x in row)
    return row


def _token(rows, sym: Symmetry) -> str:
    """Order-free text of (kind, row) pairs in base coordinates."""
    canon = sorted(
        (kind, _canon_row(row, sym, kind in ("=", "line"))) for kind, row in rows
    )
    return ";".join(f"{k}{list(r)}" for k, r in canon)


def gens_token(gens: list[Generator], sym: Symmetry) -> str:
    return _token([(g.kind.value, g.row) for g in gens], sym)


def cons_token(cons: list[Constraint], sym: Symmetry) -> str:
    return _token([(c.kind.value, c.row) for c in cons], sym)


def text_token(text: str, sym: Symmetry) -> str:
    """Token of an emitted .ine/.ext file, read without the library's parser
    so that the check does not trust the code under test."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    header = lines[0][0]
    marks: dict[str, set[int]] = {}
    i = 1
    while lines[i][0] != "begin":
        marks[lines[i][0]] = {int(x) for x in lines[i][2:]}
        i += 1
    nrows = int(lines[i + 1][0])
    body = [tuple(int(x) for x in ln) for ln in lines[i + 2:i + 2 + nrows]]
    if lines[i + 2 + nrows] != ["end"]:
        raise ValueError("emitted file does not end after its rows")
    rows = []
    for k, row in enumerate(body, start=1):
        if header == "H-representation":
            kind = "=" if k in marks.get("linearity", ()) else (
                ">" if k in marks.get("strict", ()) else ">=")
        elif k in marks.get("linearity", ()):
            kind = "line"
        elif k in marks.get("closure", ()):
            kind = "closure_point"
        else:
            kind = "ray" if row[0] == 0 else "point"
        rows.append((kind, row))
    return _token(rows, sym)


# -- independent checks used by the eps fallback ----------------------------


def _gens_within(gens: list[Generator], cons: list[Constraint]) -> bool:
    """Is every point of gen(gens) in con(cons)?  Exact for explicit
    systems: lines and equalities need zero products, points must clear
    strict rows, everything else must not violate any row."""
    for c in cons:
        for g in gens:
            s = sum(a * b for a, b in zip(c.row, g.row))
            if c.kind is ConKind.EQUALITY or g.kind is GenKind.LINE:
                if s != 0:
                    return False
            elif s < 0 or (s == 0 and c.kind is ConKind.STRICT and g.kind is GenKind.POINT):
                return False
    return True


def _point_in(cons: list[Constraint], point) -> bool:
    for c in cons:
        s = c.row[0] + sum(a * x for a, x in zip(c.row[1:], point))
        if (c.kind is ConKind.EQUALITY and s != 0) or s < 0 or (
            s == 0 and c.kind is ConKind.STRICT
        ):
            return False
    return True


def _same_gens(a: list[Generator], b: list[Generator]) -> bool:
    if not a or not b:
        return not a and not b
    return NncPolyhedron.from_generators(a).equals(NncPolyhedron.from_generators(b))


def _same_cons(a: list[Constraint], b: list[Constraint], dim: int) -> bool:
    return NncPolyhedron.from_constraints(a, dim=dim).equals(
        NncPolyhedron.from_constraints(b, dim=dim))


# -- workloads ----------------------------------------------------------------

Ops = Callable[..., object]


class Workload:
    name: str
    budget_s: float  # per-operation wall budget

    def __init__(self, seed: int):
        self.seed = seed

    def case_ids(self) -> list[int]:
        return cases.case_order(self.seed, self.name, self.count)

    def run_case(self, cid: int, ops: Ops) -> CaseRun:
        raise NotImplementedError

    def oracle_ok(self, cid: int, run: CaseRun) -> bool:
        """Fallback check: rerun the case untimed and compare each output
        with the eps route; the rerun must also reproduce the timed run's
        tokens, so the timed outputs are the ones validated."""
        raise NotImplementedError

    def rule_failures(self, passes: list[dict], case_time: dict[int, float]) -> int:
        """Operations failed by a workload-wide rule checked after the run;
        case_time is each case's operation time."""
        return 0


class ConvertWorkload(Workload):
    """One in-process ``nncdd convert`` per case: parse, build, convert,
    emit.  Subclasses fix the direction: the input header, which row kind
    its marker line flags, ``convert`` and the eps comparison."""

    header: str
    marker: str
    marked: str

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpus = self.make_corpus()
        self.count = len(self.corpus)
        self.syms = [cases.symmetry(seed, self.name, i, c.dim) for i, c in enumerate(self.corpus)]
        self.texts = [self.input_text(c, s) for c, s in zip(self.corpus, self.syms)]

    def input_text(self, case, sym: Symmetry) -> str:
        flagged = [i for i, (k, _) in enumerate(case.rows, start=1) if k == self.marked]
        out = [self.header]
        if flagged:
            out.append(f"{self.marker} {len(flagged)} " + " ".join(map(str, flagged)))
        out += ["begin", f"{len(case.rows)} {case.dim + 1} integer"]
        out += [" ".join(map(str, sym.apply(r))) for _, r in case.rows]
        return "\n".join(out + ["end"]) + "\n"

    def run_case(self, cid: int, ops: Ops) -> CaseRun:
        run = CaseRun()
        text, ctx = ops(self.convert, self.texts[cid])
        run.tokens.append(text_token(text, self.syms[cid]))
        run.add_ctx(ctx)
        return run

    def oracle_ok(self, cid: int, run: CaseRun) -> bool:
        text, _ = self.convert(self.texts[cid])
        return text_token(text, self.syms[cid]) == run.tokens[0] and self.matches_eps(
            self.texts[cid], text)


class C2GMixed(ConvertWorkload):
    name = "c2g-mixed"
    budget_s = 10.0
    make_corpus = staticmethod(cases.c2g_corpus)
    header, marker, marked = "H-representation", "strict", GT

    @staticmethod
    def convert(text: str):
        cons, dim = formats.parse_ine(text)
        poly = NncPolyhedron.from_constraints(cons, dim=dim)
        return formats.emit_ext(poly.generators(), dim), poly.gen_ctx()

    @staticmethod
    def matches_eps(text_in: str, text_out: str) -> bool:
        cons, _ = formats.parse_ine(text_in)
        return _same_gens(formats.parse_ext(text_out)[0], eps.eps_c2g(cons)[0])


class G2CPoints(ConvertWorkload):
    name = "g2c-points"
    budget_s = 20.0
    make_corpus = staticmethod(cases.g2c_corpus)
    header, marker, marked = "V-representation", "closure", CLOSURE

    @staticmethod
    def convert(text: str):
        gens, dim = formats.parse_ext(text)
        poly = NncPolyhedron.from_generators(gens)
        return formats.emit_ine(poly.constraints(), dim), poly.con_ctx()

    @staticmethod
    def matches_eps(text_in: str, text_out: str) -> bool:
        gens, dim = formats.parse_ext(text_in)
        return _same_cons(formats.parse_ine(text_out)[0], eps.eps_g2c(gens)[0], dim)


def _constraints(rows, sym: Symmetry) -> list[Constraint]:
    return [Constraint(sym.apply(r), _CON[k]) for k, r in rows]


class Lattice(Workload):
    """Each public NncPolyhedron call is one operation.  Per step: build the
    fresh box, join, maybe build the guard and meet, then read: inclusion
    both ways, equality, and membership of eight points."""

    name = "lattice"
    budget_s = 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpus = cases.lattice_corpus()
        self.count = len(self.corpus)
        self.syms = [cases.symmetry(seed, self.name, i, p.dim) for i, p in enumerate(self.corpus)]
        self.inputs = [self._inputs(p, s) for p, s in zip(self.corpus, self.syms)]

    def case_ids(self) -> list[int]:
        return [c for c in super().case_ids() if c not in cases.LATTICE_KNOWN_WRONG]

    @staticmethod
    def _inputs(prog: cases.Program, sym: Symmetry):
        points = [sym.apply_point(p) for p in prog.points]
        steps = [
            (_constraints(st.fresh, sym), _constraints(st.guard, sym) if st.guard else None)
            for st in prog.steps
        ]
        return points, _constraints(prog.start, sym), steps

    @staticmethod
    def _views(poly: NncPolyhedron):
        # Read the cached contexts without triggering a lazy build.
        return [c for c in (poly._gen, poly._con) if c is not None]

    def run_case(self, cid: int, ops: Ops) -> CaseRun:
        dim = self.corpus[cid].dim
        sym = self.syms[cid]
        points, start, steps = self.inputs[cid]
        run = CaseRun()
        seen: dict[int, object] = {}  # id -> context, holding it so ids stay unique

        def charge(polys, result=None, side=None, operand=None):
            base = None
            if result is not None:
                base = getattr(operand, side)
            for poly in polys:
                for ctx in self._views(poly):
                    if id(ctx) in seen:
                        continue
                    seen[id(ctx)] = ctx
                    cloned = result is not None and ctx is getattr(result, side)
                    run.add_ctx(ctx, base if cloned else None)

        state = ops(NncPolyhedron.from_constraints, start, dim)
        charge([state])
        for fresh, guard in steps:
            box = ops(NncPolyhedron.from_constraints, fresh, dim)
            charge([box])
            joined = ops(NncPolyhedron.poly_hull, state, box)
            charge([state, box, joined], joined, "_con", state)
            if guard is not None:
                g = ops(NncPolyhedron.from_constraints, guard, dim)
                charge([g])
                met = ops(NncPolyhedron.intersect, joined, g)
                charge([joined, g, met], met, "_gen", joined)
                joined = met
            reads = [
                ops(NncPolyhedron.includes, joined, state),
                ops(NncPolyhedron.includes, state, joined),
                ops(NncPolyhedron.equals, joined, state),
            ] + [ops(NncPolyhedron.contains_point, joined, p) for p in points]
            charge([state, joined])
            # Both views of the new state exist after the reads, so reading
            # them here emits but converts nothing.
            run.tokens.append(cons_token(joined.constraints(), sym))
            run.tokens.append(gens_token(joined.generators(), sym))
            run.tokens.append("".join("T" if r else "F" for r in reads))
            state = joined
        return run

    def oracle_ok(self, cid: int, run: CaseRun) -> bool:
        """Replay the program and redo every join and meet on the eps route
        from the same operands; compare states with ``equals`` and
        recompute every read from explicit systems."""
        dim = self.corpus[cid].dim
        points, start, steps = self.inputs[cid]
        replay = self.run_case(cid, lambda fn, *args: fn(*args))
        if replay.tokens != run.tokens:
            return False
        state = NncPolyhedron.from_constraints(start, dim=dim)
        for k, (fresh, guard) in enumerate(steps):
            box = NncPolyhedron.from_constraints(fresh, dim=dim)
            e_cons, _ = eps.eps_g2c(state.generators() + box.generators())
            joined = state.poly_hull(box)
            if guard is not None:
                e_cons = e_cons + guard
                joined = joined.intersect(NncPolyhedron.from_constraints(guard, dim=dim))
            e_gens, _ = eps.eps_c2g(e_cons)
            if not joined.equals(NncPolyhedron.from_generators(e_gens)):
                return False
            fwd = _gens_within(state.generators(), e_cons)
            back = _gens_within(e_gens, state.constraints())
            expected = [fwd, back, fwd and back] + [_point_in(e_cons, p) for p in points]
            if run.tokens[3 * k + 2] != "".join("T" if r else "F" for r in expected):
                return False
            state = joined
        return True


class DualHypercube(Workload):
    """The paper's program per (route, dim) block: convert four
    cross-polytope variants, join them pairwise, meet the two joins and
    convert the meet back.  Each conversion is one operation."""

    name = "dualhypercube"
    budget_s = 60.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.blocks = cases.dual_blocks()
        self.count = len(self.blocks)
        self.syms = [cases.symmetry(seed, self.name, i, d) for i, (_, d) in enumerate(self.blocks)]
        self.variants = [
            [
                [Constraint(sym.apply(c.row), c.kind) for c in build_dual_hypercube(d, o, p)]
                for o, p in cases.VARIANTS
            ]
            for (_, d), sym in zip(self.blocks, self.syms)
        ]

    @staticmethod
    def _direct_c2g(cons):
        ctx = conversion.conversion_c2g(cons)
        return conversion.emit_generators(ctx), ctx

    @staticmethod
    def _direct_g2c(gens):
        ctx = conversion.conversion_g2c(gens)
        return conversion.emit_constraints(ctx), ctx

    def _program(self, route: str, variants, ops: Ops):
        """Runs one block; returns the eight outputs in program order and
        their engine states (ConvCtx or ClosedCone)."""
        c2g, g2c = (
            (self._direct_c2g, self._direct_g2c) if route == "direct" else (eps.eps_c2g, eps.eps_g2c)
        )
        outs, states = [], []

        def step(fn, arg):
            out, state = ops(fn, arg)
            outs.append(out)
            states.append(state)
            return out

        gens = [step(c2g, v) for v in variants]
        h1 = step(g2c, gens[0] + gens[1])
        h2 = step(g2c, gens[2] + gens[3])
        met = step(c2g, h1 + h2)
        step(g2c, met)
        return outs, states

    def _record(self, cid: int, outs, states) -> CaseRun:
        run = CaseRun()
        sym = self.syms[cid]
        for i, (out, state) in enumerate(zip(outs, states)):
            run.tokens.append(gens_token(out, sym) if i in _GEN_OUTS else cons_token(out, sym))
            if self.blocks[cid][0] == "direct":
                run.add_ctx(state)
            else:
                run.add_cone(state)
        return run

    def run_case(self, cid: int, ops: Ops) -> CaseRun:
        route, _ = self.blocks[cid]
        return self._record(cid, *self._program(route, self.variants[cid], ops))

    def oracle_ok(self, cid: int, run: CaseRun) -> bool:
        """Replay the block and compare each conversion's output with the
        other route's conversion of the same input.  Chaining the eps route
        on its own outputs is far slower at dims 7-8 than feeding it the
        direct engine's minimal systems."""
        route, dim = self.blocks[cid]
        inputs = []

        def plain(fn, arg):
            inputs.append(arg)
            return fn(arg)

        outs, states = self._program(route, self.variants[cid], plain)
        if self._record(cid, outs, states).tokens != run.tokens:
            return False
        if route == "direct":
            c2g, g2c = eps.eps_c2g, eps.eps_g2c
        else:
            c2g, g2c = self._direct_c2g, self._direct_g2c
        for i, (arg, out) in enumerate(zip(inputs, outs)):
            if i in _GEN_OUTS:
                same = _same_gens(out, c2g(arg)[0])
            else:
                same = _same_cons(out, g2c(arg)[0], dim)
            if not same:
                return False
        return True


    def rule_failures(self, passes: list[dict], case_time: dict[int, float]) -> int:
        """At every dim both routes run, the direct engine must beat the eps
        route on peak size and on operation time (acceptance criterion 9 and
        the ROADMAP rule); otherwise the direct block's operations fail."""
        failed = 0
        for dim in cases.DUAL_EPS_DIMS:
            direct, encoded = self.blocks.index(("direct", dim)), self.blocks.index(("eps", dim))
            peak_d = max((p[direct].counters["peak_size"] for p in passes if p.get(direct)),
                         default=0)
            peak_e = max((p[encoded].counters["eps_peak_size"] for p in passes if p.get(encoded)),
                         default=0)
            t_d, t_e = case_time.get(direct, 0.0), case_time.get(encoded, 0.0)
            if not (peak_d < peak_e and t_d < t_e):
                print(f"perfbench: dualhypercube dim {dim}: direct peak {peak_d}, {t_d:.3f} s; "
                      f"eps peak {peak_e}, {t_e:.3f} s", file=sys.stderr)
                failed += sum(p[direct].nops for p in passes if p.get(direct))
        return failed


# Positions of generator outputs in a dualhypercube block; the rest are
# constraint systems.
_GEN_OUTS = (0, 1, 2, 3, 6)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (C2GMixed, G2CPoints, Lattice, DualHypercube)
}
