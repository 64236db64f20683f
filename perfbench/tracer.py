"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps public functions of the library's modules from the
outside, at every name they are bound to (``nncpoly.conversion.adjacent``
as well as ``nncpoly.satlat.adjacent``), and records one span per call:
name, start, end, parent span and operation id.  Spans are kept in memory
for the current operation and folded into per-layer totals when it ends,
which keeps memory flat on long runs.  ``SatMatrix.covers`` and
``and_rows`` stay unwrapped: they run tens of millions of times, and the
engine's exact ``sat_ops`` counter already measures them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import nncpoly.eps
import nncpoly.polyhedron as polyhedron

# Span layout: [name, start, end, parent index (-1 for a root), op id]
Span = list


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per-name (calls, self seconds), where a span's self time is its
    duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    out: dict[str, tuple[int, float]] = {}
    for s, t in zip(spans, own):
        calls, total = out.get(s[0], (0, 0.0))
        out[s[0]] = (calls + 1, total + t)
    return out


def child_counts(spans: list[Span], child: str, parent: str) -> int:
    """How many spans named child have a direct parent named parent."""
    return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)


# (module, attribute path, span name): functions timed as spans.
SPANS = [
    ("nncpoly.homvec", "scalar_prod", "homvec.scalar_prod"),
    ("nncpoly.homvec", "combine_with_products", "homvec.combine_with_products"),
    ("nncpoly.homvec", "normalize", "homvec.normalize"),
    ("nncpoly.satlat", "adjacent", "satlat.adjacent"),
    ("nncpoly.satlat", "supp_cl", "satlat.supp_cl"),
    ("nncpoly.satlat", "nonredundant_union", "satlat.nonredundant_union"),
    ("nncpoly.satlat", "SatMatrix.add_col", "satlat.add_col"),
    *(
        ("nncpoly.conversion", phase, f"conversion.{phase}")
        for phase in (
            "process_row", "partition_elems", "combine_adjacent", "move_ns", "create_ns",
            "enumerate_faces", "violating_singular", "strict_on_eq_points",
            "promote_singletons",
        )
    ),
    ("nncpoly.conversion", "emit_generators", "conversion.emit"),
    ("nncpoly.conversion", "emit_constraints", "conversion.emit"),
    ("nncpoly.systems", "con_contains", "systems.con_contains"),
    *(
        ("nncpoly.polyhedron", f"NncPolyhedron.{op}", f"polyhedron.{op}")
        for op in ("poly_hull", "intersect", "includes", "equals", "contains_point")
    ),
    ("nncpoly.formats", "parse_ine", "formats.parse"),
    ("nncpoly.formats", "parse_ext", "formats.parse"),
    ("nncpoly.formats", "emit_ine", "formats.emit"),
    ("nncpoly.formats", "emit_ext", "formats.emit"),
    ("nncpoly.eps", "eps_c2g", "eps.eps_c2g"),
    ("nncpoly.eps", "eps_g2c", "eps.eps_g2c"),
]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module, name) in the loaded library bound to fn."""
    return [
        (mod, name)
        for mname, mod in list(sys.modules.items())
        if mname == "nncpoly" or mname.startswith("nncpoly.")
        for name, val in vars(mod).items()
        if val is fn
    ]


class Tracer:
    """Installs the wrappers, collects spans per operation, and keeps the
    per-layer totals.  Use as a context manager; the originals are restored
    on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.extra: Counter[str] = Counter()  # counts and ratio parts
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count(self, key: str, fn: Callable, when=None) -> Callable:
        extra = self.extra

        def wrapper(*args, **kwargs):
            if when is None or when(args):
                extra[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new) -> None:
        for mod, name in _bindings(fn):
            self._patch(mod, name, new)

    def __enter__(self) -> "Tracer":
        extra = self.extra

        def tally(key):
            def after(_args, out):
                extra[key] += len(out)
            return after

        def adjacent_after(_args, out):
            extra["satlat.adjacent.accepted"] += bool(out)

        def union_after(args, out):
            extra["satlat.nonredundant_union.offered"] += sum(len(f) for f in args)
            extra["satlat.nonredundant_union.kept"] += len(out)

        after = {
            "satlat.adjacent": adjacent_after,
            "satlat.nonredundant_union": union_after,
            "conversion.combine_adjacent": tally("conversion.combine_adjacent.new_elems"),
            "conversion.enumerate_faces": tally("conversion.enumerate_faces.returned"),
        }
        for module, path, name in SPANS:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
            wrapped = self._span(name, fn, after.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                self._patch_everywhere(fn, wrapped)

        # Emission calls made by polyhedron (its own bindings, wrapped again
        # to count) and lazy view builds: conversions started by gen_ctx or
        # con_ctx rather than by a constructor or a lattice operation.
        for name in ("emit_generators", "emit_constraints"):
            self._patch(polyhedron, name,
                        self._count("polyhedron.emissions", getattr(polyhedron, name)))
        lazy = lambda _args: sys._getframe(2).f_code.co_name in ("gen_ctx", "con_ctx")  # noqa: E731
        for name in ("conversion_c2g", "conversion_g2c"):
            self._patch(polyhedron, name,
                        self._count("polyhedron.view_builds", getattr(polyhedron, name), lazy))
        self._patch(nncpoly.eps, "closed_add_row",
                    self._count("eps.closed_add_row.calls", nncpoly.eps.closed_add_row))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- per-operation bookkeeping ------------------------------------------

    def begin(self, op: int) -> None:
        """Start an operation; spans recorded since the last one (checks,
        digests, bookkeeping between operations) are dropped."""
        self.spans.clear()
        self.stack.clear()
        self.op = op

    def end(self) -> None:
        """Fold the finished operation's spans into the totals."""
        spans = self.spans
        for name, (calls, own) in self_times(spans).items():
            self.calls[name] += calls
            self.self_s[name] += own
        self.extra["conversion.enumerate_faces.attempts"] += child_counts(
            spans, "satlat.supp_cl", "conversion.enumerate_faces")
        spans.clear()
        self.op = -1


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, exact: dict[str, float], passes: int,
                  overhead: float) -> defaultdict[str, float]:
    """Per-layer metric values by BENCHMARK.json name (0 for a layer the
    workload never reached).  Counts and times are per pass over the
    workload; exact counters come in per pass already."""
    e = tr.extra
    per_pass: dict[str, float] = {
        "conversion.combine_adjacent.new_elems": e["conversion.combine_adjacent.new_elems"],
        "conversion.enumerate_faces.attempts": e["conversion.enumerate_faces.attempts"],
        "polyhedron.view_builds": e["polyhedron.view_builds"],
        "polyhedron.emissions": e["polyhedron.emissions"],
        "eps.closed_add_row.calls": e["eps.closed_add_row.calls"],
    }
    for name in tr.calls:
        per_pass[f"{name}.calls"] = tr.calls[name]
        per_pass[f"{name}.self_s"] = tr.self_s[name]
    values = defaultdict(float, {k: v / passes for k, v in per_pass.items()})
    values.update({
        "homvec.vec_ops": exact["vec_ops"],
        "satlat.sat_ops": exact["sat_ops"],
        "conversion.iterations": exact["iterations"],
        "conversion.supports_out": exact["supports_out"],
        "eps.peak_size": exact["eps_peak_size"],
        "eps.vec_ops": exact["eps_vec_ops"],
        "eps.sat_ops": exact["eps_sat_ops"],
        "satlat.adjacent.accept_ratio": ratio(e["satlat.adjacent.accepted"],
                                              tr.calls["satlat.adjacent"]),
        "satlat.nonredundant_union.keep_ratio": ratio(e["satlat.nonredundant_union.kept"],
                                                      e["satlat.nonredundant_union.offered"]),
        "conversion.enumerate_faces.useful_ratio": ratio(
            e["conversion.enumerate_faces.returned"], e["conversion.enumerate_faces.attempts"]),
        "trace.overhead_ratio": overhead,
    })
    return values
