"""Cross-polytope benchmark workload.

The D-dimensional dual hypercube has one facet per sign vector.  Variants
differ in the right-hand offset and in which two facets stay nonstrict, so
hulls and intersections of them exercise the strictness machinery.  The
same workload runs through the direct engine and through the slack-encoded
closed route, and the interesting numbers are the largest intermediate
representation either route carries and each route's wall time.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Callable, Sequence

from . import eps
from .conversion import conversion_c2g, conversion_g2c, emit_constraints, emit_generators
from .errors import DimensionError
from .systems import ConKind, Constraint, Generator

MAX_DIM = 10  # 2**dim facets per variant; the benchmark stops at dim 8


def build_dual_hypercube(
    dim: int, offset: int = 1, pattern: str = "poles"
) -> list[Constraint]:
    """Facet rows offset - sum(s_i x_i) >= 0 (or > 0) over all sign vectors.

    pattern "poles": the all-plus and all-minus facets are nonstrict, the
    rest strict.  pattern "first": the first two sign vectors in product
    order are nonstrict instead.  A dimension above ``MAX_DIM`` is refused
    before any row is built.
    """
    if not 1 <= dim <= MAX_DIM:
        raise DimensionError(f"dimension must be between 1 and {MAX_DIM}")
    if offset < 1:
        raise ValueError("offset must be positive")
    if pattern not in ("poles", "first"):
        raise ValueError(f"unknown pattern '{pattern}'")
    out = []
    for i, signs in enumerate(product((1, -1), repeat=dim)):
        if pattern == "poles":
            nonstrict = all(s == 1 for s in signs) or all(s == -1 for s in signs)
        else:
            nonstrict = i < 2
        row = (offset,) + tuple(-s for s in signs)
        out.append(Constraint(row, ConKind.NONSTRICT if nonstrict else ConKind.STRICT))
    return out


def _direct_c2g(constraints: list[Constraint]):
    ctx = conversion_c2g(constraints)
    return emit_generators(ctx), ctx


def _direct_g2c(generators: list[Generator]):
    ctx = conversion_g2c(generators)
    return emit_constraints(ctx), ctx


def _program(c2g: Callable, g2c: Callable, variants: Sequence[list[Constraint]]) -> list:
    """Hull two pairs of variants, intersect the hulls and convert the
    result back, through one route's functions from rows to ``(output,
    state)``.  Returns the state of every conversion in the order run."""
    runs = [c2g(v) for v in variants]
    runs += [g2c(runs[0][0] + runs[1][0]), g2c(runs[2][0] + runs[3][0])]
    runs.append(c2g(runs[4][0] + runs[5][0]))
    runs.append(g2c(runs[6][0]))
    return [state for _out, state in runs]


SUMMED = ("vec_ops", "sat_ops", "pairs_offered", "pairs_adjacent")
FACES = ("faces_tried", "faces_walked", "faces_kept")  # the direct engine's alone


def _route(runs, keys: Sequence[str], wall_s: float) -> dict:
    counters = [run.counters for run in runs]
    sizes = [s for c in counters for s in c.sizes]
    totals = {key: sum(getattr(c, key) for c in counters) for key in keys}
    return {"max_size": max(sizes, default=0), **totals, "wall_s": wall_s}


def bench_dual_hypercube(dim: int) -> dict:
    """Two hulls and one intersection over four cross-polytope variants,
    once per route.  Returns max intermediate sizes, operation totals (the
    adjacency kernel's offered and adjacent pairs included, and the direct
    engine's face closures tried, walked and kept) and each route's wall
    time in seconds (machine-dependent)."""
    variants = [
        build_dual_hypercube(dim, offset, pattern)
        for offset in (1, 2)
        for pattern in ("poles", "first")
    ]
    started = time.perf_counter()
    direct = _program(_direct_c2g, _direct_g2c, variants)
    direct_s = time.perf_counter() - started
    started = time.perf_counter()
    encoded = _program(eps.eps_c2g, eps.eps_g2c, variants)
    eps_s = time.perf_counter() - started
    return {
        "workload": "dualhypercube",
        "dim": dim,
        "new": _route(direct, SUMMED + FACES, direct_s),
        "eps": _route(encoded, SUMMED, eps_s),
    }
