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
from typing import Sequence

from . import eps
from .conversion import conversion_c2g, conversion_g2c, emit_constraints, emit_generators
from .errors import DimensionError
from .systems import ConKind, Constraint, Generator


def build_dual_hypercube(
    dim: int, offset: int = 1, pattern: str = "poles"
) -> list[Constraint]:
    """Facet rows offset - sum(s_i x_i) >= 0 (or > 0) over all sign vectors.

    pattern "poles": the all-plus and all-minus facets are nonstrict, the
    rest strict.  pattern "first": the first two sign vectors in product
    order are nonstrict instead.
    """
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
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


def _workload_direct(variants: Sequence[list[Constraint]]):
    ctxs = [conversion_c2g(v) for v in variants]
    gens = [emit_generators(ctx) for ctx in ctxs]
    h1 = conversion_g2c(gens[0] + gens[1])
    h2 = conversion_g2c(gens[2] + gens[3])
    r_ctx = conversion_c2g(emit_constraints(h1) + emit_constraints(h2))
    r_back = conversion_g2c(emit_generators(r_ctx))
    return ctxs + [h1, h2, r_ctx, r_back]


def _workload_eps(variants: Sequence[list[Constraint]]):
    cones = []
    gens: list[list[Generator]] = []
    for v in variants:
        g, cone = eps.eps_c2g(v)
        gens.append(g)
        cones.append(cone)
    h1_cons, cone = eps.eps_g2c(gens[0] + gens[1])
    cones.append(cone)
    h2_cons, cone = eps.eps_g2c(gens[2] + gens[3])
    cones.append(cone)
    r_gens, cone = eps.eps_c2g(h1_cons + h2_cons)
    cones.append(cone)
    _, cone = eps.eps_g2c(r_gens)
    cones.append(cone)
    return cones


def bench_dual_hypercube(dim: int) -> dict:
    """Two hulls and one intersection over four cross-polytope variants,
    once per route.  Returns max intermediate sizes, operation totals (the
    adjacency kernel's offered and adjacent pairs included) and each
    route's wall time in seconds (machine-dependent)."""
    variants = [
        build_dual_hypercube(dim, offset, pattern)
        for offset in (1, 2)
        for pattern in ("poles", "first")
    ]
    started = time.perf_counter()
    direct = _workload_direct(variants)
    direct_s = time.perf_counter() - started
    started = time.perf_counter()
    encoded = _workload_eps(variants)
    eps_s = time.perf_counter() - started
    new_sizes = [s for ctx in direct for s in ctx.counters.sizes]
    eps_sizes = [s for cone in encoded for s in cone.counters.sizes]
    return {
        "workload": "dualhypercube",
        "dim": dim,
        "new": {
            "max_size": max(new_sizes, default=0),
            "vec_ops": sum(c.counters.vec_ops for c in direct),
            "sat_ops": sum(c.counters.sat_ops for c in direct),
            "pairs_offered": sum(c.counters.pairs_offered for c in direct),
            "pairs_adjacent": sum(c.counters.pairs_adjacent for c in direct),
            "wall_s": direct_s,
        },
        "eps": {
            "max_size": max(eps_sizes, default=0),
            "vec_ops": sum(c.counters.vec_ops for c in encoded),
            "sat_ops": sum(c.counters.sat_ops for c in encoded),
            "pairs_offered": sum(c.counters.pairs_offered for c in encoded),
            "pairs_adjacent": sum(c.counters.pairs_adjacent for c in encoded),
            "wall_s": eps_s,
        },
    }
