"""Closed-polyhedra reference engine and the extra-dimension route.

This module is the standard of comparison: a plain Chernikova-style double
description for topologically closed polyhedra.  Its step
(``closed_add_row``) is its own and has none of the strictness machinery:
no HARD element, no supports, no face enumeration.  Only the element store
is shared: the state is a ``conversion.ConvCtx`` whose lines / equalities
are SINGULAR and whose every other element is SOFT.  Strict inequalities
and closure points are rejected outright (KindError).  NNC inputs reach it
through the encode/decode pair, which models strictness with one extra
coordinate: a slack that strict rows must leave positive.

The counting discipline matches the direct engine (one vec_op per scalar
product and per linear combination, saturation work and adjacency through
the same kernel in ``satlat``), so vec_ops of the two routes are
comparable.  Both engines' pair loops run the kernel's rank quick-reject,
charged one sat_op per positive/negative pair offered.
"""

from __future__ import annotations

from typing import Sequence

from .conversion import ConvCtx, Role, Side, init_con_ctx, universe_gen_ctx
from .errors import DimensionError, EmptySystem, InvariantError, KindError
from .homvec import Row, combine_with_products, eliminate, normalize, scalar_prod
from .satlat import adjacent_pairs, bit_indices, id_mask
from .systems import ConKind, Constraint, GenKind, Generator


def closed_universe(dim: int) -> ConvCtx:
    cone = universe_gen_ctx(dim)
    cone.set_role(cone.hard, Role.SOFT)  # the position row is a ray here
    return cone


def closed_point_base(point: Generator) -> ConvCtx:
    cone = init_con_ctx(point)
    cone.set_role(cone.hard, Role.SOFT)  # positivity is nonstrict here
    return cone


def closed_add_row(cone: ConvCtx, row: Row, line: bool) -> None:
    """One Chernikova step: saturate a line-like violation if there is one,
    otherwise split, combine adjacent opposite pairs and keep the good side."""
    if len(row) != cone.dim + 1:
        raise DimensionError(f"row has {len(row) - 1} coordinates, cone has {cone.dim}")
    cone.counters.iterations += 1
    if not cone.rows:
        cone.counters.sizes.append(0)
        return

    rows, lines = cone.rows, cone.singular
    sps: dict[int, int] = {}
    for eid, r in rows.items():
        sps[eid] = scalar_prod(row, r)
        cone.counters.vec_ops += 1

    vid = next((eid for eid in bit_indices(lines) if sps[eid] != 0), None)
    if vid is not None:
        sv = sps[vid]
        half = rows[vid] if sv > 0 else normalize(tuple(-x for x in rows[vid]))
        sl = abs(sv)
        rows[vid] = half
        sps[vid] = sl
        for eid, r in rows.items():
            if eid == vid or sps[eid] == 0:
                continue
            se = sps[eid]
            if lines >> eid & 1:
                rows[eid] = eliminate(r, half, se, sl)
            else:
                rows[eid] = normalize(tuple(sl * a - se * b for a, b in zip(r, half)))
            cone.counters.vec_ops += 1
            sps[eid] = 0
        if line:  # a sign-free row keeps neither half
            del sps[vid]
            cone.drop(1 << vid)
        else:  # the half the row keeps is a ray
            cone.set_role(1 << vid, Role.SOFT)
    else:
        # no line breaks the row, so every nonzero product is a ray's; sps
        # follows rows, whose keys were inserted in ascending id order
        pos = [eid for eid, s in sps.items() if s > 0]
        neg = [eid for eid, s in sps.items() if s < 0]
        if pos or neg:
            found = 0
            for p, m in adjacent_pairs(cone.sat, pos, neg, cone.soft, cone.pair_bound()):
                combined = combine_with_products(rows[p], rows[m], sps[p], sps[m])
                eid = cone.add_elem(combined, Role.SOFT, cone.sat.and_rows((p, m)))
                sps[eid] = 0
                found += 1
            cone.counters.vec_ops += found
            cone.drop(id_mask(neg + pos if line else neg))
            if not cone.soft:
                if cone.producing is Side.CON:
                    raise InvariantError("closed cone lost every inequality row")
                cone.set_empty()
                cone.counters.sizes.append(0)
                return

    cone.sat.add_col([eid for eid in rows if sps.get(eid, 0) == 0])
    cone.compact_ids()
    cone.counters.sizes.append(len(cone.rows))


def closed_c2g(constraints: Sequence[Constraint], *, dim: int | None = None) -> ConvCtx:
    cs = list(constraints)
    for c in cs:
        if c.kind is ConKind.STRICT:
            raise KindError("closed engine cannot take strict inequalities")
    if dim is None:
        if not cs:
            raise EmptySystem("dimension unknown: no constraints and no explicit dim")
        dim = cs[0].dim
    cone = closed_universe(dim)
    for c in cs:
        closed_add_row(cone, c.row, c.kind is ConKind.EQUALITY)
    return cone


def closed_g2c(generators: Sequence[Generator]) -> ConvCtx:
    gens = list(generators)
    for g in gens:
        if g.kind is GenKind.CLOSURE_POINT:
            raise KindError("closed engine cannot take closure points")
    idx = next((i for i, g in enumerate(gens) if g.kind is GenKind.POINT), None)
    if idx is None:
        raise EmptySystem("a generator system needs at least one point")
    cone = closed_point_base(gens.pop(idx))
    for g in gens:
        closed_add_row(cone, g.row, g.kind is GenKind.LINE)
    return cone


def closed_generators(cone: ConvCtx) -> list[Generator]:
    if cone.producing is not Side.GEN:
        raise KindError("cone holds constraints, not generators")
    out = []
    for eid in sorted(cone.rows):
        r = cone.rows[eid]
        if cone.singular >> eid & 1:
            out.append(Generator(r, GenKind.LINE))
        elif r[0] == 0:
            out.append(Generator(r, GenKind.RAY))
        else:
            out.append(Generator(r, GenKind.POINT))
    if not any(g.kind is GenKind.POINT for g in out):
        return []
    return out


def closed_constraints(cone: ConvCtx) -> list[Constraint]:
    if cone.producing is Side.GEN:
        raise KindError("cone holds generators, not constraints")
    out = []
    for eid in sorted(cone.rows):
        r, line = cone.rows[eid], cone.singular >> eid & 1
        if not line and r[0] > 0 and all(a == 0 for a in r[1:]):
            continue  # positivity is implicit outside the cone view
        out.append(Constraint(r, ConKind.EQUALITY if line else ConKind.NONSTRICT))
    return out


# -- strictness via one extra coordinate ---------------------------------


def eps_encode_constraints(cs: Sequence[Constraint]) -> list[Constraint]:
    """Widen rows by a slack coordinate: strict rows must clear it, the rest
    ignore it.  The slack itself is bounded into (the closure of) (0, 1]."""
    if not cs:
        raise EmptySystem("nothing to encode")
    dim = cs[0].dim
    out = []
    for c in cs:
        if c.kind is ConKind.STRICT:
            out.append(Constraint(c.row + (-1,), ConKind.NONSTRICT))
        else:
            out.append(Constraint(c.row + (0,), c.kind))
    out.append(Constraint((0,) * (dim + 1) + (1,), ConKind.NONSTRICT))
    out.append(Constraint((1,) + (0,) * dim + (-1,), ConKind.NONSTRICT))
    return out


def _nothing(dim: int) -> list[Constraint]:
    """The empty set's constraint system: -1 >= 0."""
    return [Constraint((-1,) + (0,) * dim, ConKind.NONSTRICT)]


def eps_decode_constraints(cs: Sequence[Constraint]) -> list[Constraint]:
    out = []
    for c in cs:
        e = c.row[-1]
        body = c.row[:-1]
        if all(a == 0 for a in body[1:]):
            if c.kind is ConKind.EQUALITY and e != 0:
                # every generator sits at slack 0: there was no point
                return _nothing(len(body) - 1)
            continue  # slack bound (or tautology): no geometric content
        if e == 0:
            out.append(Constraint(body, c.kind))
        else:
            if c.kind is ConKind.EQUALITY or e > 0:
                raise KindError(f"row {c.row} is not a valid slack-encoded inequality")
            out.append(Constraint(body, ConKind.STRICT))
    return out


def eps_encode_generators(gens: Sequence[Generator]) -> list[Generator]:
    """Points sit at slack 1 with a shadow at 0; closure points become plain
    points at slack 0; directions stay at 0."""
    out = []
    for g in gens:
        if g.kind is GenKind.POINT:
            out.append(Generator(g.row + (g.row[0],), GenKind.POINT))
            out.append(Generator(g.row + (0,), GenKind.POINT))
        elif g.kind is GenKind.CLOSURE_POINT:
            out.append(Generator(g.row + (0,), GenKind.POINT))
        else:
            out.append(Generator(g.row + (0,), g.kind))
    return out


def eps_decode_generators(gens: Sequence[Generator]) -> list[Generator]:
    out = []
    point_rows = set()
    decoded = []
    for g in gens:
        e = g.row[-1]
        body = g.row[:-1]
        if g.kind in (GenKind.LINE, GenKind.RAY):
            if e != 0:
                raise KindError(f"direction {g.row} escapes along the slack axis")
            decoded.append((body, g.kind))
        elif e > 0:
            body = normalize(body)
            point_rows.add(body)
            decoded.append((body, GenKind.POINT))
        else:
            decoded.append((normalize(body), GenKind.CLOSURE_POINT))
    for body, kind in decoded:
        if kind is GenKind.CLOSURE_POINT and body in point_rows:
            continue  # shadow of a kept point
        out.append(Generator(body, kind))
    return out


def eps_c2g(constraints: Sequence[Constraint]) -> tuple[list[Generator], ConvCtx]:
    cone = closed_c2g(eps_encode_constraints(constraints))
    gens = closed_generators(cone)
    return (eps_decode_generators(gens) if gens else []), cone


def eps_g2c(generators: Sequence[Generator]) -> tuple[list[Constraint], ConvCtx]:
    encoded = eps_encode_generators(generators)
    if encoded and not any(g.kind is GenKind.POINT for g in encoded):
        # rays and lines alone span the empty set: no cone to start from
        dim = encoded[0].dim
        return _nothing(dim - 1), ConvCtx(dim=dim, producing=Side.CON)
    cone = closed_g2c(encoded)
    return eps_decode_constraints(closed_constraints(cone)), cone
