"""Incremental double description conversion for NNC polyhedra.

One engine runs both directions.  A context holds elements of one side
(generators or constraints) and consumes rows of the other side one at a
time.  Element behavior depends on a three-way role, not on the side:

* SINGULAR: lines / equalities.  Sign-free, saturate every processed row.
* SOFT: rays and closure points / nonstrict inequalities.
* HARD: skeleton points / skeleton-strict inequalities.

Every row takes one step (``process_row``).  If the row breaks a
SINGULAR element, that element is first pivoted into the half the row
keeps (``violating_singular``); the ordinary step then runs with the half
alone on the positive side, so each role's effect is coded once.

Strictness that no single skeleton element can express lives next to the
skeleton as supports: sets of element ids whose face's relative interior is
included (generator side) or excluded (constraint side).  The constraint
side starts with the positivity row as a HARD element; over the run it
either survives as a real strict row or dissolves into the support that
cuts the empty face, which keeps closure points and strict rows honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

from .counting import OpCounters
from .errors import DimensionError, EmptySystem, InvariantError, KindError, StaleIdError
from .homvec import Row, combine_with_products, eliminate, normalize, scalar_prod
from .satlat import (
    Region,
    SatMatrix,
    adjacent,
    classify_ns,
    id_mask,
    mask_ids,
    nonredundant_union,
    proj,
    supp_cl,
)
from .systems import ConKind, Constraint, GenKind, Generator


class Role(Enum):
    SINGULAR = "singular"
    SOFT = "soft"
    HARD = "hard"


class Side(Enum):
    GEN = "generators"
    CON = "constraints"


CON_ROLE = {
    ConKind.EQUALITY: Role.SINGULAR,
    ConKind.NONSTRICT: Role.SOFT,
    ConKind.STRICT: Role.HARD,
}

GEN_ROLE = {
    GenKind.LINE: Role.SINGULAR,
    GenKind.RAY: Role.SOFT,
    GenKind.CLOSURE_POINT: Role.SOFT,
    GenKind.POINT: Role.HARD,
}


@dataclass
class Elem:
    row: Row
    role: Role


@dataclass
class _Split:
    sps: dict[int, int]
    pos: set[int]
    zero: set[int]
    neg: set[int]
    violated: int | None = None
    adjacent_pairs: set[tuple[int, int]] = field(default_factory=set)
    cands: int = 0  # id mask of the non-singular elements after combining
    keep: int = 0  # id mask of the elements on the kept side of the row


@dataclass
class ConvCtx:
    dim: int
    producing: Side
    elems: dict[int, Elem] = field(default_factory=dict)
    sat: SatMatrix = field(default_factory=SatMatrix)
    ns: set[frozenset[int]] = field(default_factory=set)
    counters: OpCounters = field(default_factory=OpCounters)
    empty: bool = False
    next_id: int = 0

    def __post_init__(self):
        self.sat.counters = self.counters

    # -- element bookkeeping --------------------------------------------

    def add_elem(self, row: Row, role: Role, satrow: int = 0) -> int:
        eid = self.next_id
        self.next_id += 1
        self.elems[eid] = Elem(row, role)
        self.sat.new_row(eid, satrow)
        return eid

    def drop_elem(self, eid: int) -> None:
        del self.elems[eid]
        self.sat.drop_row(eid)

    def nonsingular_ids(self) -> list[int]:
        return [i for i, e in self.elems.items() if e.role is not Role.SINGULAR]

    def hard_ids(self) -> set[int]:
        return {i for i, e in self.elems.items() if e.role is Role.HARD}

    def row_of(self, eid: int) -> Row:
        try:
            return self.elems[eid].row
        except KeyError:
            raise StaleIdError(f"element {eid} is gone") from None

    def set_empty(self) -> None:
        self.empty = True
        self.elems.clear()
        self.ns.clear()
        self.sat.clear()

    def clone(self) -> "ConvCtx":
        counters = replace(self.counters, sizes=list(self.counters.sizes))
        sat = self.sat.copy(counters)
        out = ConvCtx(
            dim=self.dim,
            producing=self.producing,
            elems={i: Elem(e.row, e.role) for i, e in self.elems.items()},
            sat=sat,
            ns=set(self.ns),
            counters=counters,
            empty=self.empty,
            next_id=self.next_id,
        )
        return out

    @classmethod
    def build(
        cls,
        dim: int,
        producing: Side,
        elems: Sequence[tuple[Row, Role]],
        cols: Sequence[Iterable[int]] = (),
        ns: Iterable[Iterable[int]] = (),
    ) -> "ConvCtx":
        """Assemble a context directly; meant for tests that exercise a
        single iteration step from a known state."""
        ctx = cls(dim=dim, producing=producing)
        for row, role in elems:
            ctx.add_elem(row, role)
        for saturating in cols:
            sats = set(saturating) | {
                i for i, e in ctx.elems.items() if e.role is Role.SINGULAR
            }
            ctx.sat.add_col(sats)
        ctx.ns = {frozenset(s) for s in ns}
        return ctx


def _combine_role(added: Role, a: Role, b: Role) -> Role:
    if added is Role.HARD:
        return Role.SOFT
    if a is Role.HARD or b is Role.HARD:
        return Role.HARD
    return Role.SOFT


# -- iteration steps ----------------------------------------------------


def partition_elems(ctx: ConvCtx, row: Row) -> _Split:
    """Sign every element against the row.  Singular elements join no part;
    the lowest-id one the row does not saturate is recorded as violated
    (dict order is id order, since ids only grow)."""
    split = _Split({}, set(), set(), set())
    for eid, e in ctx.elems.items():
        s = scalar_prod(row, e.row)
        ctx.counters.vec_ops += 1
        split.sps[eid] = s
        if e.role is Role.SINGULAR:
            if s and split.violated is None:
                split.violated = eid
        elif s > 0:
            split.pos.add(eid)
        elif s < 0:
            split.neg.add(eid)
        else:
            split.zero.add(eid)
    return split


def combine_adjacent(ctx: ConvCtx, role: Role, split: _Split) -> list[int]:
    """Combine every adjacent positive/negative pair onto the new hyperplane.

    New elements join the zero part with an eagerly computed saturation row
    (the AND of the parents; the new column is appended by the caller).  The
    adjacent pairs are recorded on the split for ``create_ns``.
    """
    witnesses = id_mask(split.pos | split.zero | split.neg)
    new_ids: list[int] = []
    negs = sorted(split.neg)
    for p in sorted(split.pos):
        for m in negs:
            if not adjacent(ctx.sat, p, m, witnesses):
                continue
            split.adjacent_pairs.add((p, m))
            combined = combine_with_products(
                ctx.elems[p].row, ctx.elems[m].row, split.sps[p], split.sps[m]
            )
            ctx.counters.vec_ops += 1
            satrow = ctx.sat.and_rows((p, m))
            eid = ctx.add_elem(combined, _combine_role(role, ctx.elems[p].role, ctx.elems[m].role), satrow)
            split.zero.add(eid)
            split.sps[eid] = 0
            new_ids.append(eid)
    return new_ids


def _classify_all(ctx: ConvCtx, split: _Split) -> dict[frozenset[int], Region]:
    return {ns: classify_ns(ns, split.pos, split.zero, split.neg) for ns in ctx.ns}


def _close_and_keep(
    ctx: ConvCtx, split: _Split, supports: Iterable[frozenset[int]]
) -> set[frozenset[int]]:
    """Close each support over the non-singular elements and keep the part
    on the kept side of the new row; empty results vanish."""
    cands, keep = split.cands, split.keep
    out = {supp_cl(ctx.sat, ns, cands) & keep for ns in supports}
    out.discard(0)
    return {mask_ids(m) for m in out}


def move_ns(
    ctx: ConvCtx, split: _Split, regions: dict[frozenset[int], Region]
) -> set[frozenset[int]]:
    """Reattach supports that straddle the new row to the kept side."""
    mixed = [ns for ns, region in regions.items() if region is Region.MIX]
    return _close_and_keep(ctx, split, mixed) if mixed else set()


def enumerate_faces(
    ctx: ConvCtx,
    seeds: Sequence[frozenset[int]],
    extensions: Iterable[int],
    split: _Split,
) -> set[frozenset[int]]:
    """Supports of faces reached by stretching each seed with one soft
    element from the far side of the new row."""
    exts = sorted(extensions)
    if not exts or not seeds:
        return set()
    stretched = (seed | {s} for seed in seeds for s in exts if s not in seed)
    return _close_and_keep(ctx, split, stretched)


def _with_role(ctx: ConvCtx, ids: Iterable[int], role: Role) -> list[int]:
    return [i for i in sorted(ids) if ctx.elems[i].role is role]


def _seeds(
    hard: list[int], regions: dict[frozenset[int], Region], region: Region
) -> list[frozenset[int]]:
    """Each hard element alone, then the supports lying in the region."""
    return [frozenset({i}) for i in hard] + sorted(
        (ns for ns, r in regions.items() if r is region), key=sorted
    )


def create_ns(
    ctx: ConvCtx, split: _Split, role: Role, regions: dict[frozenset[int], Region]
) -> set[frozenset[int]]:
    """Fresh supports for faces that cross the new row.

    Crossing faces are found from point-like elements and existing supports
    on the going-away side, extended one soft element at a time into the
    kept side; a soft or sign-free row also looks the other way.  On the
    constraint side a strict row about to go also stretches to each kept
    strict row it is not adjacent to.  (A strict row's boundary faces are
    ``strict_on_eq_points``'s.)
    """
    hard_neg = _with_role(ctx, split.neg, Role.HARD)
    soft_pos = _with_role(ctx, split.pos, Role.SOFT)
    out = enumerate_faces(ctx, _seeds(hard_neg, regions, Region.NEG), soft_pos, split)
    if role is Role.HARD:
        return out
    hard_pos = _with_role(ctx, split.pos, Role.HARD)
    soft_neg = _with_role(ctx, split.neg, Role.SOFT)
    out |= enumerate_faces(ctx, _seeds(hard_pos, regions, Region.POS), soft_neg, split)
    if ctx.producing is Side.CON:
        # Two strict rows on opposite sides that are not adjacent meet in a
        # face no soft extension reaches (a closure point can cut the vertex
        # where they cross).  Adjacent pairs need nothing: their hard
        # combination already excludes that face.  Nor does an added point:
        # the kept strict row stays hard and in every such support, so
        # nonredundant_union would drop them all.
        for m in hard_neg:
            far = [p for p in hard_pos if (p, m) not in split.adjacent_pairs]
            if far:
                out |= enumerate_faces(ctx, [frozenset({m})], far, split)
    return out


def promote_singletons(ctx: ConvCtx) -> None:
    """A single-element support means that element itself is included, so
    fold it into the skeleton as a hard element.

    The family must be an antichain, as every step leaves it: then no other
    support contains a promoted element, and none needs dropping."""
    for ns in sorted(ctx.ns, key=sorted):
        if len(ns) != 1:
            continue
        (m,) = ns
        e = ctx.elems.get(m)
        if e is None or e.role is not Role.SOFT:
            continue
        if ctx.producing is Side.GEN and e.row[0] == 0:
            continue
        e.role = Role.HARD
        ctx.ns.discard(ns)


def violating_singular(ctx: ConvCtx, split: _Split, vid: int) -> None:
    """The new row does not saturate the line-like element ``vid``: pivot it
    into the half that satisfies the row.

    The half becomes a soft element on the positive side, and every other
    element the row does not saturate is rewritten against it onto the
    hyperplane (which leaves saturation rows as they were).  The ordinary
    step then applies the row's own effect: a sign-free row drops the half,
    a soft row keeps it, a strict row weakens what it saturates.
    """
    sv = split.sps[vid]
    half = ctx.elems[vid].row if sv > 0 else normalize(tuple(-x for x in ctx.elems[vid].row))
    sl = abs(sv)
    ctx.elems[vid].row = half
    ctx.elems[vid].role = Role.SOFT
    split.sps[vid] = sl
    split.pos.add(vid)

    for eid, e in ctx.elems.items():
        if eid == vid:
            continue
        se = split.sps[eid]
        if se == 0:
            continue
        if e.role is Role.SINGULAR:
            e.row = eliminate(e.row, half, se, sl)
        else:
            e.row = normalize(tuple(sl * a - se * b for a, b in zip(e.row, half)))
        ctx.counters.vec_ops += 1
        split.sps[eid] = 0
        for part in (split.pos, split.neg):
            part.discard(eid)
        if e.role is not Role.SINGULAR:
            split.zero.add(eid)


def strict_on_eq_points(
    ctx: ConvCtx, split: _Split, regions: dict[frozenset[int], Region]
) -> set[frozenset[int]]:
    """A strict row saturates part of the skeleton: the saturated hard
    elements soften, and each face they or the saturated supports span with
    one soft positive element comes back as a fresh support.  The only
    place where a strict row softens what it saturates."""
    hard_zero = _with_role(ctx, split.zero, Role.HARD)
    seeds = _seeds(hard_zero, regions, Region.ZERO)
    for i in hard_zero:
        ctx.elems[i].role = Role.SOFT
    soft_pos = _with_role(ctx, split.pos, Role.SOFT)
    return enumerate_faces(ctx, seeds, soft_pos, split)


def _regular(ctx: ConvCtx, role: Role, split: _Split) -> None:
    if role is Role.SINGULAR and not split.pos and not split.neg:
        return  # every element already saturates the row
    if role is Role.HARD and not split.pos:
        if ctx.producing is Side.CON:
            raise InvariantError("positivity invariant broken: point sees no positive row")
        ctx.set_empty()
        return

    regions = _classify_all(ctx, split)
    combine_adjacent(ctx, role, split)
    # Fixed for the rest of the step: later phases only soften hard elements.
    split.cands = id_mask(ctx.nonsingular_ids())
    split.keep = proj(split.cands, role is Role.HARD, id_mask(split.zero), id_mask(split.neg))
    moved = move_ns(ctx, split, regions)
    created = create_ns(ctx, split, role, regions)

    if role is Role.SINGULAR:
        doomed = split.pos | split.neg
        kept = {ns for ns, r in regions.items() if r is Region.ZERO}
    elif role is Role.SOFT:
        doomed = set(split.neg)
        kept = {ns for ns, r in regions.items() if r in (Region.POS, Region.ZERO)}
    else:
        doomed = set(split.neg)
        created |= strict_on_eq_points(ctx, split, regions)
        kept = {ns for ns, r in regions.items() if r is Region.POS}

    for eid in doomed:
        ctx.drop_elem(eid)
    if moved or created:
        ctx.ns = nonredundant_union(kept, moved, created, hard=ctx.hard_ids())
    else:
        # kept is part of the incoming family, which is already minimal and
        # free of hard elements, and no existing element turned hard
        ctx.ns = kept

    if not any(e.role is not Role.SINGULAR for e in ctx.elems.values()):
        if ctx.producing is Side.CON:
            raise InvariantError("constraint skeleton lost every inequality row")
        ctx.set_empty()


def process_row(ctx: ConvCtx, row: Row, role: Role) -> None:
    """One step per row: a violated line-like element is pivoted first, then
    the ordinary step runs."""
    if len(row) != ctx.dim + 1:
        raise DimensionError(f"row has {len(row) - 1} coordinates, context has {ctx.dim}")
    ctx.counters.iterations += 1
    if ctx.empty:
        ctx.counters.sizes.append(0)
        return
    split = partition_elems(ctx, row)
    if split.violated is not None:
        violating_singular(ctx, split, split.violated)
    _regular(ctx, role, split)
    if not ctx.empty:
        promote_singletons(ctx)
        ctx.sat.add_col([eid for eid in ctx.elems if split.sps[eid] == 0])
    ctx.counters.sizes.append(len(ctx.elems) + len(ctx.ns))


def add_constraint(ctx: ConvCtx, c: Constraint) -> None:
    if ctx.producing is not Side.GEN:
        raise KindError("constraint rows feed a generator-producing context")
    process_row(ctx, c.row, CON_ROLE[c.kind])


def add_generator(ctx: ConvCtx, g: Generator) -> None:
    if ctx.producing is not Side.CON:
        raise KindError("generator rows feed a constraint-producing context")
    process_row(ctx, g.row, GEN_ROLE[g.kind])


# -- initial contexts and drivers ---------------------------------------


def universe_gen_ctx(dim: int) -> ConvCtx:
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
    ctx = ConvCtx(dim=dim, producing=Side.GEN)
    line_ids = []
    for i in range(1, dim + 1):
        axis = [0] * (dim + 1)
        axis[i] = 1
        line_ids.append(ctx.add_elem(tuple(axis), Role.SINGULAR))
    ctx.add_elem((1,) + (0,) * dim, Role.HARD)
    # Saturation column for the homogenization facet (the positivity row):
    # directions saturate it, position rows do not.  Without it, adjacency
    # between recession rays is misjudged on unbounded sets.
    ctx.sat.add_col(line_ids)
    return ctx


def init_con_ctx(first_point: Generator) -> ConvCtx:
    """Constraint-side context describing exactly one point: one pivoted
    equality per coordinate plus the positivity row."""
    if first_point.kind is not GenKind.POINT:
        raise KindError("constraint-side contexts start from a point")
    dim = first_point.dim
    row = first_point.row
    ctx = ConvCtx(dim=dim, producing=Side.CON)
    for i in range(1, dim + 1):
        eq = [0] * (dim + 1)
        eq[0] = -row[i]
        eq[i] = row[0]
        ctx.add_elem(normalize(tuple(eq), bidirectional=True), Role.SINGULAR)
    pos_id = ctx.add_elem((1,) + (0,) * dim, Role.HARD)
    ctx.counters.iterations += 1
    ctx.sat.add_col([eid for eid in ctx.elems if eid != pos_id])
    ctx.counters.sizes.append(len(ctx.elems))
    return ctx


def conversion_c2g(
    constraints: Sequence[Constraint],
    *,
    dim: int | None = None,
    base: ConvCtx | None = None,
) -> ConvCtx:
    """Run constraints through a generator-producing context (a fresh
    universe unless a base is given) and return the final context."""
    cs = list(constraints)
    if base is not None:
        ctx = base.clone()
    else:
        if dim is None:
            if not cs:
                raise EmptySystem("dimension unknown: no constraints and no explicit dim")
            dim = cs[0].dim
        ctx = universe_gen_ctx(dim)
    for c in cs:
        add_constraint(ctx, c)
    return ctx


def conversion_g2c(
    generators: Sequence[Generator], *, base: ConvCtx | None = None
) -> ConvCtx:
    """Run generators through a constraint-producing context.  Without a
    base, the first point seeds the context and the rest follow in input
    order."""
    gens = list(generators)
    if base is not None:
        ctx = base.clone()
    else:
        idx = next((i for i, g in enumerate(gens) if g.kind is GenKind.POINT), None)
        if idx is None:
            raise EmptySystem("a generator system needs at least one point")
        ctx = init_con_ctx(gens.pop(idx))
    for g in gens:
        add_generator(ctx, g)
    return ctx


# -- reading results out ------------------------------------------------


def _tautology(row: Row) -> bool:
    return row[0] > 0 and all(a == 0 for a in row[1:])


def materialize_support(ctx: ConvCtx, ns: frozenset[int]) -> Row:
    total = [0] * (ctx.dim + 1)
    for eid in sorted(ns):
        for j, a in enumerate(ctx.row_of(eid)):
            total[j] += a
    return normalize(tuple(total))


def emit_generators(ctx: ConvCtx) -> list[Generator]:
    """External view of a generator-side context.  Each support turns into
    one point in the relative interior of its face; a system that ends up
    without any point denotes the empty set and comes back empty."""
    if ctx.producing is not Side.GEN:
        raise KindError("not a generator-producing context")
    if ctx.empty:
        return []
    lines: list[Row] = []
    rays: list[Row] = []
    cps: list[Row] = []
    pts: list[Row] = []
    for eid in sorted(ctx.elems):
        e = ctx.elems[eid]
        if e.role is Role.SINGULAR:
            lines.append(e.row)
        elif e.role is Role.HARD:
            pts.append(e.row)
        elif e.row[0] == 0:
            rays.append(e.row)
        else:
            cps.append(e.row)
    for ns in sorted(ctx.ns, key=sorted):
        filler = materialize_support(ctx, ns)
        if filler[0] <= 0:
            raise InvariantError(f"support {sorted(ns)} has no position row")
        pts.append(filler)
    if not pts:
        return []
    out = [Generator(r, GenKind.LINE) for r in dict.fromkeys(lines)]
    out += [Generator(r, GenKind.RAY) for r in dict.fromkeys(rays)]
    pt_set = dict.fromkeys(pts)
    out += [Generator(r, GenKind.CLOSURE_POINT) for r in dict.fromkeys(cps) if r not in pt_set]
    out += [Generator(r, GenKind.POINT) for r in pt_set]
    return out


def emit_constraints(ctx: ConvCtx) -> list[Constraint]:
    """External view of a constraint-side context.  Supports materialize as
    strict rows (their member sum); rows parallel to positivity are
    tautological and stay internal."""
    if ctx.producing is not Side.CON:
        raise KindError("not a constraint-producing context")
    out: list[Constraint] = []
    seen: set[tuple[Row, ConKind]] = set()

    def push(row: Row, kind: ConKind) -> None:
        if kind is not ConKind.EQUALITY and _tautology(row):
            return
        key = (row, kind)
        if key not in seen:
            seen.add(key)
            out.append(Constraint(row, kind))

    for eid in sorted(ctx.elems):
        e = ctx.elems[eid]
        if e.role is Role.SINGULAR:
            push(e.row, ConKind.EQUALITY)
        elif e.role is Role.SOFT:
            push(e.row, ConKind.NONSTRICT)
        else:
            push(e.row, ConKind.STRICT)
    for ns in sorted(ctx.ns, key=sorted):
        push(materialize_support(ctx, ns), ConKind.STRICT)
    return out


def atoms(ctx: ConvCtx) -> list[tuple[Row, ...]]:
    """Every hard element alone plus every support's member rows.  On the
    generator side each names a piece whose relative interior the set
    includes; on the constraint side, a face the set omits."""
    out = [(ctx.elems[i].row,) for i in sorted(ctx.hard_ids())]
    out += [tuple(ctx.row_of(i) for i in sorted(ns)) for ns in sorted(ctx.ns, key=sorted)]
    return out
