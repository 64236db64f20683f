"""Incremental double description conversion for NNC polyhedra.

One engine runs both directions.  A context holds elements of one side
(generators or constraints) and consumes rows of the other side one at a
time.  Element behavior depends on a three-way role, not on the side:

* SINGULAR: lines / equalities.  Sign-free, saturate every processed row.
* SOFT: rays and closure points / nonstrict inequalities.
* HARD: skeleton points / skeleton-strict inequalities.

An element is its row, kept under its id, and its id's bit in the mask of
its role; nothing else records the role.  Role changes and removals take
id masks, one call per step.  Once the ids issued outgrow the live
elements, a step ends by renumbering them 0..n-1 in order, so that every
mask stays about as wide as the live set.

Every row takes one step (``process_row``).  If the row breaks a
SINGULAR element, that element is first pivoted into the half the row
keeps (``violating_singular``); the ordinary step then runs with the half
alone on the positive side, so each role's effect is coded once.

Strictness that no single skeleton element can express lives next to the
skeleton as supports: sets of element ids, held as int id masks like every
set of elements a step handles, whose face's relative interior is included
(generator side) or excluded (constraint side).  The constraint
side starts with the positivity row as a HARD element; over the run it
either survives as a real strict row or dissolves into the support that
cuts the empty face, which keeps closure points and strict rows honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from operator import mul
from typing import Iterable, Sequence

from .counting import OpCounters
from .errors import (
    DimensionError,
    EmptySupportError,
    EmptySystem,
    InvariantError,
    KindError,
    StaleIdError,
)
from .homvec import Row, combine_with_products, eliminate, normalize
from .satlat import SatMatrix, adjacent_pairs, bit_indices, id_mask, nonredundant_union, walk
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

ROLE_CON = {role: kind for kind, role in CON_ROLE.items()}

GEN_ROLE = {
    GenKind.LINE: Role.SINGULAR,
    GenKind.RAY: Role.SOFT,
    GenKind.CLOSURE_POINT: Role.SOFT,
    GenKind.POINT: Role.HARD,
}


@dataclass
class _Split:
    """One step's view of the elements.  The parts are id masks of the
    non-singular elements by the sign of their scalar product."""

    sps: dict[int, int]
    pos: int
    zero: int
    neg: int
    violated: int | None = None
    adj: dict[int, int] = field(default_factory=dict)  # negative id -> adjacent positives
    cands: int = 0  # every part after combining: the non-singular elements
    keep: int = 0  # the elements on the kept side of the row
    dead: int = 0  # kept elements that end the step hard
    # shared columns walked this step; a repeated mask is skipped, as its
    # face already went out (cands, keep and dead are fixed once combined)
    faces: set[int] = field(default_factory=set)


@dataclass
class ConvCtx:
    dim: int
    producing: Side
    rows: dict[int, Row] = field(default_factory=dict)
    sat: SatMatrix = field(default_factory=SatMatrix)
    ns: set[int] = field(default_factory=set)  # supports, as id masks
    counters: OpCounters = field(default_factory=OpCounters)
    next_id: int = 0
    # the live elements of each role, as id masks: the one record of roles
    singular: int = 0
    soft: int = 0
    hard: int = 0

    def __post_init__(self):
        self.sat.counters = self.counters

    # -- element bookkeeping --------------------------------------------

    def add_elem(self, row: Row, role: Role, satrow: int = 0) -> int:
        eid = self.next_id
        self.next_id += 1
        self.rows[eid] = row
        self._join(1 << eid, role)
        self.sat.new_row(eid, satrow)
        return eid

    def _join(self, ids: int, role: Role) -> None:
        # an if-chain, not a dict keyed by Role: Enum hashing is a Python call
        if role is Role.HARD:
            self.hard |= ids
        elif role is Role.SOFT:
            self.soft |= ids
        else:
            self.singular |= ids

    def _leave(self, ids: int) -> None:
        """Take the elements of the id mask ``ids`` out of their roles."""
        stale = ids & ~(self.singular | self.soft | self.hard)
        if stale:
            raise StaleIdError(f"elements {list(bit_indices(stale))} are gone")
        others = ~ids
        self.singular &= others
        self.soft &= others
        self.hard &= others

    def set_role(self, ids: int, role: Role) -> None:
        """Give every element of the id mask ``ids`` the role."""
        if not ids:
            return
        self._leave(ids)
        self._join(ids, role)

    def drop(self, ids: int) -> None:
        """Remove every element of the id mask ``ids``.  Their bits stay in
        the saturation columns until the next ``compact_ids``; every column
        query is masked by live ids."""
        if not ids:
            return
        self._leave(ids)
        rows = self.rows
        for eid in bit_indices(ids):
            del rows[eid]
        self.sat.drop(ids)

    def compact_ids(self) -> None:
        """Renumber the live elements 0..n-1 in id order once more than
        2n + 64 ids were issued.  The map keeps the order, so dict order,
        bit order and emission order stay as they were.  Run at step
        boundaries only: a step's split holds ids."""
        if self.next_id <= 2 * len(self.rows) + 64:
            return
        order = sorted(self.rows)
        new = {eid: i for i, eid in enumerate(order)}

        def remap(mask: int) -> int:
            return id_mask(new[eid] for eid in bit_indices(mask))

        self.rows = {i: self.rows[eid] for i, eid in enumerate(order)}
        self.singular, self.soft, self.hard = map(remap, (self.singular, self.soft, self.hard))
        self.ns = {remap(ns) for ns in self.ns}
        self.sat.renumber(order)
        self.next_id = len(order)

    def pair_bound(self) -> int:
        """The fewest saturation columns two adjacent elements share:
        rank - 2, with rank = dim + 1 - #lines (see ``adjacent_pairs``)."""
        return self.dim - 1 - self.singular.bit_count()

    def role_of(self, eid: int) -> Role:
        if self.hard >> eid & 1:
            return Role.HARD
        if self.soft >> eid & 1:
            return Role.SOFT
        if self.singular >> eid & 1:
            return Role.SINGULAR
        raise StaleIdError(f"element {eid} is gone")

    def row_of(self, eid: int) -> Row:
        try:
            return self.rows[eid]
        except KeyError:
            raise StaleIdError(f"element {eid} is gone") from None

    def set_empty(self) -> None:
        """Drop every element and support.  A context without rows denotes
        the empty set, but not every empty set drops its rows: a closure
        point can outlive the last point."""
        self.drop(self.singular | self.soft | self.hard)
        self.ns = set()

    def clone(self) -> "ConvCtx":
        counters = replace(self.counters, sizes=list(self.counters.sizes))
        # rows are tuples, replaced and never changed; the masks are ints
        sat = self.sat.copy(counters)
        return replace(self, rows=dict(self.rows), sat=sat, ns=set(self.ns), counters=counters)


# -- iteration steps ----------------------------------------------------


def partition_elems(ctx: ConvCtx, row: Row) -> _Split:
    """Sign every element against the row (one scalar product each; the
    caller checked the row's length).  Singular elements join no part; the
    lowest-id one the row does not saturate is recorded as violated."""
    sps: dict[int, int] = {}
    pos = neg = 0
    for eid, r in ctx.rows.items():
        s = sps[eid] = sum(map(mul, row, r))
        if s > 0:
            pos |= 1 << eid
        elif s < 0:
            neg |= 1 << eid
    ctx.counters.vec_ops += len(sps)
    singular = ctx.singular
    broken = (pos | neg) & singular
    violated = (broken & -broken).bit_length() - 1 if broken else None
    zero = (ctx.soft | ctx.hard) & ~(pos | neg)
    return _Split(sps, pos & ~singular, zero, neg & ~singular, violated)


def combine_adjacent(ctx: ConvCtx, role: Role, split: _Split) -> list[int]:
    """Combine every adjacent positive/negative pair onto the new hyperplane.

    New elements join the zero part with an eagerly computed saturation row
    (the AND of the parents; the new column is appended by the caller).  A
    combination is hard when either parent is, unless the row is strict.
    The adjacent positives of each negative element are recorded on the
    split for ``create_ns``.  The rank bound counts the lines left after
    the step's pivot, if any.
    """
    rows, sat, sps, adj = ctx.rows, ctx.sat, split.sps, split.adj
    hard = 0 if role is Role.HARD else ctx.hard
    witnesses = split.pos | split.zero | split.neg
    pos, neg = bit_indices(split.pos), bit_indices(split.neg)
    new_ids: list[int] = []
    for p, m in adjacent_pairs(sat, pos, neg, witnesses, ctx.pair_bound()):
        adj[m] = adj.get(m, 0) | 1 << p
        combined = combine_with_products(rows[p], rows[m], sps[p], sps[m])
        born = Role.HARD if (hard >> p | hard >> m) & 1 else Role.SOFT
        eid = ctx.add_elem(combined, born, sat.and_rows((p, m)))
        split.zero |= 1 << eid
        sps[eid] = 0
        new_ids.append(eid)
    ctx.counters.vec_ops += len(new_ids)
    return new_ids


def _close_and_keep(
    ctx: ConvCtx, split: _Split, seeds: Iterable[int], exts: Sequence[int] | None = None
) -> set[int]:
    """Close faces over the candidates and keep each closure's part on the
    kept side of the new row: every seed (an id mask) stretched by each
    extension id it lacks, or every seed alone without extensions.  The one
    place where the engine closes a face.

    A seed's rows are ANDed once.  Equal shared columns give equal faces,
    and the first walk of the step already returned its face to the step's
    one ``nonredundant_union``, so a repeated mask is skipped.  A face whose
    kept part is empty or holds an element that ends the step hard is
    dropped at once: ``nonredundant_union`` would drop it anyway.  Every
    closure, walked or skipped, is charged one sat_op per member row and
    per shared column.
    """
    sat = ctx.sat
    bits, cols = sat.bits, sat.cols
    faces, cands, keep, dead = split.faces, split.cands, split.keep, split.dead
    out: set[int] = set()
    ops = tried = kept = 0
    before = len(faces)
    for seed in seeds:
        base = -1
        for i in bit_indices(seed):
            base &= bits[i]
        rows = seed.bit_count()
        if exts is None:
            shared = [base]
        else:
            shared = [base & bits[s] for s in exts if not seed >> s & 1]
            rows += 1
        tried += len(shared)
        for common in shared:
            ops += rows + common.bit_count()
            if common in faces:
                continue
            faces.add(common)
            face = walk(cols, cands, common) & keep
            if face and not face & dead:
                kept += 1
                out.add(face)
    counters = ctx.counters
    counters.sat_ops += ops
    counters.faces_tried += tried
    counters.faces_walked += len(faces) - before
    counters.faces_kept += kept
    return out


def move_ns(ctx: ConvCtx, split: _Split) -> set[int]:
    """Reattach supports that straddle the new row to the kept side."""
    pos, neg = split.pos, split.neg
    mixed = [ns for ns in ctx.ns if ns & pos and ns & neg]
    return _close_and_keep(ctx, split, mixed) if mixed else set()


def enumerate_faces(ctx: ConvCtx, seeds: Sequence[int], extensions: int, split: _Split) -> set[int]:
    """Supports of faces reached by stretching each seed with one soft
    element (a bit of the ``extensions`` mask) from the far side of the new
    row."""
    if not extensions or not seeds:
        return set()
    return _close_and_keep(ctx, split, seeds, list(bit_indices(extensions)))


def _seeds(ctx: ConvCtx, hard: int, meet: int, miss: int) -> list[int]:
    """Each hard element alone, then the supports that meet the mask
    ``meet`` and miss the mask ``miss``."""
    supports = [ns for ns in ctx.ns if ns & meet and not ns & miss]
    return [1 << i for i in bit_indices(hard)] + supports


def create_ns(ctx: ConvCtx, split: _Split, role: Role) -> set[int]:
    """Fresh supports for faces that cross the new row.

    Crossing faces are found from point-like elements and existing supports
    on the going-away side, extended one soft element at a time into the
    kept side; a soft or sign-free row also looks the other way.  On the
    constraint side a strict row about to go also stretches to each kept
    strict row it is not adjacent to.  (A strict row's boundary faces are
    ``strict_on_eq_points``'s.)
    """
    hard_neg = ctx.hard & split.neg
    soft_pos = ctx.soft & split.pos
    out = enumerate_faces(ctx, _seeds(ctx, hard_neg, split.neg, split.pos), soft_pos, split)
    if role is Role.HARD:
        return out
    hard_pos = ctx.hard & split.pos
    soft_neg = ctx.soft & split.neg
    out |= enumerate_faces(ctx, _seeds(ctx, hard_pos, split.pos, split.neg), soft_neg, split)
    if ctx.producing is Side.CON:
        # Two strict rows on opposite sides that are not adjacent meet in a
        # face no soft extension reaches (a closure point can cut the vertex
        # where they cross).  Adjacent pairs need nothing: their hard
        # combination already excludes that face.  Nor does an added point:
        # the kept strict row stays hard and in every such support, so
        # nonredundant_union would drop them all.
        for m in bit_indices(hard_neg):
            far = hard_pos & ~split.adj.get(m, 0)
            if far:
                out |= enumerate_faces(ctx, [1 << m], far, split)
    return out


def promote_singletons(ctx: ConvCtx) -> None:
    """A single-element support means that element itself is included, so
    fold it into the skeleton as a hard element.

    The family must be an antichain, as every step leaves it: then no other
    support contains a promoted element, and none needs dropping."""
    singles = [ns for ns in ctx.ns if not ns & (ns - 1) and ns & ctx.soft]
    if ctx.producing is Side.GEN:  # a lone ray is no point: it stays a support
        singles = [ns for ns in singles if ctx.rows[ns.bit_length() - 1][0] != 0]
    if singles:
        ctx.set_role(sum(singles), Role.HARD)  # distinct bits: the sum is their union
        ctx.ns.difference_update(singles)


def violating_singular(ctx: ConvCtx, split: _Split, vid: int) -> None:
    """The new row does not saturate the line-like element ``vid``: pivot it
    into the half that satisfies the row.

    The half becomes a soft element on the positive side, and every other
    element the row does not saturate is rewritten against it onto the
    hyperplane (which leaves saturation rows as they were).  The ordinary
    step then applies the row's own effect: a sign-free row drops the half,
    a soft row keeps it, a strict row weakens what it saturates.
    """
    rows = ctx.rows
    sv = split.sps[vid]
    half = rows[vid] if sv > 0 else normalize(tuple(-x for x in rows[vid]))
    sl = abs(sv)
    rows[vid] = half
    ctx.set_role(1 << vid, Role.SOFT)
    split.sps[vid] = sl
    split.zero |= split.pos | split.neg
    split.pos, split.neg = 1 << vid, 0

    singular = ctx.singular
    for eid, r in rows.items():
        if eid == vid:
            continue
        se = split.sps[eid]
        if se == 0:
            continue
        if singular >> eid & 1:
            rows[eid] = eliminate(r, half, se, sl)
        else:
            rows[eid] = normalize(tuple(sl * a - se * b for a, b in zip(r, half)))
        ctx.counters.vec_ops += 1
        split.sps[eid] = 0


def strict_on_eq_points(ctx: ConvCtx, split: _Split) -> set[int]:
    """A strict row saturates part of the skeleton: the saturated hard
    elements soften, and each face they or the saturated supports span with
    one soft positive element comes back as a fresh support.  The only
    place where a strict row softens what it saturates."""
    hard_zero = ctx.hard & split.zero
    seeds = _seeds(ctx, hard_zero, split.zero, split.pos | split.neg)
    ctx.set_role(hard_zero, Role.SOFT)
    soft_pos = ctx.soft & split.pos
    return enumerate_faces(ctx, seeds, soft_pos, split)


def _regular(ctx: ConvCtx, role: Role, split: _Split) -> None:
    if role is Role.SINGULAR and not split.pos and not split.neg:
        return  # every element already saturates the row
    if role is Role.HARD and not split.pos:
        if ctx.producing is Side.CON:
            raise InvariantError("positivity invariant broken: point sees no positive row")
        ctx.set_empty()
        return

    # pos and neg are fixed for the rest of the step, and no support ever
    # holds an id that combine_adjacent adds to the zero part
    pos, neg = split.pos, split.neg
    parts = pos | split.zero | neg
    for ns in ctx.ns:
        if ns & ~parts:
            raise EmptySupportError(f"support {list(bit_indices(ns))} outside the step's parts")
    combine_adjacent(ctx, role, split)
    # Fixed for the rest of the step: later phases only soften hard elements.
    split.cands = pos | split.zero | neg
    split.keep = split.cands & ~neg if role is Role.HARD else split.zero
    # strict_on_eq_points softens the hard zero part of a strict row's step
    split.dead = ctx.hard & split.keep & ~(split.zero if role is Role.HARD else 0)
    moved = move_ns(ctx, split)
    created = create_ns(ctx, split, role)

    if role is Role.HARD:
        doomed = neg
        created |= strict_on_eq_points(ctx, split)
        kept = {ns for ns in ctx.ns if ns & pos and not ns & neg}
    else:
        doomed = pos | neg if role is Role.SINGULAR else neg
        kept = {ns for ns in ctx.ns if not ns & doomed}

    ctx.drop(doomed)
    left = split.cands & ~doomed  # every live non-singular element
    if moved or created:
        ctx.ns = nonredundant_union(kept, moved, created, hard=ctx.hard & left)
    else:
        # kept is part of the incoming family, which is already minimal and
        # free of hard elements, and no existing element turned hard
        ctx.ns = kept

    if not left:
        if ctx.producing is Side.CON:
            raise InvariantError("constraint skeleton lost every inequality row")
        ctx.set_empty()


def process_row(ctx: ConvCtx, row: Row, role: Role) -> None:
    """One step per row: a violated line-like element is pivoted first, then
    the ordinary step runs."""
    if len(row) != ctx.dim + 1:
        raise DimensionError(f"row has {len(row) - 1} coordinates, context has {ctx.dim}")
    ctx.counters.iterations += 1
    if not ctx.rows:
        ctx.counters.sizes.append(0)
        return
    split = partition_elems(ctx, row)
    if split.violated is not None:
        violating_singular(ctx, split, split.violated)
    _regular(ctx, role, split)
    if ctx.rows:
        promote_singletons(ctx)
        ctx.sat.add_col([eid for eid in ctx.rows if split.sps[eid] == 0])
    ctx.compact_ids()
    ctx.counters.sizes.append(len(ctx.rows) + len(ctx.ns))


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
    ctx.sat.add_col([eid for eid in ctx.rows if eid != pos_id])
    ctx.counters.sizes.append(len(ctx.rows))
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


def close_generators(ctx: ConvCtx) -> ConvCtx:
    """Topological closure of a nonempty generator-side context, by a role
    change alone: closure points turn hard, rays stay soft, and the
    supports go, as every face one filled is closed now."""
    out = ctx.clone()
    out.set_role(id_mask(e for e in bit_indices(out.soft) if out.rows[e][0] != 0), Role.HARD)
    out.ns = set()
    return out


# -- reading results out ------------------------------------------------


def _tautology(row: Row) -> bool:
    return row[0] > 0 and all(a == 0 for a in row[1:])


def _ordered(ns: set[int]) -> list[int]:
    """Supports in the order of their sorted id lists."""
    return sorted(ns, key=lambda m: list(bit_indices(m)))


def materialize_support(ctx: ConvCtx, ns: int) -> Row:
    total = [0] * (ctx.dim + 1)
    for eid in bit_indices(ns):
        for j, a in enumerate(ctx.row_of(eid)):
            total[j] += a
    return normalize(tuple(total))


def emit_generators(ctx: ConvCtx) -> list[Generator]:
    """External view of a generator-side context.  Each support turns into
    one point in the relative interior of its face; a system that ends up
    without any point denotes the empty set and comes back empty."""
    if ctx.producing is not Side.GEN:
        raise KindError("not a generator-producing context")
    rows = ctx.rows
    lines = [rows[i] for i in bit_indices(ctx.singular)]
    pts = [rows[i] for i in bit_indices(ctx.hard)]
    soft = [rows[i] for i in bit_indices(ctx.soft)]
    rays = [r for r in soft if r[0] == 0]
    cps = [r for r in soft if r[0] != 0]
    for ns in _ordered(ctx.ns):
        filler = materialize_support(ctx, ns)
        if filler[0] <= 0:
            raise InvariantError(f"support {list(bit_indices(ns))} has no position row")
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

    for eid in sorted(ctx.rows):
        push(ctx.rows[eid], ROLE_CON[ctx.role_of(eid)])
    for ns in _ordered(ctx.ns):
        push(materialize_support(ctx, ns), ConKind.STRICT)
    return out


def atoms(ctx: ConvCtx) -> list[tuple[Row, ...]]:
    """Every hard element alone plus every support's member rows.  On the
    generator side each names a piece whose relative interior the set
    includes; on the constraint side, a face the set omits."""
    out = [(ctx.rows[i],) for i in bit_indices(ctx.hard)]
    out += [tuple(ctx.row_of(i) for i in bit_indices(ns)) for ns in _ordered(ctx.ns)]
    return out
