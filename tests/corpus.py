"""Seeded random input corpora shared by the acceptance suite.

Every generator here is deterministic for a fixed seed, so the acceptance
numbers are reproducible run to run.  Three corpora are produced:

* mixed constraint systems with strict rows and equalities,
* the closed subset of the same shape (no strict rows),
* desk-scale skeletons with their facet systems, for the support-family
  order checks,
* wider systems past the acceptance bounds, for differential checks.

It also holds fixed generator systems that once exposed engine faults, and
``build_ctx``, which assembles a context mid-run for the step fixtures.
"""

import random
from fractions import Fraction
from typing import Iterable, Sequence

from nncpoly.conversion import ConvCtx, Role, Side
from nncpoly.eps import closed_c2g, closed_constraints, closed_g2c, closed_generators
from nncpoly.homvec import Row
from nncpoly.satlat import bit_indices, id_mask
from nncpoly.systems import ConKind, Constraint, GenKind, Generator

COEFF_RANGE = 5
NNC_SEED = 20240811
CLOSED_SEED = 20240812
SKELETON_SEED = 20240813
WIDE_SEED = 20240814


def _coeffs(rng: random.Random, dim: int) -> list[int]:
    while True:
        a = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(dim)]
        if any(a):
            return a


def _pick_kind(rng: random.Random, allow_strict: bool) -> ConKind:
    u = rng.random()
    if u < 0.15:
        return ConKind.EQUALITY
    if allow_strict and u < 0.45:
        return ConKind.STRICT
    return ConKind.NONSTRICT


def _constant(rng: random.Random, kind: ConKind, anchored: bool) -> int:
    if not anchored:
        return rng.randint(-COEFF_RANGE, COEFF_RANGE)
    # keep the origin inside: row(origin) = constant must satisfy the kind
    if kind is ConKind.EQUALITY:
        return 0
    if kind is ConKind.STRICT:
        return rng.randint(1, COEFF_RANGE)
    return rng.randint(0, COEFF_RANGE)


def _constraint_systems(
    count: int, seed: int, allow_strict: bool, max_dim: int, max_rows: int
) -> list[tuple[int, list[Constraint]]]:
    rng = random.Random(seed)
    out = []
    for k in range(count):
        dim = rng.randint(1, max_dim)
        nrows = rng.randint(1, max_rows)
        anchored = k % 2 == 0
        rows = []
        for _ in range(nrows):
            kind = _pick_kind(rng, allow_strict)
            c0 = _constant(rng, kind, anchored)
            rows.append(Constraint(tuple([c0] + _coeffs(rng, dim)), kind))
        out.append((dim, rows))
    return out


def nnc_corpus(count: int = 200, seed: int = NNC_SEED) -> list[tuple[int, list[Constraint]]]:
    """Mixed systems: dim <= 4, <= 10 rows, coefficients in [-5, 5], about
    30% strict rows plus occasional equalities.  Every even-indexed system is
    anchored at the origin so the corpus mixes nonempty and empty cases."""
    return _constraint_systems(count, seed, allow_strict=True, max_dim=4, max_rows=10)


def closed_corpus(count: int = 100, seed: int = CLOSED_SEED) -> list[tuple[int, list[Constraint]]]:
    """Same shape as nnc_corpus but without strict rows."""
    return _constraint_systems(count, seed, allow_strict=False, max_dim=4, max_rows=10)


def wide_corpus(count: int = 20, seed: int = WIDE_SEED) -> list[tuple[int, list[Constraint]]]:
    """Past the acceptance bounds: dim 5-6, 12-16 rows, coefficients in
    [-9, 9].  Each row is strict with p = 0.3 (constant in [1, 9]), else
    nonstrict (constant in [0, 9]), so the origin is always inside."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(5, 6)
        rows = []
        for _ in range(rng.randint(12, 16)):
            strict = rng.random() < 0.3
            c0 = rng.randint(1, 9) if strict else rng.randint(0, 9)
            a = [0]
            while not any(a):
                a = [rng.randint(-9, 9) for _ in range(dim)]
            kind = ConKind.STRICT if strict else ConKind.NONSTRICT
            rows.append(Constraint(tuple([c0] + a), kind))
        out.append((dim, rows))
    return out


def _random_skeleton_item(
    rng: random.Random,
) -> tuple[list[Generator], list[Constraint]] | None:
    dim = rng.randint(1, 3)
    npts = rng.randint(1, 6)
    nrays = rng.randint(0, 1) if dim >= 2 and rng.random() < 0.3 else 0
    gens = [
        Generator(tuple([1] + [rng.randint(-3, 3) for _ in range(dim)]), GenKind.POINT)
        for _ in range(npts)
    ]
    for _ in range(nrays):
        gens.append(Generator(tuple([0] + _coeffs(rng, dim)), GenKind.RAY))
    cons = closed_constraints(closed_g2c(gens))
    if len(cons) > 10:
        return None
    skel = closed_generators(closed_c2g(cons, dim=dim))
    if not skel or len(skel) > 6:
        return None
    return skel, cons


def skeleton_corpus(
    count: int = 100, seed: int = SKELETON_SEED
) -> list[tuple[list[Generator], list[Constraint]]]:
    """Desk-scale closed skeletons (dim <= 3, <= 6 elements) paired with
    their minimized facet systems.  Items that overflow the desk-scale
    bounds are redrawn."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        item = _random_skeleton_item(rng)
        if item is not None:
            out.append(item)
    return out


def face_centroid(
    skeleton: Sequence[Generator], support: frozenset[int]
) -> tuple[Fraction, ...]:
    """A point in the relative interior of the face a support names: the
    average of the support members' positions, rays added on top."""
    width = len(skeleton[0].row)
    total = [0] * width
    for i in support:
        for j, a in enumerate(skeleton[i].row):
            total[j] += a
    if total[0] <= 0:
        raise ValueError("support has no position rows")
    return tuple(Fraction(x, total[0]) for x in total[1:])


# Closure points cut the vertex where two non-adjacent strict rows meet; in
# this order the face between those rows was once never enumerated, which
# left 2 + y > 0 out and let the point (2, -2, -1) in.
CUT_VERTEX_GENS = [
    Generator((1, -1, 0, -1), GenKind.CLOSURE_POINT),
    Generator((1, -1, 0, 3), GenKind.CLOSURE_POINT),
    Generator((2, 1, 0, -2), GenKind.CLOSURE_POINT),
    Generator((2, 1, 0, 6), GenKind.CLOSURE_POINT),
    Generator((1, 0, 0, -1), GenKind.POINT),
    Generator((1, 0, 0, 3), GenKind.POINT),
    Generator((1, 1, -2, -1), GenKind.CLOSURE_POINT),
    Generator((1, 3, -2, -1), GenKind.CLOSURE_POINT),
]


def build_ctx(
    dim: int,
    producing: Side,
    elems: Sequence[tuple[Row, Role]],
    cols: Sequence[Iterable[int]] = (),
    ns: Iterable[Iterable[int]] = (),
) -> ConvCtx:
    """Assemble a context directly, for tests that exercise a single
    iteration step from a known state: the elements take ids 0, 1, ... in
    order, each column lists the ids saturating it (every line saturates
    each), and each support lists its ids."""
    ctx = ConvCtx(dim=dim, producing=producing)
    for row, role in elems:
        ctx.add_elem(row, role)
    for saturating in cols:
        ctx.sat.add_col(set(saturating) | set(bit_indices(ctx.singular)))
    ctx.ns = {id_mask(s) for s in ns}
    return ctx
