"""Desk-scale oracles, kept apart from the conversion path.

Everything here is exact and exponential in the worst case: rational
feasibility by Fourier-Motzkin elimination, membership in the set a
generator system or a support family describes, and brute-force
enumeration of face supports.  Tests use these as independent references,
and ``alpha``/``gamma`` relate support families to the point sets they
describe.  One guard bounds the sizes they accept.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import InvalidVector, ScaleLimitExceeded
from .homvec import Row, rational_point_row, scalar_prod
from .systems import ConKind, Constraint, GenKind, Generator, con_contains

# Desk-scale bounds: ambient dimension, skeleton elements and input rows of
# the brute-force face supports, and rows alive during one Fourier-Motzkin
# step.
_LIMITS = {"dim": 3, "skeleton": 8, "rows": 10, "fm_rows": 20000}


def _guard(**sizes: int) -> None:
    over = [f"{k} {v} > {_LIMITS[k]}" for k, v in sizes.items() if v > _LIMITS[k]]
    if over:
        raise ScaleLimitExceeded("oracle helpers are desk-scale only: " + ", ".join(over))


# -- rational feasibility ----------------------------------------------------

# A row is (coeffs, const, rel) meaning  sum(coeffs * x) + const  REL  0,
# with rel one of "eq", "ge", "gt".
FeasRow = tuple[tuple[Fraction, ...], Fraction, str]


def _norm(coeffs: Sequence[Fraction], const: Fraction, rel: str) -> FeasRow:
    scale = None
    for c in coeffs:
        if c:
            scale = abs(c)
            break
    if scale is None and const:
        scale = abs(const)
    if scale:
        coeffs = tuple(c / scale for c in coeffs)
        const = const / scale
    return (tuple(coeffs), const, rel)


def _subst(rows: list[FeasRow], var: int, expr: tuple[Fraction, ...], const: Fraction) -> list[FeasRow]:
    """Replace x_var by (expr . x + const) in every row (expr[var] must be 0)."""
    out = []
    for coeffs, c0, rel in rows:
        f = coeffs[var]
        if not f:
            out.append((coeffs, c0, rel))
            continue
        new = tuple(a + f * e for a, e in zip(coeffs, expr))
        new = new[:var] + (Fraction(0),) + new[var + 1:]
        out.append(_norm(new, c0 + f * const, rel))
    return out


def feasible(rows: list[FeasRow], nvars: int) -> bool:
    """Decide whether the system has a rational solution."""
    rows = [_norm(*r) for r in rows]

    # Gaussian elimination of the equality rows first.
    while True:
        pivot = None
        for i, (coeffs, c0, rel) in enumerate(rows):
            if rel != "eq":
                continue
            for v in range(nvars):
                if coeffs[v]:
                    pivot = (i, v)
                    break
            if pivot:
                break
            if c0 != 0:
                return False  # 0 = nonzero
        if not pivot:
            break
        i, v = pivot
        coeffs, c0, _ = rows.pop(i)
        f = coeffs[v]
        expr = tuple(-c / f if j != v else Fraction(0) for j, c in enumerate(coeffs))
        rows = _subst(rows, v, expr, -c0 / f)

    rows = [r for r in rows if r[2] != "eq" or r[1] != 0]
    if any(rel == "eq" for _, _, rel in rows):
        return False

    # Fourier-Motzkin on the inequalities.
    live = [v for v in range(nvars) if any(coeffs[v] for coeffs, _, _ in rows)]
    for _ in range(len(live)):
        live = [v for v in range(nvars) if any(coeffs[v] for coeffs, _, _ in rows)]
        if not live:
            break
        # eliminate the variable with the smallest pos*neg fan-out
        def cost(v: int) -> int:
            p = sum(1 for coeffs, _, _ in rows if coeffs[v] > 0)
            n = sum(1 for coeffs, _, _ in rows if coeffs[v] < 0)
            return p * n - p - n

        v = min(live, key=cost)
        pos, neg, rest = [], [], []
        for row in rows:
            c = row[0][v]
            (pos if c > 0 else neg if c < 0 else rest).append(row)
        new = rest
        _guard(fm_rows=len(new))
        seen = {(_r[0], _r[1], _r[2]) for _r in rest}
        for pc, p0, prel in pos:
            for nc, n0, nrel in neg:
                f = -nc[v] / pc[v]
                coeffs = tuple(f * a + b for a, b in zip(pc, nc))
                rel = "gt" if "gt" in (prel, nrel) else "ge"
                row = _norm(coeffs, f * p0 + n0, rel)
                if row not in seen:
                    seen.add(row)
                    new.append(row)
                    _guard(fm_rows=len(new))
        rows = new

    for _, c0, rel in rows:
        if rel == "ge" and c0 < 0:
            return False
        if rel == "gt" and c0 <= 0:
            return False
    return True


def hom_member(
    lines: list[Sequence[int]],
    nonneg: list[Sequence[int]],
    target: Sequence[int],
    positive_group: set[int] | None = None,
    positive_each: set[int] | None = None,
) -> bool:
    """Is ``target`` a combination of the given homogeneous rows?

    Coefficients on ``lines`` are free, those on ``nonneg`` must be >= 0.
    ``positive_group`` (indices into nonneg) demands the group's coefficient
    sum be strictly positive; ``positive_each`` demands every listed
    coefficient be strictly positive on its own.
    """
    width = len(target)
    nvars = len(lines) + len(nonneg)
    if nvars == 0:
        return not any(target)
    strict = set(positive_each or ())
    rows: list[FeasRow] = []
    zero = Fraction(0)
    for k in range(width):
        coeffs = tuple(
            Fraction(vec[k]) for vec in (*lines, *nonneg)
        )
        rows.append((coeffs, Fraction(-target[k]), "eq"))
    for j in range(len(nonneg)):
        coeffs = tuple(
            Fraction(1) if i == len(lines) + j else zero for i in range(nvars)
        )
        rows.append((coeffs, zero, "gt" if j in strict else "ge"))
    if positive_group is not None:
        coeffs = tuple(
            Fraction(1) if i - len(lines) in positive_group and i >= len(lines) else zero
            for i in range(nvars)
        )
        rows.append((coeffs, zero, "gt"))
    return feasible(rows, nvars)


# -- generator systems -------------------------------------------------------


def _split_rows(gens: Iterable[Generator]) -> tuple[list[Row], list[Row], list[int]]:
    """Rows grouped for cone membership: (lines, nonneg rows, point indices).

    Point indices identify the nonneg rows contributed by kind POINT, which
    NNC membership must weight with a strictly positive total.
    """
    lines: list[Row] = []
    nonneg: list[Row] = []
    point_idx: list[int] = []
    for g in gens:
        if g.kind is GenKind.LINE:
            lines.append(g.row)
        else:
            if g.kind is GenKind.POINT:
                point_idx.append(len(nonneg))
            nonneg.append(g.row)
    return lines, nonneg, point_idx


def full_gen_contains(gens: Sequence[Generator], point: Sequence[Fraction | int]) -> bool:
    """Membership in full.gen(gens): closure points count as points."""
    if not gens:
        return False
    lines, nonneg, _ = _split_rows(gens)
    return hom_member(lines, nonneg, rational_point_row(point))


def gen_contains(gens: Sequence[Generator], point: Sequence[Fraction | int]) -> bool:
    """Membership in gen(gens): some proper point must carry positive weight."""
    if not gens:
        return False
    lines, nonneg, point_idx = _split_rows(gens)
    if not point_idx:
        return False
    return hom_member(lines, nonneg, rational_point_row(point), positive_group=set(point_idx))


# -- faces and support families ----------------------------------------------


def face_supports(
    skeleton: Sequence[Generator], constraints: Sequence[Constraint]
) -> set[frozenset[int]]:
    """All nonempty face supports of the closed polyhedron, as index sets into
    skeleton, found by brute-force constraint-subset saturation.

    An index set with no position row (rays only) marks a pure recession
    direction, not a face the polyhedron actually reaches, so it is left out.
    """
    _guard(
        dim=skeleton[0].dim if skeleton else 0,
        skeleton=len(skeleton),
        rows=len(constraints),
    )
    sats = [
        frozenset(
            i
            for i, g in enumerate(skeleton)
            if scalar_prod(c.row, g.row) == 0
        )
        for c in constraints
    ]
    full = frozenset(i for i, g in enumerate(skeleton) if g.kind is not GenKind.LINE)
    supports = {full}
    for k in range(1, len(sats) + 1):
        for combo in combinations(range(len(sats)), k):
            s = full
            for j in combo:
                s &= sats[j]
            if s and any(skeleton[i].row[0] > 0 for i in s):
                supports.add(s)
    return supports


def _saturated_rows(constraints: Sequence[Constraint], hom_point: tuple[int, ...]) -> list[int]:
    return [i for i, c in enumerate(constraints) if scalar_prod(c.row, hom_point) == 0]


def alpha(
    points: Sequence[Sequence[Fraction | int]],
    skeleton: Sequence[Generator],
    constraints: Sequence[Constraint],
) -> set[frozenset[int]]:
    """Support family induced by materializing the given points.

    For each point, take the support of the smallest face containing it and
    collect every face support above it.  The result is the full up-set, not
    its minimal form; pair with :func:`nncpoly.minimal_family` when needed.
    """
    lattice = face_supports(skeleton, constraints)
    lines = {i for i, g in enumerate(skeleton) if g.kind is GenKind.LINE}
    out: set[frozenset[int]] = set()
    for p in points:
        hp = rational_point_row(p)
        if not con_contains(
            [Constraint(c.row, ConKind.NONSTRICT) if c.kind is ConKind.STRICT else c
             for c in constraints],
            p,
        ):
            raise InvalidVector(f"point {tuple(p)} lies outside the closure")
        rows = _saturated_rows(constraints, hp)
        base = frozenset(
            i
            for i, g in enumerate(skeleton)
            if i not in lines
            and all(scalar_prod(constraints[j].row, g.row) == 0 for j in rows)
        )
        out |= {s for s in lattice if s >= base}
    return out


def gamma_contains(
    family: Iterable[frozenset[int]],
    skeleton: Sequence[Generator],
    point: Sequence[Fraction | int],
) -> bool:
    """Is the point in the set of points the support family describes?

    A support admits the point when it is a nonnegative combination of the
    whole skeleton with strictly positive weight on every support member
    (lines stay free).  Positive weight on a member forces every constraint
    the point saturates to be saturated by that member too, so this
    implicitly covers all faces above the named one; the family need not be
    up-closed.
    """
    _guard(dim=skeleton[0].dim if skeleton else 0, skeleton=len(skeleton))
    lines = [g.row for g in skeleton if g.kind is GenKind.LINE]
    nonneg_idx = [i for i, g in enumerate(skeleton) if g.kind is not GenKind.LINE]
    nonneg = [skeleton[i].row for i in nonneg_idx]
    pos_of = {i: k for k, i in enumerate(nonneg_idx)}
    hp = rational_point_row(point)
    for ns in family:
        if not ns:
            continue
        group = {pos_of[i] for i in ns}
        if hom_member(lines, nonneg, hp, positive_each=group):
            return True
    return False


GammaPredicate = Callable[[Sequence[Fraction | int]], bool]


def gamma(
    family: Iterable[frozenset[int]], skeleton: Sequence[Generator]
) -> GammaPredicate:
    fam = [frozenset(ns) for ns in family]

    def contains(point: Sequence[Fraction | int]) -> bool:
        return gamma_contains(fam, skeleton, point)

    return contains
