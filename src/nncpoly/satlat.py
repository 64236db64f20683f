"""Saturation bookkeeping and support sets: the kernel both engines share.

Every conversion element carries a saturation row: one bit per opposite-side
row seen so far, set when the scalar product was zero.  Supports of
non-skeleton strictness marks are sets of element ids; the helpers here
close, project, classify and minimize those sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .counting import OpCounters
from .errors import EmptySupportError


@dataclass
class SatMatrix:
    """Bit rows keyed by element id; bit c is set when the element saturates
    column c."""

    counters: OpCounters = field(default_factory=OpCounters)
    ncols: int = 0
    bits: dict[int, int] = field(default_factory=dict)

    def new_row(self, eid: int, mask: int = 0) -> None:
        self.bits[eid] = mask

    def drop_row(self, eid: int) -> None:
        self.bits.pop(eid, None)

    def add_col(self, saturating: Iterable[int]) -> int:
        col = self.ncols
        self.ncols += 1
        bit = 1 << col
        for eid in saturating:
            self.bits[eid] |= bit
        return col

    def row(self, eid: int) -> int:
        return self.bits[eid]

    def and_rows(self, eids: Iterable[int]) -> int:
        mask = -1
        n = 0
        for eid in eids:
            mask &= self.bits[eid]
            n += 1
        if n == 0:
            raise EmptySupportError("no rows to intersect")
        self.counters.sat_ops += n
        return mask & ((1 << self.ncols) - 1) if self.ncols else 0

    def covers(self, eid: int, mask: int) -> bool:
        """Does eid's row have every bit of mask set?"""
        self.counters.sat_ops += 1
        return self.bits[eid] & mask == mask

    def elems_saturating(self, mask: int, candidates: Iterable[int]) -> set[int]:
        return {eid for eid in candidates if self.covers(eid, mask)}


def supp_cl(
    sat: SatMatrix,
    members: Iterable[int],
    candidates: Iterable[int],
    lines: Iterable[int],
) -> frozenset[int]:
    """Saturation closure of a support: every non-line element saturating all
    columns the members jointly saturate."""
    mask = sat.and_rows(members)
    closed = sat.elems_saturating(mask, candidates)
    return frozenset(closed - set(lines))


def adjacent(sat: SatMatrix, a: int, b: int, witnesses: Iterable[int]) -> bool:
    """Combinatorial adjacency: no third (non-line) element saturates every
    column that a and b jointly saturate."""
    common = sat.and_rows((a, b))
    for w in witnesses:
        if w == a or w == b:
            continue
        if sat.covers(w, common):
            return False
    return True


class Region(Enum):
    POS = "+"
    ZERO = "0"
    NEG = "-"
    MIX = "+-"


def classify_ns(
    ns: frozenset[int], pos: set[int], zero: set[int], neg: set[int]
) -> Region:
    hits_pos = bool(ns & pos)
    hits_neg = bool(ns & neg)
    if hits_pos and hits_neg:
        return Region.MIX
    if hits_pos:
        return Region.POS
    if hits_neg:
        return Region.NEG
    if ns <= zero:
        return Region.ZERO
    raise EmptySupportError(f"support {sorted(ns)} outside the current partition")


def proj(ns: frozenset[int], strict: bool, zero: set[int], neg: set[int]) -> frozenset[int]:
    """Restrict a closed support to the side kept by the new row."""
    return frozenset(ns - neg) if strict else frozenset(ns & zero)


def nonredundant_union(
    *families: Iterable[frozenset[int]], hard: set[int]
) -> set[frozenset[int]]:
    """Union of support families, dropping supports that touch a hard
    (point-like / strict-like) element and supports that include another
    support."""
    return minimal_family(ns for fam in families for ns in fam if ns and not (ns & hard))


def minimal_family(family: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    """The members of a support family that include no other member."""
    fam = set(family)
    return {ns for ns in fam if not any(other < ns for other in fam)}
