"""Saturation bookkeeping and support sets: the kernel both engines share.

Every conversion element carries a saturation row: one bit per opposite-side
row seen so far, set when the scalar product was zero.  Supports of
non-skeleton strictness marks are sets of element ids, stored as int id
masks (bit e set for element e); the helpers here close, project, classify
and minimize them.  ``supp_cl`` closes faces; ``adjacent_pairs`` runs the
same closure over every positive/negative pair of a step, the pair loop of
both engines, and walks each distinct set of shared columns once per call.
A closure served from a cache is charged as walked (see ``OpCounters``), so
caching moves time and no counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, TypeVar

from .counting import OpCounters
from .errors import EmptySupportError

Support = TypeVar("Support", int, frozenset)


@dataclass
class SatMatrix:
    """Bit rows keyed by element id, and the same bits column-major.

    ``bits[e]`` has bit c set when element e saturates column c;
    ``cols[c]`` has bit e set for the same pairs.  ``drop_row`` leaves the
    dropped id's bits in ``cols``: this is sound because an id is never
    reused until ``clear()`` and every column query is ANDed with a mask of
    live ids (the candidates of ``supp_cl``, or the witnesses of
    ``adjacent_pairs``).
    """

    counters: OpCounters = field(default_factory=OpCounters)
    ncols: int = 0
    bits: dict[int, int] = field(default_factory=dict)
    cols: list[int] = field(default_factory=list)

    def new_row(self, eid: int, mask: int = 0) -> None:
        self.bits[eid] = mask
        bit = 1 << eid
        cols = self.cols
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low

    def drop_row(self, eid: int) -> None:
        self.bits.pop(eid, None)

    def add_col(self, saturating: Iterable[int]) -> int:
        col = self.ncols
        self.ncols += 1
        bit = 1 << col
        ids = 0
        for eid in saturating:
            self.bits[eid] |= bit
            ids |= 1 << eid
        self.cols.append(ids)
        return col

    def clear(self) -> None:
        """Forget every row; the columns stay, saturated by nobody."""
        self.bits.clear()
        self.cols = [0] * self.ncols

    def copy(self, counters: OpCounters) -> "SatMatrix":
        return SatMatrix(counters, self.ncols, dict(self.bits), list(self.cols))

    def and_rows(self, eids: Iterable[int]) -> int:
        """The AND of the rows; no row has a bit at ``ncols`` or above, so
        neither has the result."""
        mask = -1
        n = 0
        for eid in eids:
            mask &= self.bits[eid]
            n += 1
        if n == 0:
            raise EmptySupportError("no rows to intersect")
        self.counters.sat_ops += n
        return mask


def bit_indices(mask: int) -> Iterator[int]:
    """The positions of the set bits of a non-negative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def id_mask(ids: Iterable[int]) -> int:
    mask = 0
    for eid in ids:
        mask |= 1 << eid
    return mask


def mask_ids(mask: int) -> frozenset[int]:
    return frozenset(bit_indices(mask))


def supp_cl(sat: SatMatrix, members: Iterable[int], candidates: int) -> int:
    """Saturation closure of a support, as an id mask: the candidates that
    saturate every column the members jointly saturate.  Each shared column
    counts one sat_op, also those the walk skips: it stops once no candidate
    is left, since ANDing more columns cannot bring one back."""
    common = sat.and_rows(members)
    sat.counters.sat_ops += common.bit_count()
    cols = sat.cols
    while common and candidates:
        low = common & -common
        candidates &= cols[low.bit_length() - 1]
        common ^= low
    return candidates


def adjacent_pairs(
    sat: SatMatrix, pos: Iterable[int], neg: Iterable[int], witnesses: int, need: int = 0
) -> Iterator[tuple[int, int]]:
    """The combinatorially adjacent pairs of a step, p-major in the order
    given: (p, m) is adjacent when no witness but p and m (an id mask of
    live elements) saturates every column the two jointly saturate, i.e.
    closing {p, m} over the other witnesses leaves nothing.

    Each pair's rows are ANDed once.  A pair sharing fewer than ``need``
    columns is skipped uncharged (the caller's rank bound, which it charges
    itself); any other pair is charged what ``supp_cl`` charges for
    {p, m}: two rows plus one sat_op per shared column.

    Pairs with the same shared columns share one closure over the
    witnesses, cached for the call: p and m saturate every shared column,
    so the closure holds them, and the pair is adjacent when nothing else
    is left.  A cached closure is charged as if walked again, so sat_ops
    stays the modelled cost per pair.  The charges are tallied locally and
    added before each yield and at the end.

    The caller may add rows while it iterates (``combine_adjacent`` adds
    each combination at once): the candidates of every walk are masked by
    the witnesses fixed at the start, so the new ids that ``new_row`` sets
    in the columns never count, and no cached closure goes stale.
    """
    bits, cols, counters = sat.bits, sat.cols, sat.counters
    negs = [(m, bits[m], witnesses & ~(1 << m)) for m in neg]
    closures: dict[int, int] = {}  # shared columns -> closure over the witnesses
    charged = 0
    for p in pos:
        bp = bits[p]
        pbit = 1 << p
        notp = ~pbit
        for m, bm, others in negs:
            common = bp & bm
            shared = common.bit_count()
            if shared < need:
                continue
            charged += 2 + shared
            closure = closures.get(common)
            if closure is None:
                # walk without p and m, which survive every column, so the
                # walk may stop once nothing else is left
                cands = others & notp
                rest = common
                while rest and cands:
                    low = rest & -rest
                    cands &= cols[low.bit_length() - 1]
                    rest ^= low
                closure = closures[common] = cands | witnesses & (pbit | 1 << m)
            if not closure & others & notp:
                counters.sat_ops += charged
                charged = 0
                yield p, m
    counters.sat_ops += charged


def adjacent(sat: SatMatrix, a: int, b: int, witnesses: int) -> bool:
    """Whether one pair is adjacent: ``adjacent_pairs`` on {a} x {b}."""
    return any(adjacent_pairs(sat, (a,), (b,), witnesses))


class Region(Enum):
    POS = "+"
    ZERO = "0"
    NEG = "-"
    MIX = "+-"


def classify_ns(ns: int, pos: int, zero: int, neg: int) -> Region:
    """Where a support (an id mask) lies against the parts of a step."""
    hits_pos = bool(ns & pos)
    hits_neg = bool(ns & neg)
    if hits_pos and hits_neg:
        return Region.MIX
    if hits_pos:
        return Region.POS
    if hits_neg:
        return Region.NEG
    if not ns & ~zero:
        return Region.ZERO
    raise EmptySupportError(f"support {list(bit_indices(ns))} outside the current partition")


def proj(ns: int, strict: bool, zero: int, neg: int) -> int:
    """Restrict a closed support (an id mask) to the side kept by the new
    row."""
    return ns & ~neg if strict else ns & zero


def nonredundant_union(*families: Iterable[int], hard: int) -> set[int]:
    """Union of support families (id masks), dropping supports that touch a
    hard (point-like / strict-like) element and supports that include
    another support."""
    return minimal_family(ns for fam in families for ns in fam if ns and not ns & hard)


def minimal_family(family: Iterable[Support]) -> set[Support]:
    """The members of a support family that include no other member.  A
    support is a frozenset of ids or an int id mask: both spell inclusion
    as ``o & ns == o``."""
    fam = set(family)
    return {ns for ns in fam if not any(o & ns == o and o != ns for o in fam)}
