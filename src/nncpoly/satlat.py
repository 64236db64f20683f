"""Saturation bookkeeping and support sets: the kernel both engines share.

Every conversion element carries a saturation row: one bit per opposite-side
row seen so far, set when the scalar product was zero.  Supports of
non-skeleton strictness marks are sets of element ids, stored as int id
masks (bit e set for element e); the direct engine sorts them against a
step's parts by mask tests, and the helpers here close and minimize them.
``walk`` is the one column walk of a closure:
the direct engine closes faces with it, and ``adjacent_pairs``, the pair
loop of both engines, runs it over every positive/negative pair of a step
that passes the rank quick-reject, and returns each adjacent pair with its
shared columns, which are the saturation row of the pair's combination.
A pair whose shared columns repeat an earlier pair's in the call is never
adjacent, so a repeated mask is skipped and charged as walked (see
``OpCounters``): skipping moves time and no counter.  ``new_rows`` enters
a step's combinations as one id block.  ``supp_cl`` and ``adjacent`` are
reference definitions of one closure and one pair test: no engine calls
them, tests compare the engines' batched loops with them, and the
benchmark tracer binds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TypeVar

from .counting import OpCounters
from .errors import EmptySupportError

Support = TypeVar("Support", int, frozenset)


@dataclass
class SatMatrix:
    """Bit rows keyed by element id, and the same bits column-major.

    ``bits[e]`` has bit c set when element e saturates column c;
    ``cols[c]`` has bit e set for the same pairs.  ``drop`` leaves the
    dropped ids' bits in ``cols`` until ``renumber`` rebuilds the columns
    from the live rows.  Meanwhile no id is issued twice, and every column
    query is ANDed with a mask of live ids (the candidates of ``walk``).
    """

    counters: OpCounters = field(default_factory=OpCounters)
    bits: dict[int, int] = field(default_factory=dict)
    cols: list[int] = field(default_factory=list)

    def new_row(self, eid: int, mask: int = 0) -> None:
        self.new_rows(eid, (mask,))

    def new_rows(self, first: int, masks: Iterable[int]) -> None:
        """Rows for the ids first, first + 1, ... in turn: one id block."""
        bits, cols = self.bits, self.cols
        for eid, mask in enumerate(masks, start=first):
            bits[eid] = mask
            bit = 1 << eid
            while mask:
                low = mask & -mask
                cols[low.bit_length() - 1] |= bit
                mask ^= low

    def drop(self, ids: int) -> None:
        """Forget the rows of the ids in the mask ``ids``."""
        bits = self.bits
        for eid in bit_indices(ids):
            del bits[eid]

    def renumber(self, order: Sequence[int]) -> None:
        """Give the live ids in ``order`` the ids 0, 1, ... in turn.  The
        rows move to their new ids and the columns are rebuilt from them,
        so no dropped id is left in ``cols``."""
        moved = [self.bits[eid] for eid in order]
        self.bits = {}
        self.cols = [0] * len(self.cols)
        self.new_rows(0, moved)

    def add_col(self, saturating: Iterable[int]) -> int:
        col = len(self.cols)
        bit = 1 << col
        ids = 0
        for eid in saturating:
            self.bits[eid] |= bit
            ids |= 1 << eid
        self.cols.append(ids)
        return col

    def copy(self, counters: OpCounters) -> "SatMatrix":
        return SatMatrix(counters, dict(self.bits), list(self.cols))

    def and_rows(self, eids: Iterable[int]) -> int:
        """The AND of the rows; no row has a bit at ``len(cols)`` or above,
        so neither has the result."""
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


def walk(cols: list[int], cands: int, common: int) -> int:
    """The candidates (an id mask) that saturate every column of the mask
    ``common``: ``cands`` ANDed with each such column.  The walk stops once
    no candidate is left, since ANDing more columns cannot bring one back.
    The one column walk of the library; callers charge it."""
    while common and cands:
        low = common & -common
        cands &= cols[low.bit_length() - 1]
        common ^= low
    return cands


def supp_cl(sat: SatMatrix, members: Iterable[int], candidates: int) -> int:
    """Saturation closure of a support, as an id mask: the candidates that
    saturate every column the members jointly saturate.  Each shared column
    counts one sat_op, also those the walk skips.  A reference definition:
    the direct engine closes its faces in ``conversion._close_and_keep``."""
    common = sat.and_rows(members)
    sat.counters.sat_ops += common.bit_count()
    return walk(sat.cols, candidates, common)


def adjacent_pairs(
    sat: SatMatrix, pos: Iterable[int], neg: Iterable[int], witnesses: int, need: int = 0
) -> list[tuple[int, int, int]]:
    """The combinatorially adjacent pairs of a step, p-major in the order
    given, each as (p, m, common) with ``common`` the mask of the columns
    the two jointly saturate: (p, m) is adjacent when no witness but p and
    m (an id mask of live elements holding every p and m) saturates every
    column of ``common``, i.e. the walk of those columns over the other
    witnesses leaves nothing.

    Each pair's rows are ANDed once, and the shared columns counted first:
    the rank quick-reject (Fukuda & Prodon, *Double Description Method
    Revisited*, 1996), as in PPL.  Adjacent elements share at least
    rank - 2 saturated columns, with rank = dim + 1 - #lines, so the
    caller passes that bound as ``need`` and a pair sharing fewer columns
    is skipped before its walk.  Every pair is charged one sat_op for the
    quick test, whatever ``need``; a pair that passes it is also charged
    what ``supp_cl`` charges for {p, m}: two rows plus one sat_op per
    shared column.  Every pair counts in ``pairs_offered`` and every pair
    returned in ``pairs_adjacent``.

    A repeated mask is skipped and charged as walked: a pair whose shared
    columns repeat an earlier pair's in the call is never adjacent, since
    the earlier pair's elements saturate those columns and at least one of
    them is a witness other than p and m.
    """
    bits, cols, counters = sat.bits, sat.cols, sat.counters
    pos = list(pos)
    negs = [(m, bits[m], witnesses & ~(1 << m)) for m in neg]
    offered = len(pos) * len(negs)
    walked: set[int] = set()  # shared columns met so far in the call
    charged = offered  # the quick tests
    out = []
    for p in pos:
        bp = bits[p]
        notp = ~(1 << p)
        for m, bm, others in negs:
            common = bp & bm
            shared = common.bit_count()
            if shared < need:
                continue
            charged += 2 + shared
            if common in walked:
                continue
            walked.add(common)
            if not walk(cols, others & notp, common):
                out.append((p, m, common))
    counters.pairs_offered += offered
    counters.pairs_adjacent += len(out)
    counters.sat_ops += charged
    return out


def adjacent(sat: SatMatrix, a: int, b: int, witnesses: int) -> bool:
    """Whether one pair is adjacent: ``adjacent_pairs`` on {a} x {b}.  A
    reference definition: both engines call ``adjacent_pairs`` once a step."""
    return any(adjacent_pairs(sat, (a,), (b,), witnesses))


def nonredundant_union(*families: Iterable[int]) -> set[int]:
    """Union of support families (id masks), dropping supports that include
    another support: the step's one union, named apart from
    ``minimal_family`` so that it can be timed on its own.  Its families
    hold no empty support and none that touches a hard element."""
    return minimal_family(ns for fam in families for ns in fam)


def minimal_family(family: Iterable[Support]) -> set[Support]:
    """The members of a support family that include no other member.  A
    support is a frozenset of ids or an int id mask: both spell inclusion
    as ``o & ns == o``."""
    fam = set(family)
    return {ns for ns in fam if not any(o & ns == o and o != ns for o in fam)}
