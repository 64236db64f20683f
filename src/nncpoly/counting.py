"""Mutable operation counters shared by the conversion engines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OpCounters:
    """Work counters with the granularity used throughout the library.

    vec_ops counts scalar products and linear combinations of coefficient
    rows; sat_ops counts bitset operations, each row intersection and
    each column AND of a support closure (adjacency tests included)
    counting 1 regardless of word width, and so does each rank
    quick-reject of the eps route (the intersection of two rows, then a
    popcount).  A closure is charged one sat_op per shared column even
    when its walk stops early because no candidate is left, so sat_ops
    stays the modelled cost of the full walk; iterations counts processed
    input rows; pairs_offered counts the positive/negative pairs a step
    hands to the adjacency kernel (``satlat.adjacent_pairs``) and
    pairs_adjacent those it finds adjacent, both added once per step;
    sizes records the representation size (skeleton cardinality plus
    number of stored supports) after each iteration.
    """

    vec_ops: int = 0
    sat_ops: int = 0
    iterations: int = 0
    pairs_offered: int = 0
    pairs_adjacent: int = 0
    sizes: list[int] = field(default_factory=list)
