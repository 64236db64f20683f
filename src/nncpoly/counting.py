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
    quick-reject of the pair kernel, one per pair offered in either engine
    (the intersection of two rows, then a popcount).  A combination's
    saturation row is its parents' row intersection, which the pair kernel
    returns with the pair; its 2 sat_ops, like the combination's vec_op,
    are charged when ``ConvCtx.add_combined`` enters a step's combinations
    in both engines.  sat_ops is the
    modelled cost of every closure walked in full: a closure is charged
    one sat_op per shared column even when its walk stops early because
    no candidate is left, and a repeated mask (shared columns a pair or
    face already walked in the same call or step) is skipped and charged
    as walked, so skipping changes no count.
    iterations counts processed input rows; pairs_offered counts the
    positive/negative pairs a step hands to the adjacency kernel
    (``satlat.adjacent_pairs``) and pairs_adjacent those it finds
    adjacent, both added by that kernel as it goes.
    faces_tried counts the face closures the direct engine asks for (each
    support moved across the new row, each seed stretched by one
    extension), faces_walked those walked, not skipped (one per distinct
    set of shared columns in a step), and faces_kept the walked ones that
    survive the early drop (a non-empty kept part touching no element that
    ends the step hard); all three are added once per batch of closures, a
    few per step.  sizes records the representation size (skeleton
    cardinality plus number of stored supports) after each iteration.
    """

    vec_ops: int = 0
    sat_ops: int = 0
    iterations: int = 0
    pairs_offered: int = 0
    pairs_adjacent: int = 0
    faces_tried: int = 0
    faces_walked: int = 0
    faces_kept: int = 0
    sizes: list[int] = field(default_factory=list)
