"""Seeded inputs for the four benchmark workloads.

Each workload has a fixed base corpus drawn from its own corpus seed.  The
outputs of every base case are recorded in ``digests.json`` after one
validation against the extra-coordinate (eps) oracle.  A run's ``--seed``
then picks a random coordinate symmetry (a permutation of the variables and
a sign flip per variable) for every case and shuffles the case order.  The
program therefore never sees the same input text under two seeds, while the
combinatorial work per pass stays the same: intermediate sizes, iteration
counts and the case mix do not depend on the seed, so run-to-run spread
measures the program rather than the draw.  Outputs are mapped back through
the inverse symmetry before they are compared with the recorded digests.

This module only builds plain data (tuples of ints); ``workloads`` turns it
into library objects and input text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Corpus sizes and seeds are part of the benchmark definition: changing any
# of them changes the recorded digests (re-run record.py).
C2G_SEED, C2G_CASES = 171109593, 120
G2C_SEED, G2C_CASES = 271109593, 100
LATTICE_SEED, LATTICE_MIXED, LATTICE_PROGRAMS = 371109593, 24, 84
# Lattice programs left out of the timed workload because the direct engine
# joins them wrongly: on one step, from_generators(G) differs from
# from_generators(reversed(G)) and only the reversed order agrees with the
# eps oracle.  A benchmark workload must not fail, so they are not timed;
# digests.json keeps them under "wrong", and the benchmark's tests check
# that they still fail, so a fix to the engine shows there first.
LATTICE_KNOWN_WRONG = (21, 24, 25, 32, 34, 38, 42)
DUAL_DIRECT_DIMS = (3, 4, 5, 6, 7, 8)
DUAL_EPS_DIMS = (3, 4, 5)

GE, GT = ">=", ">"          # constraint kinds
POINT, CLOSURE = "p", "c"   # generator kinds

Row = tuple[int, ...]


@dataclass(frozen=True)
class Symmetry:
    """y_j = sign_j * x_perm_j on coordinate slots 1..dim of every row."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, row: Row) -> Row:
        return (row[0],) + tuple(s * row[1 + p] for p, s in zip(self.perm, self.signs))

    def invert(self, row: Row) -> Row:
        out = [0] * len(row)
        out[0] = row[0]
        for j, (p, s) in enumerate(zip(self.perm, self.signs)):
            out[1 + p] = s * row[1 + j]
        return tuple(out)

    def apply_point(self, point: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(s * point[p] for p, s in zip(self.perm, self.signs))


def symmetry(seed: int, workload: str, case: int, dim: int) -> Symmetry:
    rng = random.Random(f"{seed}:{workload}:{case}")
    perm = list(range(dim))
    rng.shuffle(perm)
    return Symmetry(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(dim)))


def case_order(seed: int, workload: str, count: int) -> list[int]:
    order = list(range(count))
    random.Random(f"{seed}:{workload}:order").shuffle(order)
    return order


def _nonzero(rng: random.Random, dim: int, lim: int) -> list[int]:
    while True:
        a = [rng.randint(-lim, lim) for _ in range(dim)]
        if any(a):
            return a


# -- c2g-mixed ------------------------------------------------------------


@dataclass(frozen=True)
class RowCase:
    """One conversion input: (kind, row) pairs of one dimension."""

    dim: int
    rows: tuple[tuple[str, Row], ...]


def c2g_corpus() -> list[RowCase]:
    """Origin-anchored mixed systems: dim 4-5, 12-20 rows, coefficients in
    [-9, 9], about 30% strict.  The origin satisfies every row, so each
    system is nonempty."""
    rng = random.Random(C2G_SEED)
    out = []
    for _ in range(C2G_CASES):
        dim = rng.randint(4, 5)
        rows = []
        for _ in range(rng.randint(12, 20)):
            strict = rng.random() < 0.3
            c0 = rng.randint(1, 9) if strict else rng.randint(0, 9)
            rows.append((GT if strict else GE, (c0, *_nonzero(rng, dim, 9))))
        out.append(RowCase(dim, tuple(rows)))
    return out


# -- g2c-points -----------------------------------------------------------


def g2c_corpus() -> list[RowCase]:
    """Point sets: dim 4-5, 14-26 generators with coordinates in [-9, 9]
    and divisor 1-3, about 30% closure points.  The first generator is
    always a point, so each system is nonempty."""
    rng = random.Random(G2C_SEED)
    out = []
    for _ in range(G2C_CASES):
        dim = rng.randint(4, 5)
        rows = []
        for i in range(rng.randint(14, 26)):
            kind = CLOSURE if i and rng.random() < 0.3 else POINT
            rows.append((kind, (rng.randint(1, 3), *(rng.randint(-9, 9) for _ in range(dim)))))
        out.append(RowCase(dim, tuple(rows)))
    return out


# -- lattice --------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    fresh: tuple[tuple[str, Row], ...]
    guard: tuple[tuple[str, Row], ...] | None


@dataclass(frozen=True)
class Program:
    dim: int
    points: tuple[tuple[Fraction, ...], ...]
    start: tuple[tuple[str, Row], ...]
    steps: tuple[Step, ...]


def _kind(rng: random.Random) -> str:
    return GT if rng.random() < 0.3 else GE


def _through(a: list[int], center: list[int], slack: int) -> int:
    """Constant c0 such that a.x + c0 = slack at the center point."""
    return slack - sum(x * y for x, y in zip(a, center))


def _box(rng: random.Random, dim: int) -> tuple[list[int], tuple[tuple[str, Row], ...]]:
    """A small box around a random center plus one oblique cut through its
    neighbourhood; the center satisfies every row strictly."""
    center = [rng.randint(-2, 2) for _ in range(dim)]
    rows = []
    for i in range(dim):
        w = rng.randint(1, 2)
        for s in (1, -1):
            a = [0] * dim
            a[i] = s
            rows.append((_kind(rng), (_through(a, center, w), *a)))
    a = _nonzero(rng, dim, 3)
    rows.append((_kind(rng), (_through(a, center, rng.randint(1, 3)), *a)))
    return center, tuple(rows)


def lattice_corpus() -> list[Program]:
    """Abstract-interpreter-style programs: a state polyhedron that each
    step joins with a fresh box and, half of the time, meets with a guard
    half-space through that box's center (so the state never gets empty).

    The first LATTICE_MIXED programs are dim 4 with probability 0.3 and dim
    3 otherwise; the rest are dim 3.  A dim-4 join costs several times a
    dim-3 one, so without the dim-3 tail the conversions behind the writes
    would bury the reads and their view emission, which this workload is
    there to expose.  Dim-4 programs also take two steps instead of four,
    because their joins grow faster."""
    rng = random.Random(LATTICE_SEED)
    out = []
    for k in range(LATTICE_PROGRAMS):
        dim = 4 if k < LATTICE_MIXED and rng.random() < 0.3 else 3
        points = tuple(
            tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(dim))
            for _ in range(8)
        )
        _, start = _box(rng, dim)
        steps = []
        for _ in range(4 if dim == 3 else 2):
            center, fresh = _box(rng, dim)
            guard = None
            if rng.random() < 0.5:
                a = _nonzero(rng, dim, 3)
                guard = ((_kind(rng), (_through(a, center, rng.randint(1, 4)), *a)),)
            steps.append(Step(fresh, guard))
        out.append(Program(dim, points, start, tuple(steps)))
    return out


# -- dualhypercube --------------------------------------------------------

VARIANTS = tuple((offset, pattern) for offset in (1, 2) for pattern in ("poles", "first"))


def dual_blocks() -> list[tuple[str, int]]:
    """One block per (route, dim): the four-variant program of the paper
    through the direct engine or the eps route."""
    return [("direct", d) for d in DUAL_DIRECT_DIMS] + [("eps", d) for d in DUAL_EPS_DIMS]
