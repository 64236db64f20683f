"""Constraint and generator atoms and exact point membership in a
constraint system.

Constraint rows read ``a.x + c0 ⋈ 0`` over the raw coordinates, so the
inequality ``a.x >= b`` is stored as (-b, a1, .., an).  Generator rows are
homogeneous: slot 0 is zero for lines and rays and a positive divisor for
points and closure points, i.e. the point (1/2, 3) may be stored as
(2, 1, 6).  Rows are gcd-normalized on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionError, InvalidVector
from .homvec import Row, check_vector, normalize, rational_point_row


class ConKind(Enum):
    EQUALITY = "="
    NONSTRICT = ">="
    STRICT = ">"


class GenKind(Enum):
    LINE = "line"
    RAY = "ray"
    CLOSURE_POINT = "closure_point"
    POINT = "point"


@dataclass(frozen=True)
class Constraint:
    row: Row
    kind: ConKind

    def __post_init__(self):
        check_vector(self.row)
        object.__setattr__(
            self, "row", normalize(self.row, bidirectional=self.kind is ConKind.EQUALITY)
        )

    @property
    def dim(self) -> int:
        return len(self.row) - 1


@dataclass(frozen=True)
class Generator:
    row: Row
    kind: GenKind

    def __post_init__(self):
        check_vector(self.row)
        if self.kind in (GenKind.LINE, GenKind.RAY):
            if self.row[0] != 0:
                raise InvalidVector(f"{self.kind.value} must have slot 0 zero: {self.row}")
        elif self.row[0] <= 0:
            raise InvalidVector(f"{self.kind.value} needs positive slot 0: {self.row}")
        object.__setattr__(
            self, "row", normalize(self.row, bidirectional=self.kind is GenKind.LINE)
        )

    @property
    def dim(self) -> int:
        return len(self.row) - 1


def con_contains(constraints: Iterable[Constraint], point: Sequence[Fraction | int]) -> bool:
    """Exact membership of a rational point in con(constraints).

    The point becomes one integer row (``rational_point_row``), and each
    constraint is one inline scalar product with it, tested by kind: zero
    for an equality, nonnegative for a nonstrict row, positive for a
    strict one.  A polyhedron's materialized support rows must be among
    the constraints: a point can sit on every member of a support and
    still be cut by it."""
    q = rational_point_row(point)
    n = len(q)
    equality, strict = ConKind.EQUALITY, ConKind.STRICT
    for c in constraints:
        row, kind = c.row, c.kind
        if len(row) != n:
            raise DimensionError("constraint/point dimension mismatch")
        s = sum(map(mul, row, q))
        if s > 0:
            if kind is equality:
                return False
        elif s < 0 or kind is strict:
            return False
    return True
