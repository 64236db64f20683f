"""Integer homogeneous coefficient rows and the three exact kernel operations.

A row is a tuple of arbitrary-precision ints.  Slot 0 is the homogeneous
coordinate: for a constraint row (c0, a1, .., an) it is the inhomogeneous
term of ``a.x + c0  ⋈  0``; for a generator row it is the divisor (0 for
rays and lines, positive for points and closure points).  All geometry in
the library reduces to scalar products and nonnegative combinations of
such rows, so exactness here is exactness everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import CombineError, DimensionError, InvalidVector

Row = tuple[int, ...]


def check_vector(vec: Sequence[int], dim: int | None = None) -> None:
    """Validate a row: integer entries, length dim+1, not all zero.

    This is the one per-entry type check.  It runs at the boundary, when a
    ``Constraint`` or ``Generator`` is built (and so on every row that
    ``parse_ine``/``parse_ext`` read); every row built inside the engines
    is an int tuple made from such rows.
    """
    if len(vec) < 2:
        raise InvalidVector(f"row needs at least 2 slots, got {len(vec)}")
    if dim is not None and len(vec) != dim + 1:
        raise DimensionError(f"row has {len(vec) - 1} coordinates, expected {dim}")
    for x in vec:
        # bool is an int subclass but never a legitimate coefficient
        if not isinstance(x, int) or isinstance(x, bool):
            raise InvalidVector(f"non-integer coefficient {x!r}")
    if not any(vec):
        raise InvalidVector("all-zero row")


def normalize(vec: Sequence[int], bidirectional: bool = False) -> Row:
    """Divide a row by the gcd of its entries.

    Rows whose orientation carries no meaning (lines, equalities) are also
    sign-canonicalized so the first nonzero entry is positive.  Idempotent.

    Raises ``InvalidVector`` on a row shorter than 2 or all zero, but does
    not check entry types: that is ``check_vector``'s, run once at the
    boundary.  A row whose gcd is 1 comes back as the same tuple.
    """
    if len(vec) < 2:
        raise InvalidVector(f"row needs at least 2 slots, got {len(vec)}")
    g = gcd(*vec)
    if g == 0:
        raise InvalidVector("all-zero row")
    out = tuple(vec) if g == 1 else tuple(x // g for x in vec)
    if bidirectional:
        for x in out:
            if x:
                if x < 0:
                    out = tuple(-y for y in out)
                break
    return out


def scalar_prod(c: Sequence[int], g: Sequence[int]) -> int:
    """Exact scalar product of two rows of equal length."""
    if len(c) != len(g):
        raise DimensionError(f"row lengths differ: {len(c)} vs {len(g)}")
    return sum(map(mul, c, g))


def combine_with_products(gp: Sequence[int], gm: Sequence[int], sp: int, sm: int) -> Row:
    """Nonnegative combination of gp (product sp > 0) and gm (product sm < 0)
    that lands exactly on the hyperplane of the row the products were taken
    against.  Returns the gcd-normalized result."""
    if sp <= 0 or sm >= 0:
        raise CombineError(f"need opposite product signs, got {sp} and {sm}")
    return normalize(tuple([(-sm) * a + sp * b for a, b in zip(gp, gm)]))


def eliminate(keep: Sequence[int], pivot: Sequence[int], sk: int, sv: int) -> Row:
    """Cross-elimination for bidirectional rows: sv*keep - sk*pivot, which
    saturates the row the products sk (of keep) and sv (of pivot) were taken
    against.  Unlike combine_with_products(), signs are unconstrained (sv
    must be nonzero)."""
    if sv == 0:
        raise CombineError("pivot row does not meet the hyperplane")
    return normalize(tuple([sv * a - sk * b for a, b in zip(keep, pivot)]), bidirectional=True)


def rational_point_row(coords: Iterable[Fraction | int]) -> Row:
    """Homogeneous integer row (d, d*x1, .., d*xn) for a rational point.

    The one coordinate check for points, as ``check_vector`` is for rows:
    each coordinate is an int (not a bool) or a Fraction.  A float is
    refused, not read at its binary value.
    """
    fracs = []
    for x in coords:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidVector(f"non-rational coordinate {x!r}")
        fracs.append(Fraction(x))
    d = 1
    for f in fracs:
        d = d * f.denominator // gcd(d, f.denominator)
    return normalize((d, *(int(f * d) for f in fracs)))
