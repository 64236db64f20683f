"""NNC polyhedra with lazily maintained double descriptions.

A polyhedron keeps up to two conversion contexts: a generator-side one fed
by constraints and a constraint-side one fed by generators.  Whichever side
a query needs is built on demand from the other side's emitted system and
then cached, and so is each emitted system.  Operations never mutate a
cached context or list; incremental work always goes through a clone, and
the public accessors hand out copies, so polyhedra behave as immutable
values.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .conversion import (
    ConvCtx,
    Side,
    atoms,
    close_generators,
    conversion_c2g,
    conversion_g2c,
    emit_constraints,
    emit_generators,
    skeleton,
)
from .errors import DimensionError, EmptySystem
from .systems import ConKind, Constraint, GenKind, Generator, con_contains


def _check_dims(items: Iterable[Constraint | Generator], dim: int) -> None:
    for it in items:
        if it.dim != dim:
            raise DimensionError(f"row of dimension {it.dim} in a {dim}-dimensional system")


class NncPolyhedron:
    """A not necessarily closed convex polyhedron over the rationals."""

    __slots__ = ("dim", "_gen", "_con", "_gens", "_cons")

    def __init__(self, dim: int, gen_ctx: ConvCtx | None = None, con_ctx: ConvCtx | None = None):
        if dim < 1:
            raise DimensionError("dimension must be at least 1")
        if gen_ctx is None and con_ctx is None:
            raise EmptySystem("a polyhedron needs a context to build its views from")
        self.dim = dim
        self._gen = gen_ctx
        self._con = con_ctx
        self._gens: list[Generator] | None = None  # emitted from _gen
        self._cons: list[Constraint] | None = None  # emitted from _con

    # -- construction -----------------------------------------------------

    @classmethod
    def from_constraints(
        cls, constraints: Sequence[Constraint], dim: int | None = None
    ) -> "NncPolyhedron":
        cs = list(constraints)
        if dim is None:
            if not cs:
                raise EmptySystem("dimension unknown: pass dim for an unconstrained space")
            dim = cs[0].dim
        _check_dims(cs, dim)
        return cls(dim, gen_ctx=conversion_c2g(cs, dim=dim))

    @classmethod
    def from_generators(cls, generators: Sequence[Generator]) -> "NncPolyhedron":
        gens = list(generators)
        if not gens:
            raise EmptySystem("no generators; use NncPolyhedron.empty(dim)")
        dim = gens[0].dim
        _check_dims(gens, dim)
        if not any(g.kind is GenKind.POINT for g in gens):
            # closure points alone never reach their own positions
            return cls.empty(dim)
        return cls(dim, con_ctx=conversion_g2c(gens))

    @classmethod
    def universe(cls, dim: int) -> "NncPolyhedron":
        return cls(dim, gen_ctx=conversion_c2g([], dim=dim))

    @classmethod
    def empty(cls, dim: int) -> "NncPolyhedron":
        return cls(dim, gen_ctx=ConvCtx(dim=dim, producing=Side.GEN))

    # -- the two sides -----------------------------------------------------

    def gen_ctx(self) -> ConvCtx:
        if self._gen is None:
            # only reachable for polyhedra built from generators, which are
            # never empty (they held a point)
            self._gen = conversion_c2g(self._constraint_view(), dim=self.dim)
        return self._gen

    def con_ctx(self) -> ConvCtx | None:
        """Constraint-side context, or None for the empty polyhedron."""
        if self._con is None:
            gens = self._generator_view()
            if not gens:
                return None
            self._con = conversion_g2c(gens)
        return self._con

    def _generator_view(self) -> list[Generator]:
        if self._gens is None:
            self._gens = emit_generators(self.gen_ctx())
        return self._gens

    def _constraint_view(self) -> list[Constraint]:
        if self._cons is None:
            ctx = self.con_ctx()
            if ctx is None:
                self._cons = [Constraint((-1,) + (0,) * self.dim, ConKind.NONSTRICT)]
            else:
                self._cons = emit_constraints(ctx)
        return self._cons

    def generators(self) -> list[Generator]:
        return list(self._generator_view())

    def constraints(self) -> list[Constraint]:
        return list(self._constraint_view())

    def is_empty(self) -> bool:
        if self._gen is None:
            return False  # built from generators that included a point
        return not self._generator_view()

    # -- point queries ------------------------------------------------------

    def contains_point(self, point: Sequence[Fraction | int]) -> bool:
        if len(point) != self.dim:
            raise DimensionError(f"point of dimension {len(point)}, polyhedron has {self.dim}")
        return con_contains(self._constraint_view(), point)

    # -- comparisons ---------------------------------------------------------

    def includes(self, other: "NncPolyhedron") -> bool:
        """Does this polyhedron contain every point of the other one?

        Two cheap scalar-product passes.  First, closure inclusion, read on
        the two skeletons alone: every product of one of this set's
        skeleton constraints with one of the other's skeleton generators is
        zero when either row is singular, and nonnegative otherwise.  The
        emitted views would add nothing: a materialized support, on either
        side, is a positive multiple of a sum of skeleton rows, so its
        products follow from its members', and the views leave out only
        rows parallel to positivity, which give ``c0 * g0 >= 0`` against
        every generator.  Second, a scan that no included piece of the
        other (a point, or a filled face) lands inside a face this one
        excludes (a strict row, or a support cut)."""
        if self.dim != other.dim:
            raise DimensionError("cannot compare polyhedra of different dimensions")
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        con, gen = self.con_ctx(), other.gen_ctx()
        eqs, ineqs = skeleton(con)
        lines, gens = skeleton(gen)
        for c in eqs:
            for g in lines + gens:
                if sum(map(mul, c, g)):
                    return False
        for c in ineqs:
            for g in lines:
                if sum(map(mul, c, g)):
                    return False
            for g in gens:
                if sum(map(mul, c, g)) < 0:
                    return False
        excluded = atoms(con)
        for piece in atoms(gen):
            for ghost in excluded:
                if all(sum(map(mul, c, a)) == 0 for c in ghost for a in piece):
                    return False
        return True

    def equals(self, other: "NncPolyhedron") -> bool:
        return self.includes(other) and other.includes(self)

    # -- lattice operations ---------------------------------------------------

    def add_constraints(self, constraints: Sequence[Constraint]) -> "NncPolyhedron":
        cs = list(constraints)
        _check_dims(cs, self.dim)
        return NncPolyhedron(self.dim, gen_ctx=conversion_c2g(cs, base=self.gen_ctx()))

    def add_generators(self, generators: Sequence[Generator]) -> "NncPolyhedron":
        gens = list(generators)
        _check_dims(gens, self.dim)
        if self.is_empty():
            return NncPolyhedron.from_generators(gens) if gens else self
        return NncPolyhedron(self.dim, con_ctx=conversion_g2c(gens, base=self.con_ctx()))

    def intersect(self, other: "NncPolyhedron") -> "NncPolyhedron":
        if self.dim != other.dim:
            raise DimensionError("cannot intersect polyhedra of different dimensions")
        if self.is_empty() or other.is_empty():
            return NncPolyhedron.empty(self.dim)
        return self.add_constraints(other._constraint_view())

    def poly_hull(self, other: "NncPolyhedron") -> "NncPolyhedron":
        if self.dim != other.dim:
            raise DimensionError("cannot hull polyhedra of different dimensions")
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return self.add_generators(other._generator_view())

    def closure(self) -> "NncPolyhedron":
        """Topological closure: a role change on the generator side, with no
        conversion.  An empty set may keep a closure point in its context,
        so emptiness is ruled out first."""
        if self.is_empty():
            return NncPolyhedron.empty(self.dim)
        return NncPolyhedron(self.dim, gen_ctx=close_generators(self.gen_ctx()))

    def __repr__(self) -> str:
        if self.is_empty():
            return f"NncPolyhedron.empty({self.dim})"
        return f"NncPolyhedron(dim={self.dim}, constraints={len(self._constraint_view())})"
