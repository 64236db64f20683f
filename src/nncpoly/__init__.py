"""Exact double-description library for convex polyhedra that may mix
strict and nonstrict inequalities."""

from .errors import (
    CombineError,
    DimensionError,
    EmptySupportError,
    EmptySystem,
    InvalidVector,
    InvariantError,
    KindError,
    NncPolyError,
    ParseError,
    ScaleLimitExceeded,
    StaleIdError,
)
from .formats import emit_ext, emit_ine, parse_ext, parse_ine
from .polyhedron import NncPolyhedron
from .satlat import minimal_family
from .systems import ConKind, Constraint, Generator, GenKind

__all__ = [
    "ConKind",
    "Constraint",
    "GenKind",
    "Generator",
    "NncPolyhedron",
    "minimal_family",
    "parse_ine",
    "parse_ext",
    "emit_ine",
    "emit_ext",
    "NncPolyError",
    "InvalidVector",
    "DimensionError",
    "CombineError",
    "KindError",
    "InvariantError",
    "EmptySystem",
    "StaleIdError",
    "EmptySupportError",
    "ScaleLimitExceeded",
    "ParseError",
]

__version__ = "0.1.0"
