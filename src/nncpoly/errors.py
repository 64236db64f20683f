"""Exception types shared across the library."""


class NncPolyError(Exception):
    """Base class for all library errors."""


class InvalidVector(NncPolyError):
    """A coefficient row is structurally unusable (empty, all zero, wrong types)."""


class DimensionError(NncPolyError):
    """Operands live in different ambient dimensions."""


class CombineError(NncPolyError):
    """A combination was asked of rows whose scalar products cannot cancel:
    ``combine_with_products`` needs opposite signs and a nonzero result,
    ``eliminate`` a nonzero pivot product."""


class KindError(NncPolyError):
    """A row kind is not allowed here (e.g. strict input to the closed engine)."""


class EmptySystem(NncPolyError):
    """An operation that needs at least one row/generator got an empty system."""


class ScaleLimitExceeded(NncPolyError):
    """A desk-scale-only helper was invoked beyond its documented size bounds."""


class InvariantError(NncPolyError):
    """An engine's internal invariant broke; the result cannot be trusted."""


class StaleIdError(InvariantError):
    """A support references a skeleton id that is no longer alive."""


class EmptySupportError(InvariantError):
    """A support projection came out empty, which signals stale bookkeeping."""


class ParseError(NncPolyError):
    """A polyhedron file could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
