"""Shared exception types with a stable CLI exit-code mapping.

ParseError -> exit 1; PreconditionError and SizeGuardExceeded -> exit 2;
check-suite failures are reported as data and exit 3.  ShapeViolation and
InvariantViolation signal malformed combinatorial data or a failed internal
identity, which only a library bug produces; they are never silently
repaired, and the CLI exits 4 with a line that reproduces the call.
"""


class ParseError(ValueError):
    """Malformed textual input (multisegments, weights, partitions)."""


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class ShapeViolation(ValueError):
    """Tableau or ladder-sequence shape constraints failed."""


class SizeGuardExceeded(RuntimeError):
    """A brute-force oracle refused an instance above its size guard."""


class InvariantViolation(RuntimeError):
    """A combinatorial identity that must hold was violated; fatal alarm."""
