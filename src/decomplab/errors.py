"""Exception types shared across the package."""


class DecompLabError(Exception):
    """Base class for all package errors."""


class InputError(DecompLabError):
    """Malformed input value (bad map, out-of-range vertex, syntax error)."""


class DomainError(DecompLabError):
    """A mathematical precondition fails (wrong invariant value, parity, ...)."""


class DegreeError(DomainError):
    """A minimum-degree precondition fails."""


class StructureError(DomainError):
    """A required combinatorial structure does not exist at this size."""


class SizeGuardError(DecompLabError):
    """An enumeration or construction would exceed its configured size guard."""


class ResourceError(DecompLabError):
    """A bounded search ran out of its retry/embedding budget."""


class ParseError(InputError):
    """Syntax error in an external format, with position information."""

    def __init__(self, message, line=None, offset=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", offset {offset}" if offset is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.offset = offset
