"""Exception types shared across the package."""


class ClockError(Exception):
    """Base class for all lampclock errors."""


class InvalidSchemeError(ClockError):
    """A row scheme is malformed or violates its structural rules."""


class InvalidStateError(ClockError):
    """A display state does not fit the scheme it is paired with."""


class RenderError(ClockError):
    """A render request cannot be satisfied for the given scheme."""


class BitsParseError(ClockError):
    """A bit-string does not match the scheme's row structure."""


class MonotoneFillError(BitsParseError):
    """A bit-string row has a lit lamp to the right of an unlit one.

    ``row`` is the offending row number, counted from 1 at the top.
    """

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row

    def __reduce__(self):  # Exception's own passes only args, which lacks ``row``
        return type(self), (self.row, *self.args)


class EnumerationCapError(ClockError):
    """Shape enumeration exceeded the configured result limit."""
