"""Lamp-row clock displays as mixed-radix numeral systems.

Encode times onto lamp rows, decode them back, count and enumerate
feasible layouts, and render displays as terminal art, SVG, bit strings,
or JSON.
"""

from .codec import (
    DisplayState,
    Meridiem,
    RowScheme,
    TimeOfDay,
    ValidationReport,
    capacity,
    decode,
    derive_units,
    encode,
    parse_bits,
    validate,
)
from .catalog import BERLIN, BUILTIN_SCHEMES, TRIANGULAR, load_scheme, make_scheme, resolve_scheme
from .errors import (
    BitsParseError,
    ClockError,
    EnumerationCapError,
    InvalidSchemeError,
    InvalidStateError,
    MonotoneFillError,
    RenderError,
)
from .render import Layout, RenderFormat, RenderSpec, render
from .timesource import ScriptedTimeSource, SystemTimeSource, TimeSource

__version__ = "0.1.0"

# Served by __getattr__ (PEP 562), so that .schemes loads on first use only.
_SCHEMES_NAMES = {"SchemeShape", "ShapeClass", "count_shapes", "enumerate_shapes", "is_triangular_feasible",
                  "shape_to_scheme"}


def __getattr__(name: str):
    if name not in _SCHEMES_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import schemes

    value = globals()[name] = getattr(schemes, name)
    return value

__all__ = [
    "BERLIN",
    "BUILTIN_SCHEMES",
    "BitsParseError",
    "ClockError",
    "DisplayState",
    "EnumerationCapError",
    "InvalidSchemeError",
    "InvalidStateError",
    "Layout",
    "Meridiem",
    "MonotoneFillError",
    "RenderError",
    "RenderFormat",
    "RenderSpec",
    "RowScheme",
    "SchemeShape",
    "ScriptedTimeSource",
    "ShapeClass",
    "SystemTimeSource",
    "TimeOfDay",
    "TimeSource",
    "TRIANGULAR",
    "ValidationReport",
    "capacity",
    "count_shapes",
    "decode",
    "derive_units",
    "encode",
    "enumerate_shapes",
    "is_triangular_feasible",
    "load_scheme",
    "make_scheme",
    "parse_bits",
    "render",
    "resolve_scheme",
    "shape_to_scheme",
    "validate",
]
