"""Abstract syntax: the shared, representation-free view of an ADU.

Peers "share a common view of the ADU in some abstract syntax" (paper,
§5).  This module is that view: a small schema language describing the
*structure* of application data, independent of any transfer encoding.
Transfer syntaxes (BER, XDR, LWTS) encode values of these types; the
name-space machinery maps encoded byte ranges back to schema paths.

Values are plain Python objects: ``int`` for the integer types, ``bool``
for Boolean, ``bytes`` for OctetString, ``str`` for Utf8String, ``list``
for ArrayOf, ``dict`` (field name → value) for Struct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Union

from repro.errors import PresentationError

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
UINT32_MAX = 2**32 - 1
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# A path addresses one element inside a structured value: struct fields by
# name, array elements by index.  The empty tuple addresses the root.
Path = tuple[Union[str, int], ...]


class ASType:
    """Base class for abstract-syntax types."""

    def describe(self) -> str:
        """Short human-readable form used in errors and traces."""
        return type(self).__name__


@dataclass(frozen=True)
class Boolean(ASType):
    """A truth value."""


@dataclass(frozen=True)
class Int32(ASType):
    """A signed 32-bit integer."""


@dataclass(frozen=True)
class UInt32(ASType):
    """An unsigned 32-bit integer."""


@dataclass(frozen=True)
class Int64(ASType):
    """A signed 64-bit integer (XDR's hyper)."""


@dataclass(frozen=True)
class Float64(ASType):
    """An IEEE 754 double-precision number.

    Values are Python floats; NaN and the infinities are legal (real
    instrument streams carry them), and the codecs preserve them.
    """


@dataclass(frozen=True)
class OctetString(ASType):
    """An uninterpreted byte string.

    Attributes:
        fixed_length: when set, values must be exactly this long.  Fixed
            lengths let flat syntaxes compute receiver placement without
            seeing the data.
    """

    fixed_length: int | None = None

    def describe(self) -> str:
        if self.fixed_length is None:
            return "OctetString"
        return f"OctetString[{self.fixed_length}]"


@dataclass(frozen=True)
class Utf8String(ASType):
    """A UTF-8 text string."""


@dataclass(frozen=True)
class ArrayOf(ASType):
    """A homogeneous sequence.

    Attributes:
        element: element type.
        fixed_count: when set, values must have exactly this many
            elements (an XDR "fixed-length array").
    """

    element: ASType
    fixed_count: int | None = None

    def describe(self) -> str:
        inner = self.element.describe()
        if self.fixed_count is None:
            return f"ArrayOf({inner})"
        return f"ArrayOf({inner}, {self.fixed_count})"


@dataclass(frozen=True)
class Field:
    """A named member of a :class:`Struct`."""

    name: str
    type: ASType


@dataclass(frozen=True)
class Struct(ASType):
    """An ordered record of named, typed fields."""

    fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        names = [field.name for field in self.fields]
        if len(names) != len(set(names)):
            raise PresentationError(f"duplicate field names in Struct: {names}")

    def field_type(self, name: str) -> ASType:
        """Type of the field called ``name``."""
        for field in self.fields:
            if field.name == name:
                return field.type
        raise PresentationError(f"Struct has no field {name!r}")

    def describe(self) -> str:
        inner = ", ".join(f"{f.name}: {f.type.describe()}" for f in self.fields)
        return f"Struct({inner})"


def validate(value: Any, astype: ASType, path: Path = ()) -> None:
    """Check that ``value`` conforms to ``astype``.

    Raises :class:`PresentationError` naming the offending path, so
    callers get "arg[3].samples[7]"-quality diagnostics.
    """
    where = _fmt_path(path)
    if isinstance(astype, Boolean):
        if not isinstance(value, bool):
            raise PresentationError(f"{where}: expected bool, got {type(value).__name__}")
    elif isinstance(astype, Int32):
        if not isinstance(value, int) or isinstance(value, bool):
            raise PresentationError(f"{where}: expected int, got {type(value).__name__}")
        if not INT32_MIN <= value <= INT32_MAX:
            raise PresentationError(f"{where}: {value} out of Int32 range")
    elif isinstance(astype, UInt32):
        if not isinstance(value, int) or isinstance(value, bool):
            raise PresentationError(f"{where}: expected int, got {type(value).__name__}")
        if not 0 <= value <= UINT32_MAX:
            raise PresentationError(f"{where}: {value} out of UInt32 range")
    elif isinstance(astype, Int64):
        if not isinstance(value, int) or isinstance(value, bool):
            raise PresentationError(f"{where}: expected int, got {type(value).__name__}")
        if not INT64_MIN <= value <= INT64_MAX:
            raise PresentationError(f"{where}: {value} out of Int64 range")
    elif isinstance(astype, Float64):
        if not isinstance(value, float):
            raise PresentationError(
                f"{where}: expected float, got {type(value).__name__}"
            )
    elif isinstance(astype, OctetString):
        if not isinstance(value, (bytes, bytearray)):
            raise PresentationError(
                f"{where}: expected bytes, got {type(value).__name__}"
            )
        if astype.fixed_length is not None and len(value) != astype.fixed_length:
            raise PresentationError(
                f"{where}: expected exactly {astype.fixed_length} bytes, "
                f"got {len(value)}"
            )
    elif isinstance(astype, Utf8String):
        if not isinstance(value, str):
            raise PresentationError(f"{where}: expected str, got {type(value).__name__}")
    elif isinstance(astype, ArrayOf):
        if not isinstance(value, list):
            raise PresentationError(f"{where}: expected list, got {type(value).__name__}")
        if astype.fixed_count is not None and len(value) != astype.fixed_count:
            raise PresentationError(
                f"{where}: expected exactly {astype.fixed_count} elements, "
                f"got {len(value)}"
            )
        for index, element in enumerate(value):
            validate(element, astype.element, path + (index,))
    elif isinstance(astype, Struct):
        if not isinstance(value, dict):
            raise PresentationError(f"{where}: expected dict, got {type(value).__name__}")
        expected = {field.name for field in astype.fields}
        actual = set(value)
        if expected != actual:
            missing = expected - actual
            extra = actual - expected
            raise PresentationError(
                f"{where}: struct fields mismatch "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for field in astype.fields:
            validate(value[field.name], field.type, path + (field.name,))
    else:
        raise PresentationError(f"unknown abstract type {astype!r}")


def flatten_paths(value: Any, astype: ASType, path: Path = ()) -> Iterator[Path]:
    """Yield the path of every *leaf* element of ``value`` in order.

    Leaves are the scalars and byte/text strings; containers contribute
    their children.  This is the canonical element enumeration used by
    the name-space machinery.
    """
    if isinstance(astype, ArrayOf):
        for index, element in enumerate(value):
            yield from flatten_paths(element, astype.element, path + (index,))
    elif isinstance(astype, Struct):
        for field in astype.fields:
            yield from flatten_paths(value[field.name], field.type, path + (field.name,))
    else:
        yield path


def _fmt_path(path: Path) -> str:
    if not path:
        return "<root>"
    parts: list[str] = []
    for step in path:
        if isinstance(step, int):
            parts.append(f"[{step}]")
        else:
            parts.append(f".{step}" if parts else step)
    return "".join(parts)
