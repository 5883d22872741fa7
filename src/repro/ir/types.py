"""Type system for the MOARD reproduction IR.

The type system mirrors the subset of LLVM types that the paper's analysis
touches: fixed-width two's-complement integers, IEEE-754 binary32/binary64
floats, pointers (typed, byte-addressed) and ``void`` for instructions that
produce no value.

Types are immutable and interned: ``I64``, ``F64`` … are module-level
singletons, and :func:`pointer_to` returns a cached :class:`PointerType` per
pointee so identity comparison (``is``) works for the scalar types while
``==`` works uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class TypeKind(enum.Enum):
    """Broad classification of an :class:`IRType`."""

    VOID = "void"
    INTEGER = "int"
    FLOAT = "float"
    POINTER = "ptr"


@dataclass(frozen=True)
class IRType:
    """An IR type.

    Parameters
    ----------
    kind:
        Broad classification (void / integer / float / pointer).
    bits:
        Width of the value in bits.  ``0`` for void.  Pointers are modelled
        as 64-bit machine words.
    name:
        Canonical textual spelling (``i64``, ``double``, …) used by the
        printer and in diagnostics.
    """

    kind: TypeKind
    bits: int
    name: str
    #: Storage size in bytes (minimum 1 byte for i1, 0 for void); derived
    #: once at construction because address resolution reads it per access.
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 0 if self.kind is TypeKind.VOID else max(1, self.bits // 8)
        object.__setattr__(self, "size_bytes", size)

    # ------------------------------------------------------------------ #
    # classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_void(self) -> bool:
        return self.kind is TypeKind.VOID

    @property
    def is_integer(self) -> bool:
        return self.kind is TypeKind.INTEGER

    @property
    def is_float(self) -> bool:
        return self.kind is TypeKind.FLOAT

    @property
    def is_pointer(self) -> bool:
        return self.kind is TypeKind.POINTER

    @property
    def is_bool(self) -> bool:
        """True for the 1-bit integer type produced by comparisons."""
        return self.is_integer and self.bits == 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    # ------------------------------------------------------------------ #
    # numeric range helpers (used by the VM for wrapping arithmetic)
    # ------------------------------------------------------------------ #
    @property
    def unsigned_max(self) -> int:
        if not self.is_integer and not self.is_pointer:
            raise TypeError(f"{self} has no integer range")
        return (1 << self.bits) - 1

    @property
    def signed_min(self) -> int:
        if not self.is_integer:
            raise TypeError(f"{self} has no integer range")
        return -(1 << (self.bits - 1)) if self.bits > 1 else 0

    @property
    def signed_max(self) -> int:
        if not self.is_integer:
            raise TypeError(f"{self} has no integer range")
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 1


VOID = IRType(TypeKind.VOID, 0, "void")
I1 = IRType(TypeKind.INTEGER, 1, "i1")
I8 = IRType(TypeKind.INTEGER, 8, "i8")
I16 = IRType(TypeKind.INTEGER, 16, "i16")
I32 = IRType(TypeKind.INTEGER, 32, "i32")
I64 = IRType(TypeKind.INTEGER, 64, "i64")
F32 = IRType(TypeKind.FLOAT, 32, "float")
F64 = IRType(TypeKind.FLOAT, 64, "double")

#: All scalar (non-pointer, non-void) types, keyed by canonical name.
SCALAR_TYPES: Dict[str, IRType] = {
    t.name: t for t in (I1, I8, I16, I32, I64, F32, F64)
}

#: Integer types ordered by width, used by the frontend for promotions.
INTEGER_TYPES = (I1, I8, I16, I32, I64)
FLOAT_TYPES = (F32, F64)


@dataclass(frozen=True)
class PointerType(IRType):
    """A typed pointer.

    The ``pointee`` type determines the element size used by
    ``getelementptr`` scaling and by ``load``/``store`` access width.
    Pointers are 64-bit values in the VM's flat address space.
    """

    pointee: Optional[IRType] = None

    @property
    def element_size(self) -> int:
        """Size in bytes of one pointee element."""
        if self.pointee is None:
            raise TypeError("opaque pointer has no element size")
        return self.pointee.size_bytes


_POINTER_CACHE: Dict[IRType, PointerType] = {}


def pointer_to(pointee: IRType) -> PointerType:
    """Return the (cached) pointer type to ``pointee``.

    Examples
    --------
    >>> pointer_to(F64).name
    'double*'
    >>> pointer_to(F64) is pointer_to(F64)
    True
    """
    if pointee.is_void:
        raise TypeError("cannot take a pointer to void")
    cached = _POINTER_CACHE.get(pointee)
    if cached is None:
        cached = PointerType(TypeKind.POINTER, 64, f"{pointee.name}*", pointee)
        _POINTER_CACHE[pointee] = cached
    return cached


def parse_type(spec: str) -> IRType:
    """Parse a type spelling (``"i64"``, ``"double"``, ``"double*"``).

    Raises
    ------
    ValueError
        If the spelling is not a recognised type.
    """
    spec = spec.strip()
    if spec == "void":
        return VOID
    if spec.endswith("*"):
        return pointer_to(parse_type(spec[:-1]))
    try:
        return SCALAR_TYPES[spec]
    except KeyError:
        raise ValueError(f"unknown IR type spelling: {spec!r}") from None
