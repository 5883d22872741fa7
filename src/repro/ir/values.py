"""Value hierarchy for the IR.

Every operand in the IR is a :class:`Value`: constants, function arguments,
the results of instructions (instructions *are* values, SSA style), or the
explicit :class:`UndefValue`.

Values carry a type and an optional name.  Names matter for diagnostics and
for the frontend's mapping of kernel-source variables onto IR values; they
are not required to be unique (the printer numbers unnamed values).
"""

from __future__ import annotations

import itertools
from typing import Union

from repro.ir.types import IRType, F32, F64, I1


_value_counter = itertools.count()


class Value:
    """Base class for anything that can appear as an operand."""

    __slots__ = ("type", "name", "uid")

    def __init__(self, type: IRType, name: str = "") -> None:
        self.type = type
        self.name = name
        #: Monotonically increasing id, unique per-process; used for stable
        #: ordering and as a dictionary key in analyses.
        self.uid = next(_value_counter)

    def short(self) -> str:
        """A short label used by the printer."""
        return f"%{self.name}" if self.name else f"%v{self.uid}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """A compile-time constant integer or float.

    Integer constants are stored as Python ints (wrapped by the VM to the
    type's width at execution time); float constants as Python floats.
    """

    __slots__ = ("value",)

    def __init__(self, type: IRType, value: Union[int, float], name: str = "") -> None:
        super().__init__(type, name)
        if type.is_float:
            value = float(value)
        elif type.is_integer:
            value = int(value)
        else:
            raise TypeError(f"constants must be scalar, got type {type}")
        self.value = value

    def short(self) -> str:
        if self.type.is_float:
            return repr(self.value)
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Constant {self.type} {self.value!r}>"


def const_int(type: IRType, value: int) -> Constant:
    """Convenience constructor for integer constants."""
    return Constant(type, int(value))


def const_float(value: float, type: IRType = F64) -> Constant:
    """Convenience constructor for floating-point constants."""
    if type not in (F32, F64):
        raise TypeError("const_float requires a float type")
    return Constant(type, float(value))


def const_bool(value: bool) -> Constant:
    """Convenience constructor for ``i1`` constants."""
    return Constant(I1, 1 if value else 0)


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`."""

    __slots__ = ("index",)

    def __init__(self, type: IRType, name: str, index: int) -> None:
        super().__init__(type, name)
        self.index = index


class UndefValue(Value):
    """An explicitly undefined value (reads of uninitialised locals)."""

    __slots__ = ()

    def short(self) -> str:
        return "undef"
