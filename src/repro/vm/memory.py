"""Flat, byte-addressable memory with named data objects.

MOARD's whole point is associating corrupted values with *data objects*;
the memory model is therefore organised around named allocations
(:class:`DataObject`) whose address ranges are known, so that every dynamic
load/store can be resolved back to ``(object name, element index)`` when the
trace is recorded.

Addresses are plain integers in a single 64-bit address space.  Allocations
are separated by guard gaps so that an index corrupted by a bit flip lands
either inside another object (wrong data) or in a gap / unmapped space
(:class:`~repro.vm.errors.SegmentationFault`) — the same two failure modes a
native execution exhibits.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.types import F32, F64, I1, I8, I16, I32, I64, IRType
from repro.vm.bits import bits_to_value, to_signed, value_to_bits
from repro.vm.errors import SegmentationFault, VMError

Number = Union[int, float]

_DTYPE_BY_TYPE = {
    I1: np.int8,
    I8: np.int8,
    I16: np.int16,
    I32: np.int32,
    I64: np.int64,
    F32: np.float32,
    F64: np.float64,
}


def dtype_for(element_type: IRType) -> np.dtype:
    """NumPy dtype used to back a data object of ``element_type`` elements."""
    try:
        return np.dtype(_DTYPE_BY_TYPE[element_type])
    except KeyError:
        raise VMError(f"no storage dtype for element type {element_type}") from None


class DataObject:
    """A named, contiguous allocation.

    Attributes
    ----------
    name:
        Application-level name (``"colidx"``, ``"sum"``, …).  This is the key
        the aDVF analysis is parameterised by.
    element_type:
        IR type of each element.
    count:
        Number of elements.
    base:
        First byte address.
    is_stack:
        True for compiler-generated local slots (kernel locals); these are
        *not* target data objects but still participate in propagation.
    array:
        The backing NumPy array.
    element_size, end:
        Bytes per element and one past the last byte address; the geometry
        is fixed at allocation, so both are derived once instead of on
        every resolved access.

    Slotted: every :meth:`Memory.fork` (one per engine checkpoint) builds a
    twin of each object, so a twin is one small object, not two.
    """

    __slots__ = ("name", "element_type", "count", "base", "is_stack", "array",
                 "element_size", "end", "_cow_shared")

    def __init__(
        self,
        name: str,
        element_type: IRType,
        count: int,
        base: int,
        is_stack: bool = False,
        array: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self.element_type = element_type
        self.count = count
        self.base = base
        self.is_stack = is_stack
        self.array = array
        self.element_size = element_type.size_bytes
        self.end = base + count * self.element_size
        #: Copy-on-write marker: when a :meth:`Memory.fork` shares this
        #: object's backing array with another address space, both sides
        #: are flagged and the first typed write (:meth:`set` /
        #: :meth:`fill_from`) makes a private copy.  Direct ``.array``
        #: mutation bypasses the barrier and would leak into every engine
        #: snapshot sharing the array, so memories must only be written
        #: through the typed accessors (the VM and fused segments always are).
        self._cow_shared = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataObject(name={self.name!r}, element_type={self.element_type}, "
            f"count={self.count}, base={self.base:#x}, is_stack={self.is_stack})"
        )

    @property
    def size_bytes(self) -> int:
        return self.count * self.element_size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def address_of(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.count:
            raise IndexError(f"{self.name}[{index}] out of range (count={self.count})")
        return self.base + index * self.element_size

    def index_of(self, address: int) -> int:
        """Element index containing byte ``address`` (must be aligned)."""
        offset = address - self.base
        if offset % self.element_size:
            raise SegmentationFault(address, f"misaligned access into {self.name}")
        return offset // self.element_size

    # ------------------------------------------------------------------ #
    # typed element access (used by Memory and by workload setup code)
    # ------------------------------------------------------------------ #
    def get(self, index: int) -> Number:
        value = self.array[index]
        if self.element_type.is_float:
            return float(value)
        return int(value)

    def set(self, index: int, value: Number) -> None:
        if self._cow_shared:
            self.array = self.array.copy()
            self._cow_shared = False
        if self.element_type.is_float:
            self.array[index] = float(value)
        else:
            self.array[index] = to_signed(int(value), max(8, self.element_type.bits))

    def cast_value(self, value: Number) -> Number:
        """The exact Python value :meth:`get` would return after
        ``set(index, value)`` — i.e. ``value`` pushed through the backing
        array's dtype (f32 rounding, integer wrapping) and back.

        The lockstep batch replay uses this to predict a store's stored
        bits without touching memory.
        """
        if self.element_type.is_float:
            return float(self.array.dtype.type(float(value)))
        return int(
            self.array.dtype.type(
                to_signed(int(value), max(8, self.element_type.bits))
            )
        )

    def values(self) -> np.ndarray:
        """A copy of the current contents as a NumPy array."""
        return self.array.copy()

    def fill_from(self, values: Sequence[Number]) -> None:
        data = np.asarray(values)
        if data.shape != (self.count,):
            raise ValueError(
                f"cannot fill {self.name} (count={self.count}) from shape {data.shape}"
            )
        if self._cow_shared:
            self.array = self.array.copy()
            self._cow_shared = False
        if self.element_type.is_float:
            self.array[:] = data.astype(self.array.dtype)
        else:
            self.array[:] = data.astype(np.int64).astype(self.array.dtype)


class Memory:
    """The VM's address space: a registry of :class:`DataObject` allocations."""

    #: Guard gap (bytes) left between consecutive allocations.
    GUARD_GAP = 256

    def __init__(self, base_address: int = 0x10000) -> None:
        self._next_address = base_address
        self._objects: Dict[str, DataObject] = {}
        #: Parallel sorted arrays for address resolution.
        self._bases: List[int] = []
        self._by_base: List[DataObject] = []
        self._stack_counter = 0

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate(
        self,
        name: str,
        element_type: IRType,
        count: int,
        initial: Optional[Sequence[Number]] = None,
        is_stack: bool = False,
    ) -> DataObject:
        """Allocate ``count`` elements of ``element_type`` under ``name``."""
        if count <= 0:
            raise ValueError(f"data object {name!r} must have a positive element count")
        if name in self._objects:
            raise ValueError(f"data object {name!r} already allocated")
        base = self._next_address
        obj = DataObject(
            name=name,
            element_type=element_type,
            count=count,
            base=base,
            is_stack=is_stack,
            array=np.zeros(count, dtype=dtype_for(element_type)),
        )
        if initial is not None:
            obj.fill_from(initial)
        self._next_address = obj.end + self.GUARD_GAP
        self._objects[name] = obj
        position = bisect.bisect_left(self._bases, base)
        self._bases.insert(position, base)
        self._by_base.insert(position, obj)
        return obj

    def allocate_stack(self, hint: str, element_type: IRType, count: int) -> DataObject:
        """Allocate an anonymous local slot (kernel local variable)."""
        self._stack_counter += 1
        return self.allocate(
            f"%stack.{self._stack_counter}.{hint}", element_type, count, is_stack=True
        )

    def release(self, obj: DataObject) -> None:
        """Remove an allocation (used when a function frame is popped)."""
        if obj.name not in self._objects:
            return
        del self._objects[obj.name]
        position = bisect.bisect_left(self._bases, obj.base)
        if position < len(self._bases) and self._bases[position] == obj.base:
            self._bases.pop(position)
            self._by_base.pop(position)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def object(self, name: str) -> DataObject:
        try:
            return self._objects[name]
        except KeyError:
            raise KeyError(f"no data object named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    @property
    def objects(self) -> Dict[str, DataObject]:
        """Mapping of name → data object (live view, do not mutate)."""
        return self._objects

    def data_objects(self, include_stack: bool = False) -> List[DataObject]:
        """All allocations, optionally excluding compiler-generated locals."""
        return [
            obj
            for obj in self._objects.values()
            if include_stack or not obj.is_stack
        ]

    def resolve(self, address: int) -> Tuple[DataObject, int]:
        """Map a byte address to ``(object, element index)`` or fault."""
        position = bisect.bisect_right(self._bases, address) - 1
        if position < 0:
            raise SegmentationFault(address)
        obj = self._by_base[position]
        # inlined ``contains`` + ``index_of`` (the walk resolves per access)
        if address >= obj.end:
            raise SegmentationFault(address)
        index, misaligned = divmod(address - obj.base, obj.element_size)
        if misaligned:
            raise SegmentationFault(address, f"misaligned access into {obj.name}")
        return obj, index

    # ------------------------------------------------------------------ #
    # typed access
    # ------------------------------------------------------------------ #
    def load(self, address: int, value_type: IRType) -> Number:
        """Load a value of ``value_type`` from ``address``."""
        obj, index = self.resolve(address)
        self._check_access_type(obj, value_type, address)
        return obj.get(index)

    def store(self, address: int, value_type: IRType, value: Number) -> None:
        """Store ``value`` (of ``value_type``) to ``address``."""
        obj, index = self.resolve(address)
        self._check_access_type(obj, value_type, address)
        obj.set(index, value)

    @staticmethod
    def _check_access_type(obj: DataObject, value_type: IRType, address: int) -> None:
        if value_type.size_bytes != obj.element_size or (
            value_type.is_float != obj.element_type.is_float
        ):
            raise SegmentationFault(
                address,
                f"access of type {value_type} into {obj.name} "
                f"(element type {obj.element_type})",
            )

    def flip_bit_at(self, address: int, bit: int) -> Number:
        """Flip one bit of the element containing ``address``; return new value."""
        obj, index = self.resolve(address)
        raw = value_to_bits(obj.get(index), obj.element_type)
        flipped = raw ^ (1 << bit)
        new_value = bits_to_value(flipped, obj.element_type)
        obj.set(index, new_value)
        return new_value

    # ------------------------------------------------------------------ #
    # copy-on-write forks (checkpoints and batched replay)
    # ------------------------------------------------------------------ #
    def fork(self) -> "Memory":
        """A copy-on-write clone of the complete address space.

        The clone sees the exact current state (same objects, same base
        addresses, same allocator counters) but owns its own registry, so
        allocations and releases on either side are invisible to the other.
        Backing arrays are *shared* until written: both sides are flagged
        ``_cow_shared`` and the first typed write (``set``/``fill_from``)
        on either side copies that object's array privately.  Forking is
        therefore O(objects), not O(bytes): the engine forks for every
        golden checkpoint, every restore and every eviction of the batched
        replay scheduler.
        """
        clone = Memory.__new__(Memory)
        clone._next_address = self._next_address
        clone._stack_counter = self._stack_counter
        objects: Dict[str, DataObject] = {}
        for name, obj in self._objects.items():
            obj._cow_shared = True
            twin = DataObject(
                obj.name, obj.element_type, obj.count, obj.base, obj.is_stack,
                obj.array,
            )
            twin._cow_shared = True
            objects[name] = twin
        clone._objects = objects
        clone._bases = list(self._bases)
        clone._by_base = [objects[obj.name] for obj in self._by_base]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Memory: {len(self._objects)} objects, next={self._next_address:#x}>"

