"""The columnar trace store: the one golden-trace form.

:class:`ColumnarTrace` is the shared, durable representation of a golden
execution.  What an event shares with every other execution of the same
instruction -- opcode, function, block, ``static_uid``, source line,
operand types and kinds, result type, predicate and callee -- is kept
once, in a table of static-op records.  Each event stores one ``int32``
index into that table plus its dynamic fields: operand values, producer
links and CSR offsets (the operand fields are flattened), result value,
address, object name, element index, writer id and taken label.  Integer
dynamic columns live in typed buffers (``array('q')``, ``-1`` for
``None``), so :meth:`~ColumnarTrace.columns` serves zero-copy NumPy views
over them and gathers the static columns through the index.  The whole
trace round-trips through a ``.npz`` artifact, so golden traces become
cacheable assets shared between campaign runs and worker processes
(:mod:`repro.tracing.cache`).

Three ways in, one storage:

* **record** -- the engine's op loop hands each executed op's
  ``DecodedOp`` and dynamic fields to the bound appends of
  :meth:`~ColumnarTrace.recorder`; no event object is built;
* **append** -- :meth:`~ColumnarTrace.append` and
  :meth:`~ColumnarTrace.from_events` take
  :class:`~repro.tracing.events.TraceEvent` objects (the interpreter
  oracle, hand-built traces), keyed by their full static record;
* **load** -- :meth:`~ColumnarTrace.load` maps an artifact's arrays in,
  building no per-event object for a static field.

Three ways out:

* **trace-like** -- ``len`` / integer indexing / iteration reconstruct
  :class:`~repro.tracing.events.TraceEvent` views (memoised on random
  access, so analyses that revisit the same dynamic window pay the
  materialisation once);
* **accessors** -- per-field reads (:meth:`~ColumnarTrace.opcode_of`,
  :meth:`~ColumnarTrace.operand_value`, ...) that build no event;
* **columns** -- :meth:`~ColumnarTrace.columns` exposes the integer
  columns as NumPy arrays (opcodes, object ids, element indices, producer
  links, operand kinds, CSR offsets) for array-at-a-time passes.
"""

from __future__ import annotations

import os
import pickle
from array import array
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.ir.instructions import Opcode
from repro.ir.types import parse_type

from repro.tracing.events import OperandKind, TraceEvent

#: Stable in-process opcode/kind code tables (persisted artifacts carry their
#: own string vocabularies and are remapped on load, so the numeric codes
#: never leak out of the process).
_OPCODE_CODE: Dict[Opcode, int] = {op: i for i, op in enumerate(Opcode)}
_KIND_CODE: Dict[OperandKind, int] = {k: i for i, k in enumerate(OperandKind)}

LOAD_CODE = _OPCODE_CODE[Opcode.LOAD]
STORE_CODE = _OPCODE_CODE[Opcode.STORE]
INSTRUCTION_KIND_CODE = _KIND_CODE[OperandKind.INSTRUCTION]

#: Field positions in a static-op record: the ten event fields an
#: instruction has in every one of its executions, in ``TraceEvent`` order.
(_OPCODE, _FUNCTION, _BLOCK, _UID, _LINE, _TYPES, _KINDS, _RESULT_TYPE,
 _PREDICATE, _CALLEE) = range(10)


def _static_record(event: TraceEvent) -> tuple:
    """The static-op record of ``event``."""
    return (
        event.opcode, event.function, event.block, event.static_uid,
        event.source_line, tuple(event.operand_types),
        tuple(event.operand_kinds), event.result_type, event.predicate,
        event.callee,
    )


def _int64_buffer(values: np.ndarray) -> array:
    """An ``array('q')`` holding a copy of ``values``."""
    buffer = array("q")
    buffer.frombytes(
        memoryview(np.ascontiguousarray(values, dtype=np.int64)).cast("B")
    )
    return buffer


def _intern(values: List[Optional[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """String-intern a column: ``(int32 ids, object vocabulary)``.

    The vocabulary lists values in first-use order and ``None`` becomes
    ``-1``; both passes run in C (``dict.fromkeys`` and ``map``).
    """
    index = dict.fromkeys(values)
    index.pop(None, None)
    vocab = list(index)
    index.update(zip(vocab, range(len(vocab))))
    index[None] = -1
    ids = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
    return ids, np.array(vocab, dtype=object)


def _gather_intern(
    positions: np.ndarray, values: list
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_intern` of ``[values[p] for p in positions]``, without
    building that list.

    ``values`` is short -- one entry per static record, or per operand of
    a static record -- and ``positions`` is one index into it per event
    (or per flattened operand).  The vocabulary comes out in first-use
    order over ``positions``, as :func:`_intern` would give it.
    """
    local, vocab = _intern(values)
    codes = local[positions]
    used, first = np.unique(codes, return_index=True)
    named = used >= 0
    order = used[named][np.argsort(first[named])]
    remap = np.full(len(vocab) + 1, -1, dtype=np.int32)  # slot -1: None
    remap[order] = np.arange(len(order), dtype=np.int32)
    return remap[codes], vocab[order]


#: The globals an object column's pickle may name: an object array pickles
#: as ``_reconstruct(ndarray, shape, dtype)`` plus plain numbers, strings
#: and ``None``.
_ARRAY_GLOBALS = frozenset({
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy", "ndarray"),
    ("numpy", "dtype"),
})


class _ArrayUnpickler(pickle.Unpickler):
    """Refuses every global an object column does not need, so a file
    planted in the trace cache cannot run code."""

    def find_class(self, module: str, name: str):
        if (module, name) not in _ARRAY_GLOBALS:
            raise pickle.UnpicklingError(f"forbidden global {module}.{name}")
        return super().find_class(module, name)


def _column(npz, key: str) -> np.ndarray:
    """Column ``key`` of an ``.npz`` opened with ``allow_pickle=False``; an
    object column unpickles through :class:`_ArrayUnpickler`."""
    fmt = np.lib.format
    with npz.zip.open(key + ".npy") as fh:
        if fmt.read_magic(fh) != (1, 0):
            raise ValueError(f"column {key}: unsupported .npy version")
        if not fmt.read_array_header_1_0(fh)[2].hasobject:
            fh.seek(0)
            return fmt.read_array(fh, allow_pickle=False)
        column = _ArrayUnpickler(fh).load()
    if not isinstance(column, np.ndarray):
        raise ValueError(f"column {key} is not an array")
    return column


def _decode(ids: np.ndarray, vocab: np.ndarray) -> list:
    """The per-event values of an interned column (``-1``: ``None``)."""
    table = np.empty(len(vocab) + 1, dtype=object)  # slot -1: None
    table[:-1] = vocab
    return table[ids].tolist()


class TraceColumns:
    """NumPy views over the integer columns of a :class:`ColumnarTrace`.

    ``None``-valued optional fields are encoded as ``-1``;
    ``object_index`` maps data-object names to the ids in ``object_id``.
    """

    __slots__ = (
        "opcode", "static_uid", "address", "object_id", "element",
        "offsets", "producers", "kinds", "owner", "object_index",
    )

    def __init__(self, opcode, static_uid, address, object_id, element,
                 offsets, producers, kinds, owner,
                 object_index: Dict[str, int]) -> None:
        self.opcode = opcode
        self.static_uid = static_uid
        self.address = address
        self.object_id = object_id
        self.element = element
        self.offsets = offsets
        self.producers = producers
        self.kinds = kinds
        #: owning event id of every flattened operand (``repeat`` of ids).
        self.owner = owner
        self.object_index = object_index


class _StaticTable(dict):
    """The static-op records of one trace.

    ``records[i]`` is record *i*.  :meth:`index` finds or adds a record;
    records are told apart by ``static_uid`` first, then by equality, so
    two records that share a uid but differ in another field both stay.
    As a mapping, the table sends a ``DecodedOp`` to the index of its
    ``trace_record``, adding the record the first time the op is seen.
    """

    __slots__ = ("records", "by_uid")

    def __init__(self) -> None:
        super().__init__()
        self.records: List[tuple] = []
        self.by_uid: Dict[object, List[int]] = {}

    def index(self, record: tuple) -> int:
        candidates = self.by_uid.setdefault(record[_UID], [])
        records = self.records
        for index in candidates:
            if records[index] == record:
                return index
        index = len(records)
        records.append(record)
        candidates.append(index)
        return index

    def __missing__(self, op) -> int:
        index = self[op] = self.index(op.trace_record)
        return index


class ColumnarTrace:
    """Compact columnar event storage with array views and persistence.

    The only trace the engine records and the analyses read: an ordered
    event store (``dynamic_id`` equals position) with trace-like event
    reconstruction, per-field accessors, :meth:`columns`,
    :meth:`save`/:meth:`load` and event memoisation.
    """

    #: Bumped when the persisted column layout changes (participates in the
    #: trace-cache digest so stale artifacts are never misread).
    FORMAT_VERSION = 1

    __slots__ = (
        "_statics", "_static", "_operand_values", "_producers", "_offsets",
        "_result_value", "_address", "_object_name", "_element_index",
        "_writer_id", "_taken_label", "_cols", "_event_cache",
    )

    def __init__(self) -> None:
        self._statics = _StaticTable()
        #: per event: index of its record in ``_statics.records``.
        self._static = array("i")
        self._operand_values: List[object] = []
        self._producers = array("q")
        self._offsets = array("q", [0])
        self._result_value: List[Optional[object]] = []
        self._address = array("q")
        self._object_name: List[Optional[str]] = []
        self._element_index = array("q")
        self._writer_id = array("q")
        self._taken_label: List[Optional[str]] = []
        self._cols: Optional[TraceColumns] = None
        self._event_cache: Dict[int, TraceEvent] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def recorder(self, start: int) -> tuple:
        """The bound appends the engine's op loop records events through.

        Returns ``(statics, static, values, producers, offset, n_values,
        result, address, object_name, element, writer, taken)``.  For each
        executed op, in order: ``static(statics[op])`` (``op`` is a
        ``DecodedOp``), ``values(operand values)``, ``producers(producer
        ids)``, ``offset(n_values())``, then one call each of ``result``,
        ``address``, ``object_name``, ``element``, ``writer`` and
        ``taken`` (``-1`` for a missing address or element index).

        ``start`` is the dynamic id of the first op to record; it must
        continue the trace.
        """
        if start != len(self._static):
            raise ValueError(
                f"trace recording must continue at event {len(self._static)}, "
                f"not {start}"
            )
        self._cols = None
        return (
            self._statics, self._static.append, self._operand_values.extend,
            self._producers.extend, self._offsets.append,
            self._operand_values.__len__, self._result_value.append,
            self._address.append, self._object_name.append,
            self._element_index.append, self._writer_id.append,
            self._taken_label.append,
        )

    def append(self, event: TraceEvent) -> None:
        """Add ``event``, which must be the next one (``dynamic_id``)."""
        if event.dynamic_id != len(self._static):
            raise ValueError(
                f"trace events must be appended in order: expected id "
                f"{len(self._static)}, got {event.dynamic_id}"
            )
        values = event.operand_values
        if not (len(values) == len(event.operand_types)
                == len(event.operand_producers) == len(event.operand_kinds)):
            raise ValueError(
                f"event {event.dynamic_id}: operand values, types, producers "
                f"and kinds differ in length"
            )
        self._cols = None
        self._static.append(self._statics.index(_static_record(event)))
        self._operand_values.extend(values)
        self._producers.extend(event.operand_producers)
        self._offsets.append(len(self._operand_values))
        self._result_value.append(event.result_value)
        self._address.append(-1 if event.address is None else event.address)
        self._object_name.append(event.object_name)
        self._element_index.append(
            -1 if event.element_index is None else event.element_index
        )
        self._writer_id.append(event.writer_id)
        self._taken_label.append(event.taken_label)

    @classmethod
    def from_events(cls, events) -> "ColumnarTrace":
        """Build a columnar trace from any iterable of events."""
        trace = cls()
        for event in events:
            trace.append(event)
        return trace

    # ------------------------------------------------------------------ #
    # read access: len / getitem by dynamic id / iter
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._static)

    def __getitem__(self, dynamic_id: int) -> TraceEvent:
        if dynamic_id < 0:
            dynamic_id += len(self._static)
        cached = self._event_cache.get(dynamic_id)
        if cached is not None:
            return cached
        event = self._materialize(dynamic_id)
        # Memoise random access only: analyses revisit the same dynamic
        # windows (propagation, masking), while full iterations (__iter__)
        # must not pin an event-object copy of the whole trace.
        self._event_cache[dynamic_id] = event
        return event

    def _materialize(self, dynamic_id: int) -> TraceEvent:
        if not 0 <= dynamic_id < len(self._static):
            raise IndexError(f"trace index {dynamic_id} out of range")
        (opcode, function, block, static_uid, source_line, operand_types,
         operand_kinds, result_type, predicate, callee) = (
            self._statics.records[self._static[dynamic_id]]
        )
        lo = self._offsets[dynamic_id]
        hi = self._offsets[dynamic_id + 1]
        address = self._address[dynamic_id]
        element_index = self._element_index[dynamic_id]
        return TraceEvent(
            dynamic_id=dynamic_id,
            opcode=opcode,
            function=function,
            block=block,
            static_uid=static_uid,
            source_line=source_line,
            operand_values=tuple(self._operand_values[lo:hi]),
            operand_types=operand_types,
            operand_producers=tuple(self._producers[lo:hi]),
            operand_kinds=operand_kinds,
            result_value=self._result_value[dynamic_id],
            result_type=result_type,
            predicate=predicate,
            callee=callee,
            address=None if address < 0 else address,
            object_name=self._object_name[dynamic_id],
            element_index=None if element_index < 0 else element_index,
            writer_id=self._writer_id[dynamic_id],
            taken_label=self._taken_label[dynamic_id],
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        cache_get = self._event_cache.get
        for dynamic_id in range(len(self._static)):
            yield cache_get(dynamic_id) or self._materialize(dynamic_id)

    # ------------------------------------------------------------------ #
    # cheap per-field accessors (used by the vectorized passes to avoid
    # materialising whole events)
    # ------------------------------------------------------------------ #
    def opcode_of(self, dynamic_id: int) -> Opcode:
        return self._statics.records[self._static[dynamic_id]][_OPCODE]

    def static_uid_of(self, dynamic_id: int) -> int:
        return self._statics.records[self._static[dynamic_id]][_UID]

    def element_index_of(self, dynamic_id: int) -> Optional[int]:
        element_index = self._element_index[dynamic_id]
        return None if element_index < 0 else element_index

    def operand_count(self, dynamic_id: int) -> int:
        return self._offsets[dynamic_id + 1] - self._offsets[dynamic_id]

    def operand_value(self, dynamic_id: int, index: int):
        return self._operand_values[self._offsets[dynamic_id] + index]

    def operand_type(self, dynamic_id: int, index: int):
        return self._statics.records[self._static[dynamic_id]][_TYPES][index]

    def operand_producers_of(self, dynamic_id: int) -> List[int]:
        lo = self._offsets[dynamic_id]
        hi = self._offsets[dynamic_id + 1]
        return self._producers[lo:hi].tolist()

    def object_name_of(self, dynamic_id: int) -> Optional[str]:
        return self._object_name[dynamic_id]

    # ------------------------------------------------------------------ #
    # column views
    # ------------------------------------------------------------------ #
    def _index(self) -> np.ndarray:
        """The per-event static index as a NumPy view."""
        return np.frombuffer(self._static, dtype=np.intc)

    def positions_of(self, static_uids: Iterable[int]) -> Dict[int, List[int]]:
        """The ascending dynamic ids at which each op of ``static_uids``
        executed, read from the static-op column (ops that never ran are
        left out)."""
        by_uid = self._statics.by_uid
        wanted = [uid for uid in static_uids if by_uid.get(uid)]
        if not wanted:
            return {}
        label = np.full(len(self._statics.records), -1, dtype=np.int64)
        for k, uid in enumerate(wanted):
            label[by_uid[uid]] = k
        labels = label[self._index()]
        hits = np.flatnonzero(labels >= 0)
        hit_labels = labels[hits]
        grouped = hits[np.argsort(hit_labels, kind="stable")].tolist()
        counts = np.bincount(hit_labels, minlength=len(wanted)).tolist()
        positions: Dict[int, List[int]] = {}
        start = 0
        for uid, count in zip(wanted, counts):
            positions[uid] = grouped[start:start + count]
            start += count
        return positions

    def _operand_positions(self, owner: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Each flattened operand's position in the records' operands,
        flattened in record order (the layout of :meth:`_record_operands`)."""
        records = self._statics.records
        starts = np.zeros(len(records), dtype=np.int64)
        np.cumsum([len(r[_TYPES]) for r in records[:-1]], out=starts[1:])
        return (
            starts[self._index()][owner]
            + np.arange(len(owner), dtype=np.int64) - offsets[owner]
        )

    def _record_operands(self, field: int) -> list:
        """Field ``field`` (types or kinds) of every record's operands."""
        return [value for r in self._statics.records for value in r[field]]

    def columns(self) -> TraceColumns:
        """NumPy views over the integer columns.

        Built lazily, cached until the next append.  The dynamic integer
        columns are zero-copy views of the trace's buffers; the static
        ones are gathered through the per-event record index.
        """
        if self._cols is not None:
            return self._cols
        records = self._statics.records
        index = self._index()
        offsets = np.frombuffer(self._offsets, dtype=np.int64)
        owner = np.repeat(
            np.arange(len(index), dtype=np.int64), np.diff(offsets)
        )
        kind_codes = np.array(
            [_KIND_CODE[k] for k in self._record_operands(_KINDS)],
            dtype=np.int8,
        )
        object_ids, object_vocab = _intern(self._object_name)
        self._cols = TraceColumns(
            opcode=np.array(
                [_OPCODE_CODE[r[_OPCODE]] for r in records], dtype=np.int16
            )[index],
            static_uid=np.array(
                [r[_UID] for r in records], dtype=np.int64
            )[index],
            address=np.frombuffer(self._address, dtype=np.int64),
            object_id=object_ids.astype(np.int64),
            element=np.frombuffer(self._element_index, dtype=np.int64),
            offsets=offsets,
            producers=np.frombuffer(self._producers, dtype=np.int64),
            kinds=kind_codes[self._operand_positions(owner, offsets)],
            owner=owner,
            object_index={name: i for i, name in enumerate(object_vocab.tolist())},
        )
        return self._cols

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def opcode_histogram(self) -> Dict[str, int]:
        counts = np.bincount(self._index(), minlength=len(self._statics.records))
        histogram: Dict[str, int] = {}
        for record, count in zip(self._statics.records, counts.tolist()):
            if count:
                key = record[_OPCODE].value
                histogram[key] = histogram.get(key, 0) + count
        return histogram

    def addresses(self) -> List[Tuple[int, int]]:
        """``(dynamic_id, address)`` for every memory access, in order."""
        return [
            (i, address)
            for i, address in enumerate(self._address)
            if address >= 0
        ]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace to ``path`` as an uncompressed ``.npz`` artifact.

        The artifact is left uncompressed: for cg it is ~1 MB instead of
        ~80 KB, but it saves about twice as fast and loads without
        inflating.  :meth:`load` reads compressed artifacts as well.

        Writes go through a uniquely named temp file in the target
        directory plus an atomic rename, so a crashed writer never leaves a
        truncated artifact behind and concurrent writers of the same path
        (e.g. two campaign processes missing the same cache digest) cannot
        interleave — the last complete rename wins, and both artifacts are
        identical.
        """
        import tempfile

        path = Path(path)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent or None
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **self._to_arrays())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ColumnarTrace":
        """Read a trace previously written by :meth:`save`.

        The file is opened with ``allow_pickle=False``, and its object
        columns unpickle NumPy's array globals only (:func:`_column`): a
        file that is no ``.npz`` raises :class:`ValueError`, a pickle
        naming another global :class:`pickle.UnpicklingError`.
        """
        with np.load(Path(path), allow_pickle=False) as data:
            trace = cls._from_arrays({key: _column(data, key) for key in data.files})
        trace.columns()  # seal the views while the artifact is hot
        return trace

    # ------------------------------------------------------------------ #
    def _to_arrays(self) -> Dict[str, object]:
        records = self._statics.records
        index = self._index()
        cols = self.columns()
        positions = self._operand_positions(cols.owner, cols.offsets)

        def static(field, encode=None):
            values = [r[field] for r in records]
            return _gather_intern(
                index, values if encode is None else list(map(encode, values))
            )

        def type_name(t):
            return None if t is None else t.name

        opcode_ids, opcode_vocab = static(_OPCODE, lambda op: op.value)
        function_ids, function_vocab = static(_FUNCTION)
        block_ids, block_vocab = static(_BLOCK)
        predicate_ids, predicate_vocab = static(_PREDICATE)
        callee_ids, callee_vocab = static(_CALLEE)
        result_type_ids, type_vocab_b = static(_RESULT_TYPE, type_name)
        kind_ids, kind_vocab = _gather_intern(
            positions, [k.value for k in self._record_operands(_KINDS)]
        )
        operand_type_ids, type_vocab_a = _gather_intern(
            positions, list(map(type_name, self._record_operands(_TYPES)))
        )
        object_ids, object_vocab = _intern(self._object_name)
        taken_ids, taken_vocab = _intern(self._taken_label)
        return {
            "version": np.array([self.FORMAT_VERSION], dtype=np.int64),
            "opcode": opcode_ids, "opcode_vocab": opcode_vocab,
            "function": function_ids, "function_vocab": function_vocab,
            "block": block_ids, "block_vocab": block_vocab,
            "static_uid": cols.static_uid,
            "source_line": np.array(
                [-1 if r[_LINE] is None else r[_LINE] for r in records],
                dtype=np.int64,
            )[index],
            "operand_values": np.array(self._operand_values, dtype=object),
            "operand_types": operand_type_ids,
            "operand_type_vocab": type_vocab_a,
            "operand_producers": cols.producers,
            "operand_kinds": kind_ids, "kind_vocab": kind_vocab,
            "operand_offsets": cols.offsets,
            "result_value": np.array(self._result_value, dtype=object),
            "result_type": result_type_ids, "result_type_vocab": type_vocab_b,
            "predicate": predicate_ids, "predicate_vocab": predicate_vocab,
            "callee": callee_ids, "callee_vocab": callee_vocab,
            "address": cols.address,
            "object_name": object_ids, "object_vocab": object_vocab,
            "element_index": cols.element,
            "writer_id": np.frombuffer(self._writer_id, dtype=np.int64),
            "taken_label": taken_ids, "taken_vocab": taken_vocab,
        }

    @classmethod
    def _from_arrays(cls, data) -> "ColumnarTrace":
        version = int(data["version"][0])
        if version != cls.FORMAT_VERSION:
            raise ValueError(
                f"trace artifact has format version {version}, this build "
                f"expects {cls.FORMAT_VERSION}"
            )
        trace = cls()
        offsets = data["operand_offsets"]
        uid = data["static_uid"]
        _check_lengths(data, len(uid), offsets)
        # the per-event static columns besides the uid and the flat
        # operand types and kinds
        statics = {
            key: data[key]
            for key in ("opcode", "function", "block", "source_line",
                        "result_type", "predicate", "callee")
        }
        types = data["operand_types"]
        kinds = data["operand_kinds"]

        # One record per static_uid, taken from its first event, for every
        # event whose static fields all equal that event's; the others (a
        # hand-built trace may reuse a uid) get records of their own.
        _, first, inverse = np.unique(uid, return_index=True, return_inverse=True)
        rep = first[inverse]
        counts = np.diff(offsets)
        same = counts == counts[rep]
        for column in statics.values():
            same &= column == column[rep]
        owner = np.repeat(np.arange(len(uid), dtype=np.int64), counts)
        source = np.arange(len(types), dtype=np.int64)
        aligned = same[owner]
        source[aligned] += (offsets[rep] - offsets[:-1])[owner[aligned]]
        differs = (types != types[source]) | (kinds != kinds[source])
        same[owner[differs]] = False

        opcodes = [Opcode(v) for v in data["opcode_vocab"].tolist()]
        kind_table = [OperandKind(v) for v in data["kind_vocab"].tolist()]
        type_table = [parse_type(v) for v in data["operand_type_vocab"].tolist()]
        result_types = [parse_type(v) for v in data["result_type_vocab"].tolist()]
        vocab = {
            key: data[key + "_vocab"].tolist()
            for key in ("function", "block", "predicate", "callee")
        }

        def record_of(event: int) -> tuple:
            def named(key):
                i = int(statics[key][event])
                return None if i < 0 else vocab[key][i]

            lo, hi = int(offsets[event]), int(offsets[event + 1])
            line = int(statics["source_line"][event])
            rtype = int(statics["result_type"][event])
            return (
                opcodes[statics["opcode"][event]], named("function"),
                named("block"), int(uid[event]), None if line < 0 else line,
                tuple(type_table[t] for t in types[lo:hi].tolist()),
                tuple(kind_table[k] for k in kinds[lo:hi].tolist()),
                None if rtype < 0 else result_types[rtype],
                named("predicate"), named("callee"),
            )

        table = trace._statics
        groups = [table.index(record_of(event)) for event in first.tolist()]
        index = np.array(groups, dtype=np.intc)[inverse]
        for event in np.flatnonzero(~same).tolist():
            index[event] = table.index(record_of(event))

        trace._static.frombytes(memoryview(index).cast("B"))
        trace._operand_values = data["operand_values"].tolist()
        trace._producers = _int64_buffer(data["operand_producers"])
        trace._offsets = _int64_buffer(offsets)
        trace._result_value = data["result_value"].tolist()
        trace._address = _int64_buffer(data["address"])
        trace._object_name = _decode(data["object_name"], data["object_vocab"])
        trace._element_index = _int64_buffer(data["element_index"])
        trace._writer_id = _int64_buffer(data["writer_id"])
        trace._taken_label = _decode(data["taken_label"], data["taken_vocab"])
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnarTrace: {len(self)} events>"


#: Artifact columns with one entry per event, and with one per operand.
_EVENT_COLUMNS = (
    "opcode", "function", "block", "static_uid", "source_line",
    "result_value", "result_type", "predicate", "callee", "address",
    "object_name", "element_index", "writer_id", "taken_label",
)
_OPERAND_COLUMNS = (
    "operand_values", "operand_types", "operand_producers", "operand_kinds",
)


def _check_lengths(data, events: int, offsets) -> None:
    """Raise :class:`ValueError` unless the artifact's columns agree:
    every per-event column holds ``events`` entries, ``operand_offsets``
    holds ``events + 1`` non-decreasing offsets from 0 to the flat operand
    count, and every flat operand column holds that many."""
    short = [key for key in _EVENT_COLUMNS if len(data[key]) != events]
    if short:
        raise ValueError(
            f"trace artifact columns {short} disagree with its {events} events"
        )
    if (
        len(offsets) != events + 1
        or offsets[0] != 0
        or (events and bool((np.diff(offsets) < 0).any()))
    ):
        raise ValueError(
            f"trace artifact has {len(offsets)} operand offsets for {events} "
            f"events"
        )
    operands = int(offsets[-1])
    short = [key for key in _OPERAND_COLUMNS if len(data[key]) != operands]
    if short:
        raise ValueError(
            f"trace artifact columns {short} disagree with its {operands} "
            f"operands"
        )

