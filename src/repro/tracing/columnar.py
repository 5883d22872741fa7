"""The columnar trace store (struct-of-arrays): the one golden-trace form.

:class:`ColumnarTrace` is the shared, durable representation of a golden
execution: events are decomposed into parallel per-field columns (CSR-style
for the variable-length operand fields), NumPy views over the hot integer
columns are materialised on demand for the vectorized analysis passes
(:mod:`repro.core.passes`), and the whole trace round-trips through a
``.npz`` artifact so golden traces become cacheable assets shared between
campaign runs and worker processes (:mod:`repro.tracing.cache`).

Three consumption styles, one object:

* **sink** — the execution engine streams events in: one :meth:`append`
  per event from the op loop, which runs every traced run on either
  backend;
* **trace-like** — ``len`` / integer indexing / iteration reconstruct
  :class:`~repro.tracing.events.TraceEvent` views (memoised, so analyses
  that revisit the same dynamic window pay the materialisation once);
* **columns** — :meth:`columns` exposes the integer columns as NumPy arrays
  (opcodes, object ids, element indices, producer links, operand kinds,
  CSR offsets) for array-at-a-time passes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.ir.instructions import Opcode
from repro.ir.types import parse_type

from repro.tracing.events import OperandKind, TraceEvent

#: Stable in-process opcode/kind code tables (persisted artifacts carry their
#: own string vocabularies and are remapped on load, so the numeric codes
#: never leak out of the process).
_OPCODES: List[Opcode] = list(Opcode)
_OPCODE_CODE: Dict[Opcode, int] = {op: i for i, op in enumerate(_OPCODES)}
_KINDS: List[OperandKind] = list(OperandKind)
_KIND_CODE: Dict[OperandKind, int] = {k: i for i, k in enumerate(_KINDS)}
#: The same codes keyed by ``id(member)``: enum members are singletons, and
#: an int key hashes in C where ``Enum.__hash__`` is a Python call per event.
_OPCODE_CODE_BY_ID: Dict[int, int] = {id(op): i for op, i in _OPCODE_CODE.items()}
_KIND_CODE_BY_ID: Dict[int, int] = {id(k): i for k, i in _KIND_CODE.items()}

LOAD_CODE = _OPCODE_CODE[Opcode.LOAD]
STORE_CODE = _OPCODE_CODE[Opcode.STORE]
INSTRUCTION_KIND_CODE = _KIND_CODE[OperandKind.INSTRUCTION]


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


def _intern_codes(codes: np.ndarray, members: list) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_intern` of an enum column given as in-process codes.

    ``members[code]`` is the enum member of ``code``; the vocabulary holds
    the ``.value`` strings of the members used, in first-use order.
    """
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first)]
    remap = np.zeros(len(members), dtype=np.int32)
    remap[used] = np.arange(len(used), dtype=np.int32)
    vocab = [members[code].value for code in used.tolist()]
    return remap[codes], np.array(vocab, dtype=object)


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


class ColumnarTrace:
    """Compact columnar event storage with array views and persistence.

    The only trace the engine records and the analyses read: an ordered
    event sink (``dynamic_id`` equals position), trace-like event
    reconstruction, :meth:`columns`, :meth:`save`/:meth:`load` and event
    memoisation.
    """

    #: Bumped when the persisted column layout changes (participates in the
    #: trace-cache digest so stale artifacts are never misread).
    FORMAT_VERSION = 1

    __slots__ = (
        "_opcode", "_function", "_block", "_static_uid", "_source_line",
        "_operand_data", "_operand_types", "_operand_producers",
        "_operand_kinds", "_operand_offsets",
        "_result_value", "_result_type", "_predicate", "_callee",
        "_address", "_object_name", "_element_index", "_writer_id",
        "_taken_label", "_cols", "_event_cache",
    )

    def __init__(self) -> None:
        self._opcode: List[Opcode] = []
        self._function: List[str] = []
        self._block: List[str] = []
        self._static_uid: List[int] = []
        self._source_line: List[Optional[int]] = []
        self._operand_data: List[object] = []
        self._operand_types: List[object] = []
        self._operand_producers: List[int] = []
        self._operand_kinds: List[OperandKind] = []
        self._operand_offsets: List[int] = [0]
        self._result_value: List[Optional[object]] = []
        self._result_type: List[Optional[object]] = []
        self._predicate: List[Optional[str]] = []
        self._callee: List[Optional[str]] = []
        self._address: List[Optional[int]] = []
        self._object_name: List[Optional[str]] = []
        self._element_index: List[Optional[int]] = []
        self._writer_id: List[int] = []
        self._taken_label: List[Optional[str]] = []
        self._cols: Optional[TraceColumns] = None
        self._event_cache: Dict[int, TraceEvent] = {}

    # ------------------------------------------------------------------ #
    # sink protocol
    # ------------------------------------------------------------------ #
    def append(self, event: TraceEvent) -> None:
        if event.dynamic_id != len(self._opcode):
            raise ValueError(
                f"trace events must be appended in order: expected id "
                f"{len(self._opcode)}, got {event.dynamic_id}"
            )
        self._cols = None
        self._opcode.append(event.opcode)
        self._function.append(event.function)
        self._block.append(event.block)
        self._static_uid.append(event.static_uid)
        self._source_line.append(event.source_line)
        self._operand_data.extend(event.operand_values)
        self._operand_types.extend(event.operand_types)
        self._operand_producers.extend(event.operand_producers)
        self._operand_kinds.extend(event.operand_kinds)
        self._operand_offsets.append(len(self._operand_data))
        self._result_value.append(event.result_value)
        self._result_type.append(event.result_type)
        self._predicate.append(event.predicate)
        self._callee.append(event.callee)
        self._address.append(event.address)
        self._object_name.append(event.object_name)
        self._element_index.append(event.element_index)
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
    # read access (TraceLike: len / getitem / iter)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._opcode)

    def __getitem__(self, dynamic_id: int) -> TraceEvent:
        if dynamic_id < 0:
            dynamic_id += len(self._opcode)
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
        if not 0 <= dynamic_id < len(self._opcode):
            raise IndexError(f"trace index {dynamic_id} out of range")
        lo = self._operand_offsets[dynamic_id]
        hi = self._operand_offsets[dynamic_id + 1]
        return TraceEvent(
            dynamic_id=dynamic_id,
            opcode=self._opcode[dynamic_id],
            function=self._function[dynamic_id],
            block=self._block[dynamic_id],
            static_uid=self._static_uid[dynamic_id],
            source_line=self._source_line[dynamic_id],
            operand_values=tuple(self._operand_data[lo:hi]),
            operand_types=tuple(self._operand_types[lo:hi]),
            operand_producers=tuple(self._operand_producers[lo:hi]),
            operand_kinds=tuple(self._operand_kinds[lo:hi]),
            result_value=self._result_value[dynamic_id],
            result_type=self._result_type[dynamic_id],
            predicate=self._predicate[dynamic_id],
            callee=self._callee[dynamic_id],
            address=self._address[dynamic_id],
            object_name=self._object_name[dynamic_id],
            element_index=self._element_index[dynamic_id],
            writer_id=self._writer_id[dynamic_id],
            taken_label=self._taken_label[dynamic_id],
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        cache_get = self._event_cache.get
        for dynamic_id in range(len(self._opcode)):
            yield cache_get(dynamic_id) or self._materialize(dynamic_id)

    # ------------------------------------------------------------------ #
    # cheap per-field accessors (used by the vectorized passes to avoid
    # materialising whole events)
    # ------------------------------------------------------------------ #
    def opcode_of(self, dynamic_id: int) -> Opcode:
        return self._opcode[dynamic_id]

    def static_uid_of(self, dynamic_id: int) -> int:
        return self._static_uid[dynamic_id]

    def element_index_of(self, dynamic_id: int) -> Optional[int]:
        return self._element_index[dynamic_id]

    def operand_count(self, dynamic_id: int) -> int:
        return self._operand_offsets[dynamic_id + 1] - self._operand_offsets[dynamic_id]

    def operand_value(self, dynamic_id: int, index: int):
        return self._operand_data[self._operand_offsets[dynamic_id] + index]

    def operand_type(self, dynamic_id: int, index: int):
        return self._operand_types[self._operand_offsets[dynamic_id] + index]

    def operand_producers_of(self, dynamic_id: int) -> List[int]:
        lo = self._operand_offsets[dynamic_id]
        hi = self._operand_offsets[dynamic_id + 1]
        return self._operand_producers[lo:hi]

    def object_name_of(self, dynamic_id: int) -> Optional[str]:
        return self._object_name[dynamic_id]

    # ------------------------------------------------------------------ #
    # column views
    # ------------------------------------------------------------------ #
    def columns(self) -> TraceColumns:
        """NumPy views over the integer columns.

        Built lazily, cached until the next :meth:`append`.
        """
        if self._cols is not None:
            return self._cols
        n = len(self._opcode)
        flat = len(self._operand_producers)
        object_ids, object_vocab = _intern(self._object_name)
        offsets = np.fromiter(self._operand_offsets, dtype=np.int64, count=n + 1)
        self._cols = TraceColumns(
            opcode=np.fromiter(
                map(_OPCODE_CODE_BY_ID.__getitem__, map(id, self._opcode)),
                dtype=np.int16, count=n,
            ),
            static_uid=np.fromiter(self._static_uid, dtype=np.int64, count=n),
            address=np.fromiter(
                (-1 if a is None else a for a in self._address),
                dtype=np.int64, count=n,
            ),
            object_id=object_ids.astype(np.int64),
            element=np.fromiter(
                (-1 if e is None else e for e in self._element_index),
                dtype=np.int64, count=n,
            ),
            offsets=offsets,
            producers=np.fromiter(
                self._operand_producers, dtype=np.int64, count=flat
            ),
            kinds=np.fromiter(
                map(_KIND_CODE_BY_ID.__getitem__, map(id, self._operand_kinds)),
                dtype=np.int8, count=flat,
            ),
            owner=np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets)),
            object_index={name: i for i, name in enumerate(object_vocab.tolist())},
        )
        return self._cols

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def opcode_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for opcode in self._opcode:
            histogram[opcode.value] = histogram.get(opcode.value, 0) + 1
        return histogram

    def addresses(self) -> List[Tuple[int, int]]:
        """``(dynamic_id, address)`` for every memory access, in order."""
        return [
            (i, address)
            for i, address in enumerate(self._address)
            if address is not None
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
        """Read a trace previously written by :meth:`save`."""
        # our own artifact: object columns hold only numbers/None.
        with np.load(Path(path), allow_pickle=True) as data:
            trace = cls._from_arrays(data)
        trace.columns()  # seal the views while the artifact is hot
        return trace

    # ------------------------------------------------------------------ #
    def _to_arrays(self) -> Dict[str, object]:
        n = len(self._opcode)
        cols = self.columns()
        opcode_ids, opcode_vocab = _intern_codes(cols.opcode, _OPCODES)
        kind_ids, kind_vocab = _intern_codes(cols.kinds, _KINDS)
        function_ids, function_vocab = _intern(self._function)
        block_ids, block_vocab = _intern(self._block)
        predicate_ids, predicate_vocab = _intern(self._predicate)
        callee_ids, callee_vocab = _intern(self._callee)
        object_ids, object_vocab = _intern(self._object_name)
        taken_ids, taken_vocab = _intern(self._taken_label)
        operand_type_ids, type_vocab_a = _intern(
            [None if t is None else t.name for t in self._operand_types]
        )
        result_type_ids, type_vocab_b = _intern(
            [None if t is None else t.name for t in self._result_type]
        )
        return {
            "version": np.array([self.FORMAT_VERSION], dtype=np.int64),
            "opcode": opcode_ids, "opcode_vocab": opcode_vocab,
            "function": function_ids, "function_vocab": function_vocab,
            "block": block_ids, "block_vocab": block_vocab,
            "static_uid": np.fromiter(self._static_uid, np.int64, n),
            "source_line": np.fromiter(
                (-1 if v is None else v for v in self._source_line), np.int64, n
            ),
            "operand_values": np.array(self._operand_data, dtype=object),
            "operand_types": operand_type_ids,
            "operand_type_vocab": type_vocab_a,
            "operand_producers": np.fromiter(
                self._operand_producers, np.int64, len(self._operand_producers)
            ),
            "operand_kinds": kind_ids, "kind_vocab": kind_vocab,
            "operand_offsets": np.fromiter(self._operand_offsets, np.int64, n + 1),
            "result_value": np.array(self._result_value, dtype=object),
            "result_type": result_type_ids, "result_type_vocab": type_vocab_b,
            "predicate": predicate_ids, "predicate_vocab": predicate_vocab,
            "callee": callee_ids, "callee_vocab": callee_vocab,
            "address": np.fromiter(
                (-1 if v is None else v for v in self._address), np.int64, n
            ),
            "object_name": object_ids, "object_vocab": object_vocab,
            "element_index": np.fromiter(
                (-1 if v is None else v for v in self._element_index), np.int64, n
            ),
            "writer_id": np.fromiter(self._writer_id, np.int64, n),
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

        def decode(ids, vocab, mapper=None):
            table = [v if mapper is None else mapper(v) for v in vocab.tolist()]
            return [None if i < 0 else table[i] for i in ids.tolist()]

        def optional(array):
            return [None if v < 0 else v for v in array.tolist()]

        trace = cls()
        trace._opcode = decode(data["opcode"], data["opcode_vocab"], Opcode)
        trace._function = decode(data["function"], data["function_vocab"])
        trace._block = decode(data["block"], data["block_vocab"])
        trace._static_uid = data["static_uid"].tolist()
        trace._source_line = optional(data["source_line"])
        trace._operand_data = data["operand_values"].tolist()
        trace._operand_types = decode(
            data["operand_types"], data["operand_type_vocab"], parse_type
        )
        trace._operand_producers = data["operand_producers"].tolist()
        trace._operand_kinds = decode(
            data["operand_kinds"], data["kind_vocab"], OperandKind
        )
        trace._operand_offsets = data["operand_offsets"].tolist()
        trace._result_value = data["result_value"].tolist()
        trace._result_type = decode(
            data["result_type"], data["result_type_vocab"], parse_type
        )
        trace._predicate = decode(data["predicate"], data["predicate_vocab"])
        trace._callee = decode(data["callee"], data["callee_vocab"])
        trace._address = optional(data["address"])
        trace._object_name = decode(data["object_name"], data["object_vocab"])
        trace._element_index = optional(data["element_index"])
        trace._writer_id = data["writer_id"].tolist()
        trace._taken_label = decode(data["taken_label"], data["taken_vocab"])
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnarTrace: {len(self)} events>"
