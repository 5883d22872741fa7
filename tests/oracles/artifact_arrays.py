"""Per-event reference for ``ColumnarTrace._to_arrays``.

The production encoder gathers the static columns from the trace's
static-op records through its per-event index and interns them with
array passes.  This oracle walks the reconstructed events instead
(``for event in trace``): every value, one dict probe each, first-seen
values appended to the vocabulary.  Both must produce the same ``.npz``
arrays key for key, dtype for dtype and byte for byte, and
:func:`save_compressed` writes an artifact the way the cache wrote them
before it stopped compressing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.tracing.columnar import ColumnarTrace


def _encode(values):
    """String-intern a column: (id array, vocabulary array)."""
    vocab: List[str] = []
    index: Dict[str, int] = {}
    ids = np.empty(len(values), dtype=np.int32)
    for i, value in enumerate(values):
        if value is None:
            ids[i] = -1
            continue
        j = index.get(value)
        if j is None:
            j = index[value] = len(vocab)
            vocab.append(value)
        ids[i] = j
    return ids, np.array(vocab, dtype=object)


def to_arrays(trace: ColumnarTrace) -> Dict[str, object]:
    """The arrays a ``.npz`` trace artifact holds, one value at a time.

    Reads the trace through public event iteration only, so it shares
    nothing with the storage ``_to_arrays`` encodes from.
    """
    events = list(trace)

    def column(field):
        return [getattr(event, field) for event in events]

    def flat(field):
        return [value for event in events for value in getattr(event, field)]

    def optional(field):
        return np.array(
            [-1 if v is None else v for v in column(field)], dtype=np.int64
        )

    def type_names(types):
        return [None if t is None else t.name for t in types]

    offsets = [0]
    for event in events:
        offsets.append(offsets[-1] + len(event.operand_values))
    opcode_ids, opcode_vocab = _encode([op.value for op in column("opcode")])
    kind_ids, kind_vocab = _encode([k.value for k in flat("operand_kinds")])
    function_ids, function_vocab = _encode(column("function"))
    block_ids, block_vocab = _encode(column("block"))
    predicate_ids, predicate_vocab = _encode(column("predicate"))
    callee_ids, callee_vocab = _encode(column("callee"))
    object_ids, object_vocab = _encode(column("object_name"))
    taken_ids, taken_vocab = _encode(column("taken_label"))
    operand_type_ids, type_vocab_a = _encode(type_names(flat("operand_types")))
    result_type_ids, type_vocab_b = _encode(type_names(column("result_type")))
    return {
        "version": np.array([trace.FORMAT_VERSION], dtype=np.int64),
        "opcode": opcode_ids, "opcode_vocab": opcode_vocab,
        "function": function_ids, "function_vocab": function_vocab,
        "block": block_ids, "block_vocab": block_vocab,
        "static_uid": np.array(column("static_uid"), dtype=np.int64),
        "source_line": optional("source_line"),
        "operand_values": np.array(flat("operand_values"), dtype=object),
        "operand_types": operand_type_ids,
        "operand_type_vocab": type_vocab_a,
        "operand_producers": np.array(flat("operand_producers"), dtype=np.int64),
        "operand_kinds": kind_ids, "kind_vocab": kind_vocab,
        "operand_offsets": np.array(offsets, dtype=np.int64),
        "result_value": np.array(column("result_value"), dtype=object),
        "result_type": result_type_ids, "result_type_vocab": type_vocab_b,
        "predicate": predicate_ids, "predicate_vocab": predicate_vocab,
        "callee": callee_ids, "callee_vocab": callee_vocab,
        "address": optional("address"),
        "object_name": object_ids, "object_vocab": object_vocab,
        "element_index": optional("element_index"),
        "writer_id": np.array(column("writer_id"), dtype=np.int64),
        "taken_label": taken_ids, "taken_vocab": taken_vocab,
    }


def save_compressed(trace: ColumnarTrace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as a compressed ``.npz``, the older artifact layout."""
    path = Path(path)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **to_arrays(trace))
    return path
