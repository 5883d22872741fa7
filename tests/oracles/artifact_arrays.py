"""Per-event reference for ``ColumnarTrace._to_arrays``.

The production encoder interns the enum columns from the integer codes of
:meth:`~repro.tracing.columnar.ColumnarTrace.columns` and the string
columns with C-level dict passes.  This oracle is the loop it replaced:
walk every value, probe a dict, append first-seen values to the
vocabulary.  Both must produce the same ``.npz`` arrays key for key,
dtype for dtype and byte for byte, and :func:`save_compressed` writes an
artifact the way the cache wrote them before it stopped compressing.
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
    """The arrays a ``.npz`` trace artifact holds, one value at a time."""
    n = len(trace._opcode)
    opcode_ids, opcode_vocab = _encode([op.value for op in trace._opcode])
    kind_ids, kind_vocab = _encode([k.value for k in trace._operand_kinds])
    function_ids, function_vocab = _encode(trace._function)
    block_ids, block_vocab = _encode(trace._block)
    predicate_ids, predicate_vocab = _encode(trace._predicate)
    callee_ids, callee_vocab = _encode(trace._callee)
    object_ids, object_vocab = _encode(trace._object_name)
    taken_ids, taken_vocab = _encode(trace._taken_label)
    operand_type_ids, type_vocab_a = _encode(
        [None if t is None else t.name for t in trace._operand_types]
    )
    result_type_ids, type_vocab_b = _encode(
        [None if t is None else t.name for t in trace._result_type]
    )
    return {
        "version": np.array([trace.FORMAT_VERSION], dtype=np.int64),
        "opcode": opcode_ids, "opcode_vocab": opcode_vocab,
        "function": function_ids, "function_vocab": function_vocab,
        "block": block_ids, "block_vocab": block_vocab,
        "static_uid": np.fromiter(trace._static_uid, np.int64, n),
        "source_line": np.fromiter(
            (-1 if v is None else v for v in trace._source_line), np.int64, n
        ),
        "operand_values": np.array(trace._operand_data, dtype=object),
        "operand_types": operand_type_ids,
        "operand_type_vocab": type_vocab_a,
        "operand_producers": np.fromiter(
            trace._operand_producers, np.int64, len(trace._operand_producers)
        ),
        "operand_kinds": kind_ids, "kind_vocab": kind_vocab,
        "operand_offsets": np.fromiter(trace._operand_offsets, np.int64, n + 1),
        "result_value": np.array(trace._result_value, dtype=object),
        "result_type": result_type_ids, "result_type_vocab": type_vocab_b,
        "predicate": predicate_ids, "predicate_vocab": predicate_vocab,
        "callee": callee_ids, "callee_vocab": callee_vocab,
        "address": np.fromiter(
            (-1 if v is None else v for v in trace._address), np.int64, n
        ),
        "object_name": object_ids, "object_vocab": object_vocab,
        "element_index": np.fromiter(
            (-1 if v is None else v for v in trace._element_index), np.int64, n
        ),
        "writer_id": np.fromiter(trace._writer_id, np.int64, n),
        "taken_label": taken_ids, "taken_vocab": taken_vocab,
    }


def save_compressed(trace: ColumnarTrace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as a compressed ``.npz``, the older artifact layout."""
    path = Path(path)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **to_arrays(trace))
    return path
