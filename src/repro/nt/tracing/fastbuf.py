"""Trace record staging (§3.2).

The paper's driver kept three 3,000-record buffers, flushing a full buffer
to the collection server while the next one filled.  An idle system filled
a buffer in an hour; a loaded one in 3–5 seconds.  The simulator keeps the
3,000-record flush granularity (and the buffer-rotation statistics) so the
capacity maths of the paper can be tested, while "flushing" hands a block
to the in-process collector.

Records are staged *columnar*: each record is 15 signed 64-bit fields
appended flat into an ``array('q')`` block, so the simulator's inner loop
allocates no per-record object.  The collector keeps the blocks as its
only record representation: the store encoder packs them — on a
little-endian host a block's ``tobytes()`` is byte-for-byte the
concatenation of the store's ``<15q`` record structs — and
:func:`records_from_block` builds dataclass records when a caller asks
for objects.
Elsewhere the encoder falls back to per-row struct packing.

The same bytes are the analysis layout: :func:`block_frame` views a block
as an ``(n, 15)`` int64 numpy *record frame* (one row per record, columns
in :class:`TraceRecord` field order) without copying it, and the sketch,
the instance builder and the warehouse all work from such frames.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import starmap
from typing import Callable, List

import numpy as np

from repro.nt.tracing.records import TraceRecord

BUFFER_CAPACITY = 3000

# Fields per trace record; must match records.TraceRecord and the store's
# ``<15q>`` record struct.
RECORD_FIELDS = 15
_RECORD = struct.Struct("<15q")
# One staged row as it sits in an array('q') block: native byte order,
# 8-byte fields.
_NATIVE_ROW = struct.Struct("=15q")

# array('q').tobytes() equals the concatenated '<15q' packs only on a
# little-endian host with 8-byte array items; anywhere else pack_block
# falls back to per-row struct packing.
NATIVE_FAST_PACK = sys.byteorder == "little" and array("q").itemsize == 8


def pack_block(block: array) -> bytes:
    """Encode one staged block as the store's packed record bytes."""
    if NATIVE_FAST_PACK:
        return block.tobytes()
    out = bytearray()
    for i in range(0, len(block), RECORD_FIELDS):
        out += _RECORD.pack(*block[i:i + RECORD_FIELDS])
    return bytes(out)


def unpack_block(raw: bytes) -> array:
    """Decode packed ``<15q`` record bytes into one staged block (the
    inverse of :func:`pack_block`)."""
    block = array("q")
    block.frombytes(raw)
    if sys.byteorder != "little":
        block.byteswap()
    return block


def block_frame(block: array) -> np.ndarray:
    """View a staged block as an ``(n, 15)`` int64 record frame (no copy)."""
    return np.frombuffer(block, dtype=np.int64).reshape(-1, RECORD_FIELDS)


def records_from_block(block: array) -> List[TraceRecord]:
    """Materialise a staged block into :class:`TraceRecord` dataclasses."""
    return list(starmap(TraceRecord, _NATIVE_ROW.iter_unpack(block)))


class FastRecordBuffer:
    """Fixed-capacity columnar record staging feeding a flush callback.

    :meth:`append_row` takes a record's 15 fields as a tuple of ints — no
    ``TraceRecord`` object exists on the hot path.  ``rotations`` counts
    flushes of a full block, ``records_seen`` every appended record.
    """

    __slots__ = ("capacity", "_flush", "_buf", "_capacity_fields",
                 "rotations", "records_seen")

    def __init__(self, flush: Callable[[array], None],
                 capacity: int = BUFFER_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._flush = flush
        self.capacity = capacity
        self._capacity_fields = capacity * RECORD_FIELDS
        self._buf = array("q")
        self.rotations = 0
        self.records_seen = 0

    @property
    def active_fill(self) -> int:
        """Records in the currently-filling block."""
        return len(self._buf) // RECORD_FIELDS

    def append_row(self, row: tuple) -> None:
        """Store one record's fields, flushing on a full block."""
        buf = self._buf
        buf.extend(row)
        self.records_seen += 1
        if len(buf) >= self._capacity_fields:
            self.rotations += 1
            self._buf = array("q")
            self._flush(buf)

    def drain(self) -> None:
        """Flush whatever remains (end of a tracing run)."""
        if self._buf:
            buf = self._buf
            self._buf = array("q")
            self._flush(buf)
