"""Property tests for the columnar record buffer.

Hypothesis-free: each property runs against many seeded-random record
sequences (``random.Random(seed)``), so a failure reproduces exactly
from the parametrised seed.  The property under test is always the same
one the archive format depends on: a record stream staged through
:class:`FastRecordBuffer` and packed as columnar blocks is
indistinguishable — byte for byte and record for record — from the
store's ``<15q`` struct packing of each row and from ``TraceRecord(*row)``.
"""

from __future__ import annotations

import random
import struct
import zlib
from array import array

import pytest

from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import (
    BUFFER_CAPACITY,
    RECORD_FIELDS,
    FastRecordBuffer,
    pack_block,
    records_from_block,
)
from repro.nt.tracing.records import TraceRecord
from repro.nt.tracing.store import (
    iter_trace_records,
    pack_collector,
    save_study,
)

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
_EDGE_VALUES = (_I64_MIN, _I64_MAX, 0, -1, 1, 2 ** 32, -(2 ** 32))


def _random_row(rng: random.Random) -> tuple:
    """One record's 15 fields: mixed magnitudes, signs, and extremes."""
    fields = []
    for _ in range(RECORD_FIELDS):
        r = rng.random()
        if r < 0.15:
            fields.append(rng.choice(_EDGE_VALUES))
        elif r < 0.3:
            fields.append(rng.randrange(_I64_MIN, _I64_MAX + 1))
        else:
            fields.append(rng.randrange(0, 2 ** 32))
    return tuple(fields)


def _staged(rows, capacity):
    """Stage ``rows`` through a record buffer; returns (collector, buffer)."""
    collector = TraceCollector("m00")
    buf = FastRecordBuffer(collector.receive_block, capacity=capacity)
    for row in rows:
        buf.append_row(row)
    return collector, buf


def _struct_packed(rows) -> bytes:
    return b"".join(struct.pack("<15q", *row) for row in rows)


def _reference_payload(rows) -> bytes:
    """The packed payload of a collector "m00" holding only ``rows``,
    spelled out field by field: the machine name, the record count, each
    record's ``<15q`` struct, and zero names, processes and snapshots."""
    return (struct.pack("<I", 3) + b"m00" + struct.pack("<Q", len(rows))
            + _struct_packed(rows) + struct.pack("<3Q", 0, 0, 0))


def _assert_matches_reference(collector, rows):
    blocks = collector.record_blocks
    assert b"".join(pack_block(b) for b in blocks) == _struct_packed(rows)
    assert pack_collector(collector) == _reference_payload(rows)
    # Materialisation yields the very same dataclasses.
    assert collector.records == [TraceRecord(*row) for row in rows]


@pytest.mark.parametrize("seed", range(10))
def test_random_streams_round_trip_identically(seed):
    rng = random.Random(seed)
    capacity = rng.randrange(1, 48)
    n = rng.randrange(0, capacity * 5)
    rows = [_random_row(rng) for _ in range(n)]
    collector, buf = _staged(rows, capacity)
    # Pre-drain statistics (perf.json depends on these).
    assert buf.records_seen == n
    assert buf.rotations == n // capacity
    assert buf.active_fill == n % capacity
    buf.drain()
    assert len(collector) == n
    _assert_matches_reference(collector, rows)


@pytest.mark.parametrize("seed", range(5))
def test_archive_round_trip_through_store(seed, tmp_path):
    """fastbuf -> store encoder -> iter_trace_records == dataclasses."""
    rng = random.Random(100 + seed)
    rows = [_random_row(rng) for _ in range(rng.randrange(1, 400))]
    collector, buf = _staged(rows, capacity=64)
    buf.drain()
    (fast_path,) = save_study([collector], tmp_path / "fast")
    payload = zlib.compress(_reference_payload(rows), level=6)
    assert fast_path.read_bytes() == \
        b"NTTRACE2" + struct.pack("<Q", len(payload)) + payload
    decoded = list(iter_trace_records(fast_path))
    assert decoded == [TraceRecord(*row) for row in rows]


@pytest.mark.parametrize("n", (0, 1, BUFFER_CAPACITY - 1, BUFFER_CAPACITY,
                               BUFFER_CAPACITY + 1, 2 * BUFFER_CAPACITY,
                               2 * BUFFER_CAPACITY + 1))
def test_flush_boundaries_at_default_capacity(n):
    """Around the 3,000-record block boundary flushes land exactly."""
    rng = random.Random(n)
    rows = [_random_row(rng) for _ in range(n)]
    collector, buf = _staged(rows, BUFFER_CAPACITY)
    assert buf.rotations == n // BUFFER_CAPACITY
    assert buf.active_fill == n % BUFFER_CAPACITY
    assert [len(b) // RECORD_FIELDS for b in collector.record_blocks] == \
        [BUFFER_CAPACITY] * (n // BUFFER_CAPACITY)
    buf.drain()
    _assert_matches_reference(collector, rows)


def test_empty_buffer_edges():
    """Draining an empty buffer flushes nothing, twice in a row."""
    flushed = []
    fbuf = FastRecordBuffer(flushed.append, capacity=4)
    fbuf.drain()
    fbuf.drain()
    assert flushed == []
    # A drain mid-block flushes the partial block and resets the staging.
    row = tuple(range(RECORD_FIELDS))
    fbuf.append_row(row)
    fbuf.drain()
    fbuf.drain()
    assert len(flushed) == 1 and fbuf.active_fill == 0


@pytest.mark.parametrize("seed", range(5))
def test_pack_block_matches_struct_packing(seed):
    """The little-endian memory-copy fast path equals explicit packing."""
    rng = random.Random(200 + seed)
    rows = [_random_row(rng) for _ in range(rng.randrange(1, 50))]
    block = array("q")
    for row in rows:
        block.extend(row)
    explicit = b"".join(struct.pack("<15q", *row) for row in rows)
    assert pack_block(block) == explicit
    assert records_from_block(block) == [TraceRecord(*row) for row in rows]
