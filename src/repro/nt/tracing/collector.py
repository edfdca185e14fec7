"""The trace collection server.

The paper ran three dedicated collection servers storing incoming event
streams in compressed form; here a collector is an in-process sink that
accumulates trace records, name records, per-process names and file-system
snapshots for one machine, ready for the analysis warehouse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.nt.tracing.fastbuf import (
    RECORD_FIELDS,
    block_frame,
    records_from_block,
)
from repro.nt.tracing.records import NameRecord, TraceRecord
from repro.nt.tracing.snapshot import SnapshotRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from array import array

    from repro.nt.tracing.spans import SpanRecord


class TraceCollector:
    """Accumulates one machine's tracing output.

    Trace records arrive as columnar ``array('q')`` blocks from the
    filter's record buffer (:mod:`repro.nt.tracing.fastbuf`) and stay
    staged in :attr:`record_blocks`, the collector's one record
    representation: the store encoder packs the blocks directly, analysis
    reads them as one numpy record frame (:meth:`record_frame`), and
    :attr:`records` builds dataclasses from them on each call.
    """

    def __init__(self, machine_name: str) -> None:
        self.machine_name = machine_name
        # Staged record blocks, in record order.
        self.record_blocks: list["array"] = []
        self.name_records: list[NameRecord] = []
        # Causal span log (repro.nt.tracing.spans); empty unless the
        # machine ran with spans enabled.
        self.span_records: list["SpanRecord"] = []
        # pid -> process image name (the paper attributed requests to the
        # requesting process).
        self.process_names: dict[int, str] = {}
        # pid -> True when the process takes direct user input (for the
        # §7 "92% of accesses come from non-interactive processes" cut).
        self.process_interactive: dict[int, bool] = {}
        # (label, day) -> snapshot record list.
        self.snapshots: list[tuple[str, int, list[SnapshotRecord]]] = []

    @property
    def records(self) -> list[TraceRecord]:
        """All trace records as a new list of dataclasses, record order.

        Built from the staged blocks on every access, so callers that
        only count or scan records should use ``len(collector)`` or
        :meth:`record_frame` instead.
        """
        return [record for block in self.record_blocks
                for record in records_from_block(block)]

    def record_frame(self) -> np.ndarray:
        """Every trace record as one ``(n, 15)`` int64 frame, record order.

        Columns are in :class:`TraceRecord` field order.  A collector
        holding a single staged block (a loaded store file) returns a
        view of it; otherwise the staged blocks are concatenated.  No
        dataclass is materialised.
        """
        chunks = [block_frame(block) for block in self.record_blocks]
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return np.empty((0, RECORD_FIELDS), dtype=np.int64)
        return np.concatenate(chunks)

    def receive_block(self, block: "array") -> None:
        """Accept one flushed columnar record block."""
        self.record_blocks.append(block)

    def receive_name(self, record: NameRecord) -> None:
        """Accept a file-object name record."""
        self.name_records.append(record)

    def receive_span(self, record: "SpanRecord") -> None:
        """Accept one finished causal span."""
        self.span_records.append(record)

    def register_process(self, pid: int, name: str, interactive: bool) -> None:
        """Record the identity of a traced process."""
        self.process_names[pid] = name
        self.process_interactive[pid] = interactive

    def receive_snapshot(self, volume_label: str, when: int,
                         records: list[SnapshotRecord]) -> None:
        """Accept one volume snapshot."""
        self.snapshots.append((volume_label, when, records))

    def __len__(self) -> int:
        return sum(len(block) for block in self.record_blocks) \
            // RECORD_FIELDS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceCollector {self.machine_name}: {len(self)} "
                f"records, {len(self.name_records)} names, "
                f"{len(self.snapshots)} snapshots>")
