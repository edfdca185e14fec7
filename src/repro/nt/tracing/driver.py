"""The trace filter driver (§3.2).

Attached on top of each local file-system volume device and the network
redirector, it records every IRP and FastIO call that passes through —
including the VM manager's PagingIO duplicates, which the paper chose to
record and filter during analysis (§3.3).  It implements full FastIO
pass-through: a filter that failed to do so would sever the I/O manager's
route to the cache manager (§10).

Records are staged as columnar rows in a
:class:`~repro.nt.tracing.fastbuf.FastRecordBuffer` — no per-event
dataclass exists on the hot path — and reach the collector one
3,000-record block at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.status import NtStatus
from repro.nt.flight.profiler import BIN_TRACE_FILTER
from repro.nt.io.driver import DeviceObject, Driver
from repro.nt.io.fastio import FastIoOp, FastIoResult
from repro.nt.io.irp import Irp, IrpMajor, IrpMinor
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import FastRecordBuffer
from repro.nt.tracing.records import NameRecord, kind_for_fastio, kind_for_irp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.io.iomanager import IoManager

_SET_INFORMATION = IrpMajor.SET_INFORMATION


class TraceFilterDriver(Driver):
    """Records all requests, then forwards them down the stack."""

    name = "tracefilter"

    def __init__(self, io: "IoManager", collector: TraceCollector) -> None:
        super().__init__(io)
        self.collector = collector
        self.buffer = FastRecordBuffer(self._flush_block)
        self._named_fo_ids: set[int] = set()
        self.enabled = True
        perf = io.machine.perf
        self._perf = perf
        self._perf_records = perf.counter("trace.records")
        self._perf_flushes = perf.counter("trace.buffer_flushes")
        # Requests that passed through while tracing was disabled.
        self._perf_dropped = perf.counter("trace.dropped")

    def _flush_block(self, block) -> None:
        if self._perf.enabled:
            self._perf_flushes.add(1)
        self.collector.receive_block(block)

    # ------------------------------------------------------------------ #

    def dispatch(self, irp: Irp, device: DeviceObject) -> NtStatus:
        profiler = self._profiler
        prof_on = profiler.enabled
        if prof_on:
            profiler.enter(BIN_TRACE_FILTER)
        try:
            if not self.enabled:
                if self._perf.enabled:
                    self._perf_dropped.add(1)
                return self.forward_irp(irp, device)
            if (irp.major == IrpMajor.CREATE
                    or irp.minor == IrpMinor.MOUNT_VOLUME):
                self._ensure_name_record(irp)
            status = self.forward_irp(irp, device)
            self._append(int(kind_for_irp(irp)), irp)
            if self._perf.enabled:
                self._perf_records.add(1)
            return status
        finally:
            if prof_on:
                profiler.exit()

    def fastio(self, op: FastIoOp, irp_like: Irp,
               device: DeviceObject) -> FastIoResult:
        profiler = self._profiler
        prof_on = profiler.enabled
        if prof_on:
            profiler.enter(BIN_TRACE_FILTER)
        try:
            result = self.forward_fastio(op, irp_like, device)
            if self.enabled and result.handled:
                # Completed FastIO calls carry their outcome in the result
                # structure, not the parameter block; copy it so the record
                # logs the bytes actually transferred.
                irp_like.status = result.status
                irp_like.returned = result.returned
                self._append(int(kind_for_fastio(op)), irp_like)
                if self._perf.enabled:
                    self._perf_records.add(1)
            elif not self.enabled and result.handled and self._perf.enabled:
                self._perf_dropped.add(1)
            return result
        finally:
            if prof_on:
                profiler.exit()

    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Drain buffered records to the collector (end of run)."""
        self.buffer.drain()

    def _ensure_name_record(self, irp: Irp) -> None:
        fo = irp.file_object
        if fo is None or fo.fo_id in self._named_fo_ids:
            return
        self._named_fo_ids.add(fo.fo_id)
        self.collector.receive_name(NameRecord(
            fo_id=fo.fo_id,
            path=fo.path,
            volume_label=fo.volume.label,
            volume_is_remote=fo.volume.is_remote,
            pid=fo.process_id,
            t=self.io.machine.clock.now,
        ))

    def _append(self, kind: int, irp: Irp) -> None:
        """Stage one record as a columnar row (no dataclass allocation).

        The row's 15 fields are
        :class:`~repro.nt.tracing.records.TraceRecord`'s, in field order.
        """
        machine = self.io.machine
        # The filter sees the request complete before the I/O manager
        # stamps it, so stamp the completion time here.
        now = machine.clock.now
        irp.t_complete = now
        # SET_INFORMATION carries its argument (new size, or the delete
        # disposition flag) where data operations carry a length.
        length = (irp.set_size if irp.major == _SET_INFORMATION
                  else irp.length)
        fo = irp.file_object
        if fo is not None:
            fo_id = fo.fo_id
            node = fo.node
            file_size = getattr(node, "size", 0) if node is not None else 0
        else:
            fo_id = 0
            file_size = 0
        self.buffer.append_row((
            kind, fo_id, irp.process_id, irp.t_start, now,
            int(irp.status), int(irp.flags), irp.offset, length,
            irp.returned, file_size, int(irp.create_disposition),
            int(irp.create_options), int(irp.create_attributes),
            int(irp.information_class) or int(irp.control_code)))
        spans = machine.spans
        if spans.enabled:
            spans.mark_recorded_length(length)
