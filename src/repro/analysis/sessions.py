"""Instance (open-close session) reconstruction — §4's second fact table.

One instance per file object: the open parameters, every data operation
(after §3.3's paging-duplicate filtering), the control-operation count,
cleanup/close times, and derived access-pattern classifications.

Paging-duplicate rule (paper §3.3): paging I/O on a file object that also
has direct (non-paging) data operations duplicates cache-manager activity
and is excluded from data-op accounting (but counted, for cache analysis);
paging I/O on a file object with *no* direct data operations is the real
access — executable/DLL image loading or mapped-file faulting — and is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.common.flags import CreateOptions, FileAttributes
from repro.common.sequential import fuzzy_sequential
from repro.nt.tracing.records import (
    CreateResult,
    SetInformationClass,
    TraceEventKind,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.warehouse import TraceWarehouse

# Event kinds that are application-visible control operations; kernel
# synchronisation callbacks (acquire/release pairs) are excluded.
_CONTROL_KINDS = frozenset(int(k) for k in (
    TraceEventKind.IRP_QUERY_INFORMATION,
    TraceEventKind.IRP_SET_INFORMATION,
    TraceEventKind.IRP_QUERY_EA,
    TraceEventKind.IRP_SET_EA,
    TraceEventKind.IRP_QUERY_VOLUME_INFORMATION,
    TraceEventKind.IRP_SET_VOLUME_INFORMATION,
    TraceEventKind.IRP_QUERY_DIRECTORY,
    TraceEventKind.IRP_NOTIFY_CHANGE_DIRECTORY,
    TraceEventKind.IRP_FSCTL_USER_REQUEST,
    TraceEventKind.IRP_FSCTL_VERIFY_VOLUME,
    TraceEventKind.IRP_LOCK_CONTROL,
    TraceEventKind.IRP_QUERY_SECURITY,
    TraceEventKind.IRP_SET_SECURITY,
    TraceEventKind.FASTIO_QUERY_BASIC_INFO,
    TraceEventKind.FASTIO_QUERY_STANDARD_INFO,
    TraceEventKind.FASTIO_QUERY_NETWORK_OPEN_INFO,
    TraceEventKind.FASTIO_QUERY_OPEN,
    TraceEventKind.FASTIO_LOCK,
    TraceEventKind.FASTIO_UNLOCK_SINGLE,
    TraceEventKind.FASTIO_UNLOCK_ALL,
    TraceEventKind.FASTIO_UNLOCK_ALL_BY_KEY,
))

_CREATE = int(TraceEventKind.IRP_CREATE)
_CLEANUP = int(TraceEventKind.IRP_CLEANUP)
_CLOSE = int(TraceEventKind.IRP_CLOSE)
_FLUSH = int(TraceEventKind.IRP_FLUSH_BUFFERS)
_SET_INFORMATION = int(TraceEventKind.IRP_SET_INFORMATION)
_READ_KINDS = frozenset((int(TraceEventKind.IRP_READ),
                         int(TraceEventKind.FASTIO_READ)))
_FASTIO_DATA_KINDS = frozenset((int(TraceEventKind.FASTIO_READ),
                                int(TraceEventKind.FASTIO_WRITE)))
_DATA_KINDS = _READ_KINDS | _FASTIO_DATA_KINDS | {
    int(TraceEventKind.IRP_WRITE)}
_DISPOSITION = int(SetInformationClass.DISPOSITION)
_END_OF_FILE = int(SetInformationClass.END_OF_FILE)


@dataclass
class DataOp:
    """One data operation within an instance."""

    __slots__ = ("t", "is_read", "offset", "returned", "is_fastio",
                 "duration", "is_paging")

    t: int
    is_read: bool
    offset: int
    returned: int
    is_fastio: bool
    duration: int
    is_paging: bool


@dataclass
class Instance:
    """One open-close session of a file object."""

    fo_id: int
    machine_idx: int
    pid: int
    process_name: str
    interactive: bool
    path: str
    extension: str
    volume_label: str
    is_remote: bool
    open_t: int
    open_status: int
    open_duration: int
    create_disposition: int
    create_result: int          # CreateResult value, or -1 on failure
    options: int
    attributes: int
    cleanup_t: int = -1
    close_t: int = -1
    ops: list = field(default_factory=list)        # filtered DataOps
    n_reads: int = 0
    n_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    n_paging_read_irps: int = 0    # cache-duplicate prefetches (excluded)
    n_paging_write_irps: int = 0
    n_control_ops: int = 0
    n_flushes: int = 0
    n_fastio_reads: int = 0
    n_fastio_writes: int = 0
    explicit_delete_t: int = -1
    truncated_to: int = -1        # SetEndOfFile target (kernel or app)
    file_size_max: int = 0
    file_size_open: int = 0
    is_directory_like: bool = False
    image_access: bool = False    # data ops are kept paging I/O

    # ------------------------------------------------------------------ #
    # Derived properties.

    @property
    def open_failed(self) -> bool:
        return self.open_status >= 0xC0000000

    @property
    def has_data(self) -> bool:
        return self.n_reads + self.n_writes > 0

    @property
    def purpose(self) -> str:
        """'data' or 'control' (§8.3's 74% split)."""
        return "data" if self.has_data else "control"

    @property
    def usage(self) -> str:
        """'read-only', 'write-only', 'read-write', or 'none'."""
        if self.n_reads and self.n_writes:
            return "read-write"
        if self.n_reads:
            return "read-only"
        if self.n_writes:
            return "write-only"
        return "none"

    @property
    def session_end_t(self) -> int:
        """When the application-visible session ended (cleanup time)."""
        if self.cleanup_t >= 0:
            return self.cleanup_t
        if self.close_t >= 0:
            return self.close_t
        if self.ops:
            return self.ops[-1].t
        return self.open_t

    @property
    def session_duration(self) -> int:
        """Open-to-cleanup time in ticks (the paper's file open time)."""
        return max(0, self.session_end_t - self.open_t)

    @property
    def close_gap(self) -> int:
        """Cleanup-to-close gap (the two-stage close of §8.1), or -1."""
        if self.cleanup_t < 0 or self.close_t < 0:
            return -1
        return max(0, self.close_t - self.cleanup_t)

    @property
    def bytes_transferred(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def was_created(self) -> bool:
        return self.create_result == int(CreateResult.CREATED)

    @property
    def was_overwrite(self) -> bool:
        return self.create_result in (int(CreateResult.OVERWRITTEN),
                                      int(CreateResult.SUPERSEDED))

    @property
    def temporary(self) -> bool:
        return bool(self.attributes & FileAttributes.TEMPORARY) or \
            bool(self.options & CreateOptions.DELETE_ON_CLOSE)

    # -- access-pattern classification (§6.2) --------------------------- #

    def access_pattern(self) -> str:
        """'whole' / 'sequential' / 'random' over the merged op stream."""
        if not self.ops:
            return "none"
        sequential = True
        prev_end: Optional[int] = None
        for op in self.ops:
            if prev_end is not None and not fuzzy_sequential(prev_end,
                                                             op.offset):
                sequential = False
                break
            prev_end = op.offset + op.returned
        if not sequential:
            return "random"
        starts_at_zero = self.ops[0].offset <= 128
        size = max(self.file_size_max, 1)
        covered = max(self.bytes_read, self.bytes_written)
        if starts_at_zero and covered >= size:
            return "whole"
        return "sequential"

    def sequential_runs(self, reads: bool) -> list[int]:
        """Byte lengths of maximal sequential runs of one op direction."""
        runs: list[int] = []
        current = 0
        prev_end: Optional[int] = None
        for op in self.ops:
            if op.is_read != reads:
                continue
            if prev_end is not None and fuzzy_sequential(prev_end, op.offset):
                current += op.returned
            else:
                if current > 0:
                    runs.append(current)
                current = op.returned
            prev_end = op.offset + op.returned
        if current > 0:
            runs.append(current)
        return runs


# build_instance's event tuple order, as columns of an (n, 15) record
# frame (TraceRecord field order: kind 0, fo_id 1, pid 2, t_start 3,
# t_end 4, status 5, irp_flags 6, offset 7, length 8, returned 9,
# file_size 10, disposition 11, options 12, attributes 13, info 14).
_EVENT_COLUMNS = (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 2)


def frame_instances(frame: np.ndarray, machine_of: Callable[[int], int],
                    file_info: Callable[[int], Optional[tuple]],
                    process_lookup) -> list[Instance]:
    """Build the instances of a record frame, in ascending ``fo_id`` order.

    The one segment walker behind both fact-table paths: the warehouse
    (:func:`build_instances`) and the streaming fold
    (:func:`repro.analysis.streaming.fold_frame`).  A stable
    ``lexsort((t_start, fo_id))`` groups the rows by file object with
    ties in record (append) order; the reordered event columns are
    converted to Python ints once and each file object's slice goes to
    :func:`build_instance`.  ``machine_of(row)`` gives the machine index
    of a frame row, ``file_info(fo_id)`` the ``(path, extension,
    volume_label, is_remote)`` tuple or None.
    """
    if not len(frame):
        return []
    fo_ids = frame[:, 1]
    order = np.lexsort((frame[:, 3], fo_ids))
    events = frame[np.ix_(order, _EVENT_COLUMNS)].tolist()
    sorted_ids = fo_ids[order]
    starts = [0, *(np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1])
                   + 1).tolist()]
    instances: list[Instance] = []
    for start, end, fo_id, first in zip(
            starts, starts[1:] + [len(events)],
            sorted_ids[starts].tolist(), order[starts].tolist()):
        inst = build_instance(machine_of(first), fo_id, events[start:end],
                              file_info(fo_id), process_lookup)
        if inst is not None:
            instances.append(inst)
    return instances


def build_instances(wh: "TraceWarehouse") -> list[Instance]:
    """Group trace records by file object into instances."""
    def file_info(gid: int):
        fdim = wh.file_for(gid)
        return ((fdim.path, fdim.extension, fdim.volume_label,
                 fdim.is_remote) if fdim is not None else None)

    def process_lookup(pid: int):
        proc = wh.process_for(pid)
        return (proc.name, proc.interactive) if proc is not None else None

    machine_idx = wh.machine_idx
    instances = frame_instances(wh.record_frame(),
                                lambda row: int(machine_idx[row]),
                                file_info, process_lookup)
    instances.sort(key=lambda s: (s.machine_idx, s.open_t))
    return instances


def build_instance(machine_idx: int, fo_id: int, events,
                   file_info, process_lookup) -> Optional[Instance]:
    """Build one instance from time-ordered plain event rows.

    This is the single source of truth for instance semantics: the
    warehouse (:func:`build_instances`) and the streaming fold
    (:mod:`repro.analysis.streaming`) both reach it through
    :func:`frame_instances` — which is what makes the streaming sketch
    reconcile *exactly* against the materialized warehouse.

    ``events`` are ``(kind, t_start, t_end, status, irp_flags, offset,
    length, returned, file_size, disposition, options, attributes, info,
    pid)`` rows of ints, sorted by ``t_start`` with a *stable* sort (ties
    keep collector append order).  ``file_info`` is ``(path, extension,
    volume_label, is_remote)`` or None; ``process_lookup(pid)`` returns
    ``(name, interactive)`` or None.
    """
    create = None
    for ev in events:
        if ev[0] == _CREATE:
            create = ev
            break
    if create is None:
        # Volume handles and kernel-only file objects have no create.
        return None
    pid = create[13]
    proc = process_lookup(pid)
    inst = Instance(
        fo_id=fo_id,
        machine_idx=machine_idx,
        pid=pid,
        process_name=proc[0] if proc is not None else "system",
        interactive=proc[1] if proc is not None else False,
        path=file_info[0] if file_info is not None else "",
        extension=file_info[1] if file_info is not None else "",
        volume_label=file_info[2] if file_info is not None else "",
        is_remote=file_info[3] if file_info is not None else False,
        open_t=create[1],
        open_status=create[3],
        open_duration=create[2] - create[1],
        create_disposition=create[9],
        create_result=(create[7] if create[3] < 0xC0000000 else -1),
        options=create[10],
        attributes=create[11],
        file_size_open=create[8],
    )
    inst.is_directory_like = bool(inst.options & CreateOptions.DIRECTORY_FILE)

    raw_ops: list[DataOp] = []
    has_direct_data = False
    for (k, t, t_end, status, irp_flags, offset, length, returned,
         file_size, _disposition, _options, _attributes, info,
         _pid) in events:
        if k == _CREATE:
            continue
        inst.file_size_max = max(inst.file_size_max, file_size)
        if k == _CLEANUP:
            inst.cleanup_t = t
        elif k == _CLOSE:
            inst.close_t = t
        elif k in _DATA_KINDS:
            is_read = k in _READ_KINDS
            is_fastio = k in _FASTIO_DATA_KINDS
            is_paging = bool(irp_flags & 0x42)
            if not is_paging:
                has_direct_data = True
            raw_ops.append(DataOp(
                t=t, is_read=is_read, offset=offset,
                returned=returned, is_fastio=is_fastio,
                duration=t_end - t,
                is_paging=is_paging))
        elif k == _FLUSH:
            inst.n_flushes += 1
        elif k == _SET_INFORMATION:
            inst.n_control_ops += 1
            if info == _DISPOSITION \
                    and length == 1 and status < 0xC0000000:
                inst.explicit_delete_t = t
            elif info == _END_OF_FILE:
                inst.truncated_to = length
        elif k in _CONTROL_KINDS:
            inst.n_control_ops += 1

    # §3.3 filtering: keep paging ops only when they are the real access.
    for op in raw_ops:
        if op.is_paging and has_direct_data:
            if op.is_read:
                inst.n_paging_read_irps += 1
            else:
                inst.n_paging_write_irps += 1
            continue
        if op.is_paging:
            inst.image_access = True
        inst.ops.append(op)
        if op.is_read:
            inst.n_reads += 1
            inst.bytes_read += op.returned
            if op.is_fastio:
                inst.n_fastio_reads += 1
        else:
            inst.n_writes += 1
            inst.bytes_written += op.returned
            if op.is_fastio:
                inst.n_fastio_writes += 1
    return inst
