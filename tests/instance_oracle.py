"""The per-instance reference for the columnar instance table.

:func:`repro.analysis.sessions.frame_instances` builds every instance of
a record frame with segment reductions.  This module keeps the
event-at-a-time definitions it replaced, as the oracle the property
tests hold it to: :func:`build_instance` (one file object's time-ordered
events to one :class:`OracleInstance`), the access-pattern and
sequential-run walks over its op list, and the machine-row and
death-matching walks over instance lists.  It also builds small record
frames for tests that need a few hand-made instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.analysis.patterns import PATTERNS, USAGES
from repro.analysis.sessions import DataOp, frame_instances
from repro.common.flags import CreateOptions, FileAttributes
from repro.common.sequential import fuzzy_sequential
from repro.nt.tracing.fastbuf import RECORD_FIELDS
from repro.nt.tracing.records import (
    CreateResult,
    SetInformationClass,
    TraceEventKind,
    extension_of,
)

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

# build_instance's event tuple order, as columns of an (n, 15) record
# frame (TraceRecord field order: kind 0, fo_id 1, pid 2, t_start 3,
# t_end 4, status 5, irp_flags 6, offset 7, length 8, returned 9,
# file_size 10, disposition 11, options 12, attributes 13, info 14).
_EVENT_COLUMNS = (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 2)


@dataclass
class OracleInstance:
    """One open-close session, built event by event."""

    fo_id: int
    machine_idx: int
    pid: int
    is_remote: bool
    path: str
    volume_label: str
    open_t: int
    open_status: int
    open_duration: int
    create_disposition: int
    create_result: int
    options: int
    attributes: int
    cleanup_t: int = -1
    close_t: int = -1
    ops: list = field(default_factory=list)
    n_reads: int = 0
    n_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    n_paging_read_irps: int = 0
    n_paging_write_irps: int = 0
    n_control_ops: int = 0
    n_flushes: int = 0
    n_fastio_reads: int = 0
    n_fastio_writes: int = 0
    explicit_delete_t: int = -1
    truncated_to: int = -1
    file_size_max: int = 0
    file_size_open: int = 0
    is_directory_like: bool = False
    image_access: bool = False

    @property
    def open_failed(self) -> bool:
        return self.open_status >= 0xC0000000

    @property
    def has_data(self) -> bool:
        return self.n_reads + self.n_writes > 0

    @property
    def usage(self) -> str:
        if self.n_reads and self.n_writes:
            return "read-write"
        if self.n_reads:
            return "read-only"
        if self.n_writes:
            return "write-only"
        return "none"

    @property
    def session_end_t(self) -> int:
        if self.cleanup_t >= 0:
            return self.cleanup_t
        if self.close_t >= 0:
            return self.close_t
        if self.ops:
            return self.ops[-1].t
        return self.open_t

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


def build_instance(machine_idx: int, fo_id: int, events,
                   file_info) -> Optional[OracleInstance]:
    """One instance from time-ordered ``_EVENT_COLUMNS`` rows of ints
    (sorted by ``t_start`` with a stable sort); ``file_info`` is
    ``(path, volume_label, is_remote)`` or None."""
    create = None
    for ev in events:
        if ev[0] == _CREATE:
            create = ev
            break
    if create is None:
        return None
    inst = OracleInstance(
        fo_id=fo_id,
        machine_idx=machine_idx,
        pid=create[13],
        path=file_info[0] if file_info is not None else "",
        volume_label=file_info[1] if file_info is not None else "",
        is_remote=file_info[2] if file_info is not None else False,
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
            is_paging = bool(irp_flags & 0x42)
            if not is_paging:
                has_direct_data = True
            raw_ops.append(DataOp(
                t=t, is_read=k in _READ_KINDS, offset=offset,
                returned=returned, is_fastio=k in _FASTIO_DATA_KINDS,
                duration=t_end - t, is_paging=is_paging))
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


def oracle_instances(frame: np.ndarray, machine_of,
                     file_info) -> list[OracleInstance]:
    """Every instance of a frame, in (machine, open_t, fo_id) order;
    ``machine_of(row)`` is a frame row's machine index."""
    if not len(frame):
        return []
    order = np.lexsort((frame[:, 3], frame[:, 1]))
    events = frame[np.ix_(order, _EVENT_COLUMNS)].tolist()
    sorted_ids = frame[order, 1].tolist()
    instances = []
    start = 0
    while start < len(events):
        end = start
        while end < len(events) and sorted_ids[end] == sorted_ids[start]:
            end += 1
        inst = build_instance(machine_of(int(order[start])),
                              sorted_ids[start], events[start:end],
                              file_info(sorted_ids[start]))
        if inst is not None:
            instances.append(inst)
        start = end
    instances.sort(key=lambda s: (s.machine_idx, s.open_t))
    return instances


def oracle_machine_row(instances) -> dict:
    """The machine row, one instance at a time."""
    n_instances = n_failed = n_data = 0
    total = read = written = paging = 0
    usage_cells = {u: {"n": 0, "bytes": 0,
                       "patterns": {p: {"n": 0, "bytes": 0}
                                    for p in PATTERNS}}
                   for u in USAGES}
    for inst in instances:
        n_instances += 1
        if inst.open_failed:
            n_failed += 1
            continue
        if not inst.has_data:
            continue
        transferred = inst.bytes_transferred
        cell = usage_cells[inst.usage]
        cell["n"] += 1
        cell["bytes"] += transferred
        pattern = cell["patterns"][inst.access_pattern()]
        pattern["n"] += 1
        pattern["bytes"] += transferred
        n_data += 1
        total += transferred
        read += inst.bytes_read
        written += inst.bytes_written
        if inst.image_access:
            paging += inst.bytes_read
    return {"n_instances": n_instances, "n_failed_opens": n_failed,
            "n_data": n_data, "bytes": total, "bytes_read": read,
            "bytes_written": written, "paging_view_bytes": paging,
            "usage": usage_cells}


def oracle_death_events(instances) -> tuple[int, list[tuple]]:
    """``(n_created, deaths)``, each death a ``(method, lifetime, size,
    close_gap, same_process, intervening_opens)`` tuple, in walk order."""
    by_path: dict = {}
    for inst in instances:
        if inst.open_failed or not inst.path:
            continue
        key = (inst.machine_idx, inst.volume_label, inst.path.lower())
        by_path.setdefault(key, []).append(inst)
    n_created = 0
    deaths = []
    for sessions in by_path.values():
        sessions.sort(key=lambda s: s.open_t)
        for idx, inst in enumerate(sessions):
            if not inst.was_created:
                continue
            n_created += 1
            created_t = inst.open_t
            closed_t = inst.session_end_t
            last_size = inst.file_size_max
            if inst.temporary and inst.explicit_delete_t < 0:
                deaths.append(("temporary", max(0, closed_t - created_t),
                               last_size, -1, True, 0))
                continue
            death = None
            intervening_opens = 0
            if inst.explicit_delete_t >= 0:
                death = ("explicit", inst.explicit_delete_t, inst)
            else:
                for later in sessions[idx + 1:]:
                    if later.was_overwrite:
                        death = ("overwrite", later.open_t, later)
                        break
                    if later.explicit_delete_t >= 0:
                        death = ("explicit", later.explicit_delete_t, later)
                        break
                    intervening_opens += 1
                    if later.file_size_max > 0:
                        last_size = later.file_size_max
            if death is None:
                continue
            method, death_t, killer = death
            deaths.append((method, max(0, death_t - created_t), last_size,
                           max(0, death_t - closed_t),
                           killer.pid == inst.pid, intervening_opens))
    return n_created, deaths


# --------------------------------------------------------------------- #
# Hand-made frames.

_FIELD_INDEX = {name: i for i, name in enumerate(
    ("kind", "fo_id", "pid", "t_start", "t_end", "status", "irp_flags",
     "offset", "length", "returned", "file_size", "disposition",
     "options", "attributes", "info"))}


def frame_of(*events: dict) -> np.ndarray:
    """A record frame with one row per ``{field: value}`` dict (fields
    default to 0, ``fo_id`` and ``pid`` to 1, ``t_end`` to ``t_start``)."""
    frame = np.zeros((len(events), RECORD_FIELDS), dtype=np.int64)
    for row, event in zip(frame, events):
        row[1] = row[2] = 1
        row[4] = event.get("t_start", 0)
        for name, value in event.items():
            row[_FIELD_INDEX[name]] = int(value)
    return frame


def instances_of(*events: dict) -> list:
    """The :class:`~repro.analysis.sessions.Instance` views of a
    hand-made frame, every file object named ``\\f.dat`` on volume C."""
    table = frame_instances(frame_of(*events), 0,
                            lambda fo: ("\\f.dat", "C", False))
    return table.rows(
        lambda fo: SimpleNamespace(path="\\f.dat",
                                   extension=extension_of("\\f.dat"),
                                   volume_label="C"),
        lambda pid: SimpleNamespace(name="t", interactive=False))


def create(**fields) -> dict:
    """A create event (default: a successful open of a new file)."""
    return {"kind": _CREATE, "returned": int(CreateResult.CREATED),
            **fields}
