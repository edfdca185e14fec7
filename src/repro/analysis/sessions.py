"""Instance (open-close session) reconstruction — §4's second fact table.

One instance per file object that has a create: the open parameters,
every data operation (after §3.3's paging-duplicate filtering), the
control-operation count, cleanup/close times, and derived access-pattern
classifications.  :func:`frame_instances` builds all of a record frame's
instances at once as a columnar :class:`InstanceTable`, with segment
reductions over the file objects' sorted events and no per-event Python;
:class:`Instance` is a row view of that table for drill-down code.

Paging-duplicate rule (paper §3.3): paging I/O on a file object that also
has direct (non-paging) data operations duplicates cache-manager activity
and is excluded from data-op accounting (but counted, for cache analysis);
paging I/O on a file object with *no* direct data operations is the real
access — executable/DLL image loading or mapped-file faulting — and is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Union

import numpy as np

from repro.common.flags import CreateOptions, FileAttributes
from repro.common.sequential import fuzzy_sequential
from repro.nt.tracing.records import (
    CreateResult,
    SetInformationClass,
    TraceEventKind,
)

# Event kinds that are application-visible control operations; kernel
# synchronisation callbacks (acquire/release pairs) are excluded.
_CONTROL_KINDS = np.array(sorted(int(k) for k in (
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
)))

_CREATE = int(TraceEventKind.IRP_CREATE)
_CLEANUP = int(TraceEventKind.IRP_CLEANUP)
_CLOSE = int(TraceEventKind.IRP_CLOSE)
_FLUSH = int(TraceEventKind.IRP_FLUSH_BUFFERS)
_SET_INFORMATION = int(TraceEventKind.IRP_SET_INFORMATION)
_READ_KINDS = np.array((int(TraceEventKind.IRP_READ),
                        int(TraceEventKind.FASTIO_READ)))
_FASTIO_DATA_KINDS = np.array((int(TraceEventKind.FASTIO_READ),
                               int(TraceEventKind.FASTIO_WRITE)))
_DATA_KINDS = np.array(sorted({int(TraceEventKind.IRP_WRITE),
                               *_READ_KINDS.tolist(),
                               *_FASTIO_DATA_KINDS.tolist()}))
_DISPOSITION = int(SetInformationClass.DISPOSITION)
_END_OF_FILE = int(SetInformationClass.END_OF_FILE)
_FAILED = 0xC0000000
_PAGING_FLAGS = 0x42
_OVERWRITE_RESULTS = np.array((int(CreateResult.OVERWRITTEN),
                               int(CreateResult.SUPERSEDED)))

# Code -> name of the table's ``usage`` column (bit 0: reads, bit 1:
# writes) and ``pattern`` column.
USAGE_NAMES = ("none", "read-only", "write-only", "read-write")
PATTERN_NAMES = ("none", "whole", "sequential", "random")
_WHOLE, _SEQUENTIAL, _RANDOM = 1, 2, 3

# The op CSR's columns, in DataOp field order, and its 0/1 flag columns.
_OP_T, _OP_IS_READ, _OP_OFFSET, _OP_RETURNED = 0, 1, 2, 3
_OP_FLAGS = (1, 4, 6)                   # is_read, is_fastio, is_paging


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


@dataclass(eq=False)
class InstanceTable:
    """The instance fact table: one row per instance, columnar.

    Rows are in (machine_idx, open_t, fo_id) order.  Every per-instance
    field is an array of that length; the kept data ops and the
    sequential runs of each direction are CSR arrays: row ``i`` owns
    ``ops[op_start[i]:op_start[i + 1]]`` (columns t, is_read, offset,
    returned, is_fastio, duration, is_paging, in time order), and
    likewise ``read_runs``/``write_runs`` with their ``*_start``.
    """

    # Identity and the first create's open parameters.
    fo_id: np.ndarray
    machine_idx: np.ndarray
    pid: np.ndarray
    open_t: np.ndarray
    open_status: np.ndarray
    open_duration: np.ndarray
    create_disposition: np.ndarray
    create_result: np.ndarray       # CreateResult value, or -1 on failure
    options: np.ndarray
    attributes: np.ndarray
    file_size_open: np.ndarray
    # Reductions over the file object's other events (-1 = none).
    cleanup_t: np.ndarray
    close_t: np.ndarray
    session_end_t: np.ndarray       # cleanup, else close, else last op
    explicit_delete_t: np.ndarray
    truncated_to: np.ndarray        # SetEndOfFile target (kernel or app)
    file_size_max: np.ndarray
    n_reads: np.ndarray
    n_writes: np.ndarray
    n_fastio_reads: np.ndarray
    n_fastio_writes: np.ndarray
    bytes_read: np.ndarray
    bytes_written: np.ndarray
    n_paging_read_irps: np.ndarray  # cache-duplicate prefetches (excluded)
    n_paging_write_irps: np.ndarray
    n_flushes: np.ndarray
    n_control_ops: np.ndarray
    # Flags (bool) and codes.
    image_access: np.ndarray        # data ops are kept paging I/O
    was_created: np.ndarray
    was_overwrite: np.ndarray
    temporary: np.ndarray
    is_directory_like: np.ndarray
    usage: np.ndarray               # index into USAGE_NAMES
    pattern: np.ndarray             # index into PATTERN_NAMES
    # File dimension: remote volume, and a (volume, lower-case path) key
    # (-1 for a file object without a path).
    is_remote: np.ndarray
    path_key: np.ndarray
    # CSR arrays.
    op_start: np.ndarray = field(repr=False)
    ops: np.ndarray = field(repr=False)
    read_run_start: np.ndarray = field(repr=False)
    read_runs: np.ndarray = field(repr=False)
    write_run_start: np.ndarray = field(repr=False)
    write_runs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self._op_lists: Optional[list[list[DataOp]]] = None

    def __len__(self) -> int:
        return len(self.fo_id)

    @property
    def open_failed(self) -> np.ndarray:
        return self.open_status >= _FAILED

    @property
    def has_data(self) -> np.ndarray:
        return self.usage > 0

    @property
    def bytes_transferred(self) -> np.ndarray:
        return self.bytes_read + self.bytes_written

    @property
    def session_duration(self) -> np.ndarray:
        return np.maximum(self.session_end_t - self.open_t, 0)

    def __getitem__(self, rows: slice) -> "InstanceTable":
        """The contiguous rows ``rows`` as a table (column views)."""
        lo, hi, _ = rows.indices(len(self))
        columns = {f.name: getattr(self, f.name)[lo:hi] for f in fields(self)
                   if f.name not in _CSR_FIELDS}
        for start, values in _CSR_VALUES.items():
            offsets = getattr(self, start)
            columns[start] = offsets[lo:hi + 1] - offsets[lo]
            columns[values] = getattr(self, values)[offsets[lo]:offsets[hi]]
        return InstanceTable(**columns)

    def by_machine(self, n_machines: int) -> list["InstanceTable"]:
        """One slice per machine index ``0 .. n_machines - 1``."""
        bounds = np.searchsorted(self.machine_idx,
                                 np.arange(n_machines + 1)).tolist()
        return [self[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def runs(self, row: int, reads: bool) -> list[int]:
        """Byte lengths of row ``row``'s maximal sequential runs."""
        start, runs = ((self.read_run_start, self.read_runs) if reads
                       else (self.write_run_start, self.write_runs))
        return runs[start[row]:start[row + 1]].tolist()

    def op_lists(self) -> list[list[DataOp]]:
        """Every row's kept data ops as :class:`DataOp` lists, built on
        first use for all rows at once."""
        if self._op_lists is None:
            ops = list(map(DataOp, *(
                (column != 0 if j in _OP_FLAGS else column).tolist()
                for j, column in enumerate(self.ops.T))))
            bounds = self.op_start.tolist()
            self._op_lists = [ops[a:b] for a, b in zip(bounds, bounds[1:])]
        return self._op_lists

    def rows(self, file_for: Callable, process_for: Callable
             ) -> list["Instance"]:
        """The :class:`Instance` row views, in table order.

        ``file_for(fo_id)`` gives an object with ``path``, ``extension``
        and ``volume_label`` (or None), ``process_for(pid)`` one with
        ``name`` and ``interactive`` (or None).
        """
        columns = [getattr(self, name).tolist() for name in _VIEW_COLUMNS]
        files = [file_for(f) for f in columns[0]]
        procs = [process_for(p) for p in columns[1]]
        patterns = [PATTERN_NAMES[c] for c in self.pattern.tolist()]
        return [
            Instance(*values,
                     process_name=proc.name if proc is not None else "system",
                     interactive=proc.interactive if proc is not None
                     else False,
                     path=f.path if f is not None else "",
                     extension=f.extension if f is not None else "",
                     volume_label=f.volume_label if f is not None else "",
                     pattern=pattern, _table=self, _row=row)
            for row, (values, f, proc, pattern) in enumerate(
                zip(zip(*columns), files, procs, patterns))]


# CSR offset column -> its value array.
_CSR_VALUES = {"op_start": "ops", "read_run_start": "read_runs",
               "write_run_start": "write_runs"}
_CSR_FIELDS = {*_CSR_VALUES, *_CSR_VALUES.values()}

# The table columns an Instance view copies, in Instance field order.
_VIEW_COLUMNS = (
    "fo_id", "pid", "machine_idx", "is_remote", "open_t", "open_status",
    "open_duration", "create_disposition", "create_result", "options",
    "attributes", "cleanup_t", "close_t", "session_end_t", "n_reads",
    "n_writes", "bytes_read", "bytes_written", "n_paging_read_irps",
    "n_paging_write_irps", "n_control_ops", "n_flushes", "n_fastio_reads",
    "n_fastio_writes", "explicit_delete_t", "truncated_to",
    "file_size_max", "file_size_open", "is_directory_like",
    "image_access", "was_created", "was_overwrite", "temporary")


@dataclass(eq=False)
class Instance:
    """One open-close session: a row view of an :class:`InstanceTable`."""

    fo_id: int
    pid: int
    machine_idx: int
    is_remote: bool
    open_t: int
    open_status: int
    open_duration: int
    create_disposition: int
    create_result: int          # CreateResult value, or -1 on failure
    options: int
    attributes: int
    cleanup_t: int
    close_t: int
    session_end_t: int          # when the application-visible session ended
    n_reads: int
    n_writes: int
    bytes_read: int
    bytes_written: int
    n_paging_read_irps: int     # cache-duplicate prefetches (excluded)
    n_paging_write_irps: int
    n_control_ops: int
    n_flushes: int
    n_fastio_reads: int
    n_fastio_writes: int
    explicit_delete_t: int
    truncated_to: int           # SetEndOfFile target (kernel or app)
    file_size_max: int
    file_size_open: int
    is_directory_like: bool
    image_access: bool          # data ops are kept paging I/O
    was_created: bool
    was_overwrite: bool
    temporary: bool
    process_name: str
    interactive: bool
    path: str
    extension: str
    volume_label: str
    pattern: str
    _table: InstanceTable = field(repr=False)
    _row: int = field(repr=False)

    # ------------------------------------------------------------------ #
    # Derived properties.

    @property
    def open_failed(self) -> bool:
        return self.open_status >= _FAILED

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
        return USAGE_NAMES[(self.n_reads > 0) + 2 * (self.n_writes > 0)]

    @property
    def ops(self) -> list[DataOp]:
        """The kept data operations, in time order."""
        return self._table.op_lists()[self._row]

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

    def access_pattern(self) -> str:
        """'whole' / 'sequential' / 'random' over the merged op stream
        (§6.2), or 'none' without data ops."""
        return self.pattern

    def sequential_runs(self, reads: bool) -> list[int]:
        """Byte lengths of maximal sequential runs of one op direction."""
        return self._table.runs(self._row, reads)


# --------------------------------------------------------------------- #
# The builder.

def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a sorted key column starts a new run of equal keys."""
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _shifted_end(offset: np.ndarray, returned: np.ndarray) -> np.ndarray:
    """Each op's predecessor's end offset (0 for the first op)."""
    previous = np.zeros(len(offset), dtype=np.int64)
    previous[1:] = offset[:-1] + returned[:-1]
    return previous


def _run_csr(owner: np.ndarray, offset: np.ndarray, returned: np.ndarray,
             n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximal fuzzy-sequential runs of ops grouped by ``owner`` row:
    (per-row offsets, run byte lengths), runs of zero bytes dropped."""
    breaks = _run_starts(owner) | ~fuzzy_sequential(
        _shifted_end(offset, returned), offset)
    starts = np.flatnonzero(breaks)
    lengths = (np.add.reduceat(returned, starts) if len(starts)
               else np.zeros(0, dtype=np.int64))
    keep = lengths > 0
    return _offsets(owner[starts[keep]], n_rows), lengths[keep]


def _offsets(owner: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR offsets of items sorted by owner row."""
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_rows), out=offsets[1:])
    return offsets


def frame_instances(frame: np.ndarray, machine_idx: Union[int, np.ndarray],
                    file_info: Callable[[int], Optional[tuple]]
                    ) -> InstanceTable:
    """Build the instance table of an ``(n, 15)`` record frame.

    The one builder behind both fact-table paths: the warehouse
    (:attr:`TraceWarehouse.instance_table`) and the streaming fold
    (:func:`repro.analysis.streaming.fold_frame`).  A stable
    ``lexsort((t_start, fo_id))`` groups the records by file object with
    ties in record (append) order; a file object is an instance when one
    of its records is a create, and the first create gives the open
    parameters.  Every other column is a segment reduction over the
    instance's other records.

    ``machine_idx`` is the machine index of every frame row (an int, or
    an array aligned with the frame); ``file_info(fo_id)`` gives the
    ``(path, volume_label, is_remote)`` of a file object, or None.
    """
    # Frame columns (TraceRecord field order): kind 0, fo_id 1, pid 2,
    # t_start 3, t_end 4, status 5, irp_flags 6, offset 7, length 8,
    # returned 9, file_size 10, disposition 11, options 12, attributes 13,
    # info 14.
    machines = np.broadcast_to(np.asarray(machine_idx, dtype=np.int64),
                               (len(frame),))
    # Segments in (fo_id, t_start) order; keep those holding a create.
    order = np.lexsort((frame[:, 3], frame[:, 1]))
    segment = np.cumsum(_run_starts(frame[order, 1])) - 1
    creates = np.flatnonzero(frame[order, 0] == _CREATE)
    first_creates = creates[_run_starts(segment[creates])]
    first = order[first_creates]
    n = len(first)
    # Table order (machine, open_t, fo_id); events follow their instance.
    by_table = np.lexsort((frame[first, 1], frame[first, 3],
                           machines[first]))
    n_segments = int(segment[-1]) + 1 if len(segment) else 0
    segment_rank = np.full(n_segments, -1, dtype=np.int64)
    segment_rank[segment[first_creates[by_table]]] = np.arange(n)
    event_rank = segment_rank[segment]
    kept = event_rank >= 0
    by_rank = np.argsort(event_rank[kept], kind="stable")
    inst = event_rank[kept][by_rank]
    ev = frame[order[kept][by_rank]]

    kind = ev[:, 0]
    t = ev[:, 3]
    starts = np.flatnonzero(_run_starts(inst))
    creates = np.flatnonzero(kind == _CREATE)
    create = ev[creates[_run_starts(inst[creates])]]

    def count(mask):
        return np.bincount(inst[mask], minlength=n)

    def total(mask, values):
        return np.add.reduceat(np.where(mask, values, 0), starts)

    def last(mask, values):
        rows = np.flatnonzero(mask)
        owner = inst[rows]
        final = np.ones(len(rows), dtype=bool)
        np.not_equal(owner[:-1], owner[1:], out=final[:-1])
        out = np.full(n, -1, dtype=np.int64)
        out[owner[final]] = values[rows[final]]
        return out

    # §3.3: paging data ops are duplicates when the instance also has
    # direct data ops, and the real (image) access otherwise.
    data = np.isin(kind, _DATA_KINDS)
    paging = data & ((ev[:, 6] & _PAGING_FLAGS) != 0)
    direct = count(data & ~paging) > 0
    duplicate = paging & direct[inst]
    op = data & ~duplicate
    is_read = np.isin(kind, _READ_KINDS)
    fastio = np.isin(kind, _FASTIO_DATA_KINDS)
    reads = op & is_read
    writes = op & ~is_read
    set_info = kind == _SET_INFORMATION
    returned = ev[:, 9]
    n_reads = count(reads)
    n_writes = count(writes)
    bytes_read = total(reads, returned)
    bytes_written = total(writes, returned)
    cleanup_t = last(kind == _CLEANUP, t)
    close_t = last(kind == _CLOSE, t)

    # The op CSR, and the access pattern over each row's merged ops.
    op_rows = np.flatnonzero(op)
    op_owner = inst[op_rows]
    op_start = _offsets(op_owner, n)
    ops = np.column_stack((
        t[op_rows], is_read[op_rows], ev[op_rows, 7], returned[op_rows],
        fastio[op_rows], ev[op_rows, 4] - t[op_rows], paging[op_rows]))
    offset = ops[:, _OP_OFFSET]
    op_returned = ops[:, _OP_RETURNED]
    jumps = ~_run_starts(op_owner) & ~fuzzy_sequential(
        _shifted_end(offset, op_returned), offset)
    random = np.bincount(op_owner[jumps], minlength=n) > 0
    n_ops = n_reads + n_writes
    has_ops = n_ops > 0
    first_offset = np.zeros(n, dtype=np.int64)
    first_offset[has_ops] = offset[op_start[:-1][has_ops]]
    file_size_max = np.maximum.reduceat(
        np.where(kind == _CREATE, 0, ev[:, 10]), starts)
    whole = (first_offset <= 128) & (np.maximum(bytes_read, bytes_written)
                                     >= np.maximum(file_size_max, 1))
    pattern = np.where(~has_ops, 0, np.where(
        random, _RANDOM, np.where(whole, _WHOLE, _SEQUENTIAL)))
    read_ops = ops[:, _OP_IS_READ] != 0
    read_run_start, read_runs = _run_csr(
        op_owner[read_ops], offset[read_ops], op_returned[read_ops], n)
    write_run_start, write_runs = _run_csr(
        op_owner[~read_ops], offset[~read_ops], op_returned[~read_ops], n)

    last_op_t = np.zeros(n, dtype=np.int64)
    last_op_t[has_ops] = ops[op_start[1:][has_ops] - 1, _OP_T]
    session_end_t = np.where(
        cleanup_t >= 0, cleanup_t, np.where(
            close_t >= 0, close_t,
            np.where(has_ops, last_op_t, create[:, 3])))

    status = create[:, 5]
    options = create[:, 12]
    attributes = create[:, 13]
    create_result = np.where(status < _FAILED, create[:, 9], -1)
    fo_ids = create[:, 1]
    infos = [file_info(fo) for fo in fo_ids.tolist()]
    keys: dict[tuple[str, str], int] = {}
    path_key = np.array(
        [keys.setdefault((info[1], info[0].lower()), len(keys))
         if info is not None and info[0] else -1 for info in infos],
        dtype=np.int64)
    is_remote = np.array([info is not None and bool(info[2])
                          for info in infos], dtype=bool)

    return InstanceTable(
        fo_id=fo_ids,
        machine_idx=machines[first[by_table]],
        pid=create[:, 2],
        open_t=create[:, 3],
        open_status=status,
        open_duration=create[:, 4] - create[:, 3],
        create_disposition=create[:, 11],
        create_result=create_result,
        options=options,
        attributes=attributes,
        file_size_open=create[:, 10],
        cleanup_t=cleanup_t,
        close_t=close_t,
        session_end_t=session_end_t,
        explicit_delete_t=last(
            set_info & (ev[:, 14] == _DISPOSITION) & (ev[:, 8] == 1)
            & (ev[:, 5] < _FAILED), t),
        truncated_to=last(set_info & (ev[:, 14] == _END_OF_FILE),
                          ev[:, 8]),
        file_size_max=file_size_max,
        n_reads=n_reads,
        n_writes=n_writes,
        n_fastio_reads=count(reads & fastio),
        n_fastio_writes=count(writes & fastio),
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        n_paging_read_irps=count(duplicate & is_read),
        n_paging_write_irps=count(duplicate & ~is_read),
        n_flushes=count(kind == _FLUSH),
        n_control_ops=count(np.isin(kind, _CONTROL_KINDS)),
        image_access=~direct & (count(paging) > 0),
        was_created=create_result == int(CreateResult.CREATED),
        was_overwrite=np.isin(create_result, _OVERWRITE_RESULTS),
        temporary=((attributes & int(FileAttributes.TEMPORARY)) != 0)
        | ((options & int(CreateOptions.DELETE_ON_CLOSE)) != 0),
        is_directory_like=(options & int(CreateOptions.DIRECTORY_FILE)) != 0,
        usage=(n_reads > 0) + 2 * (n_writes > 0),
        pattern=pattern,
        is_remote=is_remote,
        path_key=path_key,
        op_start=op_start,
        ops=ops,
        read_run_start=read_run_start,
        read_runs=read_runs,
        write_run_start=write_run_start,
        write_runs=write_runs,
    )
