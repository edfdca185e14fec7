"""The trace warehouse: columnar fact tables plus dimensions (§4).

The paper loaded ~190 million records into a de-normalised star schema
with *two* fact tables — one for raw trace records, one for file-object
instances — because the instance table collapses per-session summaries
that would otherwise be recomputed on every query.  This module is the
same design in numpy: the trace table is a set of parallel arrays, filled
by slicing each collector's record frame (no per-record Python); the
instance table is built once by :mod:`repro.analysis.sessions` as
columns, and cached with its row views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import TraceEventKind, extension_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sessions import Instance, InstanceTable
    from repro.workload.study import StudyResult

# Global-id packing: per-machine ids are offset into disjoint ranges.
_MACHINE_STRIDE = 10 ** 9


def pack_id(machine_idx, local_id):
    """Machine-unique id -> study-unique id (ints or int64 arrays)."""
    return machine_idx * _MACHINE_STRIDE + local_id


@dataclass(frozen=True)
class FileDimension:
    """Dimension row for one file object (from its name record)."""

    fo_id: int
    path: str
    extension: str
    volume_label: str
    is_remote: bool
    opener_pid: int
    machine_idx: int


@dataclass(frozen=True)
class ProcessDimension:
    """Dimension row for one traced process."""

    pid: int
    name: str
    interactive: bool
    machine_idx: int


class TraceWarehouse:
    """Columnar trace fact table with dimension lookups."""

    COLUMNS = ("machine_idx", "kind", "fo_id", "pid", "t_start", "t_end",
               "status", "irp_flags", "offset", "length", "returned",
               "file_size", "disposition", "options", "attributes", "info")

    def __init__(self, collectors: Sequence[TraceCollector],
                 machine_categories: Optional[dict[str, str]] = None) -> None:
        self.machine_names = [c.machine_name for c in collectors]
        self.machine_categories = machine_categories or {}
        self._collectors = list(collectors)
        n = sum(len(c) for c in collectors)
        # One row per column (COLUMNS order; rows 1.. are the record
        # frame's fields), so every column is a contiguous view.
        table = np.empty((len(self.COLUMNS), n), dtype=np.int64)
        self.files: dict[int, FileDimension] = {}
        self.processes: dict[int, ProcessDimension] = {}
        row = 0
        for midx, collector in enumerate(collectors):
            frame = collector.record_frame()
            rows = slice(row, row + len(frame))
            row = rows.stop
            table[0, rows] = midx
            table[1:, rows] = frame.T
            table[2, rows] = pack_id(midx, frame[:, 1])     # fo_id
            table[3, rows] = pack_id(midx, frame[:, 2])     # pid
            for nr in collector.name_records:
                gid = pack_id(midx, nr.fo_id)
                self.files[gid] = FileDimension(
                    fo_id=gid, path=nr.path,
                    extension=extension_of(nr.path),
                    volume_label=nr.volume_label,
                    is_remote=nr.volume_is_remote,
                    opener_pid=pack_id(midx, nr.pid),
                    machine_idx=midx)
            for pid, pname in collector.process_names.items():
                gid = pack_id(midx, pid)
                self.processes[gid] = ProcessDimension(
                    pid=gid, name=pname,
                    interactive=collector.process_interactive.get(pid, False),
                    machine_idx=midx)
        self._table = table
        for name, column in zip(self.COLUMNS, table):
            setattr(self, name, column)
        self.n_records = n
        self._instance_table: Optional["InstanceTable"] = None
        self._instances: Optional[list["Instance"]] = None

    def record_frame(self) -> np.ndarray:
        """The trace table as an ``(n, 15)`` record frame (a view), with
        study-unique ``fo_id``/``pid`` (see
        :meth:`TraceCollector.record_frame` for the column order)."""
        return self._table[1:].T

    # ------------------------------------------------------------------ #
    # Constructors.

    @classmethod
    def from_study(cls, result: "StudyResult") -> "TraceWarehouse":
        """Build from a :class:`~repro.workload.study.StudyResult`."""
        categories = result.machine_categories
        return cls(result.collectors, machine_categories=categories)

    # ------------------------------------------------------------------ #
    # Derived masks and views.

    @property
    def kinds(self) -> np.ndarray:
        return self.kind

    def mask_kind(self, *kinds: TraceEventKind) -> np.ndarray:
        """Boolean mask selecting records of the given kinds."""
        mask = np.zeros(self.n_records, dtype=bool)
        for k in kinds:
            mask |= self.kind == int(k)
        return mask

    @property
    def mask_paging(self) -> np.ndarray:
        """Records originated by the VM manager (§3.3)."""
        return (self.irp_flags & 0x42) != 0

    @property
    def mask_fastio(self) -> np.ndarray:
        return self.kind >= int(TraceEventKind.FASTIO_CHECK_IF_POSSIBLE)

    @property
    def mask_reads(self) -> np.ndarray:
        """All read operations, both paths."""
        return self.mask_kind(TraceEventKind.IRP_READ, TraceEventKind.FASTIO_READ)

    @property
    def mask_writes(self) -> np.ndarray:
        """All write operations, both paths."""
        return self.mask_kind(TraceEventKind.IRP_WRITE, TraceEventKind.FASTIO_WRITE)

    @property
    def mask_success(self) -> np.ndarray:
        return self.status < 0xC0000000

    def durations_micros(self, mask: np.ndarray) -> np.ndarray:
        """Completion latencies in microseconds for masked records."""
        return (self.t_end[mask] - self.t_start[mask]) / 10.0

    # ------------------------------------------------------------------ #
    # Instance fact table (built on demand, cached).

    @property
    def instance_table(self) -> "InstanceTable":
        """The per-open-close instance table (§4's second fact table)."""
        if self._instance_table is None:
            from repro.analysis.sessions import frame_instances
            self._instance_table = frame_instances(
                self.record_frame(), self.machine_idx, self.file_info)
        return self._instance_table

    @property
    def instances(self) -> list["Instance"]:
        """Row views of :attr:`instance_table`, in its (machine_idx,
        open_t, fo_id) order."""
        if self._instances is None:
            self._instances = self.instance_table.rows(self.file_for,
                                                       self.process_for)
        return self._instances

    def instances_by_machine(self) -> list[list["Instance"]]:
        """:attr:`instances` split by machine index, one list per machine
        (empty for a machine without instances), each in the instance
        table's per-machine (open_t, fo_id) order."""
        groups: list[list["Instance"]] = [[] for _ in self.machine_names]
        for inst in self.instances:
            groups[inst.machine_idx].append(inst)
        return groups

    # ------------------------------------------------------------------ #
    # Dimension helpers.

    def file_for(self, fo_gid: int) -> Optional[FileDimension]:
        return self.files.get(int(fo_gid))

    def file_info(self, fo_gid: int) -> Optional[tuple[str, str, bool]]:
        """``(path, volume_label, is_remote)`` of a file object, or None:
        the file dimension :func:`frame_instances` reads."""
        fdim = self.files.get(fo_gid)
        return ((fdim.path, fdim.volume_label, fdim.is_remote)
                if fdim is not None else None)

    def process_for(self, pid_gid: int) -> Optional[ProcessDimension]:
        return self.processes.get(int(pid_gid))

    def process_name(self, pid_gid: int) -> str:
        proc = self.processes.get(int(pid_gid))
        return proc.name if proc is not None else "system"

    @property
    def collectors(self) -> list[TraceCollector]:
        return self._collectors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceWarehouse {self.n_records} records, "
                f"{len(self.files)} files, {len(self.machine_names)} machines>")
