"""On-disk trace storage.

The paper's collection servers stored incoming event streams "in
compressed formats for later retrieval" and one of the study's goals was
a data collection available for public inspection.  This module gives the
simulated collectors the same property: a compact binary format (packed
little-endian records, zlib-compressed) that round-trips a
:class:`~repro.nt.tracing.collector.TraceCollector` through a single
file, so studies can be archived and re-analysed without re-simulation.
"""

from __future__ import annotations

import io
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from repro.common.atomic import write_atomic
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import block_frame, pack_block, unpack_block
from repro.nt.tracing.records import NameRecord, TraceRecord
from repro.nt.tracing.snapshot import SnapshotRecord
from repro.nt.tracing.spans import SPAN_STRUCT, SpanRecord

# Header layout: 7-byte magic prefix, one ASCII-digit format version byte,
# then a little-endian u64 payload length.  The original format spelled the
# whole 8 bytes "NTTRACE1"; treating the trailing digit as a version byte
# keeps every v1 archive readable while giving the format room to evolve:
# v2 added the version byte itself (payload unchanged), v3 appends the
# causal span log (repro.nt.tracing.spans) after the snapshot section.
# Writers emit v3 only when the collector actually holds spans, so a study
# run without ``--spans`` still produces byte-identical v2 archives.
_MAGIC_PREFIX = b"NTTRACE"
_HEADER_LEN = len(_MAGIC_PREFIX) + 1 + 8
STORE_FORMAT_VERSION = 3
_SPANLESS_FORMAT_VERSION = 2
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)
_RECORD = struct.Struct("<15q")
_SNAP = struct.Struct("<?5q3q")  # is_dir + size/time fields + counts/depth


def _write_str(buf: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)


def _read_str(buf) -> str:
    (length,) = struct.unpack("<I", buf.read(4))
    raw = buf.read(length)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{buf.source}: invalid UTF-8 string in the {buf.section} "
            f"section ({exc.reason} at byte {exc.start})") from None


def _short_read(source, section: str, wanted: int, left: int) -> ValueError:
    return ValueError(
        f"{source}: payload ends mid-record in the {section} section "
        f"(wanted {wanted} bytes, {left} left)")


class _PayloadReader:
    """Bounds-checked forward reads over a decompressed payload.

    A short read raises ``ValueError`` naming the source and the section
    being decoded (callers set :attr:`section` as they go), never a bare
    ``struct.error``; so does a string that is not valid UTF-8
    (:func:`_read_str`).
    """

    def __init__(self, source, raw: bytes) -> None:
        self.source = source
        self._buf = io.BytesIO(raw)
        self._size = len(raw)
        self.section = "machine name"

    def read(self, n: int) -> bytes:
        out = self._buf.read(n)
        if len(out) != n:
            raise _short_read(self.source, self.section, n, len(out))
        return out

    def at_end(self) -> bool:
        return self._buf.tell() >= self._size


def pack_collector(collector: TraceCollector) -> bytes:
    """Serialise a collector to the packed binary record format.

    This is the archive's payload (before compression) and the transport
    format of the parallel study engine: trace records are slotted frozen
    dataclasses that do not pickle, so worker processes send their
    collector back as these bytes (:mod:`repro.workload.parallel`).
    """
    buf = io.BytesIO()
    _write_str(buf, collector.machine_name)
    # Trace records: the staged columnar blocks, packed directly — on
    # little-endian hosts a straight memory copy.
    buf.write(struct.pack("<Q", len(collector)))
    for block in collector.record_blocks:
        buf.write(pack_block(block))
    # Name records.
    buf.write(struct.pack("<Q", len(collector.name_records)))
    for n in collector.name_records:
        buf.write(struct.pack("<qq?q", n.fo_id, n.pid,
                              n.volume_is_remote, n.t))
        _write_str(buf, n.path)
        _write_str(buf, n.volume_label)
    # Processes.
    buf.write(struct.pack("<Q", len(collector.process_names)))
    for pid, name in collector.process_names.items():
        buf.write(struct.pack(
            "<q?", pid, collector.process_interactive.get(pid, False)))
        _write_str(buf, name)
    # Snapshots.
    buf.write(struct.pack("<Q", len(collector.snapshots)))
    for label, when, records in collector.snapshots:
        _write_str(buf, label)
        buf.write(struct.pack("<qQ", when, len(records)))
        for s in records:
            buf.write(_SNAP.pack(
                s.is_directory, s.size, s.creation_time, s.last_write_time,
                s.last_access_time, s.depth, s.n_files, s.n_subdirectories,
                0))
            _write_str(buf, s.path)
            _write_str(buf, s.extension)
    # Causal spans (format v3).  The section is *omitted* when the log is
    # empty rather than written with a zero count, so a spans-disabled
    # collector packs byte-for-byte like a v2 one — the differential
    # guarantee the parallel transport and archive tests rely on.
    if collector.span_records:
        buf.write(struct.pack("<Q", len(collector.span_records)))
        for s in collector.span_records:
            buf.write(SPAN_STRUCT.pack(
                s.span_id, s.parent_id, s.activity_id, s.layer, s.op,
                s.cause, s.t_begin, s.t_end, s.nbytes, s.status, s.flags))
    return buf.getvalue()


def _read_names(reader) -> list[NameRecord]:
    reader.section = "names"
    (n_names,) = struct.unpack("<Q", reader.read(8))
    names: list[NameRecord] = []
    for _ in range(n_names):
        fo_id, pid, is_remote, t = struct.unpack("<qq?q", reader.read(25))
        path = _read_str(reader)
        label = _read_str(reader)
        names.append(NameRecord(
            fo_id=fo_id, path=path, volume_label=label,
            volume_is_remote=is_remote, pid=pid, t=t))
    return names


def _read_processes(reader) -> tuple[dict[int, str], dict[int, bool]]:
    reader.section = "processes"
    (n_procs,) = struct.unpack("<Q", reader.read(8))
    process_names: dict[int, str] = {}
    process_interactive: dict[int, bool] = {}
    for _ in range(n_procs):
        pid, interactive = struct.unpack("<q?", reader.read(9))
        process_names[pid] = _read_str(reader)
        process_interactive[pid] = interactive
    return process_names, process_interactive


def unpack_collector(raw: bytes,
                     source: str = "packed collector") -> TraceCollector:
    """Rebuild a collector from :func:`pack_collector` bytes.

    The record section is read in one piece into a single staged block,
    so :attr:`TraceCollector.records` stays lazy and
    :meth:`TraceCollector.record_frame` views it without a copy.  A
    payload cut short inside any section raises ``ValueError`` naming
    ``source`` (the store file, for :func:`load_collector`).
    """
    buf = _PayloadReader(source, raw)
    collector = TraceCollector(_read_str(buf))
    buf.section = "records"
    (n_records,) = struct.unpack("<Q", buf.read(8))
    if n_records:
        collector.receive_block(unpack_block(buf.read(n_records
                                                      * _RECORD.size)))
    collector.name_records = _read_names(buf)
    collector.process_names, collector.process_interactive = \
        _read_processes(buf)
    buf.section = "snapshots"
    (n_snaps,) = struct.unpack("<Q", buf.read(8))
    for _ in range(n_snaps):
        label = _read_str(buf)
        when, n_recs = struct.unpack("<qQ", buf.read(16))
        records = []
        for _ in range(n_recs):
            (is_dir, size, creation, last_write, last_access, depth,
             n_files, n_subdirs, _pad) = _SNAP.unpack(buf.read(_SNAP.size))
            path = _read_str(buf)
            ext = _read_str(buf)
            records.append(SnapshotRecord(
                is_directory=is_dir, path=path, extension=ext, depth=depth,
                size=size, creation_time=creation,
                last_write_time=last_write, last_access_time=last_access,
                n_files=n_files, n_subdirectories=n_subdirs))
        collector.receive_snapshot(label, when, records)
    # Optional trailing span section: v1/v2 payloads end exactly after the
    # snapshots, so any remaining bytes are the v3 span log.
    if not buf.at_end():
        buf.section = "spans"
        (n_spans,) = struct.unpack("<Q", buf.read(8))
        for _ in range(n_spans):
            collector.span_records.append(
                SpanRecord(*SPAN_STRUCT.unpack(buf.read(SPAN_STRUCT.size))))
    return collector


def save_collector(collector: TraceCollector,
                   path: Union[str, Path]) -> int:
    """Write a collector to disk; returns the compressed byte count.

    A collector with spans writes the current format (v3); one without
    writes v2, keeping spans-disabled archives byte-identical to the
    pre-span writer's output.
    """
    version = (STORE_FORMAT_VERSION if collector.span_records
               else _SPANLESS_FORMAT_VERSION)
    payload = zlib.compress(pack_collector(collector), level=6)
    data = (_MAGIC_PREFIX + b"%d" % version
            + struct.pack("<Q", len(payload)) + payload)
    write_atomic(path, data)
    return len(data)


def _parse_store(path, data: bytes) -> tuple[int, bytes]:
    """Validate a store file's header; returns (version, compressed payload).

    Every corruption mode raises ``ValueError`` naming the file: a foreign
    or truncated header, an unknown format version, and — the case that
    previously slipped through as a bare ``struct.error`` deep inside
    :func:`unpack_collector` — a payload shorter (truncated copy) or longer
    (concatenation damage) than the length the header declares.
    """
    if len(data) < _HEADER_LEN:
        raise ValueError(
            f"{path}: truncated trace store header "
            f"({len(data)} bytes, need {_HEADER_LEN})")
    if data[:len(_MAGIC_PREFIX)] != _MAGIC_PREFIX:
        raise ValueError(f"{path}: not a trace store file")
    version_byte = data[len(_MAGIC_PREFIX):len(_MAGIC_PREFIX) + 1]
    if not version_byte.isdigit():
        raise ValueError(f"{path}: not a trace store file")
    version = int(version_byte)
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(
            f"{path}: unsupported trace store format version {version} "
            f"(supported: {', '.join(map(str, SUPPORTED_FORMAT_VERSIONS))})")
    (length,) = struct.unpack(
        "<Q", data[len(_MAGIC_PREFIX) + 1:_HEADER_LEN])
    actual = len(data) - _HEADER_LEN
    if actual < length:
        raise ValueError(
            f"{path}: truncated payload — header declares {length} "
            f"compressed bytes but the file holds {actual}")
    if actual > length:
        raise ValueError(
            f"{path}: {actual - length} trailing bytes after the declared "
            f"{length}-byte payload")
    return version, data[_HEADER_LEN:]


def _decompress(path, payload: bytes) -> bytes:
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt compressed payload: {exc}") \
            from None


def load_collector(path: Union[str, Path]) -> TraceCollector:
    """Read a collector written by :func:`save_collector` (any version)."""
    data = Path(path).read_bytes()
    _version, payload = _parse_store(path, data)
    return unpack_collector(_decompress(path, payload), source=str(path))


class _StreamReader:
    """Incremental zlib decompression presenting a blocking read(n)."""

    _CHUNK = 1 << 16

    def __init__(self, path, payload: bytes) -> None:
        self.source = path
        self._view = memoryview(payload)
        self._pos = 0
        self._decomp = zlib.decompressobj()
        self._buf = bytearray()
        self.section = "machine name"

    def read(self, n: int) -> bytes:
        try:
            while len(self._buf) < n and self._pos < len(self._view):
                chunk = self._view[self._pos:self._pos + self._CHUNK]
                self._pos += len(chunk)
                self._buf += self._decomp.decompress(chunk)
            if len(self._buf) < n and self._pos >= len(self._view):
                self._buf += self._decomp.flush()
        except zlib.error as exc:
            raise ValueError(
                f"{self.source}: corrupt compressed payload: {exc}") from None
        if len(self._buf) < n:
            raise _short_read(self.source, self.section, n, len(self._buf))
        with memoryview(self._buf) as view:
            out = bytes(view[:n])
        del self._buf[:n]
        return out


def _open_stream(path) -> tuple[int, _StreamReader, str, int]:
    """(version, reader, machine name, record count), the reader left at
    the first record."""
    version, payload = _parse_store(path, Path(path).read_bytes())
    reader = _StreamReader(path, payload)
    name = _read_str(reader)
    reader.section = "records"
    (n_records,) = struct.unpack("<Q", reader.read(8))
    return version, reader, name, n_records


def read_store_header(path: Union[str, Path]) -> tuple[int, str, int]:
    """(format version, machine name, record count) of a store file."""
    version, _reader, name, n_records = _open_stream(path)
    return version, name, n_records


def iter_trace_records(path: Union[str, Path], kinds=None):
    """Stream a store file's trace records without building the collector.

    Decompresses incrementally and yields one :class:`TraceRecord` at a
    time, so a multi-gigabyte archive can be scanned (fidelity statistics,
    kind counts) holding only the compressed bytes plus one record in
    memory — the replay CLI uses this for the source side of the fidelity
    report.  Name records, processes, and snapshots are not materialised.

    ``kinds`` is an optional predicate pushdown: an iterable of
    :class:`TraceEventKind`/int values.  Records of any other kind are
    skipped at the store layer by peeking only the leading kind word of
    the packed row, before the full 15-field decode — equivalent to
    filtering the unfiltered stream, just cheaper.
    """
    _version, reader, _name, n_records = _open_stream(path)
    wanted = None if kinds is None else frozenset(int(k) for k in kinds)
    size = _RECORD.size
    for _ in range(n_records):
        raw = reader.read(size)
        if wanted is not None and \
                int.from_bytes(raw[:8], "little", signed=True) not in wanted:
            continue
        yield TraceRecord(*_RECORD.unpack(raw))


class StoreStream:
    """One-pass streaming reader over every section of a store file.

    The streaming analysis folds (:mod:`repro.analysis.streaming`) need
    more than :func:`iter_trace_records` exposes — the name records and
    the process table that follow the record section — without ever
    materialising the collector.  Usage::

        stream = StoreStream(path)
        frame = stream.record_frame()   # or iterate stream.records()
        names, process_names, process_interactive = stream.tail_sections()

    The record section must be drained — by :meth:`record_frame` or by
    exhausting :meth:`records` — before ``tail_sections()``: the payload
    is decompressed strictly forward.  :meth:`records` holds one record
    in memory at a time; :meth:`record_frame` holds the whole record
    section (120 bytes per record).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        (self.version, self._reader, self.machine_name,
         self.n_records) = _open_stream(path)
        self._records_left = self.n_records

    def records(self, kinds=None):
        """Yield the trace records; supports the same ``kinds`` pushdown
        as :func:`iter_trace_records`."""
        wanted = None if kinds is None else frozenset(int(k) for k in kinds)
        size = _RECORD.size
        while self._records_left:
            self._records_left -= 1
            raw = self._reader.read(size)
            if wanted is not None and \
                    int.from_bytes(raw[:8], "little",
                                   signed=True) not in wanted:
                continue
            yield TraceRecord(*_RECORD.unpack(raw))

    def record_frame(self) -> np.ndarray:
        """The unread records as one ``(n, 15)`` int64 frame, drained in
        a single read (see :meth:`TraceCollector.record_frame`)."""
        raw = self._reader.read(self._records_left * _RECORD.size)
        self._records_left = 0
        return block_frame(unpack_block(raw))

    def tail_sections(self):
        """(name records, process names, process interactivity) after the
        record section.  Snapshots and spans are left unread."""
        if self._records_left:
            raise ValueError(
                f"{self.path}: the record section must be drained before "
                f"tail_sections() ({self._records_left} records unread)")
        return (_read_names(self._reader), *_read_processes(self._reader))


def save_study(collectors, directory: Union[str, Path]) -> list[Path]:
    """Write one file per collector into a directory; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for collector in collectors:
        path = directory / f"{collector.machine_name}.nttrace"
        save_collector(collector, path)
        paths.append(path)
    return paths


def study_paths(directory: Union[str, Path]) -> list[Path]:
    """The ``.nttrace`` files of an archived study, sorted by name.

    Raises ``FileNotFoundError`` when the directory does not exist and
    ``ValueError`` when it holds no trace files — downstream code treats a
    silently-empty list as a zero-machine study, which hides typos.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"trace archive directory {directory} does not exist")
    paths = sorted(directory.glob("*.nttrace"))
    if not paths:
        raise ValueError(f"no .nttrace files found in {directory}")
    return paths


def load_study(directory: Union[str, Path]) -> list[TraceCollector]:
    """Read every trace store file in a directory, sorted by name.

    Raises ``FileNotFoundError`` / ``ValueError`` for a missing or empty
    directory (see :func:`study_paths`).
    """
    return [load_collector(p) for p in study_paths(directory)]
