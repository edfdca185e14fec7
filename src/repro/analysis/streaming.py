"""Streaming fleet observability: bounded-memory study aggregation.

The paper's collection servers aggregated ~190M records from 45 machines
— far more than one analysis process wants resident.  This module is the
streaming counterpart of the materialized :class:`TraceWarehouse`: a
:class:`StatsSketch` of deterministic, *mergeable* per-machine partial
aggregates (counts, byte sums, min/max, the exact log₂ latency
histograms from :mod:`repro.nt.perf`, and a deterministic mergeable
quantile digest for the figure 13/14 bands) produced by one-pass folds
(:func:`fold_frame`) over each machine's ``(n, 15)`` int64 record frame —
from a live collector or drained from a
:class:`~repro.nt.tracing.store.StoreStream` — with numpy integer
arithmetic for the record-level statistics and the machine's columnar
instance table for the instance-level ones.

Three properties carry the design:

* **Bounded memory.**  A fold holds one machine's record section at a
  time (120 bytes per record, plus that machine's instance table while
  it is folded); after :func:`fold_frame` returns only the sketch's
  fixed-size digests and one small integer row per machine remain.  Peak
  memory is flat in machine count.
* **Order-independent, byte-identical merges.**  Every fleet-level
  aggregate is a commutative integer accumulation (sparse bucket adds,
  min/max, keep-smallest-K samples); per-machine rows live under
  disjoint machine indices.  Serialization is canonical JSON, so any
  shard order — serial, ``--workers K``, reversed — produces the same
  bytes.  (No floats are accumulated: floats appear only at render
  time, computed from the same integers in the same order.)
* **Exact reconciliation.**  The instance semantics come from the same
  instance table the warehouse uses: :func:`fold_frame` and
  :func:`sketch_from_warehouse` fold per-machine
  :class:`~repro.analysis.sessions.InstanceTable` slices (segment-reduced
  columns, the data-op CSR and its sequential runs) through the same
  :func:`~repro.analysis.patterns.machine_row` and
  :func:`~repro.analysis.lifetimes.death_events`, so the materialized
  path reproduces the streaming sketch *bit for bit* at seed scale —
  :func:`reconcile_sketch` asserts it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Union, TYPE_CHECKING

import numpy as np

from repro.analysis.categories import (category_profiles,
                                      format_category_table)
from repro.analysis.lifetimes import METHODS, death_events
from repro.analysis.patterns import USAGES, machine_row, pattern_table
from repro.common.clock import (
    TICKS_PER_MICROSECOND,
    TICKS_PER_MILLISECOND,
    TICKS_PER_SECOND,
)
from repro.nt.perf import (
    BUCKET_EDGES_MICROS,
    BUCKET_EDGES_TICKS,
    LatencyHistogram,
    N_BUCKETS,
)
from repro.nt.tracing.records import TraceEventKind
from repro.nt.tracing.store import StoreStream, study_paths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.analysis.sessions import InstanceTable
    from repro.analysis.warehouse import TraceWarehouse
    from repro.nt.tracing.collector import TraceCollector
    from repro.workload.study import StudyResult

SKETCH_FORMAT = "nt-sketch-1"

# The figure 13/14 request-type split (mirrors repro.analysis.fastio).
REQUEST_TYPES = ("fastio-read", "fastio-write", "irp-read", "irp-write")
_KIND_TO_RTYPE = {
    int(TraceEventKind.IRP_READ): "irp-read",
    int(TraceEventKind.IRP_WRITE): "irp-write",
    int(TraceEventKind.FASTIO_READ): "fastio-read",
    int(TraceEventKind.FASTIO_WRITE): "fastio-write",
}
_READ_KINDS = frozenset((int(TraceEventKind.IRP_READ),
                         int(TraceEventKind.FASTIO_READ)))
_KIND_CREATE = int(TraceEventKind.IRP_CREATE)


# Figure 7's scatter keeps a deterministic sample: the K smallest
# (lifetime, size) pairs.  Keep-smallest-K over multisets is associative
# and commutative, so the sample too merges order-independently.
DEATH_SAMPLE_CAP = 4096


# --------------------------------------------------------------------- #
# The quantile digest.

_SUB_BITS = 3                 # 8 linear sub-buckets per power-of-two octave
_SUB = 1 << _SUB_BITS


def digest_bucket(value: int) -> int:
    """Bucket index of a non-negative integer value.

    HDR-histogram-style comb: values below 8 get exact buckets; above,
    each power-of-two octave is split into 8 linear sub-buckets, giving a
    relative error of at most 1/8 at every magnitude.  All arithmetic is
    integer (bit_length and shifts) — no libm, so the mapping is
    identical on every platform.
    """
    if value < _SUB:
        return value
    octave = value.bit_length() - 1
    sub = (value - (1 << octave)) >> (octave - _SUB_BITS)
    return ((octave - _SUB_BITS) << _SUB_BITS) + sub + _SUB


# 2**0 .. 2**62: searchsorted(_POW2, v, "right") == v.bit_length(), v >= 0.
_POW2 = np.left_shift(1, np.arange(63, dtype=np.int64))


def digest_buckets(values: np.ndarray) -> np.ndarray:
    """:func:`digest_bucket` over an int64 array, with the same integer
    arithmetic (``bit_length`` via a search over the powers of two)."""
    values = np.asarray(values, dtype=np.int64)
    # Clamping the octave to _SUB_BITS makes the comb formula return the
    # value itself below _SUB (negatives included), as the scalar does.
    octave = np.maximum(
        np.searchsorted(_POW2, values, side="right") - 1, _SUB_BITS)
    sub = (values - np.left_shift(1, octave)) >> (octave - _SUB_BITS)
    return ((octave - _SUB_BITS) << _SUB_BITS) + sub + _SUB


def digest_bucket_upper(index: int) -> int:
    """The largest value mapping to bucket ``index`` (the inverse comb)."""
    if index < _SUB:
        return index
    group, sub = divmod(index - _SUB, _SUB)
    octave = group + _SUB_BITS
    return (1 << octave) + ((sub + 1) << (octave - _SUB_BITS)) - 1


class Digest:
    """Deterministic mergeable quantile digest over non-negative ints.

    Sparse integer bucket weights over the :func:`digest_bucket` comb
    plus exact n/weight/min/max.  Updates and merges are commutative
    integer sums, so partial digests merge order-independently and —
    through the sketch's canonical serialization — byte-identically
    across shards, which the shard-order property tests assert.
    """

    __slots__ = ("buckets", "n", "weight", "vmin", "vmax")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.n = 0            # samples added
        self.weight = 0       # total weight
        self.vmin = -1        # -1 = empty
        self.vmax = -1

    def add(self, value: int, weight: int = 1) -> None:
        if weight <= 0:
            return            # zero-weight samples carry no mass
        value = 0 if value < 0 else int(value)
        idx = digest_bucket(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + weight
        self.n += 1
        self.weight += weight
        if self.vmin < 0 or value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def add_array(self, values: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> None:
        """:meth:`add` for every value of an int64 array, with weight 1
        or the matching entry of the int64 array ``weights``."""
        values = np.maximum(np.asarray(values, dtype=np.int64), 0)
        weights = (np.ones(len(values), dtype=np.int64) if weights is None
                   else np.asarray(weights, dtype=np.int64))
        carried = weights > 0
        values, weights = values[carried], weights[carried]
        if not len(values):
            return
        buckets = digest_buckets(values)
        order = np.argsort(buckets, kind="stable")
        buckets = buckets[order]
        starts = np.flatnonzero(np.diff(buckets, prepend=-1))
        masses = _exact_sums(weights[order], starts)
        for i, w in zip(buckets[starts].tolist(), masses):
            self.buckets[i] = self.buckets.get(i, 0) + w
        self.n += len(values)
        self.weight += sum(masses)
        lo = int(values.min())
        if self.vmin < 0 or lo < self.vmin:
            self.vmin = lo
        self.vmax = max(self.vmax, int(values.max()))

    def merge(self, other: "Digest") -> None:
        for idx, w in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + w
        self.n += other.n
        self.weight += other.weight
        if other.vmin >= 0 and (self.vmin < 0 or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    def cdf_points(self, scale: float = 1.0
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(x, cumulative fraction) over bucket upper edges, ``x/scale``.

        The last edge is clamped to the exact maximum, the first to the
        exact minimum, so single-bucket digests render faithfully.
        """
        if not self.weight:
            return np.array([]), np.array([])
        xs: list[float] = []
        ps: list[float] = []
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            x = max(min(digest_bucket_upper(idx), self.vmax), self.vmin)
            xs.append(x / scale)
            ps.append(cum / self.weight)
        return np.asarray(xs), np.asarray(ps)

    def quantile(self, q: float) -> float:
        """Upper bucket edge below which a fraction ``q`` of weight falls,
        clamped to the observed [min, max]."""
        if not self.weight:
            return float("nan")
        need = q * self.weight
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= need:
                return float(
                    max(min(digest_bucket_upper(idx), self.vmax),
                        self.vmin))
        return float(self.vmax)

    def llcd_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Figure 10: (log10 x, log10 ccdf) over the positive support."""
        if not self.weight:
            return np.array([]), np.array([])
        xs: list[float] = []
        ys: list[float] = []
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            upper = max(min(digest_bucket_upper(idx), self.vmax), self.vmin)
            ccdf = (self.weight - cum) / self.weight
            if upper > 0 and ccdf > 0:
                xs.append(np.log10(upper))
                ys.append(np.log10(ccdf))
        return np.asarray(xs), np.asarray(ys)

    def to_dict(self) -> dict:
        return {"b": {str(k): self.buckets[k]
                      for k in sorted(self.buckets)},
                "n": self.n, "w": self.weight,
                "min": self.vmin, "max": self.vmax}

    @classmethod
    def from_dict(cls, doc: dict) -> "Digest":
        d = cls()
        d.buckets = {int(k): v for k, v in doc["b"].items()}
        d.n = doc["n"]
        d.weight = doc["w"]
        d.vmin = doc["min"]
        d.vmax = doc["max"]
        return d


def _hist_to_dict(h: LatencyHistogram) -> dict:
    return h.to_dict()


def _hist_from_dict(name: str, doc: dict) -> LatencyHistogram:
    h = LatencyHistogram(name)
    h.count = doc["count"]
    h.sum_ticks = doc["sum_ticks"]
    h.max_ticks = doc["max_ticks"]
    h.bucket_counts = list(doc["bucket_counts"])
    return h


_BUCKET_EDGES = np.asarray(BUCKET_EDGES_TICKS, dtype=np.int64)


def _exact_sum(values: np.ndarray) -> int:
    """Sum of an int64 array as a Python int, without int64 wrap-around
    (exact below 2**31 values): the high and low 32-bit halves are summed
    separately."""
    return ((int((values >> 32).sum()) << 32)
            + int((values & 0xFFFFFFFF).sum()))


def _exact_sums(values: np.ndarray, starts: np.ndarray) -> list[int]:
    """:func:`_exact_sum` of each segment of ``values`` beginning at an
    index of ``starts``."""
    high = np.add.reduceat(values >> 32, starts).tolist()
    low = np.add.reduceat(values & 0xFFFFFFFF, starts).tolist()
    return [(h << 32) + lo for h, lo in zip(high, low)]


def _hist_observe(h: LatencyHistogram, ticks: np.ndarray) -> None:
    """``h.observe(t)`` for every ``t`` of an int64 array: searchsorted
    ``side="left"`` is ``observe``'s ``bisect_left``."""
    buckets = np.bincount(
        np.searchsorted(_BUCKET_EDGES, ticks, side="left"),
        minlength=N_BUCKETS + 1)
    h.bucket_counts = [a + b for a, b in zip(h.bucket_counts,
                                             buckets.tolist())]
    h.count += len(ticks)
    h.sum_ticks += _exact_sum(ticks)
    h.max_ticks = max(h.max_ticks, int(ticks.max()))


def _hist_merge(a: LatencyHistogram, b: LatencyHistogram) -> None:
    a.count += b.count
    a.sum_ticks += b.sum_ticks
    if b.max_ticks > a.max_ticks:
        a.max_ticks = b.max_ticks
    a.bucket_counts = [x + y
                       for x, y in zip(a.bucket_counts, b.bucket_counts)]


# --------------------------------------------------------------------- #
# The sketch.

class StatsSketch:
    """Mergeable streaming aggregates for one shard of a fleet study.

    Fleet-level state: record/kind counts, time bounds, the figure 13/14
    latency histograms and request-size digests, run-length / file-size /
    open-time / lifetime / interarrival / session digests, the figure 8
    burst bins and the figure 7 keep-K death sample.  Per-machine state:
    one row of plain integers keyed by machine index (disjoint across
    shards): the :func:`~repro.analysis.patterns.machine_row` counts the
    category and pattern tables render from, plus the machine's name,
    category, record count and created-file count.
    """

    def __init__(self, burst_bin_ticks: int = TICKS_PER_SECOND) -> None:
        if burst_bin_ticks <= 0:
            raise ValueError("burst_bin_ticks must be positive")
        self.burst_bin_ticks = burst_bin_ticks
        # Record-level.
        self.n_records = 0
        self.t_min = -1
        self.t_max = -1
        self.kind_counts: dict[int, int] = {}
        self.record_bytes_read = 0
        self.record_bytes_written = 0
        self.latency = {rt: LatencyHistogram(f"sketch.{rt}")
                        for rt in REQUEST_TYPES}
        self.req_size = {rt: Digest() for rt in REQUEST_TYPES}
        self.bursts: dict[int, int] = {}
        # Instance-level.
        self.runs_files = {"read": Digest(), "write": Digest()}
        self.runs_bytes = {"read": Digest(), "write": Digest()}
        self.size_opens = {u: Digest() for u in USAGES}
        self.size_bytes = {u: Digest() for u in USAGES}
        self.open_time = {"all": Digest(), "local": Digest(),
                          "network": Digest()}
        self.lifetime = {m: Digest() for m in METHODS}
        self.close_gap = {"overwrite": Digest(), "explicit": Digest()}
        self.death_size = Digest()
        self.death_lifetime = Digest()
        self.death_sample: list[tuple[int, int]] = []
        self.interarrival = {"all": Digest(), "data": Digest(),
                             "control": Digest()}
        self.session = {"all": Digest(), "data": Digest(),
                        "control": Digest()}
        self.category_sizes: dict[str, Digest] = {}
        # Per-machine rows, keyed by machine index.
        self.machines: dict[int, dict] = {}

    # -- folding ------------------------------------------------------- #

    def _update_frame(self, frame: np.ndarray) -> None:
        """Fold the record-level statistics of an ``(n, 15)`` record frame.

        Integer numpy arithmetic only; the result equals updating record
        by record in frame order (for the trace clock's non-negative
        ``t_start``).
        """
        if not len(frame):
            return
        kind = frame[:, 0]
        t_start = frame[:, 3]
        t_end = frame[:, 4]
        self.n_records += len(frame)
        # np.unique rather than bincount: the kind column comes from
        # archives, and bincount would size its output by the largest kind.
        kinds, counts = np.unique(kind, return_counts=True)
        for k, n in zip(kinds.tolist(), counts.tolist()):
            self.kind_counts[k] = self.kind_counts.get(k, 0) + n
        first = int(t_start.min())
        if self.t_min < 0 or first < self.t_min:
            self.t_min = first
        self.t_max = max(self.t_max, int(t_end.max()))
        for k, rtype in _KIND_TO_RTYPE.items():
            rows = kind == k
            if not rows.any():
                continue
            _hist_observe(self.latency[rtype], t_end[rows] - t_start[rows])
            self.req_size[rtype].add_array(frame[rows, 8])       # length
            returned = _exact_sum(frame[rows, 9])
            if k in _READ_KINDS:
                self.record_bytes_read += returned
            else:
                self.record_bytes_written += returned
        bins, counts = np.unique(
            t_start[kind == _KIND_CREATE] // self.burst_bin_ticks,
            return_counts=True)
        for b, n in zip(bins.tolist(), counts.tolist()):
            self.bursts[b] = self.bursts.get(b, 0) + n

    def _fold_instances(self, machine_idx: int, name: str, category: str,
                        n_records: int, table: "InstanceTable") -> None:
        """Fold one machine's instance table into the sketch.

        Every digest update is a commutative integer sum, so the table's
        row order does not matter; the death walk follows the table's
        (open_t, fo_id) order, the order both paths build.
        """
        if machine_idx in self.machines:
            raise ValueError(
                f"machine index {machine_idx} folded twice "
                f"(shards must be disjoint)")
        row = machine_row(table)
        row.update(name=name, category=category, n_records=n_records)
        self.machines[machine_idx] = row
        cat_sizes = self.category_sizes.get(category)
        if cat_sizes is None:
            cat_sizes = self.category_sizes[category] = Digest()

        opened = ~table.open_failed
        data = opened & table.has_data
        control = opened & ~table.has_data
        duration = table.session_duration
        self.session["all"].add_array(duration[opened])
        self.session["data"].add_array(duration[data])
        self.session["control"].add_array(duration[control])
        self.open_time["all"].add_array(duration[data])
        self.open_time["network"].add_array(duration[data & table.is_remote])
        self.open_time["local"].add_array(duration[data & ~table.is_remote])
        size = table.file_size_max
        transferred = table.bytes_transferred
        for code, usage in enumerate(USAGES, start=1):
            rows = data & (table.usage == code)
            self.size_opens[usage].add_array(size[rows])
            self.size_bytes[usage].add_array(size[rows], transferred[rows])
        cat_sizes.add_array(size[data])
        for direction, start, runs in (
                ("read", table.read_run_start, table.read_runs),
                ("write", table.write_run_start, table.write_runs)):
            runs = runs[np.repeat(data, np.diff(start))]
            self.runs_files[direction].add_array(runs)
            self.runs_bytes[direction].add_array(runs, runs)

        # Failed opens count as arrivals too.
        for times, purpose in ((table.open_t, "all"),
                               (table.open_t[data], "data"),
                               (table.open_t[control], "control")):
            self.interarrival[purpose].add_array(np.diff(np.sort(times)))

        n_created, deaths = death_events(table)
        row["n_created"] = n_created
        for code, method in enumerate(METHODS):
            died = deaths.method == code
            self.lifetime[method].add_array(deaths.lifetime[died])
            if method in self.close_gap:
                self.close_gap[method].add_array(deaths.close_gap[died])
        self.death_size.add_array(deaths.size)
        self.death_lifetime.add_array(deaths.lifetime)
        sample = sorted(zip(deaths.lifetime.tolist(), deaths.size.tolist()))
        self.death_sample = sorted(
            self.death_sample + sample[:DEATH_SAMPLE_CAP]
        )[:DEATH_SAMPLE_CAP]

    # -- merging ------------------------------------------------------- #

    def merge(self, other: "StatsSketch") -> None:
        """Commutative merge of a disjoint shard into this sketch."""
        if other.burst_bin_ticks != self.burst_bin_ticks:
            raise ValueError(
                f"burst bin mismatch: {self.burst_bin_ticks} vs "
                f"{other.burst_bin_ticks}")
        overlap = self.machines.keys() & other.machines.keys()
        if overlap:
            raise ValueError(
                f"shards overlap on machine indices {sorted(overlap)}")
        self.n_records += other.n_records
        if other.t_min >= 0 and (self.t_min < 0 or other.t_min < self.t_min):
            self.t_min = other.t_min
        if other.t_max > self.t_max:
            self.t_max = other.t_max
        for kind, n in other.kind_counts.items():
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + n
        self.record_bytes_read += other.record_bytes_read
        self.record_bytes_written += other.record_bytes_written
        for rt in REQUEST_TYPES:
            _hist_merge(self.latency[rt], other.latency[rt])
            self.req_size[rt].merge(other.req_size[rt])
        for b, n in other.bursts.items():
            self.bursts[b] = self.bursts.get(b, 0) + n
        for direction in ("read", "write"):
            self.runs_files[direction].merge(other.runs_files[direction])
            self.runs_bytes[direction].merge(other.runs_bytes[direction])
        for u in USAGES:
            self.size_opens[u].merge(other.size_opens[u])
            self.size_bytes[u].merge(other.size_bytes[u])
        for k in self.open_time:
            self.open_time[k].merge(other.open_time[k])
        for m in METHODS:
            self.lifetime[m].merge(other.lifetime[m])
        for m in self.close_gap:
            self.close_gap[m].merge(other.close_gap[m])
        self.death_size.merge(other.death_size)
        self.death_lifetime.merge(other.death_lifetime)
        self.death_sample = sorted(
            self.death_sample + other.death_sample)[:DEATH_SAMPLE_CAP]
        for k in self.interarrival:
            self.interarrival[k].merge(other.interarrival[k])
        for k in self.session:
            self.session[k].merge(other.session[k])
        for category, digest in other.category_sizes.items():
            mine = self.category_sizes.get(category)
            if mine is None:
                self.category_sizes[category] = mine = Digest()
            mine.merge(digest)
        self.machines.update(other.machines)

    # -- serialization ------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "format": SKETCH_FORMAT,
            "burst_bin_ticks": self.burst_bin_ticks,
            "records": {
                "n": self.n_records,
                "t_min": self.t_min, "t_max": self.t_max,
                "kinds": {str(k): self.kind_counts[k]
                          for k in sorted(self.kind_counts)},
                "bytes_read": self.record_bytes_read,
                "bytes_written": self.record_bytes_written,
                "latency": {rt: _hist_to_dict(self.latency[rt])
                            for rt in REQUEST_TYPES},
                "req_size": {rt: self.req_size[rt].to_dict()
                             for rt in REQUEST_TYPES},
                "bursts": {str(b): self.bursts[b]
                           for b in sorted(self.bursts)},
            },
            "instances": {
                "runs_files": {d: self.runs_files[d].to_dict()
                               for d in ("read", "write")},
                "runs_bytes": {d: self.runs_bytes[d].to_dict()
                               for d in ("read", "write")},
                "size_opens": {u: self.size_opens[u].to_dict()
                               for u in USAGES},
                "size_bytes": {u: self.size_bytes[u].to_dict()
                               for u in USAGES},
                "open_time": {k: v.to_dict()
                              for k, v in self.open_time.items()},
                "lifetime": {m: self.lifetime[m].to_dict()
                             for m in METHODS},
                "close_gap": {m: self.close_gap[m].to_dict()
                              for m in sorted(self.close_gap)},
                "death_size": self.death_size.to_dict(),
                "death_lifetime": self.death_lifetime.to_dict(),
                "death_sample": [list(p) for p in self.death_sample],
                "interarrival": {k: v.to_dict()
                                 for k, v in self.interarrival.items()},
                "session": {k: v.to_dict()
                            for k, v in self.session.items()},
            },
            "category_sizes": {c: self.category_sizes[c].to_dict()
                               for c in sorted(self.category_sizes)},
            "machines": {str(idx): self.machines[idx]
                         for idx in sorted(self.machines)},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StatsSketch":
        if doc.get("format") != SKETCH_FORMAT:
            raise ValueError(
                f"not a {SKETCH_FORMAT} document "
                f"(format={doc.get('format')!r})")
        sketch = cls(burst_bin_ticks=doc["burst_bin_ticks"])
        rec = doc["records"]
        sketch.n_records = rec["n"]
        sketch.t_min = rec["t_min"]
        sketch.t_max = rec["t_max"]
        sketch.kind_counts = {int(k): v for k, v in rec["kinds"].items()}
        sketch.record_bytes_read = rec["bytes_read"]
        sketch.record_bytes_written = rec["bytes_written"]
        sketch.latency = {rt: _hist_from_dict(f"sketch.{rt}",
                                              rec["latency"][rt])
                          for rt in REQUEST_TYPES}
        sketch.req_size = {rt: Digest.from_dict(rec["req_size"][rt])
                           for rt in REQUEST_TYPES}
        sketch.bursts = {int(b): n for b, n in rec["bursts"].items()}
        inst = doc["instances"]
        sketch.runs_files = {d: Digest.from_dict(inst["runs_files"][d])
                             for d in ("read", "write")}
        sketch.runs_bytes = {d: Digest.from_dict(inst["runs_bytes"][d])
                             for d in ("read", "write")}
        sketch.size_opens = {u: Digest.from_dict(inst["size_opens"][u])
                             for u in USAGES}
        sketch.size_bytes = {u: Digest.from_dict(inst["size_bytes"][u])
                             for u in USAGES}
        sketch.open_time = {k: Digest.from_dict(v)
                            for k, v in inst["open_time"].items()}
        sketch.lifetime = {m: Digest.from_dict(inst["lifetime"][m])
                           for m in METHODS}
        sketch.close_gap = {m: Digest.from_dict(v)
                            for m, v in inst["close_gap"].items()}
        sketch.death_size = Digest.from_dict(inst["death_size"])
        sketch.death_lifetime = Digest.from_dict(inst["death_lifetime"])
        sketch.death_sample = [tuple(p) for p in inst["death_sample"]]
        sketch.interarrival = {k: Digest.from_dict(v)
                               for k, v in inst["interarrival"].items()}
        sketch.session = {k: Digest.from_dict(v)
                          for k, v in inst["session"].items()}
        sketch.category_sizes = {c: Digest.from_dict(v)
                                 for c, v in doc["category_sizes"].items()}
        sketch.machines = {int(idx): row
                           for idx, row in doc["machines"].items()}
        return sketch

    def canonical_bytes(self) -> bytes:
        """Canonical serialization: the byte-identity surface."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- convenience --------------------------------------------------- #

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_instances(self) -> int:
        return sum(row["n_instances"] for row in self.machines.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StatsSketch {self.n_records} records, "
                f"{self.n_machines} machines>")


# --------------------------------------------------------------------- #
# Producers: one-pass folds.

def fold_frame(sketch: StatsSketch, machine_idx: int, name: str,
               category: str, frame: np.ndarray, name_records) -> None:
    """Fold one machine's record frame and its name records.

    The record-level statistics come from :meth:`StatsSketch._update_frame`;
    the instances from the columnar instance table of
    :func:`~repro.analysis.sessions.frame_instances`.
    """
    from repro.analysis.sessions import frame_instances

    sketch._update_frame(frame)
    # Last name record per file object wins, as in the warehouse.
    names = {nr.fo_id: (nr.path, nr.volume_label, nr.volume_is_remote)
             for nr in name_records}
    sketch._fold_instances(machine_idx, name, category, len(frame),
                           frame_instances(frame, machine_idx, names.get))


def fold_collector(sketch: StatsSketch, machine_idx: int, category: str,
                   collector: "TraceCollector") -> None:
    """Fold one in-memory collector into the sketch (streaming campaign
    path: the collector is discarded right after)."""
    fold_frame(sketch, machine_idx, collector.machine_name, category,
               collector.record_frame(), collector.name_records)


def fold_store_file(sketch: StatsSketch, machine_idx: int, category: str,
                    path: Union[str, "Path"]) -> None:
    """Fold one archived ``.nttrace`` file, never building its collector."""
    stream = StoreStream(path)
    frame = stream.record_frame()
    name_records, _processes, _interactive = stream.tail_sections()
    fold_frame(sketch, machine_idx, stream.machine_name, category, frame,
               name_records)


def sketch_from_study(result: "StudyResult",
                      burst_bin_ticks: int = TICKS_PER_SECOND
                      ) -> StatsSketch:
    """Fold a finished in-memory study, machine by machine."""
    sketch = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    categories = result.machine_categories
    for midx, collector in enumerate(result.collectors):
        fold_collector(sketch, midx,
                       categories.get(collector.machine_name, "unknown"),
                       collector)
    return sketch


def sketch_from_archive(directory: Union[str, "Path"],
                        categories: Optional[dict[str, str]] = None,
                        burst_bin_ticks: int = TICKS_PER_SECOND
                        ) -> StatsSketch:
    """Fold an archived study directory, one store file at a time."""
    sketch = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    categories = categories or {}
    for midx, path in enumerate(study_paths(directory)):
        category = categories.get(path.stem, "unknown")
        fold_store_file(sketch, midx, category, path)
    return sketch


def sketch_from_warehouse(wh: "TraceWarehouse",
                          burst_bin_ticks: int = TICKS_PER_SECOND
                          ) -> StatsSketch:
    """The materialized control path: the same sketch computed from the
    columnar warehouse, for exact reconciliation at seed scale."""
    sketch = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    n_machines = len(wh.machine_names)
    # Record-level stats from the columns (rows are machine-major).
    per_machine_records = np.bincount(
        wh.machine_idx, minlength=n_machines) if wh.n_records \
        else np.zeros(n_machines, dtype=np.int64)
    sketch._update_frame(wh.record_frame())
    # Instance-level stats: one machine slice of the warehouse's table
    # at a time, as the streaming fold sees them.
    machines = wh.instance_table.by_machine(n_machines)
    for idx, (name, table) in enumerate(zip(wh.machine_names, machines)):
        sketch._fold_instances(idx, name,
                               wh.machine_categories.get(name, "unknown"),
                               int(per_machine_records[idx]), table)
    return sketch


# --------------------------------------------------------------------- #
# Reconciliation.

def _diff_docs(prefix: str, a, b, problems: list[str],
               limit: int = 25) -> None:
    if len(problems) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                problems.append(f"{prefix}{key}: only in warehouse sketch")
            elif key not in b:
                problems.append(f"{prefix}{key}: only in streaming sketch")
            else:
                _diff_docs(f"{prefix}{key}.", a[key], b[key], problems,
                           limit)
            if len(problems) >= limit:
                return
    elif a != b:
        problems.append(f"{prefix[:-1]}: streaming={a!r} warehouse={b!r}")


def reconcile_sketch(sketch: StatsSketch,
                     wh: "TraceWarehouse") -> list[str]:
    """Exact reconciliation: every count, byte sum, histogram bucket and
    digest bucket of the streaming sketch must equal the same sketch
    computed from the materialized warehouse.  Returns problem strings
    (empty = exact match)."""
    expected = sketch_from_warehouse(
        wh, burst_bin_ticks=sketch.burst_bin_ticks)
    problems: list[str] = []
    _diff_docs("", sketch.to_dict(), expected.to_dict(), problems)
    return problems


# --------------------------------------------------------------------- #
# Streaming figure series and report.

def _latency_band_cdf(hist: LatencyHistogram
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Figure 13 bands from the exact log₂ histogram buckets."""
    if not hist.count:
        return np.array([]), np.array([])
    max_micros = hist.max_ticks / TICKS_PER_MICROSECOND
    xs: list[float] = []
    ps: list[float] = []
    cum = 0
    for idx, n in enumerate(hist.bucket_counts):
        if n == 0:
            continue
        cum += n
        upper = (float(BUCKET_EDGES_MICROS[idx]) if idx < N_BUCKETS
                 else max_micros)
        xs.append(min(upper, max_micros))
        ps.append(cum / hist.count)
    return np.asarray(xs), np.asarray(ps)


def _burstiness_series(sketch: StatsSketch,
                       rng: np.random.Generator) -> Optional[dict]:
    """Figure 8 off the sparse burst bins: trace index of dispersion at
    1×/10×/100× the base bin width vs a rate-matched Poisson synthesis."""
    from repro.stats.poisson import (aggregate_counts, index_of_dispersion,
                                     synthesize_poisson_arrivals)

    n_creates = sum(sketch.bursts.values())
    if n_creates < 100 or not sketch.bursts:
        return None
    base_seconds = sketch.burst_bin_ticks / TICKS_PER_SECOND
    n_base = max(sketch.bursts) + 1
    duration = n_base * base_seconds
    factors = tuple(f for f in (1, 10, 100)
                    if n_base / f >= 8)
    if not factors:
        return None
    synth = synthesize_poisson_arrivals(n_creates / duration, duration,
                                        rng)
    intervals: list[float] = []
    trace_iods: list[float] = []
    poisson_iods: list[float] = []
    for factor in factors:
        counts = [0] * ((n_base + factor - 1) // factor)
        for b, n in sketch.bursts.items():
            counts[b // factor] += n
        interval = factor * base_seconds
        intervals.append(interval)
        trace_iods.append(index_of_dispersion(counts))
        poisson_iods.append(index_of_dispersion(
            aggregate_counts(synth, interval, duration)))
    return {
        "trace_iod": (np.asarray(intervals), np.asarray(trace_iods)),
        "poisson_iod": (np.asarray(intervals), np.asarray(poisson_iods)),
    }


def streaming_figure_series(sketch: StatsSketch,
                            rng: Optional[np.random.Generator] = None
                            ) -> dict[str, dict[str, tuple]]:
    """Every paper figure as plain (x, y) series, off the sketch alone.

    Same figure keys and axis units as
    :func:`~repro.analysis.figures.figure_series`; CDF x positions come
    from digest bucket edges (≤ 1/8 relative error) while counts,
    weights and the figure 13 histogram buckets are exact.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    figures: dict[str, dict[str, tuple]] = {}

    figures["fig01_run_length_by_files"] = {
        "read_runs": sketch.runs_files["read"].cdf_points(),
        "write_runs": sketch.runs_files["write"].cdf_points(),
    }
    figures["fig02_run_length_by_bytes"] = {
        "read_runs": sketch.runs_bytes["read"].cdf_points(),
        "write_runs": sketch.runs_bytes["write"].cdf_points(),
    }
    figures["fig03_file_size_by_opens"] = {
        u: sketch.size_opens[u].cdf_points() for u in USAGES
        if sketch.size_opens[u].n}
    figures["fig04_file_size_by_bytes"] = {
        u: sketch.size_bytes[u].cdf_points() for u in USAGES
        if sketch.size_opens[u].n}

    fig5 = {"all": sketch.open_time["all"].cdf_points(
        scale=TICKS_PER_MILLISECOND)}
    if sketch.open_time["local"].n:
        fig5["local"] = sketch.open_time["local"].cdf_points(
            scale=TICKS_PER_MILLISECOND)
    if sketch.open_time["network"].n:
        fig5["network"] = sketch.open_time["network"].cdf_points(
            scale=TICKS_PER_MILLISECOND)
    figures["fig05_open_times"] = fig5

    figures["fig06_new_file_lifetimes"] = {
        m: sketch.lifetime[m].cdf_points(scale=TICKS_PER_SECOND)
        for m in METHODS if sketch.lifetime[m].n}
    sample = sketch.death_sample
    figures["fig07_size_vs_lifetime"] = {
        "scatter": (np.asarray([s for _lt, s in sample], dtype=float),
                    np.asarray([lt for lt, _s in sample], dtype=float)
                    / TICKS_PER_SECOND)}

    figures["fig11_open_interarrival"] = {
        purpose: sketch.interarrival[purpose].cdf_points(
            scale=TICKS_PER_MILLISECOND)
        for purpose in ("all", "data", "control")}
    figures["fig12_session_lifetime"] = {
        population: sketch.session[population].cdf_points(
            scale=TICKS_PER_MILLISECOND)
        for population in ("all", "data", "control")}
    figures["fig10_llcd"] = {
        "open_interarrival": sketch.interarrival["all"].llcd_points()}
    bursts = _burstiness_series(sketch, rng)
    if bursts is not None:
        figures["fig08_burstiness"] = bursts

    figures["fig13_latency"] = {
        rt: _latency_band_cdf(sketch.latency[rt]) for rt in REQUEST_TYPES
        if sketch.latency[rt].count}
    figures["fig14_request_size"] = {
        rt: sketch.req_size[rt].cdf_points() for rt in REQUEST_TYPES
        if sketch.req_size[rt].n}
    return figures


def format_streaming_report(sketch: StatsSketch,
                            duration_ticks: Optional[int] = None) -> str:
    """The campaign report: summary, category table, table 3, latency
    bands — everything off the sketch."""
    if duration_ticks is None:
        duration_ticks = max(sketch.t_max, 0)
    rows = [sketch.machines[idx] for idx in sorted(sketch.machines)]
    lines = [
        f"Streaming study sketch: {sketch.n_machines} machines, "
        f"{sketch.n_records:,} records, {sketch.n_instances:,} instances",
        f"  span: {max(sketch.t_max, 0) / TICKS_PER_SECOND:.1f} s   "
        f"bytes read {sketch.record_bytes_read:,}   "
        f"written {sketch.record_bytes_written:,}",
    ]
    deaths = sum(sketch.lifetime[m].n for m in METHODS)
    created = sum(row["n_created"] for row in sketch.machines.values())
    if created:
        lines.append(f"  new files: {created:,} created, "
                     f"{deaths:,} died in trace")
    profiles = category_profiles(
        rows, duration_ticks,
        {category: (digest.quantile(0.5), digest.quantile(0.9))
         for category, digest in sketch.category_sizes.items()})
    if profiles:
        lines.append("")
        lines.append("Per-category (streaming):")
        lines.append(format_category_table(profiles))
    lines.append("")
    lines.append("Access patterns (table 3, streaming):")
    lines.append(pattern_table(rows).format())
    lines.append("")
    lines.append("Latency bands (figure 13, exact log2 buckets):")
    lines.append("%-14s %10s %12s %12s %12s" % (
        "request type", "n", "p50 us", "p90 us", "max us"))
    for rt in REQUEST_TYPES:
        hist = sketch.latency[rt]
        if not hist.count:
            continue
        lines.append(
            f"{rt:<14} {hist.count:10,d} "
            f"{hist.quantile_micros(0.5):12.1f} "
            f"{hist.quantile_micros(0.9):12.1f} "
            f"{hist.max_ticks / TICKS_PER_MICROSECOND:12.1f}")
    return "\n".join(lines)
