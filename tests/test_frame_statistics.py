"""Property tests for the vectorised record-level statistics.

The sketch folds a machine's ``(n, 15)`` int64 record frame with numpy
integer arithmetic (:meth:`StatsSketch._update_frame`).  These tests hold
it to the per-record definitions it replaced:

* the vectorised digest comb equals the scalar :func:`digest_bucket`, and
  the latency bucket equals ``bisect_left(BUCKET_EDGES_TICKS, d)``, on
  zero, negatives, every ``2**k - 1 / 2**k / 2**k + 1`` up to ``2**62``
  and random int64 values;
* ``_update_frame`` equals :func:`_reference_update`, the record-by-record
  fold kept here as the oracle;
* an empty frame changes no statistic but still yields the machine row.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming import (
    StatsSketch,
    digest_bucket,
    digest_buckets,
    fold_collector,
    fold_frame,
)
from repro.nt.perf import BUCKET_EDGES_TICKS, LatencyHistogram
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import RECORD_FIELDS
from repro.nt.tracing.records import TraceEventKind

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
_EDGE_VALUES = sorted({0, 1, -1, -8, 7, 8, _I64_MIN, _I64_MAX} | {
    v for k in range(63) for v in (2 ** k - 1, 2 ** k, 2 ** k + 1)})
_int64 = st.integers(min_value=_I64_MIN, max_value=_I64_MAX)

_KIND_TO_RTYPE = {
    int(TraceEventKind.IRP_READ): "irp-read",
    int(TraceEventKind.IRP_WRITE): "irp-write",
    int(TraceEventKind.FASTIO_READ): "fastio-read",
    int(TraceEventKind.FASTIO_WRITE): "fastio-write",
}
_READ_KINDS = (int(TraceEventKind.IRP_READ), int(TraceEventKind.FASTIO_READ))
_KIND_CREATE = int(TraceEventKind.IRP_CREATE)


def _reference_update(sketch: StatsSketch, frame: np.ndarray) -> None:
    """The record-at-a-time fold: one record's statistics per row."""
    for row in frame.tolist():
        kind, t_start, t_end = row[0], row[3], row[4]
        length, returned = row[8], row[9]
        sketch.n_records += 1
        sketch.kind_counts[kind] = sketch.kind_counts.get(kind, 0) + 1
        if sketch.t_min < 0 or t_start < sketch.t_min:
            sketch.t_min = t_start
        if t_end > sketch.t_max:
            sketch.t_max = t_end
        rtype = _KIND_TO_RTYPE.get(kind)
        if rtype is not None:
            sketch.latency[rtype].observe(t_end - t_start)
            sketch.req_size[rtype].add(length)
            if kind in _READ_KINDS:
                sketch.record_bytes_read += returned
            else:
                sketch.record_bytes_written += returned
        elif kind == _KIND_CREATE:
            b = t_start // sketch.burst_bin_ticks
            sketch.bursts[b] = sketch.bursts.get(b, 0) + 1


# --------------------------------------------------------------------- #
# The bucket functions.

def test_digest_buckets_match_scalar_on_edges():
    values = np.array(_EDGE_VALUES, dtype=np.int64)
    assert digest_buckets(values).tolist() == \
        [digest_bucket(v) for v in _EDGE_VALUES]


@settings(max_examples=300, deadline=None)
@given(st.lists(_int64, max_size=50))
def test_digest_buckets_match_scalar(values):
    arr = np.array(values, dtype=np.int64)
    assert digest_buckets(arr).tolist() == [digest_bucket(v) for v in values]


def _latency_buckets(values) -> list[int]:
    edges = np.asarray(BUCKET_EDGES_TICKS, dtype=np.int64)
    return np.searchsorted(edges, np.array(values, dtype=np.int64),
                           side="left").tolist()


def test_latency_bucket_is_bisect_left_on_edges():
    edge_ticks = sorted(set(_EDGE_VALUES) | {
        e + d for e in BUCKET_EDGES_TICKS for d in (-1, 0, 1)})
    assert _latency_buckets(edge_ticks) == \
        [bisect_left(BUCKET_EDGES_TICKS, d) for d in edge_ticks]


@settings(max_examples=300, deadline=None)
@given(st.lists(_int64, max_size=50))
def test_latency_bucket_is_bisect_left(values):
    assert _latency_buckets(values) == \
        [bisect_left(BUCKET_EDGES_TICKS, d) for d in values]


# --------------------------------------------------------------------- #
# _update_frame against the record-at-a-time oracle.

# Kinds weighted toward the ones the fold treats specially.
_kinds = st.one_of(st.sampled_from(sorted(_KIND_TO_RTYPE) + [_KIND_CREATE]),
                   st.integers(min_value=0, max_value=53))


@st.composite
def _rows(draw):
    """One record: trace-clock t_start >= 0, a duration of either sign,
    and request lengths and transfer counts across the int64 range."""
    t_start = draw(st.integers(min_value=0, max_value=2 ** 40))
    row = [draw(st.integers(min_value=-2 ** 40, max_value=2 ** 40))
           for _ in range(RECORD_FIELDS)]
    row[0] = draw(_kinds)
    row[3] = t_start
    row[4] = t_start + draw(st.integers(min_value=-2 ** 20,
                                        max_value=2 ** 40))
    row[8] = draw(st.one_of(st.sampled_from(_EDGE_VALUES[:40]),
                            st.integers(min_value=-2 ** 62,
                                        max_value=2 ** 62)))
    row[9] = draw(_int64)
    return row


def _frame(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, RECORD_FIELDS)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rows(), max_size=40), st.lists(_rows(), max_size=40),
       st.integers(min_value=1, max_value=10 ** 8))
def test_update_frame_matches_record_fold(prefix, rows, burst_bin_ticks):
    vectorised = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    vectorised._update_frame(_frame(prefix))
    vectorised._update_frame(_frame(rows))
    reference = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    _reference_update(reference, _frame(prefix + rows))
    assert vectorised.to_dict() == reference.to_dict()
    assert vectorised.canonical_bytes() == reference.canonical_bytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(_int64, min_size=1, max_size=40))
def test_histogram_update_matches_observe(ticks):
    # Durations of IRP reads across the whole int64 range (t_start 0).
    frame = np.zeros((len(ticks), RECORD_FIELDS), dtype=np.int64)
    frame[:, 0] = int(TraceEventKind.IRP_READ)
    frame[:, 4] = ticks
    sketch = StatsSketch()
    sketch._update_frame(frame)
    expected = LatencyHistogram("sketch.irp-read")
    for t in ticks:
        expected.observe(t)
    assert sketch.latency["irp-read"].to_dict() == expected.to_dict()


# --------------------------------------------------------------------- #
# The empty frame.

def test_empty_frame_is_a_noop_with_a_machine_row():
    sketch = StatsSketch()
    fold_frame(sketch, 3, "m03", "walkup",
               np.empty((0, RECORD_FIELDS), dtype=np.int64), [])
    fresh = StatsSketch().to_dict()
    doc = sketch.to_dict()
    assert doc["records"] == fresh["records"]
    assert doc["instances"] == fresh["instances"]
    assert list(sketch.machines) == [3]
    row = sketch.machines[3]
    assert (row["name"], row["category"]) == ("m03", "walkup")
    assert row["n_records"] == row["n_instances"] == 0


def test_empty_collector_folds_like_an_empty_frame():
    via_collector = StatsSketch()
    fold_collector(via_collector, 0, "walkup", TraceCollector("m00"))
    via_frame = StatsSketch()
    fold_frame(via_frame, 0, "m00", "walkup",
               np.empty((0, RECORD_FIELDS), dtype=np.int64), [])
    assert via_collector.sha256() == via_frame.sha256()
