"""Round-trip tests for the packed trace format.

``pack_collector``/``unpack_collector`` is both the .nttrace archive
payload and the parallel engine's wire format between worker processes
and the parent — so lossiness here would silently corrupt parallel runs,
not just archives.  These tests assert exact record-level equality after
a round trip, for the shared study fixture and for a study with periodic
snapshots (the snapshot path carries the most structure).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import StudyConfig, run_study
from repro.analysis.streaming import StatsSketch, fold_collector
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import FastRecordBuffer
from repro.nt.tracing.store import (load_collector, load_study,
                                    pack_collector, save_collector,
                                    save_study, unpack_collector)

from tests.conftest import collector_state


def _assert_collectors_equal(original, restored) -> None:
    assert collector_state(restored) == collector_state(original), \
        f"round trip lost state for {original.machine_name}"


class TestPackRoundTrip:
    def test_pack_unpack_is_identity(self, small_study):
        for collector in small_study.collectors:
            restored = unpack_collector(pack_collector(collector))
            _assert_collectors_equal(collector, restored)

    def test_pack_is_deterministic(self, small_study):
        collector = small_study.collectors[0]
        assert pack_collector(collector) == pack_collector(collector)

    def test_repack_after_unpack_is_stable(self, small_study):
        # unpack → pack must converge immediately: the unpacked form
        # holds plain ints where the original holds IntEnums, and both
        # must serialise to the same bytes.
        collector = small_study.collectors[0]
        packed = pack_collector(collector)
        assert pack_collector(unpack_collector(packed)) == packed


class TestFileRoundTrip:
    def test_save_load_collector(self, small_study, tmp_path):
        collector = small_study.collectors[0]
        path = tmp_path / "one.nttrace"
        n_bytes = save_collector(collector, path)
        assert n_bytes == path.stat().st_size
        _assert_collectors_equal(collector, load_collector(path))

    def test_save_load_study(self, small_study, tmp_path):
        save_study(small_study.collectors, tmp_path)
        restored = load_study(tmp_path)
        assert [c.machine_name for c in restored] == \
            [c.machine_name for c in small_study.collectors]
        for original, loaded in zip(small_study.collectors, restored):
            _assert_collectors_equal(original, loaded)


class TestPeriodicSnapshotRoundTrip:
    def test_mid_run_walks_survive(self, tmp_path):
        result = run_study(StudyConfig(
            n_machines=2, duration_seconds=8.0, seed=23, content_scale=0.05,
            with_network_shares=False, snapshot_interval_seconds=3.0))
        for collector in result.collectors:
            # Start + end + periodic walks: the structure under test.
            assert len(collector.snapshots) > 2
            restored = unpack_collector(pack_collector(collector))
            _assert_collectors_equal(collector, restored)

    def test_parallel_transport_equals_archive_path(self):
        """The parallel engine's wire bytes are exactly the archive payload."""
        config = StudyConfig(n_machines=2, duration_seconds=6.0, seed=31,
                             content_scale=0.05, with_network_shares=False)
        serial = run_study(config)
        parallel = run_study(dataclasses.replace(config, workers=2))
        for cs, cp in zip(serial.collectors, parallel.collectors):
            assert pack_collector(cs) == pack_collector(cp)


def _restaged(source, materialise_after=None, capacity=500):
    """``source``'s records re-staged as ``capacity``-record blocks.

    With ``materialise_after``, ``.records`` is read once that many rows
    have been staged, so the copy holds materialised records followed by
    blocks received after the read.
    """
    rows = [dataclasses.astuple(r) for r in source.records]
    copy = TraceCollector(source.machine_name)
    copy.name_records = list(source.name_records)
    copy.process_names = dict(source.process_names)
    copy.process_interactive = dict(source.process_interactive)
    split = len(rows) if materialise_after is None else materialise_after
    buf = FastRecordBuffer(copy.receive_block, capacity=capacity)
    for row in rows[:split]:
        buf.append_row(row)
    if materialise_after is not None:
        buf.drain()
        assert len(copy.records) == split
    for row in rows[split:]:
        buf.append_row(row)
    buf.drain()
    return copy, rows


class TestMixedCollectors:
    """Materialised records followed by staged blocks, as when
    ``.records`` is read while a machine is still tracing."""

    @pytest.fixture
    def mixed(self, small_study):
        source = small_study.collectors[0]
        mixed, rows = _restaged(source, materialise_after=len(source) // 3)
        records, blocks = mixed.record_chunks()
        assert records and blocks
        return source, mixed, rows

    def test_record_frame_in_record_order(self, mixed):
        _source, collector, rows = mixed
        assert [tuple(r) for r in collector.record_frame().tolist()] == rows

    def test_fold_equals_blocks_only_fold(self, mixed):
        source, collector, _rows = mixed
        blocks_only, _ = _restaged(source)
        assert not blocks_only.record_chunks()[0]
        sketches = []
        for c in (collector, blocks_only):
            sketch = StatsSketch()
            fold_collector(sketch, 0, "walkup", c)
            sketches.append(sketch.sha256())
        assert sketches[0] == sketches[1]

    def test_pack_round_trip(self, mixed):
        _source, collector, _rows = mixed
        restored = unpack_collector(pack_collector(collector))
        assert len(restored) == len(collector)
        assert restored.records == collector.records
