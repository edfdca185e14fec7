"""The replay engine's contracts.

Three layers of guarantee, mirroring the serial-vs-parallel differential
harness in ``test_parallel_study.py``:

* **Fidelity** — a closed-loop replay of an archived study reproduces the
  source's per-kind record counts exactly for the core data path (create,
  read, write on both dispatch paths, cleanup, close), and anything it
  cannot re-issue is flagged in the outcome with a reason, never dropped
  silently.
* **Determinism** — replaying the same archive twice produces
  byte-identical second-generation archives, and the ``--workers``
  process-pool fan-out produces the same bytes as the serial loop.
* **Plumbing** — open-loop mode honors archived start times, the CLI
  round-trips a study through ``repro replay``, and malformed inputs
  fail with named errors.
* **Columnar injection** — the initiator's per-kind plan table agrees
  with the inverse maps in :mod:`repro.nt.tracing.records`, and replay
  reads the source's record frame without materialising a
  ``TraceRecord``.
"""

from __future__ import annotations

import json

import pytest

from repro import StudyConfig, StudyError, run_study
from repro.analysis.fidelity import (CORE_KINDS, TraceStats, fidelity_report,
                                     machine_fidelity)
from repro.cli import main as cli_main
from repro.nt.io.initiator import KIND_PLANS
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import (
    N_EVENT_KINDS,
    TraceEventKind,
    TraceRecord,
    fastio_op_for_kind,
    irp_for_kind,
)
from repro.nt.tracing.store import (
    iter_trace_records,
    load_collector,
    pack_collector,
    save_study,
    study_paths)
from repro.replay import ReplayConfig, replay_archive, replay_collector


def _study_archive(tmp_path_factory, seed: int = 5):
    """A small two-machine study saved as a .nttrace archive."""
    result = run_study(StudyConfig(
        n_machines=2, duration_seconds=20.0, seed=seed, content_scale=0.05))
    directory = tmp_path_factory.mktemp(f"replay-archive-{seed}")
    save_study(result.collectors, directory)
    return result, directory


@pytest.fixture(scope="module")
def archived_study(tmp_path_factory):
    return _study_archive(tmp_path_factory)


@pytest.fixture(scope="module")
def closed_replay(archived_study):
    _result, directory = archived_study
    return replay_archive(directory, ReplayConfig(mode="closed", seed=5))


class TestClosedLoopFidelity:
    def test_record_counts_match_exactly(self, archived_study, closed_replay):
        result, _directory = archived_study
        assert len(closed_replay.machines) == len(result.collectors)
        for source, machine in zip(result.collectors, closed_replay.machines):
            assert machine.name == source.machine_name
            assert len(machine.collector.records) == len(source.records)

    def test_core_kind_counts_exact(self, archived_study, closed_replay):
        result, _directory = archived_study
        pairs = [(m.name, src.records, m.collector.records,
                  m.outcome.to_dict())
                 for src, m in zip(result.collectors, closed_replay.machines)]
        report = fidelity_report(pairs, mode="closed")
        assert report.all_core_match
        for fidelity in report.machines:
            assert fidelity.core_mismatches == {}
            # Not just equal-and-zero: the study must actually exercise
            # the whole core path for the exactness claim to mean much.
            for kind in CORE_KINDS:
                assert fidelity.source.kind_counts[kind] > 0, kind

    def test_every_kind_count_matches(self, archived_study, closed_replay):
        # Stronger than the core-path gate: with the replay machine fully
        # quiesced, *every* kind's count should reproduce.
        result, _directory = archived_study
        for source, machine in zip(result.collectors, closed_replay.machines):
            fidelity = machine_fidelity(machine.name, source.records,
                                        machine.collector.records)
            assert fidelity.kind_deltas == {}

    def test_size_distributions_identical(self, archived_study,
                                          closed_replay):
        result, _directory = archived_study
        for source, machine in zip(result.collectors, closed_replay.machines):
            fidelity = machine_fidelity(machine.name, source.records,
                                        machine.collector.records)
            assert fidelity.read_size_ks == 0.0
            assert fidelity.write_size_ks == 0.0
            assert fidelity.source.sequential_fraction == \
                pytest.approx(fidelity.replayed.sequential_fraction)

    def test_nothing_skipped(self, closed_replay):
        assert closed_replay.total_skipped == 0
        for machine in closed_replay.machines:
            assert machine.outcome.skipped == {}
            assert machine.outcome.source_records == \
                machine.outcome.replayed_records

    def test_replay_perf_counters(self, closed_replay):
        for machine in closed_replay.machines:
            counters = machine.perf["counters"]
            assert counters["replay.records_injected"] == \
                sum(machine.outcome.injected.values())
            gauges = machine.perf["gauges"]
            assert gauges["replay.divergence.skipped"] == 0


class TestOpenLoop:
    def test_open_loop_completes_with_same_counts(self, archived_study):
        result, directory = archived_study
        replay = replay_archive(directory, ReplayConfig(mode="open", seed=5))
        for source, machine in zip(result.collectors, replay.machines):
            assert len(machine.collector.records) == len(source.records)

    def test_open_loop_honors_recorded_start_times(self, archived_study):
        # In open-loop mode a record never starts before its archived
        # t_start; closed-loop compresses idle time so it finishes sooner.
        result, directory = archived_study
        open_rep = replay_archive(directory, ReplayConfig(mode="open",
                                                          seed=5))
        closed_rep = replay_archive(directory, ReplayConfig(mode="closed",
                                                            seed=5))
        for source, opened, closed in zip(
                result.collectors, open_rep.machines, closed_rep.machines):
            last_source = max(rec.t_start for rec in source.records)
            last_open = max(rec.t_end for rec in opened.collector.records)
            last_closed = max(rec.t_end for rec in closed.collector.records)
            assert last_open >= last_source
            assert last_closed < last_open


class TestDeterminism:
    def test_replay_twice_byte_identical(self, archived_study, closed_replay,
                                         tmp_path):
        _result, directory = archived_study
        again = replay_archive(directory, ReplayConfig(mode="closed", seed=5))
        for first, second in zip(closed_replay.machines, again.machines):
            assert pack_collector(first.collector) == \
                pack_collector(second.collector)
            assert first.outcome.to_dict() == second.outcome.to_dict()
            assert first.perf == second.perf
        # And the archives those collectors save are byte-identical too.
        save_study([m.collector for m in again.machines], tmp_path)
        for machine, path in zip(closed_replay.machines,
                                 study_paths(tmp_path)):
            saved = pack_collector(load_collector(path))
            assert saved == pack_collector(machine.collector)

    def test_serial_and_parallel_byte_identical(self, archived_study,
                                                closed_replay):
        _result, directory = archived_study
        parallel = replay_archive(
            directory, ReplayConfig(mode="closed", seed=5, workers=2))
        for serial_m, parallel_m in zip(closed_replay.machines,
                                        parallel.machines):
            assert pack_collector(serial_m.collector) == \
                pack_collector(parallel_m.collector)
            assert serial_m.outcome.to_dict() == parallel_m.outcome.to_dict()
            assert serial_m.perf == parallel_m.perf


def _record(kind: int, fo_id: int) -> TraceRecord:
    return TraceRecord(kind=int(kind), fo_id=fo_id, pid=8, t_start=0,
                       t_end=10, status=0, irp_flags=0, offset=0,
                       length=0, returned=0, file_size=0, disposition=1,
                       options=0, attributes=0, info=0)


class TestUnreplayableRecords:
    def test_orphan_records_flagged_not_dropped(self):
        # A CREATE with no name record, and a READ on a never-created file
        # object, cannot be reconstructed; both must be accounted for.
        source = TraceCollector("m00-orphans")
        source.records.extend([
            _record(TraceEventKind.IRP_CREATE, fo_id=100),
            _record(TraceEventKind.IRP_READ, fo_id=200),
        ])
        machine = replay_collector(source)
        outcome = machine.outcome
        assert outcome.source_records == 2
        assert outcome.replayed_records == 0
        assert outcome.skipped["IRP_CREATE"]["no name record"] == 1
        assert outcome.skipped["IRP_READ"]["no file object mapping"] == 1
        report = fidelity_report(
            [(machine.name, source.records, machine.collector.records,
              outcome.to_dict())], mode="closed")
        assert not report.all_core_match
        assert report.total_skipped == 2
        assert "unreplayable IRP_CREATE: 1 (no name record)" in \
            report.format()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="replay mode"):
            ReplayConfig(mode="sideways")


class TestColumnarInjection:
    def test_plan_table_matches_inverse_maps(self):
        assert len(KIND_PLANS) == N_EVENT_KINDS
        for kind in TraceEventKind:
            if kind.is_fastio:
                want = (kind.name, True, None, None,
                        fastio_op_for_kind(kind))
            else:
                major, minor = irp_for_kind(kind)
                want = (kind.name, False, major, minor, None)
            assert KIND_PLANS[int(kind)] == want, kind.name

    def test_replay_leaves_source_records_staged(self, archived_study):
        _result, directory = archived_study
        source = load_collector(study_paths(directory)[0])
        machine = replay_collector(source)
        materialised, blocks = source.record_chunks()
        assert materialised == [] and blocks
        assert machine.outcome.source_records == len(source)


class TestOutOfRangeKinds:
    """A record kind outside the 54 event kinds fails before injection,
    with an error naming the archive file, the record and the value."""

    @pytest.fixture(params=[-1, N_EVENT_KINDS], ids=["minus1", "n_kinds"])
    def bad_archive(self, request, tmp_path):
        source = TraceCollector("m00-badkind")
        source.records.extend([
            _record(TraceEventKind.IRP_CREATE, fo_id=100),
            _record(TraceEventKind.IRP_READ, fo_id=100),
            _record(request.param, fo_id=100),
        ])
        save_study([source], tmp_path)
        return tmp_path, request.param

    def test_replay_archive_names_file_record_and_kind(self, bad_archive):
        directory, kind = bad_archive
        with pytest.raises(ValueError) as info:
            replay_archive(directory)
        message = str(info.value)
        assert str(directory / "m00-badkind.nttrace") in message
        assert f"record 2 has event kind {kind}," in message

    def test_worker_error_names_machine(self, bad_archive):
        directory, kind = bad_archive
        with pytest.raises(StudyError,
                           match=rf"m00-badkind.*record 2 has event kind "
                                 rf"{kind},"):
            replay_archive(directory, ReplayConfig(workers=2))

    def test_cli_exits_with_one_line(self, bad_archive):
        directory, kind = bad_archive
        for argv in (["replay"], ["replay", "--workers", "2"],
                     ["whatif", "--grid", "devices=ssd"]):
            with pytest.raises(SystemExit,
                               match=rf"record 2 has event kind {kind},"):
                cli_main([*argv, "--traces", str(directory)])

    def test_cli_keeps_other_worker_failures(self, tmp_path, monkeypatch):
        # Only a worker's ValueError becomes a one-line exit; any other
        # failure (a programming error) keeps its traceback.
        import repro.replay
        import repro.replay.whatif

        def fail(*_args, **_kwargs):
            raise StudyError("parallel worker failed") from KeyError("x")

        monkeypatch.setattr(repro.replay, "replay_archive", fail)
        monkeypatch.setattr(repro.replay.whatif, "whatif_sweep", fail)
        save_study([TraceCollector("m00-empty")], tmp_path)
        for argv in (["replay"], ["whatif", "--grid", "devices=ssd"]):
            with pytest.raises(StudyError, match="parallel worker failed"):
                cli_main([*argv, "--traces", str(tmp_path)])


class TestReplayCli:
    def test_replay_command_round_trip(self, archived_study, tmp_path,
                                       capsys):
        _result, directory = archived_study
        fidelity_path = tmp_path / "fidelity.json"
        out_dir = tmp_path / "second-gen"
        code = cli_main(["replay", "--traces", str(directory),
                         "--mode", "closed", "--seed", "5",
                         "--out", str(out_dir),
                         "--fidelity-json", str(fidelity_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "all core per-kind counts match" in captured.out
        doc = json.loads(fidelity_path.read_text())
        assert doc["format"] == "nt-replay-fidelity-1"
        assert doc["all_core_match"] is True
        assert doc["total_skipped"] == 0
        assert doc["core_kinds"] == list(CORE_KINDS)
        # The second-generation archive loads and matches record counts.
        for src_path, gen_path in zip(study_paths(directory),
                                      study_paths(out_dir)):
            n_source = sum(1 for _ in iter_trace_records(src_path))
            n_replayed = sum(1 for _ in iter_trace_records(gen_path))
            assert n_replayed == n_source

    def test_missing_archive_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            cli_main(["replay", "--traces", str(tmp_path / "nope")])

    def test_empty_archive_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no .nttrace files"):
            cli_main(["replay", "--traces", str(tmp_path)])


class TestTraceStats:
    def test_streaming_matches_in_memory(self, archived_study):
        # TraceStats over the store's streaming iterator must equal stats
        # over the in-memory records — the CLI uses the streaming path.
        result, directory = archived_study
        for source, path in zip(result.collectors, study_paths(directory)):
            streamed = TraceStats.from_records(iter_trace_records(path))
            in_memory = TraceStats.from_records(source.records)
            assert streamed.to_dict() == in_memory.to_dict()

    def test_detects_count_mismatch(self):
        rec = TraceRecord(kind=int(TraceEventKind.IRP_READ), fo_id=1, pid=8,
                          t_start=0, t_end=5, status=0, irp_flags=0,
                          offset=0, length=4096, returned=4096,
                          file_size=4096, disposition=0, options=0,
                          attributes=0, info=0)
        fidelity = machine_fidelity("m", [rec, rec], [rec])
        assert not fidelity.core_match
        assert fidelity.core_mismatches == {"IRP_READ": -1}
        assert fidelity.count_delta("IRP_READ") == -1
