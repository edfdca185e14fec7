"""Self-tests of the benchmark: span arithmetic, checks and guards.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spanledger import Span, SpanRecorder, instrumented, self_times  # noqa: E402

TINY = wl.Sizes(machines_per_input=1, campaign_inputs=2, archive_inputs=1,
                sim_seconds=3.0)


def test_fleet_follows_the_default_mix():
    assert wl.fleet_categories(10) == (
        ["walkup"] * 3 + ["pool"] * 2 + ["personal"] * 3
        + ["administrative", "scientific"])
    configs = wl.input_configs(wl.Sizes(), 1, 12)
    assert all(c.n_machines == 2 for c in configs)
    fleet = [name for c in configs for name, w in c.category_mix
             for _ in range(int(w))]
    assert sorted(fleet) == sorted(wl.fleet_categories(24))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_subtract_children_once():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("outer"):
        clock.now += 1.0
        with rec.span("mid"):
            clock.now += 2.0
            with rec.span("inner"):
                clock.now += 4.0
            clock.now += 8.0
        with rec.span("inner"):
            clock.now += 16.0
        clock.now += 32.0
    assert self_times(rec.spans) == {"outer": 33.0, "mid": 10.0,
                                     "inner": 20.0}
    # Self times partition the root span: nothing is counted twice.
    assert sum(self_times(rec.spans).values()) == 63.0


def test_same_name_nesting_is_not_double_counted():
    spans = [Span("load", 0.0, 10.0, -1), Span("load", 2.0, 5.0, 0)]
    assert self_times(spans) == {"load": 10.0}


def _root_time(spans) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)


def test_run_until_inside_finish_tracing():
    rec = SpanRecorder()
    with instrumented(rec):
        wl.run_campaign(wl.input_configs(TINY, 5, 1)[0])
    drains = [i for i, s in enumerate(rec.spans) if s.name == "nt.drain"]
    assert drains
    for index in drains:
        children = [s for s in rec.spans if s.parent == index]
        assert [s.name for s in children] == ["nt.simulate"]
    times = self_times(rec.spans)
    assert times["nt.drain"] < sum(rec.spans[i].end - rec.spans[i].start
                                   for i in drains)
    assert sum(times.values()) == pytest.approx(_root_time(rec.spans))
    # Patching is undone on exit.
    from repro.nt.system import Machine
    assert not hasattr(Machine.run_until, "__wrapped__")


@pytest.fixture(scope="module")
def tiny_archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    config = wl.input_configs(replace(TINY, machines_per_input=2), 7, 1)[0]
    return wl.make_archive(config, directory / "input0")


def test_load_collector_inside_replay_archive(tiny_archive):
    rec = SpanRecorder()
    with instrumented(rec):
        result = wl.replay_archive(tiny_archive["dir"], wl.replay_config(TINY))
    loads = [s for s in rec.spans if s.name == "nt.tracing.store.load"]
    # One span per archived machine although two modules call the loader.
    assert len(loads) == len(result.machines) == 2
    assert all(s.parent < 0 for s in loads)
    for index, span in enumerate(rec.spans):
        if span.name == "replay.build":
            assert rec.spans[span.parent].name == "replay.inject"
    assert sum(self_times(rec.spans).values()) == pytest.approx(
        _root_time(rec.spans))


def test_diverged_records_counts_each_record_once(tiny_archive):
    import repro.nt.io.initiator as initiator

    diverged = []
    original = initiator.ReplayInitiator._finish

    def finish(self, kind, rec, status, returned):
        if status != rec.status or returned != rec.returned:
            diverged.append(rec)
        return original(self, kind, rec, status, returned)

    initiator.ReplayInitiator._finish = finish
    try:
        result = wl.replay_archive(tiny_archive["dir"],
                                   wl.replay_config(TINY))
    finally:
        initiator.ReplayInitiator._finish = original
    assert diverged
    assert sum(wl.diverged_records(m.outcome)
               for m in result.machines) == len(diverged)


def _campaign_outcome(trace: bool) -> run.Outcome:
    bench = wl.Campaign(TINY, 3)
    cycles = run.timed_cycles(bench, 0.0, trace)
    return run.Outcome([1.0], [0.025], [{}], [], cycles)


def test_residual_is_wall_minus_self_times():
    outcome = _campaign_outcome(trace=True)
    metrics = run.per_layer_metrics("campaign", outcome)
    traced = [c for c in outcome.cycles if c.traced]
    assert len(traced) == 1
    layer_total = sum(metrics[m] for m in run.LAYER_METRICS.values())
    assert metrics["residual_s"] == pytest.approx(
        traced[0].wall - layer_total, abs=1e-9)
    assert 0.0 <= metrics["residual_frac"] < 1.0
    assert metrics["nt.simulate_s"] > 0.0
    assert metrics["analysis.streaming.fold_s"] > 0.0


def test_forced_digest_mismatch_raises_failed_frac():
    outcome = _campaign_outcome(trace=False)
    good = {"campaign": {"3": [r.rep.outputs for r in outcome.cycles[0].reps]}}
    run.check("campaign", 3, outcome, good, TINY, {})
    assert outcome.failed == 0 and not outcome.problems
    assert run.end_to_end_metrics(outcome)["failed_frac"] == 0.0

    outcome = _campaign_outcome(trace=False)
    bad = json.loads(json.dumps(good))
    bad["campaign"]["3"][1]["sketch_sha256"] = "0" * 64
    run.check("campaign", 3, outcome, bad, TINY, {})
    assert outcome.failed == TINY.machines_per_input
    assert outcome.problems
    metrics = run.end_to_end_metrics(outcome)
    assert metrics["failed_frac"] == pytest.approx(0.5)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.result_line(outcome, metrics, spec["end_to_end"])[
        "correct"] is False


def test_distortion_guard():
    clean = [wl.input_configs(TINY, 1, 1)[0], wl.replay_config(TINY)]
    run.assert_undistorted(clean)
    with pytest.raises(run.BenchError, match="spans_enabled"):
        run.assert_undistorted([replace(clean[0], spans_enabled=True)])
    with pytest.raises(run.BenchError, match="flight recorder"):
        run.assert_undistorted([replace(clean[1],
                                        metrics_interval_seconds=1.0)])
    tracemalloc.start()
    try:
        with pytest.raises(run.BenchError, match="tracemalloc"):
            run.assert_undistorted(clean)
    finally:
        tracemalloc.stop()


def test_every_declared_metric_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    outcome = _campaign_outcome(trace=True)
    run.check("campaign", 3, outcome, {}, TINY, {})
    metrics = run.end_to_end_metrics(outcome)
    metrics.update(run.per_layer_metrics("campaign", outcome))
    for kind in ("end_to_end", "per_layer"):
        line = run.result_line(outcome, metrics, spec[kind])
        assert set(line["metrics"]) == {m["name"] for m in spec[kind]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
