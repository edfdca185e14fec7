#!/usr/bin/env python3
"""Outside-in benchmark of the trace pipeline (see perfbench/README.md).

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Runs one workload (``campaign``, ``archive-analysis`` or
``replay-small-cache``) from the repository root, checks its outputs and
prints each metric on its own line, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer ones, from a traced run that
alternates traced and untraced passes.  Exits 1 when an output check
fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
PINS_PATH = HERE / "pins.json"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
WORKLOAD_NAMES = ("campaign", "archive-analysis", "replay-small-cache")
# The time the calibration workload takes on the reference host.  The
# host's speed drifts by tens of percent within a minute (README, "Host
# calibration"), so every timed set-up and repeat is scaled to that
# speed: multiplied by CALIBRATION_REF_S / the mean of the calibrations
# taken just before and just after it.
CALIBRATION_REF_S = 0.015

# Span name -> per-layer metric, for spans recorded in the timed part.
LAYER_METRICS = {
    "workload.build": "workload.build_s",
    "nt.simulate": "nt.simulate_s",
    "nt.drain": "nt.drain_s",
    "nt.snapshot": "nt.snapshot_s",
    "analysis.streaming.fold": "analysis.streaming.fold_s",
    "analysis.streaming.archive_fold": "analysis.streaming.archive_fold_s",
    "nt.tracing.store.load": "nt.tracing.store.load_s",
    "analysis.warehouse.build": "analysis.warehouse.build_s",
    "analysis.tables": "analysis.tables_s",
    "replay.build": "replay.build_s",
    "replay.inject": "replay.inject_s",
}
# Span name -> per-layer metric, for spans recorded by the set-up process.
SETUP_METRICS = {
    "setup.import": "setup.import_s",
    "setup.archive": "setup.archive_s",
    "nt.tracing.store.save": "nt.tracing.store.save_s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class TimedRep:
    input: int
    wall: float                     # host seconds
    calibration: float              # calibration seconds around it
    rep: object                     # workloads.Rep
    spans: Optional[list] = None    # spanledger.Span list when traced

    @property
    def ref_wall(self) -> float:
        """``wall`` in reference-host seconds."""
        return self.wall * CALIBRATION_REF_S / self.calibration


@dataclass
class Cycle:
    """One pass over every input, traced or not."""

    traced: bool
    reps: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.reps)

    @property
    def ref_wall(self) -> float:
        return sum(r.ref_wall for r in self.reps)


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    setup_walls: list
    setup_calibrations: list
    setup_self_times: list
    archives: list
    cycles: list
    attempted: int = 0
    failed: int = 0
    inexact: int = 0
    problems: list = field(default_factory=list)


# --------------------------------------------------------------------- #
# Set-up.

def run_setup(workload: str, seed: int, trace: bool, work: Path,
              repeats: int = SETUP_REPEATS
              ) -> tuple[list, list, list, list]:
    """Run the set-up process ``repeats`` times.

    Returns, per set-up: its wall seconds, its calibration, its self
    times and its document.  Only the last set-up's archives are kept;
    every set-up must write byte-identical ones, because reruns of one
    seed are deterministic.
    """
    walls, calibrations, self_times, docs = [], [], [], []
    for k in range(repeats):
        out = work / f"setup{k}"
        cmd = [sys.executable, str(HERE / "child_setup.py"),
               "--workload", workload, "--seed", str(seed),
               "--out", str(out)] + (["--trace"] if trace else [])
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up took over {SETUP_TIMEOUT_S} s") from None
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        # The set-up process calibrates itself as it starts and ends; the
        # calibrations are not set-up work.
        first, last = doc["calibrations"]
        walls.append(wall - first - last)
        calibrations.append((first + last) / 2)
        docs.append(doc)
        self_times.append(doc["self_times"])
        if k + 1 < repeats:
            shutil.rmtree(out, ignore_errors=True)
    return walls, calibrations, self_times, docs


def setup_problems(docs: list) -> dict[int, str]:
    """Inputs whose archive differs between set-ups."""
    problems = {}
    for i in range(len(docs[-1]["archives"])):
        digests = {doc["archives"][i]["archive_sha256"] for doc in docs}
        if len(digests) != 1:
            problems[i] = "set-up reruns wrote different archives"
    return problems


# --------------------------------------------------------------------- #
# Guards against tools that distort the timed runs.

def assert_undistorted(configs) -> None:
    from repro.nt.system import Machine

    found = []
    if tracemalloc.is_tracing():
        found.append("tracemalloc is tracing")
    if sys.getprofile() is not None or sys.gettrace() is not None:
        found.append("a profiler or tracer is installed")
    if hasattr(Machine.run_until, "__wrapped__"):
        found.append("layer spans are patched in")
    for config in configs:
        for flag in ("spans_enabled", "verifier_enabled", "profile_enabled"):
            if getattr(config, flag, False):
                found.append(f"{type(config).__name__}.{flag} is on")
        if getattr(config, "metrics_interval_seconds", 0.0):
            found.append(f"{type(config).__name__} flight recorder is on")
    if found:
        raise BenchError("timed run would be distorted: " + "; ".join(found))


# --------------------------------------------------------------------- #
# The timed part.

def timed_cycles(bench, seconds: float, trace: bool) -> list[Cycle]:
    """Pass over every input, again and again, for about ``seconds``.

    Stops before a pass that would end after ``seconds``, but not before
    one untraced pass (and, with ``trace``, one traced pass) is done.
    With ``trace``, passes alternate untraced and traced.  Each repeat
    sits between two calibrations.
    """
    from spanledger import SpanRecorder, calibrate, instrumented

    cycles: list[Cycle] = []
    started = time.perf_counter()
    last = calibrate()
    while True:
        traced = trace and len(cycles) % 2 == 1
        cycle = Cycle(traced)
        for i in range(bench.n_inputs):
            gc.collect()
            recorder = SpanRecorder() if traced else None
            if not traced:
                assert_undistorted(bench.configs)
            with instrumented(recorder) if traced else nullcontext():
                t0 = time.perf_counter()
                raw = bench.run(i, recorder)
                wall = time.perf_counter() - t0
            now = calibrate()
            rep = bench.summarize(i, raw)
            del raw
            cycle.reps.append(TimedRep(i, wall, (last + now) / 2, rep,
                                       recorder.spans if traced else None))
            last = now
        cycles.append(cycle)
        elapsed = time.perf_counter() - started
        done = len(cycles) >= (2 if trace else 1)
        if done and elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            return cycles


# --------------------------------------------------------------------- #
# Output checks.

def ops_of(workload: str, rep, sizes) -> int:
    """Operations one repeat attempted: machines, or replayed records."""
    if workload == "replay-small-cache":
        return rep.records
    return sizes.machines_per_input


def check(workload: str, seed: int, outcome: Outcome, pins: dict,
          sizes, input_problems: dict[int, str]) -> None:
    """Count attempted, failed and inexact operations into ``outcome``.

    A repeat fails when an invariant fails, when its outputs differ from
    the first repeat of the same input, or when they differ from the
    outputs pinned for this seed.  Every operation of a failed repeat
    counts as failed.
    """
    pinned = pins.get(workload, {}).get(str(seed))
    first: dict[int, dict] = {}
    for cycle in outcome.cycles:
        for timed in cycle.reps:
            rep, i = timed.rep, timed.input
            problems = list(rep.problems)
            if i in input_problems:
                problems.append(input_problems[i])
            first.setdefault(i, rep.outputs)
            if rep.outputs != first[i]:
                problems.append("outputs differ between repeats")
            if pinned is not None and rep.outputs != pinned[i]:
                problems.append("outputs differ from the pinned outputs")
            ops = ops_of(workload, rep, sizes)
            outcome.attempted += ops
            if problems:
                outcome.failed += ops
                outcome.problems.extend(f"input {i}: {p}" for p in problems)
            else:
                outcome.inexact += rep.inexact


def load_pins(sizes) -> dict:
    """Pinned outputs by workload and seed.  Pins made for other
    workload sizes are an error, never silently skipped."""
    doc = json.loads(PINS_PATH.read_text())
    if doc["sizes"] != sizes.as_dict():
        raise BenchError(f"{PINS_PATH.name} pins other workload sizes; "
                         "regenerate it with perfbench/pin.py")
    return doc["outputs"]


# --------------------------------------------------------------------- #

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes, pins: dict, work: Path,
                  setup_repeats: int = SETUP_REPEATS) -> Outcome:
    import workloads as wl

    walls, setup_cals, setup_self, docs = run_setup(
        workload, seed, trace, work, setup_repeats)
    archives = docs[-1]["archives"]
    bench = wl.WORKLOAD_CLASSES[workload](sizes, seed, archives)
    cycles = timed_cycles(bench, seconds, trace)
    outcome = Outcome(walls, setup_cals, setup_self, archives, cycles)
    check(workload, seed, outcome, pins, sizes, setup_problems(docs))
    return outcome


def pass_wall(cycles: list[Cycle], wall=attrgetter("wall")) -> float:
    """Seconds of one pass: the sum over inputs of each input's median."""
    by_input: dict[int, list] = {}
    for cycle in cycles:
        for timed in cycle.reps:
            by_input.setdefault(timed.input, []).append(wall(timed))
    return sum(statistics.median(walls) for walls in by_input.values())


def fleet_records(outcome: Outcome) -> int:
    return sum(timed.rep.records for timed in outcome.cycles[0].reps)


def exact_frac(outcome: Outcome) -> float:
    return 1.0 - (outcome.failed + outcome.inexact) / outcome.attempted


def end_to_end_metrics(outcome: Outcome) -> dict[str, float]:
    """End-to-end metrics, times in reference-host seconds; the
    ``host.*`` metrics give the raw host seconds and the calibration."""
    untraced = [c for c in outcome.cycles if not c.traced]
    wall = pass_wall(untraced, attrgetter("ref_wall"))
    host_wall = pass_wall(untraced)
    records = fleet_records(outcome)
    return {
        "setup_s": statistics.median(
            w * CALIBRATION_REF_S / c for w, c in
            zip(outcome.setup_walls, outcome.setup_calibrations)),
        "wall_s": wall,
        "records_per_s": records / wall,
        "host.setup_s": statistics.median(outcome.setup_walls),
        "host.wall_s": host_wall,
        "host.records_per_s": records / host_wall,
        "host.calibration_s": statistics.median(
            t.calibration for c in untraced for t in c.reps),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact_frac": exact_frac(outcome),
        "failed_frac": 1.0 - exact_frac(outcome),
        "archive_bytes_per_record": _ratio(
            sum(a["archive_bytes"] for a in outcome.archives),
            fleet_records(outcome)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_counter(counters: dict, prefix: str, suffix: str) -> int:
    return sum(v for k, v in counters.items()
               if k.startswith(prefix) and k.endswith(suffix))


def per_layer_metrics(workload: str, outcome: Outcome) -> dict[str, float]:
    """Self time per layer in the median traced pass, its residual, the
    tracing overhead, and the simulated counts of one pass."""
    from spanledger import self_times

    metrics: dict[str, float] = {}
    for span_name, metric in SETUP_METRICS.items():
        metrics[metric] = statistics.median(
            st.get(span_name, 0.0) for st in outcome.setup_self_times)
    traced = sorted((c for c in outcome.cycles if c.traced),
                    key=lambda c: c.wall)
    untraced = [c for c in outcome.cycles if not c.traced]
    median_pass = traced[(len(traced) - 1) // 2]
    selfs: dict[str, float] = {}
    for timed in median_pass.reps:
        for name, seconds in self_times(timed.spans).items():
            selfs[name] = selfs.get(name, 0.0) + seconds
    for span_name, metric in LAYER_METRICS.items():
        metrics[metric] = selfs.get(span_name, 0.0)
    unknown = set(selfs) - set(LAYER_METRICS)
    if unknown:
        raise BenchError(f"spans without a metric: {sorted(unknown)}")
    wall = median_pass.wall
    metrics["residual_s"] = wall - sum(selfs.values())
    metrics["residual_frac"] = metrics["residual_s"] / wall
    metrics["trace.overhead_frac"] = (
        statistics.median(c.ref_wall for c in traced)
        / statistics.median(c.ref_wall for c in untraced) - 1.0)

    records = fleet_records(outcome)
    archive_bytes = sum(a["archive_bytes"] for a in outcome.archives)
    metrics["analysis.streaming.fold_records_per_s"] = _ratio(
        records, metrics["analysis.streaming.fold_s"])
    metrics["nt.tracing.store.load_mb_per_s"] = _ratio(
        archive_bytes / 1e6, metrics["nt.tracing.store.load_s"])

    counters: dict[str, int] = {}
    for timed in outcome.cycles[0].reps:
        for name, value in timed.rep.counters.items():
            counters[name] = counters.get(name, 0) + value
    hits = counters.get("cc.copy_read.hits", 0)
    metrics["nt.cc.copy_read_hit_ratio"] = _ratio(
        hits, hits + counters.get("cc.copy_read.misses", 0))
    whatif_hits = counters.get("cc.whatif.read_hits", 0)
    metrics["nt.cc.whatif.read_hit_ratio"] = _ratio(
        whatif_hits, whatif_hits + counters.get("cc.whatif.read_misses", 0))
    metrics["nt.cc.whatif.pages_evicted"] = counters.get(
        "cc.whatif.pages_evicted", 0)
    metrics["nt.storage.busy_ticks"] = _sum_counter(
        counters, "storage.", ".busy_ticks")
    metrics["nt.storage.wait_ticks"] = _sum_counter(
        counters, "storage.", ".wait_ticks")
    outputs = [timed.rep.outputs for timed in outcome.cycles[0].reps]
    metrics["replay.skipped"] = sum(o.get("skipped", 0) for o in outputs)
    metrics["replay.divergences"] = sum(o.get("divergences", 0)
                                        for o in outputs)
    return metrics


def result_line(outcome: Outcome, metrics: dict, spec: list) -> dict:
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in spec},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = wl.Sizes()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        outcome = run_benchmark(args.workload, args.seed, args.seconds,
                                bool(args.trace), sizes, load_pins(sizes),
                                work)
        metrics = end_to_end_metrics(outcome)
        if args.trace:
            metrics.update(per_layer_metrics(args.workload, outcome))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    n_traced = sum(c.traced for c in outcome.cycles)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"passes={len(outcome.cycles) - n_traced} traced={n_traced}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:14.6f} {units[name]}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps(result_line(outcome, metrics, spec[kind])))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
