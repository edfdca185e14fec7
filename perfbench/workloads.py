"""The benchmark's three workloads, built only from ``repro``'s public API.

Each workload is a fixed list of *inputs* derived from the run's seed.
One input is a small study of ``machines_per_input`` machines; the
workload is all of them, one after another, in one process
(``workers=None``).  The fleet as a whole follows the default category
mix.  Splitting it into inputs lets a run repeat every input several
times and time each repeat on its own, so a median per input rejects
host noise, and small inputs keep the peak memory of the archive
workloads from following the seed's largest study.

* ``campaign`` (live run, closed loop): ``run_campaign``, the
  ``repro study`` path — simulate in ``repro.nt``, fold with
  ``repro.analysis.streaming``, keep only the sketch.
* ``archive-analysis`` (trace analysis, no simulation): ``load_study`` →
  ``TraceWarehouse`` with ``.instances`` → the paper tables →
  ``sketch_from_archive``, the ``repro report`` path, over archives
  written during set-up.
* ``replay-small-cache`` (trace replay, closed loop): ``replay_archive``
  of the same archives on ``hdd_ide`` storage with a what-if cache
  smaller than the working set, so ``repro.nt`` runs by record injection
  with the storage layer mounted and the cache evicting.

Each workload class has ``n_inputs``, the ``configs`` its timed calls
run with, ``run`` (the timed call) and ``summarize`` (untimed: outputs
and invariant checks).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from repro import ReplayConfig, StudyConfig, TraceWarehouse, replay_archive, run_study
from repro.analysis import (
    access_pattern_table,
    by_category,
    format_category_table,
    summarize_observations,
    user_activity_table,
)
from repro.analysis.fidelity import CORE_KINDS
from repro.analysis.streaming import sketch_from_archive, sketch_from_warehouse
from repro.nt.perf import merge_snapshots
from repro.nt.tracing.records import TraceEventKind
from repro.nt.tracing.store import iter_trace_records, load_study, save_study, study_paths
from repro.workload.campaign import run_campaign
from repro.workload.study import DEFAULT_CATEGORY_MIX

from spanledger import SpanRecorder, maybe_span


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; pinned outputs hold only for the sizes they name."""

    machines_per_input: int = 2
    campaign_inputs: int = 12
    archive_inputs: int = 8
    sim_seconds: float = 20.0
    content_scale: float = 0.05
    replay_storage: str = "hdd_ide"
    replay_cache_mb: float = 0.5

    def as_dict(self) -> dict:
        return asdict(self)


def fleet_categories(n_machines: int) -> list[str]:
    """The default category mix over a fleet, by largest remainder.

    A study apportions its mix over its own machines, so a 2-machine
    study would only ever hold the two largest categories; apportioning
    over the whole fleet and dealing the machines out to the inputs keeps
    every category in the workload.
    """
    total = sum(w for _name, w in DEFAULT_CATEGORY_MIX)
    exact = [w * n_machines / total for _name, w in DEFAULT_CATEGORY_MIX]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)),
                          key=lambda k: (counts[k] - exact[k], -exact[k], k))
    for k in by_remainder[:n_machines - sum(counts)]:
        counts[k] += 1
    return [name for (name, _w), count in zip(DEFAULT_CATEGORY_MIX, counts)
            for _ in range(count)]


def input_configs(sizes: Sizes, seed: int, n_inputs: int
                  ) -> list[StudyConfig]:
    """One study per input: machines dealt round-robin from the fleet,
    study seed ``seed * 64 + i`` (disjoint across run seeds)."""
    fleet = fleet_categories(n_inputs * sizes.machines_per_input)
    configs = []
    for i in range(n_inputs):
        mine = fleet[i::n_inputs]
        mix = tuple((name, float(mine.count(name)))
                    for name, _w in DEFAULT_CATEGORY_MIX if name in mine)
        configs.append(StudyConfig(n_machines=len(mine),
                                   duration_seconds=sizes.sim_seconds,
                                   seed=seed * 64 + i,
                                   content_scale=sizes.content_scale,
                                   category_mix=mix))
    return configs


def replay_config(sizes: Sizes) -> ReplayConfig:
    return ReplayConfig(mode="closed", storage=sizes.replay_storage,
                        cache_mb=sizes.replay_cache_mb)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def archive_digest(directory) -> str:
    """sha256 over an archive's trace files, in name order."""
    h = hashlib.sha256()
    for path in study_paths(directory):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def make_archive(config: StudyConfig, directory: Path,
                 recorder: Optional[SpanRecorder] = None) -> dict:
    """Set-up: simulate one input's study and save its archive."""
    with maybe_span(recorder, "setup.archive"):
        result = run_study(config)
    with maybe_span(recorder, "nt.tracing.store.save"):
        save_study(result.collectors, directory)
    return {"dir": str(directory),
            "categories": result.machine_categories,
            "records": result.total_records,
            "archive_bytes": sum(p.stat().st_size
                                 for p in study_paths(directory)),
            "archive_sha256": archive_digest(directory)}


@dataclass
class Rep:
    """What one timed repeat of one input produced."""

    records: int        # trace records the repeat processed
    outputs: dict       # deterministic; compared across repeats and pins
    counters: dict      # fleet perf counters of the simulated machines
    problems: list      # failed invariants (empty when the output is right)
    inexact: int = 0    # replay: source records skipped or diverged


def _perf_counters(snapshots) -> dict:
    return merge_snapshots(snapshots).get("counters", {})


class Campaign:
    name = "campaign"

    def __init__(self, sizes: Sizes, seed: int, archives=None) -> None:
        self.sizes = sizes
        self.configs = input_configs(sizes, seed, sizes.campaign_inputs)
        self.n_inputs = len(self.configs)

    def run(self, i: int, recorder: Optional[SpanRecorder]):
        return run_campaign(self.configs[i])

    def summarize(self, i: int, result) -> Rep:
        sketch = result.sketch
        problems = []
        rows = result.machine_rows
        if len(rows) != self.sizes.machines_per_input:
            problems.append(f"{len(rows)} machine rows")
        if sum(r["records"] for r in rows) != sketch.n_records:
            problems.append("machine rows disagree with the sketch")
        return Rep(records=result.total_records,
                   outputs={"records": result.total_records,
                            "instances": sketch.n_instances,
                            "sketch_sha256": sketch.sha256()},
                   counters=_perf_counters(result.perf.values()),
                   problems=problems)


def render_tables(wh: TraceWarehouse) -> str:
    """The ``repro report`` tables for an archive."""
    return "\n".join([
        summarize_observations(wh).format(),
        user_activity_table(wh).format(),
        access_pattern_table(wh).format(),
        format_category_table(by_category(wh)),
    ])


class ArchiveAnalysis:
    name = "archive-analysis"

    def __init__(self, sizes: Sizes, seed: int, archives: list) -> None:
        self.archives = archives
        self.n_inputs = len(archives)
        self.configs: list = []
        self._cross_checked: set = set()

    def run(self, i: int, recorder: Optional[SpanRecorder]):
        archive = self.archives[i]
        collectors = load_study(archive["dir"])
        with maybe_span(recorder, "analysis.warehouse.build"):
            wh = TraceWarehouse(collectors,
                                machine_categories=archive["categories"])
            n_instances = len(wh.instances)
        with maybe_span(recorder, "analysis.tables"):
            tables = render_tables(wh)
        with maybe_span(recorder, "analysis.streaming.archive_fold"):
            sketch = sketch_from_archive(archive["dir"],
                                         archive["categories"])
        return wh, n_instances, tables, sketch

    def summarize(self, i: int, raw) -> Rep:
        wh, n_instances, tables, sketch = raw
        archive = self.archives[i]
        records = wh.n_records
        problems = []
        if records != archive["records"]:
            problems.append(f"loaded {records} of {archive['records']} "
                            "records")
        if n_instances != sketch.n_instances:
            problems.append("warehouse and sketch instance counts differ")
        if i not in self._cross_checked:
            # The fold over the store stream and the fold over the
            # warehouse columns are independent paths to one sketch.
            self._cross_checked.add(i)
            if sketch_from_warehouse(wh).sha256() != sketch.sha256():
                problems.append("archive sketch differs from the "
                                "warehouse sketch")
        return Rep(records=records,
                   outputs={"records": records,
                            "instances": n_instances,
                            "tables_sha256": _sha256(tables.encode()),
                            "archive_sketch_sha256": sketch.sha256()},
                   counters={}, problems=problems)


def diverged_records(outcome) -> int:
    """Records whose status or transfer count diverged, each counted once.

    ``ReplayOutcome`` tallies the two divergences separately per kind; a
    record that diverges in both is in both tallies, so the per-kind
    maximum counts it once.
    """
    status = outcome.status_divergences
    returned = outcome.returned_divergences
    return sum(max(status.get(k, 0), returned.get(k, 0))
               for k in set(status) | set(returned))


_CORE = tuple(int(TraceEventKind[name]) for name in CORE_KINDS)


def kind_counts(records) -> Counter:
    return Counter(rec.kind for rec in records)


class ReplaySmallCache:
    name = "replay-small-cache"

    def __init__(self, sizes: Sizes, seed: int, archives: list) -> None:
        self.archives = archives
        self.n_inputs = len(archives)
        self.configs = [replay_config(sizes)]
        # Per-machine source kind counts, read once from the store.
        self.source_kinds = [
            [kind_counts(iter_trace_records(path))
             for path in study_paths(archive["dir"])]
            for archive in archives]

    def run(self, i: int, recorder: Optional[SpanRecorder]):
        return replay_archive(self.archives[i]["dir"], self.configs[0])

    def summarize(self, i: int, result) -> Rep:
        source = self.source_kinds[i]
        replayed = [kind_counts(m.collector.records) for m in result.machines]
        core_match = len(source) == len(replayed) and all(
            s.get(kind, 0) == r.get(kind, 0)
            for s, r in zip(source, replayed) for kind in _CORE)
        n_source = sum(m.outcome.source_records for m in result.machines)
        skipped = result.total_skipped
        diverged = sum(diverged_records(m.outcome) for m in result.machines)
        counters = _perf_counters(m.perf for m in result.machines)
        problems = []
        if not core_match:
            problems.append("closed-loop core counts differ from the source")
        if n_source != self.archives[i]["records"]:
            problems.append(f"replayed {n_source} of "
                            f"{self.archives[i]['records']} source records")
        if result.total_replayed + skipped != n_source:
            problems.append("replayed + skipped != source records")
        return Rep(records=n_source,
                   outputs={"core_match": core_match,
                            "replayed": result.total_replayed,
                            "skipped": skipped,
                            "divergences": diverged,
                            "whatif_read_hits":
                                counters.get("cc.whatif.read_hits", 0),
                            "whatif_read_misses":
                                counters.get("cc.whatif.read_misses", 0),
                            "whatif_pages_evicted":
                                counters.get("cc.whatif.pages_evicted", 0)},
                   counters=counters, problems=problems,
                   inexact=skipped + diverged)


WORKLOAD_CLASSES = {cls.name: cls
                    for cls in (Campaign, ArchiveAnalysis, ReplaySmallCache)}
