"""Golden digests: the simulator's observable bytes, pinned.

Every artifact a study or a replay writes is a pure function of its
configuration, so its SHA-256 can be committed and any change in
simulation semantics shows up as a reviewed diff of
``golden_digests.json`` rather than a silent drift.  Pinned per case:

* each machine's packed ``.nttrace`` payload (``pack_collector``);
* the ``perf.json`` counter document (``perf_json_bytes``);
* the flight recorder's ``.ntmetrics`` log (``write_metrics_log``).

The matrix is seeds {3, 11} x {serial, two workers} x {plain; spans +
metrics + runtime verifier}.  Serial and parallel runs of a case share
one golden entry, so the matrix also holds the two execution shapes
byte-identical.  One closed-loop replay of the seed-3 plain archive on
``hdd_ide`` storage with a 0.5 MB what-if cache pins the
second-generation collectors and perf document.

Regenerate after an intended semantics change with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro import ReplayConfig, StudyConfig, replay_archive, run_study
from repro.nt.flight.log import write_metrics_log
from repro.nt.perf import perf_json_bytes
from repro.nt.tracing.store import pack_collector, save_study

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

SEEDS = (3, 11)
SHAPES = ("serial", "workers2")
MODES = ("plain", "full")
CASES = [(seed, shape, mode)
         for seed in SEEDS for shape in SHAPES for mode in MODES]

REPLAY_SOURCE = (3, "plain")
REPLAY_CONFIG = ReplayConfig(mode="closed", storage="hdd_ide", cache_mb=0.5)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def study_config(seed: int, shape: str, mode: str) -> StudyConfig:
    extra = {}
    if mode == "full":
        extra = dict(spans_enabled=True, metrics_interval_seconds=5.0,
                     verifier_enabled=True)
    return StudyConfig(n_machines=2, duration_seconds=15.0, seed=seed,
                       workers=2 if shape == "workers2" else None, **extra)


def metrics_bytes(sections) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.ntmetrics"
        write_metrics_log(sections, path)
        return path.read_bytes()


def study_digests(result) -> dict:
    return {
        "collectors": {c.machine_name: _sha256(pack_collector(c))
                       for c in result.collectors},
        "perf_json": _sha256(perf_json_bytes(result.perf)),
        "ntmetrics": _sha256(metrics_bytes(result.metrics)),
    }


def replay_digests(source_result) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        save_study(source_result.collectors, Path(tmp))
        replayed = replay_archive(tmp, REPLAY_CONFIG)
    return {
        "collectors": {c.machine_name: _sha256(pack_collector(c))
                       for c in replayed.collectors},
        "perf_json": _sha256(perf_json_bytes(replayed.perf_by_machine)),
    }


def case_key(seed: int, mode: str) -> str:
    return f"seed{seed}-{mode}"


def compute_golden() -> dict:
    """Every pinned digest, checking serial == parallel along the way."""
    studies = {}
    for seed, shape, mode in CASES:
        result = run_study(study_config(seed, shape, mode))
        digests = study_digests(result)
        key = case_key(seed, mode)
        if key in studies:
            if studies[key] != digests:
                raise AssertionError(f"{key}: {shape} run differs from serial")
        else:
            studies[key] = digests
        if (seed, mode) == REPLAY_SOURCE and shape == "serial":
            replay = replay_digests(result)
    return {"format": "nt-golden-1", "studies": studies, "replay": replay}


# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def studies() -> dict:
    """(seed, shape, mode) -> study result, simulated once per module."""
    cache: dict = {}

    def get(seed, shape, mode):
        if (seed, shape, mode) not in cache:
            cache[seed, shape, mode] = run_study(
                study_config(seed, shape, mode))
        return cache[seed, shape, mode]
    return get


def _ids(case) -> str:
    return "-".join(str(part) for part in case)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_collectors_match_golden(case, studies, golden):
    seed, _shape, mode = case
    want = golden["studies"][case_key(seed, mode)]["collectors"]
    got = study_digests(studies(*case))["collectors"]
    assert got == want


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_perf_json_matches_golden(case, studies, golden):
    seed, _shape, mode = case
    want = golden["studies"][case_key(seed, mode)]["perf_json"]
    assert _sha256(perf_json_bytes(studies(*case).perf)) == want


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_ntmetrics_match_golden(case, studies, golden):
    seed, _shape, mode = case
    want = golden["studies"][case_key(seed, mode)]["ntmetrics"]
    assert _sha256(metrics_bytes(studies(*case).metrics)) == want


def test_full_mode_records_spans_and_metrics(studies):
    """The instrumented cases really exercise spans and the recorder."""
    for seed in SEEDS:
        result = studies(seed, "serial", "full")
        assert any(c.span_records for c in result.collectors)
        assert result.metrics


def test_closed_loop_replay_matches_golden(studies, golden):
    seed, mode = REPLAY_SOURCE
    assert replay_digests(studies(seed, "serial", mode)) == golden["replay"]


if __name__ == "__main__":
    doc = compute_golden()
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
