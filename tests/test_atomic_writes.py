"""Artifacts are written atomically.

Every artifact writer goes through :func:`repro.common.atomic.write_atomic`:
the bytes land in a temporary file next to the target, which then
replaces it.  A write that fails at the last step (here: ``os.replace``
raising) must leave the previous file byte-for-byte intact and no
temporary file behind — for the helper and for each writer that uses it.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.figures import write_csv
from repro.analysis.openmetrics import write_openmetrics
from repro.cli import _write_perf_json, main as cli_main
from repro.common.atomic import write_atomic
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.store import load_collector, save_collector

PREVIOUS = b"previous artifact\n"


def _fail_replace(monkeypatch):
    def boom(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", boom)


def test_write_atomic_writes_and_leaves_no_temp(tmp_path):
    target = tmp_path / "a.bin"
    write_atomic(target, b"one")
    write_atomic(target, b"two")
    assert target.read_bytes() == b"two"
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["a.bin"]


def test_write_atomic_failure_keeps_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "a.bin"
    target.write_bytes(PREVIOUS)
    _fail_replace(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, b"new bytes")
    assert target.read_bytes() == PREVIOUS
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["a.bin"]


def _save_collector(directory):
    path = directory / "m00.nttrace"
    save_collector(TraceCollector("m00"), path)
    return path


def _write_openmetrics(directory):
    path = directory / "m.ntmetrics"
    write_openmetrics({}, path)
    return path


def _write_csv(directory):
    [path] = write_csv({"fig01": {"s": ([1.0, 2.0], [0.5, 1.0])}},
                       directory)
    return path


def _perf_json(directory):
    path = directory / "perf.json"
    _write_perf_json({}, {"seed": 1}, path)
    return path


def _study_json(directory):
    path = directory / "study.json"
    cli_main(["study", "--machines", "1", "--seconds", "2", "--scale",
              "0.05", "--quiet", "--out", str(path)])
    return path


WRITERS = [_save_collector, _write_openmetrics, _write_csv, _perf_json,
           _study_json]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__[1:])
def test_failed_write_keeps_previous_artifact(writer, tmp_path, monkeypatch):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    name = writer(fresh).name           # where this writer writes
    assert [p.name for p in sorted(fresh.iterdir())] == [name]
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / name).write_bytes(PREVIOUS)
    _fail_replace(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        writer(kept)
    assert (kept / name).read_bytes() == PREVIOUS
    assert [p.name for p in sorted(kept.iterdir())] == [name]


def test_saved_archive_round_trips(tmp_path):
    path = _save_collector(tmp_path)
    assert load_collector(path).machine_name == "m00"
