"""Tests for analysis internals: constants, formatting, small helpers."""

import numpy as np
import pytest

from repro.analysis.patterns import (
    PAPER_NT_TABLE3,
    PATTERNS,
    SPRITE_TABLE3,
    USAGES,
)
from repro.analysis.report import Observation, ObservationSummary
from repro.nt.tracing.records import TraceEventKind
from repro.stats.descriptive import summarize
from tests.instance_oracle import create, instances_of


class TestTableConstants:
    def test_sprite_usage_shares_sum(self):
        total = sum(SPRITE_TABLE3[(u, "usage")][0] for u in USAGES)
        assert total == pytest.approx(100.0, abs=1.0)

    def test_paper_nt_usage_shares_sum(self):
        total = sum(PAPER_NT_TABLE3[(u, "usage")][0] for u in USAGES)
        assert total == pytest.approx(100.0, abs=1.0)

    def test_all_cells_present(self):
        for table in (SPRITE_TABLE3, PAPER_NT_TABLE3):
            for usage in USAGES:
                for pattern in PATTERNS + ("usage",):
                    assert (usage, pattern) in table


class TestObservationFormatting:
    def test_percent(self):
        text = Observation("k", "50%", 42.0).format()
        assert "42.0%" in text and "50%" in text

    def test_unit(self):
        text = Observation("k", "26 KB", 35.2, unit="KB").format()
        assert "35.2 KB" in text

    def test_nan(self):
        text = Observation("k", "x", float("nan")).format()
        assert "n/a" in text

    def test_summary_value_lookup(self):
        summary = ObservationSummary()
        summary.add("thing", "1%", 2.0)
        assert summary.value("thing") == 2.0
        with pytest.raises(KeyError):
            summary.value("missing")


# make_instance's keyword names -> the create record's fields.
_CREATE_FIELDS = {"open_status": "status", "create_result": "returned",
                  "options": "options"}


def make_instance(*events, cleanup_t=None, close_t=None, **overrides):
    """The instance of an open at t=100 (10 ticks) followed by ``events``
    and the given cleanup/close."""
    fields = {"t_start": 100, "t_end": 110, "disposition": 1,
              "returned": 1}
    fields.update({_CREATE_FIELDS[k]: v for k, v in overrides.items()})
    events = list(events)
    for kind, t in ((TraceEventKind.IRP_CLEANUP, cleanup_t),
                    (TraceEventKind.IRP_CLOSE, close_t)):
        if t is not None:
            events.append({"kind": kind, "t_start": t})
    [inst] = instances_of(create(**fields), *events)
    return inst


class TestInstanceHelpers:
    def test_close_gap_without_close(self):
        inst = make_instance(cleanup_t=200)
        assert inst.close_gap == -1

    def test_close_gap_with_both(self):
        inst = make_instance(cleanup_t=200, close_t=260)
        assert inst.close_gap == 60

    def test_session_end_fallbacks(self):
        # open_t when nothing else known
        assert make_instance().session_end_t == 100
        read = {"kind": TraceEventKind.IRP_READ, "t_start": 500,
                "length": 10, "returned": 10}
        assert make_instance(read).session_end_t == 500
        assert make_instance(read, close_t=900).session_end_t == 900
        assert make_instance(read, close_t=900,
                             cleanup_t=700).session_end_t == 700

    def test_failed_open_properties(self):
        inst = make_instance(open_status=0xC0000034, create_result=-1)
        assert inst.open_failed
        assert not inst.was_created
        assert inst.usage == "none"
        assert inst.purpose == "control"

    def test_temporary_via_options(self):
        from repro.common.flags import CreateOptions
        inst = make_instance(options=int(CreateOptions.DELETE_ON_CLOSE))
        assert inst.temporary

    def test_was_overwrite(self):
        from repro.nt.fs.driver import CreateResult
        inst = make_instance(create_result=int(CreateResult.OVERWRITTEN))
        assert inst.was_overwrite
        inst2 = make_instance(create_result=int(CreateResult.SUPERSEDED))
        assert inst2.was_overwrite
        inst3 = make_instance(create_result=int(CreateResult.OPENED))
        assert not inst3.was_overwrite

    def test_empty_pattern(self):
        assert make_instance().access_pattern() == "none"
        assert make_instance().sequential_runs(reads=True) == []


class TestSummaryFormatting:
    def test_str_contains_descriptors(self):
        s = summarize([1.0, 2.0, 3.0])
        text = str(s)
        assert "mean=" in text and "p90=" in text

    def test_descriptor_orderings(self):
        rng = np.random.default_rng(0)
        s = summarize(rng.lognormal(0, 1, size=1000))
        assert s.minimum <= s.median <= s.p90 <= s.p99 <= s.maximum


class TestWarehouseDimensions:
    def test_categories_mapped(self, small_study, small_warehouse):
        assert small_warehouse.machine_categories == \
            small_study.machine_categories

    def test_interactive_flags_preserved(self, small_warehouse):
        names = {}
        for proc in small_warehouse.processes.values():
            names.setdefault(proc.name, proc.interactive)
        assert names.get("explorer.exe") is True
        assert names.get("services.exe") is False

    def test_process_name_fallback(self, small_warehouse):
        assert small_warehouse.process_name(-12345) == "system"

    def test_file_for_missing(self, small_warehouse):
        assert small_warehouse.file_for(-1) is None

    def test_repr(self, small_warehouse):
        assert "records" in repr(small_warehouse)
