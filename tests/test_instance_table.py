"""Property tests for the columnar instance table.

:func:`repro.analysis.sessions.frame_instances` replaces the
event-at-a-time instance builder with segment reductions.  These tests
hold it to that builder, kept in :mod:`tests.instance_oracle`: on random
record frames every table column, the usage and access-pattern codes,
the op lists, both sequential-run lists, :func:`machine_row` and
:func:`death_events` must equal the oracle's.  The frames mix the cases
the reductions have to get right: records before the create, a second
create, file objects without a create, failed opens, paging-only and
mixed paging/direct data ops, zero-byte transfers, successful and failed
delete dispositions, end-of-file set-infos and tied start times.

Also here: the weighted :meth:`Digest.add_array` against a loop of
:meth:`Digest.add`, and :func:`fuzzy_sequential` on arrays against the
scalar comparison.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.analysis.lifetimes import METHODS, death_events
from repro.analysis.patterns import machine_row
from repro.analysis.sessions import (
    PATTERN_NAMES,
    USAGE_NAMES,
    frame_instances,
)
from repro.analysis.streaming import Digest
from repro.common.flags import CreateOptions, FileAttributes
from repro.common.sequential import fuzzy_sequential
from repro.nt.tracing.records import (
    CreateResult,
    SetInformationClass,
    TraceEventKind as K,
)
from tests.instance_oracle import (
    frame_of,
    oracle_death_events,
    oracle_instances,
    oracle_machine_row,
)

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
_int64 = st.integers(min_value=_I64_MIN, max_value=_I64_MAX)
_EDGES = (0, 1, -1, 127, 128, _I64_MIN, _I64_MAX, _I64_MAX - 1, 2 ** 32,
          2 ** 62)

_KINDS = (K.IRP_CREATE, K.IRP_CREATE, K.IRP_READ, K.IRP_WRITE,
          K.FASTIO_READ, K.FASTIO_WRITE, K.IRP_CLEANUP, K.IRP_CLOSE,
          K.IRP_FLUSH_BUFFERS, K.IRP_SET_INFORMATION, K.IRP_QUERY_DIRECTORY,
          K.FASTIO_QUERY_BASIC_INFO, K.FASTIO_CHECK_IF_POSSIBLE,
          K.FASTIO_ACQUIRE_FOR_MOD_WRITE)
_DISPOSITION = int(SetInformationClass.DISPOSITION)
_END_OF_FILE = int(SetInformationClass.END_OF_FILE)

# Paths shared across file objects (case differs, so the death walk's
# lower-cased key matters).
_PATHS = ("\\a.tmp", "\\A.TMP", "\\b.dat")

_event = st.fixed_dictionaries({
    "kind": st.sampled_from(_KINDS),
    "fo_id": st.integers(1, 12),
    "pid": st.integers(1, 3),
    "t_start": st.integers(0, 40),
    "duration": st.integers(0, 9),
    "status": st.sampled_from((0, 0, 0, 0x80000005, 0xC0000034)),
    "irp_flags": st.sampled_from((0, 0, 0x01, 0x02, 0x40, 0x42)),
    "offset": st.sampled_from((0, 0, 64, 100, 128, 4096, 4200, 8192,
                               8300, 65536)),
    "returned": st.sampled_from((0, 28, 128, 4096, 4096, 100_000)),
    "length": st.sampled_from((0, 1, 1, 4096)),
    "file_size": st.sampled_from((0, 0, 100, 4096, 8192, 200_000)),
    "disposition": st.integers(0, 5),
    "options": st.sampled_from((0, 0, int(CreateOptions.DIRECTORY_FILE),
                                int(CreateOptions.DELETE_ON_CLOSE))),
    "attributes": st.sampled_from((0, 0, int(FileAttributes.TEMPORARY))),
    "info": st.sampled_from((0, _DISPOSITION, _DISPOSITION, _END_OF_FILE)),
    "result": st.sampled_from([int(r) for r in CreateResult]),
})


# Open-close sessions: a create (mostly successful, often of a new file
# or an overwrite) and the file object's later records.
_session = st.tuples(
    st.integers(1, 12),
    _event.map(lambda ev: {**ev, "kind": K.IRP_CREATE,
                           "options": ev["options"] * (ev["pid"] == 1),
                           "attributes": ev["attributes"] * (ev["pid"] == 2)}),
    st.sampled_from((0, 0, 0, 0xC0000034)),
    st.sampled_from((int(CreateResult.CREATED), int(CreateResult.CREATED),
                     int(CreateResult.OVERWRITTEN),
                     int(CreateResult.OPENED))),
    st.lists(_event, max_size=5))


@st.composite
def _frames(draw, max_loose=30):
    """Loose records on any file object plus whole sessions."""
    events = draw(st.lists(_event, max_size=max_loose))
    for fo_id, create, status, result, later in draw(
            st.lists(_session, min_size=4, max_size=12)):
        events.append({**create, "fo_id": fo_id, "status": status,
                       "result": result})
        events.extend({**ev, "fo_id": fo_id,
                       "t_start": create["t_start"] + ev["t_start"] // 4}
                      for ev in later)
    return events


def _frame(events: list[dict]) -> np.ndarray:
    rows = []
    for ev in events:
        row = {k: v for k, v in ev.items() if k not in ("duration",
                                                         "result")}
        row["t_end"] = ev["t_start"] + ev["duration"]
        if ev["kind"] == K.IRP_CREATE:
            row["returned"] = ev["result"]
        rows.append(row)
    return frame_of(*rows)


def _machines(frame: np.ndarray) -> np.ndarray:
    """Two machines: odd file objects on machine 1 (the warehouse's
    packed ids never share a file object between machines)."""
    return frame[:, 1] % 2


def _file_info(fo_id: int):
    """Groups of up to three file objects per (machine, volume, path);
    fo 7 has no path, fo 12 no name record, fo 11 is on volume D."""
    if fo_id == 12:
        return None
    path = "" if fo_id == 7 else _PATHS[(fo_id // 2) % len(_PATHS)]
    return (path, "D" if fo_id == 11 else "C", fo_id % 3 == 0)


def _build(events):
    frame = _frame(events)
    machines = _machines(frame)
    table = frame_instances(frame, machines, _file_info)
    oracle = oracle_instances(frame, lambda row: int(machines[row]),
                              _file_info)
    return table, oracle


_COLUMNS = (
    "fo_id", "machine_idx", "pid", "open_t", "open_status", "open_duration",
    "create_disposition", "create_result", "options", "attributes",
    "file_size_open", "cleanup_t", "close_t", "session_end_t",
    "explicit_delete_t", "truncated_to", "file_size_max", "n_reads",
    "n_writes", "n_fastio_reads", "n_fastio_writes", "bytes_read",
    "bytes_written", "n_paging_read_irps", "n_paging_write_irps",
    "n_flushes", "n_control_ops", "image_access", "was_created",
    "was_overwrite", "temporary", "is_directory_like", "is_remote")

# One frame holding every case the module docstring names, on purpose.
_EVERY_CASE = [
    # fo 1: a read before the create, two creates, tied start times.
    dict(kind=K.IRP_READ, fo_id=1, t_start=1, offset=0, returned=10),
    dict(kind=K.IRP_CREATE, fo_id=1, t_start=2, result=2),
    dict(kind=K.IRP_CREATE, fo_id=1, t_start=2, result=3),
    dict(kind=K.IRP_WRITE, fo_id=1, t_start=2, offset=10, returned=0),
    # fo 5: no create at all.
    dict(kind=K.IRP_READ, fo_id=5, t_start=3, returned=4096),
    # fo 3: a failed open.
    dict(kind=K.IRP_CREATE, fo_id=3, t_start=4, status=0xC0000034),
    # fo 4: paging-only reads (image access), then a failed and a
    # successful delete disposition and an end-of-file set-info.
    dict(kind=K.IRP_CREATE, fo_id=4, t_start=5, result=2),
    dict(kind=K.IRP_READ, fo_id=4, t_start=6, irp_flags=0x02,
         returned=4096),
    dict(kind=K.IRP_SET_INFORMATION, fo_id=4, t_start=7, info=_DISPOSITION,
         length=1, status=0xC0000022),
    dict(kind=K.IRP_SET_INFORMATION, fo_id=4, t_start=8, info=_DISPOSITION,
         length=1),
    dict(kind=K.IRP_SET_INFORMATION, fo_id=4, t_start=9, info=_END_OF_FILE,
         length=4096),
    # fo 6: paging reads mixed with direct ones (the duplicates).
    dict(kind=K.IRP_CREATE, fo_id=6, t_start=10, result=1),
    dict(kind=K.FASTIO_READ, fo_id=6, t_start=11, returned=4096,
         file_size=4096),
    dict(kind=K.IRP_READ, fo_id=6, t_start=11, irp_flags=0x42,
         returned=8192),
    dict(kind=K.IRP_CLEANUP, fo_id=6, t_start=12),
    dict(kind=K.IRP_CLOSE, fo_id=6, t_start=13),
    # fo 8 creates the file fo 6 then opens and fo 2 (another process)
    # overwrites: a death with one intervening open.
    dict(kind=K.IRP_CREATE, fo_id=8, t_start=1, result=2),
    dict(kind=K.IRP_CLEANUP, fo_id=8, t_start=3),
    dict(kind=K.IRP_CREATE, fo_id=2, t_start=20, result=3, pid=2),
]


def _every_case() -> list[dict]:
    defaults = dict(pid=1, duration=1, status=0, irp_flags=0, offset=0,
                    returned=0, length=0, file_size=0, disposition=1,
                    options=0, attributes=0, info=0, result=1)
    return [{**defaults, **ev} for ev in _EVERY_CASE]


@settings(max_examples=80, deadline=None)
@given(_frames())
@example(_every_case())
def test_table_columns_match_the_oracle(events):
    table, oracle = _build(events)
    assert len(table) == len(oracle)
    for name in _COLUMNS:
        assert getattr(table, name).tolist() == \
            [getattr(inst, name) for inst in oracle], name
    assert [USAGE_NAMES[c] for c in table.usage.tolist()] == \
        [inst.usage for inst in oracle]
    assert [PATTERN_NAMES[c] for c in table.pattern.tolist()] == \
        [inst.access_pattern() for inst in oracle]
    assert table.op_lists() == [inst.ops for inst in oracle]
    for row, inst in enumerate(oracle):
        for reads in (True, False):
            assert table.runs(row, reads) == inst.sequential_runs(reads)


@settings(max_examples=25, deadline=None)
@given(_frames())
@example(_every_case())
def test_row_views_match_the_oracle(events):
    table, oracle = _build(events)
    views = table.rows(
        lambda fo: SimpleNamespace(path="p", extension="", volume_label="v"),
        lambda pid: SimpleNamespace(name="n", interactive=False))
    for view, inst in zip(views, oracle):
        assert (view.fo_id, view.usage, view.session_end_t) == \
            (inst.fo_id, inst.usage, inst.session_end_t)
        assert view.ops == inst.ops
        assert view.access_pattern() == inst.access_pattern()
        assert view.sequential_runs(True) == inst.sequential_runs(True)
        assert view.sequential_runs(False) == inst.sequential_runs(False)


@settings(max_examples=50, deadline=None)
@given(_frames())
@example(_every_case())
def test_machine_rows_match_the_oracle(events):
    table, oracle = _build(events)
    for idx, machine in enumerate(table.by_machine(2)):
        assert machine_row(machine) == oracle_machine_row(
            [inst for inst in oracle if inst.machine_idx == idx])


def _deaths(table):
    n_created, deaths = death_events(table)
    return n_created, [
        (METHODS[m], lt, size, gap, same, opens)
        for m, lt, size, gap, same, opens in zip(
            deaths.method.tolist(), deaths.lifetime.tolist(),
            deaths.size.tolist(), deaths.close_gap.tolist(),
            deaths.same_process.tolist(),
            deaths.intervening_opens.tolist())]


@settings(max_examples=120, deadline=None)
@given(_frames())
@example(_every_case())
def test_death_events_match_the_oracle(events):
    table, oracle = _build(events)
    assert _deaths(table) == oracle_death_events(oracle)
    # Per machine, as the streaming fold walks them.
    for idx, machine in enumerate(table.by_machine(2)):
        assert _deaths(machine) == oracle_death_events(
            [inst for inst in oracle if inst.machine_idx == idx])


def test_every_case_frame_is_reconstructed():
    table, _oracle = _build(_every_case())
    # fo 5 has no create; the others are instances.
    assert sorted(table.fo_id.tolist()) == [1, 2, 3, 4, 6, 8]
    by_fo = {fo: row for row, fo in enumerate(table.fo_id.tolist())}
    first = by_fo[1]
    assert table.create_result[first] == int(CreateResult.CREATED)
    assert (table.n_reads[first], table.n_writes[first]) == (1, 1)
    assert table.create_result[by_fo[3]] == -1
    image = by_fo[4]
    assert table.image_access[image]
    assert table.explicit_delete_t[image] == 8
    assert table.truncated_to[image] == 4096
    mixed = by_fo[6]
    assert not table.image_access[mixed]
    assert (table.n_reads[mixed], table.n_paging_read_irps[mixed]) == (1, 1)
    # fo 8 dies by fo 2's overwrite (created at 1, cleaned up at 3,
    # overwritten at 20, size from fo 6), fo 4 by its own delete at 8.
    assert _deaths(table) == (3, [("overwrite", 19, 4096, 17, False, 1),
                                  ("explicit", 3, 0, 2, True, 0)])


def test_empty_frame_gives_an_empty_table():
    table = frame_instances(np.zeros((0, 15), dtype=np.int64), 0,
                            lambda fo: None)
    assert len(table) == 0
    assert table.op_lists() == []
    assert machine_row(table)["n_instances"] == 0
    assert _deaths(table) == (0, [])
    assert [len(m) for m in table.by_machine(2)] == [0, 0]


# --------------------------------------------------------------------- #
# Digest.add_array with weights, and the array fuzzy comparison.

_weight = st.one_of(st.integers(-3, 3), st.sampled_from(_EDGES), _int64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_int64, st.sampled_from(_EDGES)),
                          _weight), max_size=40))
def test_weighted_add_array_matches_add(pairs):
    scalar = Digest()
    for value, weight in pairs:
        scalar.add(value, weight)
    values = np.array([v for v, _w in pairs], dtype=np.int64)
    weights = np.array([w for _v, w in pairs], dtype=np.int64)
    vector = Digest()
    vector.add_array(values, weights)
    assert vector.to_dict() == scalar.to_dict()
    unweighted = Digest()
    for value in values.tolist():
        unweighted.add(value)
    ones = Digest()
    ones.add_array(values)
    assert ones.to_dict() == unweighted.to_dict()


def test_weighted_add_array_sums_beyond_int64():
    digest = Digest()
    digest.add_array(np.array([5, 5, 5], dtype=np.int64),
                     np.array([_I64_MAX] * 3, dtype=np.int64))
    assert digest.weight == 3 * _I64_MAX
    assert digest.n == 3


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_int64, st.sampled_from(_EDGES)),
                          st.one_of(_int64, st.sampled_from(_EDGES))),
                max_size=40))
def test_fuzzy_sequential_array_matches_scalar(pairs):
    previous = np.array([p for p, _o in pairs], dtype=np.int64)
    offsets = np.array([o for _p, o in pairs], dtype=np.int64)
    assert fuzzy_sequential(previous, offsets).tolist() == \
        [fuzzy_sequential(p, o) for p, o in pairs]
