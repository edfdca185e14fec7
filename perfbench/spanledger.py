"""Host-time ledger: spans around each layer's entry points, and the
host calibration.

The traced run patches each layer's entry points (:func:`instrumented`) so
every call records a span (name, start, end, parent).  Spans are kept in
memory; :func:`self_times` turns them into each layer's *self* time, which
is the span's duration minus the part its child spans cover.  Self times
partition the time the spans cover, so ``wall - sum(self_times)`` is the
wall time no span covers (the residual).

Untraced runs never see a wrapper: patching happens only inside
:func:`instrumented`, which restores every attribute on exit.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Optional


class _CalItem:
    __slots__ = ("index", "weight", "key")

    def __init__(self, index: int, weight: float, key: str) -> None:
        self.index = index
        self.weight = weight
        self.key = key


_CAL_RNG = random.Random(20)
_CAL_ITEMS = tuple(_CalItem(i, _CAL_RNG.random(), f"k{i}")
                   for i in range(30_000))
_CAL_TABLE = {item.key: item for item in _CAL_ITEMS}


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload sharing no code with
    ``repro``: dict lookups, attribute reads, arithmetic and a sort over
    data built at import.  It allocates almost nothing, so its time does
    not depend on how much memory the work before it just freed.
    """
    started = time.perf_counter()
    total = 0
    for _ in range(2):
        for item in _CAL_ITEMS[::2]:
            total += _CAL_TABLE[item.key].index * 3 % 7
        total += sorted(_CAL_ITEMS, key=attrgetter("weight"))[0].index
    return time.perf_counter() - started


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root


class SpanRecorder:
    """Collects properly nested spans from one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced


def maybe_span(recorder: Optional[SpanRecorder], name: str):
    """A span when tracing, otherwise a no-op context."""
    return recorder.span(name) if recorder is not None else nullcontext()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += (span.end - span.start) - child[index]
    return dict(totals)


def _entry_points():
    """(owner, attribute, span name) for every patched layer entry point.

    A function imported by name into several modules is patched in each
    module that calls it, with one shared wrapper, so a call is recorded
    once whichever module makes it.
    """
    import repro.nt.tracing.store as store
    import repro.replay.engine as replay_engine
    import repro.replay.runner as replay_runner
    import repro.workload.campaign as campaign
    import repro.workload.study as study
    from repro.nt.system import Machine

    return [
        ((study,), "build_machine", "workload.build"),
        ((study,), "build_user_share", "workload.build"),
        ((Machine,), "run_until", "nt.simulate"),
        ((Machine,), "finish_tracing", "nt.drain"),
        ((Machine,), "take_snapshots", "nt.snapshot"),
        ((campaign,), "fold_collector", "analysis.streaming.fold"),
        ((store, replay_runner), "load_collector", "nt.tracing.store.load"),
        ((replay_engine,), "build_replay_machine", "replay.build"),
        ((replay_runner,), "replay_collector", "replay.inject"),
    ]


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every layer entry point to record spans; restore on exit."""
    saved = []
    try:
        for owners, attr, name in _entry_points():
            original = getattr(owners[0], attr)
            wrapper = recorder.wrap(original, name)
            for owner in owners:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
