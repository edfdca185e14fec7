"""OpenMetrics / Prometheus text exposition of perf snapshots.

Renders per-machine :class:`~repro.nt.perf.PerfRegistry` snapshots (the
``perf.json`` document a study archives) in the OpenMetrics text format,
so the simulated fleet's counters can be loaded into any Prometheus-
compatible stack.  Mapping rules:

* series names gain an ``nt_`` prefix and dots become underscores
  (``cc.copy_reads`` → ``nt_cc_copy_reads``);
* counters are cumulative and carry the conventional ``_total`` suffix
  with ``# TYPE ... counter``;
* gauges map directly with ``# TYPE ... gauge``;
* latency histograms map to ``# TYPE ... summary`` with ``_count`` and
  ``_sum`` samples, the sum converted from ticks to seconds;
* every sample carries a ``machine`` label; sample lines are grouped
  family-major (all machines of one metric together, as the format
  requires) and the text ends with the ``# EOF`` terminator.

:func:`validate_openmetrics` is a small structural checker used by the
tests and the CI smoke job: it verifies the grammar this module relies
on (metric lines parse, families are contiguous and typed, counters end
in ``_total``, every family carries exactly one ``# HELP`` line — the
``storage.*`` device series included, the terminator is present) and
returns the list of problems found.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.common.atomic import write_atomic
from repro.common.clock import TICKS_PER_SECOND

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$")
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def metric_name(series: str) -> str:
    """An OpenMetrics-legal family name for a perf series."""
    return "nt_" + re.sub(r"[^a-zA-Z0-9_]", "_", series)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    # Integers stay integers; floats use repr (shortest round-trip form).
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def openmetrics_exposition(snapshots: Mapping[str, Mapping]) -> str:
    """Render per-machine perf snapshots as OpenMetrics text.

    ``snapshots`` maps machine name to a perf snapshot dict; machine
    order follows the mapping (study results are already in machine
    index order).  Families are emitted counters-then-gauges-then-
    histograms, alphabetically within each kind.
    """
    machines = list(snapshots.items())
    lines: list[str] = []

    def label(machine: str) -> str:
        return f'{{machine="{_escape_label(machine)}"}}'

    families: dict[str, set[str]] = {"counters": set(), "gauges": set(),
                                     "histograms": set()}
    for _machine, snap in machines:
        for kind in families:
            families[kind].update(snap.get(kind, {}))
    for series in sorted(families["counters"]):
        name = metric_name(series)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"# HELP {name} perf counter {series}")
        for machine, snap in machines:
            value = snap.get("counters", {}).get(series)
            if value is not None:
                lines.append(f"{name}_total{label(machine)} "
                             f"{_format_value(value)}")
    for series in sorted(families["gauges"]):
        name = metric_name(series)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"# HELP {name} perf gauge {series}")
        for machine, snap in machines:
            value = snap.get("gauges", {}).get(series)
            if value is not None:
                lines.append(f"{name}{label(machine)} "
                             f"{_format_value(value)}")
    for series in sorted(families["histograms"]):
        name = metric_name(series)
        lines.append(f"# TYPE {name} summary")
        lines.append(f"# HELP {name} latency histogram {series}")
        for machine, snap in machines:
            hist = snap.get("histograms", {}).get(series)
            if hist is not None:
                seconds = hist["sum_ticks"] / TICKS_PER_SECOND
                lines.append(f"{name}_count{label(machine)} "
                             f"{hist['count']}")
                lines.append(f"{name}_sum{label(machine)} "
                             f"{_format_value(seconds)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(snapshots: Mapping[str, Mapping], path) -> int:
    """Write the exposition to ``path``; returns the byte count."""
    text = openmetrics_exposition(snapshots)
    data = text.encode("utf-8")
    write_atomic(path, data)
    return len(data)


def validate_openmetrics(text: str) -> list[str]:
    """Structural check of an OpenMetrics text exposition.

    Covers the subset of the format this exporter emits: returns a list
    of problem strings (empty = valid).  Beyond sample grammar it checks
    family *metadata* coverage: every declared family — including the
    ``storage.*`` device counters and gauges — must carry exactly one
    well-formed ``# HELP`` line inside its contiguous block.
    """
    problems: list[str] = []
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing '# EOF' terminator on the last line")
    types: dict[str, str] = {}
    family_order: list[str] = []
    helped: set[str] = set()
    current_family: str | None = None
    for i, line in enumerate(lines[:-1] if lines else [], start=1):
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.append(f"line {i}: malformed TYPE line")
                continue
            _h, _t, name, kind = parts
            if not _NAME_RE.match(name):
                problems.append(f"line {i}: illegal family name {name!r}")
            if kind not in ("counter", "gauge", "summary", "histogram",
                            "unknown", "info", "stateset",
                            "gaugehistogram"):
                problems.append(f"line {i}: unknown family type {kind!r}")
            if name in types:
                problems.append(
                    f"line {i}: family {name!r} declared twice "
                    f"(families must be contiguous)")
            types[name] = kind
            family_order.append(name)
            current_family = name
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3]:
                problems.append(f"line {i}: malformed HELP line")
                continue
            name = parts[2]
            if not _NAME_RE.match(name):
                problems.append(
                    f"line {i}: illegal family name {name!r} in HELP")
                continue
            if name not in types:
                problems.append(
                    f"line {i}: HELP for {name!r} before its TYPE "
                    f"declaration")
                continue
            if name in helped:
                problems.append(
                    f"line {i}: family {name!r} has two HELP lines")
            helped.add(name)
            if name != current_family:
                problems.append(
                    f"line {i}: HELP for family {name!r} appears outside "
                    f"its contiguous block")
            continue
        if line.startswith("#"):
            continue
        if not line:
            problems.append(f"line {i}: blank line inside exposition")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {i}: unparsable sample line {line!r}")
            continue
        name = m.group("name")
        family = name
        for suffix in ("_total", "_count", "_sum", "_bucket", "_created"):
            if family.endswith(suffix):
                family = family[:-len(suffix)]
                break
        if family not in types and name in types:
            family = name
        if family not in types:
            problems.append(
                f"line {i}: sample {name!r} has no TYPE declaration")
            continue
        if family != current_family:
            problems.append(
                f"line {i}: sample for family {family!r} appears outside "
                f"its contiguous block")
        if types[family] == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {i}: counter sample {name!r} must end in '_total'")
        labels = m.group("labels")
        if labels:
            for pair in labels.split(","):
                if not _LABEL_RE.match(pair):
                    problems.append(
                        f"line {i}: malformed label {pair!r}")
        value = m.group("value")
        try:
            float(value)
        except ValueError:
            problems.append(f"line {i}: non-numeric value {value!r}")
    for name in family_order:
        if name not in helped:
            problems.append(
                f"family {name!r} has no HELP line (metadata coverage)")
    return problems
