"""Access patterns (§6.2): table 3 and figures 1–4.

Instances with data operations are classified by usage (read-only /
write-only / read-write) and by pattern (whole-file sequential / other
sequential / random, with the cache manager's fuzzy offset comparison).
Per-machine percentages give the table's mean and min/max range columns —
the ranges being, as §7 argues, the truly important numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.analysis.sessions import PATTERN_NAMES, USAGE_NAMES
from repro.stats.descriptive import cdf_points, weighted_cdf_points

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sessions import Instance, InstanceTable
    from repro.analysis.warehouse import TraceWarehouse

# The instance table's usage and pattern codes 1.. in name order.
USAGES = USAGE_NAMES[1:]        # read-only, write-only, read-write
PATTERNS = PATTERN_NAMES[1:]    # whole, sequential, random

# The Sprite values from table 3 (S columns), for comparison printing.
SPRITE_TABLE3 = {
    ("read-only", "usage"): (88.0, 80.0),
    ("read-only", "whole"): (78.0, 89.0),
    ("read-only", "sequential"): (19.0, 5.0),
    ("read-only", "random"): (3.0, 7.0),
    ("write-only", "usage"): (11.0, 19.0),
    ("write-only", "whole"): (67.0, 69.0),
    ("write-only", "sequential"): (29.0, 19.0),
    ("write-only", "random"): (4.0, 11.0),
    ("read-write", "usage"): (1.0, 1.0),
    ("read-write", "whole"): (0.0, 0.0),
    ("read-write", "sequential"): (0.0, 0.0),
    ("read-write", "random"): (100.0, 0.0),
}

# The paper's own NT means (W columns), for shape checking.
PAPER_NT_TABLE3 = {
    ("read-only", "usage"): (79.0, 59.0),
    ("read-only", "whole"): (68.0, 58.0),
    ("read-only", "sequential"): (20.0, 11.0),
    ("read-only", "random"): (12.0, 31.0),
    ("write-only", "usage"): (18.0, 26.0),
    ("write-only", "whole"): (78.0, 70.0),
    ("write-only", "sequential"): (7.0, 3.0),
    ("write-only", "random"): (15.0, 27.0),
    ("read-write", "usage"): (3.0, 15.0),
    ("read-write", "whole"): (22.0, 5.0),
    ("read-write", "sequential"): (3.0, 0.0),
    ("read-write", "random"): (74.0, 94.0),
}


@dataclass(frozen=True)
class PatternCell:
    """One table-3 cell: mean and range across machines, for both weights."""

    accesses_mean: float
    accesses_min: float
    accesses_max: float
    bytes_mean: float
    bytes_min: float
    bytes_max: float


@dataclass
class AccessPatternTable:
    """The full table 3."""

    # (usage, pattern) -> cell; pattern "usage" rows carry the class share.
    cells: dict[tuple[str, str], PatternCell]
    n_instances: int

    def cell(self, usage: str, pattern: str) -> PatternCell:
        return self.cells[(usage, pattern)]

    def format(self) -> str:
        """Render rows comparable to the paper's table 3."""
        lines = ["%-12s %-12s %28s %28s" % (
            "File usage", "Transfer", "Accesses% (mean [min,max])",
            "Bytes% (mean [min,max])")]
        for usage in USAGES:
            share = self.cells[(usage, "usage")]
            lines.append(
                f"{usage:<12} {'(share)':<12} "
                f"{share.accesses_mean:10.1f} [{share.accesses_min:5.1f},"
                f"{share.accesses_max:6.1f}] "
                f"{share.bytes_mean:10.1f} [{share.bytes_min:5.1f},"
                f"{share.bytes_max:6.1f}]")
            for pattern in PATTERNS:
                c = self.cells[(usage, pattern)]
                lines.append(
                    f"{'':<12} {pattern:<12} "
                    f"{c.accesses_mean:10.1f} [{c.accesses_min:5.1f},"
                    f"{c.accesses_max:6.1f}] "
                    f"{c.bytes_mean:10.1f} [{c.bytes_min:5.1f},"
                    f"{c.bytes_max:6.1f}]")
        return "\n".join(lines)


def _data_instances(wh: "TraceWarehouse") -> list["Instance"]:
    return [s for s in wh.instances
            if not s.open_failed and s.has_data and s.usage != "none"]


def machine_row(table: "InstanceTable") -> dict:
    """One machine's counts from its instance table: the input of table 3
    and of the usage-category table.

    Plain integers: instance, failed-open and data-instance counts, byte
    sums, mapped-view paging bytes, and an instance count and byte sum
    per usage × pattern cell.  The streaming sketch stores this as its
    per-machine row; the warehouse builds it per machine slice of its
    instance table.  Both paths render the tables from it.
    """
    failed = table.open_failed
    # has_data implies a usage and a pattern other than 'none'.
    data = ~failed & table.has_data
    transferred = table.bytes_transferred
    usage_cells = {}
    for code, usage in enumerate(USAGES, start=1):
        in_usage = data & (table.usage == code)
        patterns = {}
        for pcode, pattern in enumerate(PATTERNS, start=1):
            cell = in_usage & (table.pattern == pcode)
            patterns[pattern] = {"n": int(cell.sum()),
                                 "bytes": int(transferred[cell].sum())}
        usage_cells[usage] = {"n": int(in_usage.sum()),
                              "bytes": int(transferred[in_usage].sum()),
                              "patterns": patterns}
    return {"n_instances": len(table), "n_failed_opens": int(failed.sum()),
            "n_data": int(data.sum()),
            "bytes": int(transferred[data].sum()),
            "bytes_read": int(table.bytes_read[data].sum()),
            "bytes_written": int(table.bytes_written[data].sum()),
            "paging_view_bytes": int(
                table.bytes_read[data & table.image_access].sum()),
            "usage": usage_cells}


def pattern_table(rows: Iterable[dict]) -> AccessPatternTable:
    """Table 3 from per-machine :func:`machine_row` rows, in machine order.

    Each machine with data instances contributes one percentage sample
    per cell; a cell's mean and [min, max] run over those samples.
    """
    samples: dict[tuple[str, str], tuple[list[float], list[float]]] = {
        (u, p): ([], []) for u in USAGES for p in PATTERNS + ("usage",)}
    n_instances = 0
    for row in rows:
        total_n = row["n_data"]
        total_b = row["bytes"]
        n_instances += total_n
        if total_n == 0:
            continue
        for usage in USAGES:
            cell = row["usage"][usage]
            usage_n = cell["n"]
            usage_b = cell["bytes"]
            acc, byt = samples[(usage, "usage")]
            acc.append(100.0 * usage_n / total_n)
            byt.append(100.0 * usage_b / total_b if total_b else 0.0)
            for pattern in PATTERNS:
                pat = cell["patterns"][pattern]
                acc, byt = samples[(usage, pattern)]
                acc.append(100.0 * pat["n"] / usage_n if usage_n else 0.0)
                byt.append(100.0 * pat["bytes"] / usage_b
                           if usage_b else 0.0)
    cells = {}
    for key, (acc, byt) in samples.items():
        a = np.asarray(acc) if acc else np.array([0.0])
        b = np.asarray(byt) if byt else np.array([0.0])
        cells[key] = PatternCell(
            accesses_mean=float(a.mean()), accesses_min=float(a.min()),
            accesses_max=float(a.max()),
            bytes_mean=float(b.mean()), bytes_min=float(b.min()),
            bytes_max=float(b.max()))
    return AccessPatternTable(cells=cells, n_instances=n_instances)


def access_pattern_table(wh: "TraceWarehouse") -> AccessPatternTable:
    """Compute table 3 from the instance table."""
    return pattern_table(machine_row(machine) for machine in
                         wh.instance_table.by_machine(len(wh.machine_names)))


@dataclass
class RunLengthDistributions:
    """Figures 1 and 2: sequential run length CDFs."""

    read_runs: np.ndarray
    write_runs: np.ndarray

    def by_files(self, reads: bool) -> tuple[np.ndarray, np.ndarray]:
        """Figure 1: CDF weighted by run count."""
        runs = self.read_runs if reads else self.write_runs
        return cdf_points(runs)

    def by_bytes(self, reads: bool) -> tuple[np.ndarray, np.ndarray]:
        """Figure 2: CDF weighted by bytes transferred."""
        runs = self.read_runs if reads else self.write_runs
        return weighted_cdf_points(runs, runs)


def run_length_distributions(wh: "TraceWarehouse") -> RunLengthDistributions:
    """Extract every sequential run from every data instance."""
    read_runs: list[int] = []
    write_runs: list[int] = []
    for inst in _data_instances(wh):
        read_runs.extend(inst.sequential_runs(reads=True))
        write_runs.extend(inst.sequential_runs(reads=False))
    return RunLengthDistributions(
        read_runs=np.asarray(read_runs, dtype=float),
        write_runs=np.asarray(write_runs, dtype=float))


@dataclass
class FileSizeDistributions:
    """Figures 3 and 4: file size CDFs per usage class."""

    sizes: dict[str, np.ndarray]
    bytes_weights: dict[str, np.ndarray]

    def by_opens(self, usage: str) -> tuple[np.ndarray, np.ndarray]:
        """Figure 3: weighted by the number of files opened."""
        return cdf_points(self.sizes[usage])

    def by_bytes(self, usage: str) -> tuple[np.ndarray, np.ndarray]:
        """Figure 4: weighted by bytes transferred."""
        return weighted_cdf_points(self.sizes[usage],
                                   self.bytes_weights[usage])

    def combined_by_opens(self) -> tuple[np.ndarray, np.ndarray]:
        all_sizes = np.concatenate([self.sizes[u] for u in USAGES])
        return cdf_points(all_sizes)


def file_size_distributions(wh: "TraceWarehouse") -> FileSizeDistributions:
    """File sizes of opened files, per usage class."""
    sizes: dict[str, list[float]] = {u: [] for u in USAGES}
    weights: dict[str, list[float]] = {u: [] for u in USAGES}
    for inst in _data_instances(wh):
        sizes[inst.usage].append(float(max(inst.file_size_max, 0)))
        weights[inst.usage].append(float(inst.bytes_transferred))
    return FileSizeDistributions(
        sizes={u: np.asarray(v) for u, v in sizes.items()},
        bytes_weights={u: np.asarray(v) for u, v in weights.items()})
