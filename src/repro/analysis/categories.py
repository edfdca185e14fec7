"""Per-usage-category comparison (§2, §6.1).

The paper samples five usage categories and repeatedly contrasts them:
scientific machines touch files an order of magnitude larger but do not
produce the peak loads (they read small portions of their huge files
through mapped views); the development stations produce the peak loads
with their 5–8 MB build-state files; walk-up and personal machines are
dominated by interactive application churn.  This module provides that
cut over the instance table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.analysis.patterns import machine_row
from repro.common.clock import TICKS_PER_SECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.warehouse import TraceWarehouse


@dataclass
class CategoryProfile:
    """One usage category's aggregate behaviour.

    The counts are sums of the category's per-machine
    :func:`~repro.analysis.patterns.machine_row` rows.  The file-size
    quantiles are given by the caller: exact over the instance table on
    the warehouse path, from the mergeable digest on the streaming path.
    """

    category: str
    span_ticks: int
    median_file_size: float
    p90_file_size: float
    n_machines: int = 0
    n_opens: int = 0
    n_data_opens: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    paging_view_bytes: int = 0   # mapped-view / image paging data

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def throughput_kbs(self) -> float:
        """Mean per-machine throughput in KB/s."""
        if self.span_ticks <= 0 or self.n_machines == 0:
            return float("nan")
        seconds = self.span_ticks / TICKS_PER_SECOND
        return self.bytes_total / 1024.0 / seconds / self.n_machines


def category_profiles(rows: Iterable[dict], span_ticks: int,
                      file_size_quantiles: dict[str, tuple[float, float]]
                      ) -> dict[str, CategoryProfile]:
    """The category table from per-machine rows carrying a ``category``.

    Machines without instances are left out.  ``file_size_quantiles``
    maps each category to its (median, p90) file size.
    """
    profiles: dict[str, CategoryProfile] = {}
    for row in rows:
        if row["n_instances"] == 0:
            continue
        category = row["category"]
        profile = profiles.get(category)
        if profile is None:
            profile = profiles[category] = CategoryProfile(
                category, span_ticks, *file_size_quantiles[category])
        profile.n_machines += 1
        profile.n_opens += row["n_instances"]
        profile.n_data_opens += row["n_data"]
        profile.bytes_read += row["bytes_read"]
        profile.bytes_written += row["bytes_written"]
        profile.paging_view_bytes += row["paging_view_bytes"]
    return profiles


def _exact_quantiles(sizes: list[np.ndarray]) -> tuple[float, float]:
    sample = np.concatenate(sizes).astype(float)
    if not sample.size:
        return float("nan"), float("nan")
    return float(np.median(sample)), float(np.percentile(sample, 90))


def by_category(wh: "TraceWarehouse",
                duration_ticks: int | None = None
                ) -> dict[str, CategoryProfile]:
    """Aggregate the instance table by machine usage category."""
    if duration_ticks is None:
        duration_ticks = int(wh.t_end.max()) if wh.n_records else 0
    rows: list[dict] = []
    sizes: dict[str, list[np.ndarray]] = {}
    for name, machine in zip(wh.machine_names, wh.instance_table.by_machine(
            len(wh.machine_names))):
        category = wh.machine_categories.get(name, "unknown")
        rows.append(dict(machine_row(machine), category=category))
        sizes.setdefault(category, []).append(machine.file_size_max[
            ~machine.open_failed & machine.has_data])
    return category_profiles(
        rows, duration_ticks,
        {category: _exact_quantiles(sample)
         for category, sample in sizes.items()})


def format_category_table(profiles: dict[str, CategoryProfile]) -> str:
    """Render the per-category comparison."""
    lines = ["%-16s %8s %8s %10s %12s %12s %12s" % (
        "category", "machines", "opens", "KB/s", "median size",
        "p90 size", "view bytes")]
    for p in sorted(profiles.values(), key=lambda p: p.category):
        lines.append(
            f"{p.category:<16} {p.n_machines:8d} {p.n_opens:8d} "
            f"{p.throughput_kbs:10.1f} {p.median_file_size:12.0f} "
            f"{p.p90_file_size:12.0f} {p.paging_view_bytes:12d}")
    return "\n".join(lines)
