"""Figure-series export: every paper figure as plain data.

``figure_series`` returns, for each figure, the (x, y) series that would
be plotted — so downstream users can regenerate the paper's plots with
any tool, and ``write_csv`` dumps them to files.  The same code paths the
benchmarks assert on produce the series, so exported data and reported
numbers cannot diverge.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.common.atomic import write_atomic
from repro.common.clock import TICKS_PER_MILLISECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.warehouse import TraceWarehouse


def figure_series(wh: "TraceWarehouse",
                  rng: np.random.Generator | None = None
                  ) -> dict[str, dict[str, tuple]]:
    """All figure series: {figure: {series name: (x array, y array)}}.

    x units follow the paper's axes: bytes for size/run figures,
    milliseconds for time CDFs, microseconds for latency CDFs.
    """
    from repro.analysis.fastio import REQUEST_TYPES, analyze_fastio
    from repro.analysis.heavytail import analyze_heavy_tails
    from repro.analysis.lifetimes import analyze_lifetimes
    from repro.analysis.opens import analyze_opens
    from repro.analysis.patterns import (USAGES, file_size_distributions,
                                         run_length_distributions)
    from repro.stats.heavy_tail import llcd_points

    if rng is None:
        rng = np.random.default_rng(0)
    figures: dict[str, dict[str, tuple]] = {}

    runs = run_length_distributions(wh)
    figures["fig01_run_length_by_files"] = {
        "read_runs": runs.by_files(True),
        "write_runs": runs.by_files(False),
    }
    figures["fig02_run_length_by_bytes"] = {
        "read_runs": runs.by_bytes(True),
        "write_runs": runs.by_bytes(False),
    }

    sizes = file_size_distributions(wh)
    figures["fig03_file_size_by_opens"] = {
        usage: sizes.by_opens(usage) for usage in USAGES
        if sizes.sizes[usage].size}
    figures["fig04_file_size_by_bytes"] = {
        usage: sizes.by_bytes(usage) for usage in USAGES
        if sizes.sizes[usage].size}

    # Figure 5: open time CDFs in milliseconds, local vs remote.
    from repro.stats.descriptive import cdf_points
    all_t = [s.session_duration for s in wh.instances
             if not s.open_failed and s.has_data]
    local_t = [s.session_duration for s in wh.instances
               if not s.open_failed and s.has_data and not s.is_remote]
    remote_t = [s.session_duration for s in wh.instances
                if not s.open_failed and s.has_data and s.is_remote]
    fig5 = {"all": cdf_points(np.asarray(all_t) / TICKS_PER_MILLISECOND)}
    if local_t:
        fig5["local"] = cdf_points(np.asarray(local_t)
                                   / TICKS_PER_MILLISECOND)
    if remote_t:
        fig5["network"] = cdf_points(np.asarray(remote_t)
                                     / TICKS_PER_MILLISECOND)
    figures["fig05_open_times"] = fig5

    lifetimes = analyze_lifetimes(wh)
    fig6 = {}
    for method in ("overwrite", "explicit", "temporary"):
        x, p = lifetimes.lifetime_cdf(method)
        if x.size:
            fig6[method] = (x, p)
    figures["fig06_new_file_lifetimes"] = fig6
    figures["fig07_size_vs_lifetime"] = {
        "scatter": lifetimes.size_lifetime_sample()}

    opens = analyze_opens(wh)
    figures["fig11_open_interarrival"] = {
        purpose: opens.interarrival_cdf(purpose)
        for purpose in ("all", "data", "control")}
    figures["fig12_session_lifetime"] = {
        population: opens.session_cdf(population)
        for population in ("all", "data", "control")}

    tails = analyze_heavy_tails(wh, rng)
    figures["fig10_llcd"] = {
        "open_interarrival": llcd_points(opens.interarrival_all)}
    if tails.burstiness is not None:
        figures["fig08_burstiness"] = {
            "trace_iod": (np.asarray(tails.burstiness.intervals),
                          np.asarray(tails.burstiness.trace_iod)),
            "poisson_iod": (np.asarray(tails.burstiness.intervals),
                            np.asarray(tails.burstiness.poisson_iod)),
        }

    fastio = analyze_fastio(wh)
    figures["fig13_latency"] = {
        rt: fastio.latency_cdf(rt) for rt in REQUEST_TYPES
        if fastio.latencies_micros[rt].size}
    figures["fig14_request_size"] = {
        rt: fastio.size_cdf(rt) for rt in REQUEST_TYPES
        if fastio.sizes[rt].size}
    return figures


def write_csv(figures: dict[str, dict[str, tuple]],
              directory: Union[str, Path]) -> list[Path]:
    """One CSV per figure: columns are series interleaved as x,y pairs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for figure, series in figures.items():
        path = directory / f"{figure}.csv"
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        header = []
        columns = []
        for name, (x, y) in series.items():
            header.extend([f"{name}_x", f"{name}_y"])
            columns.append(np.asarray(x, dtype=float))
            columns.append(np.asarray(y, dtype=float))
        writer.writerow(header)
        length = max((c.size for c in columns), default=0)
        for i in range(length):
            writer.writerow(
                ["" if i >= c.size else repr(float(c[i]))
                 for c in columns])
        write_atomic(path, text.getvalue().encode("utf-8"))
        paths.append(path)
    return paths
