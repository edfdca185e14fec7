"""Tests for per-category analysis, figure export, R/S Hurst, and the CLI."""

import csv

import numpy as np
import pytest

from repro.analysis.categories import by_category, format_category_table
from repro.analysis.figures import figure_series, write_csv
from repro.cli import main as cli_main
from repro.stats.distributions import Pareto
from repro.stats.selfsim import hurst_rescaled_range


def _data_file_sizes(wh, category):
    """File sizes of the data instances on ``category``'s machines, the
    sample the category table's quantiles are taken over."""
    machines = {idx for idx, name in enumerate(wh.machine_names)
                if wh.machine_categories.get(name, "unknown") == category}
    return [float(inst.file_size_max) for inst in wh.instances
            if inst.machine_idx in machines
            and not inst.open_failed and inst.has_data]


class TestCategories:
    def test_profiles_cover_all_machines(self, small_study,
                                         small_warehouse):
        profiles = by_category(small_warehouse,
                               small_study.duration_ticks)
        machines = sum(p.n_machines for p in profiles.values())
        assert machines == len(small_warehouse.machine_names)

    def test_categories_from_study(self, small_warehouse):
        profiles = by_category(small_warehouse)
        assert set(profiles) <= {"walkup", "pool", "personal",
                                 "administrative", "scientific", "unknown"}

    def test_scientific_touches_biggest_files(self, small_study,
                                              small_warehouse):
        profiles = by_category(small_warehouse,
                               small_study.duration_ticks)
        sci = profiles.get("scientific")
        walkup = profiles.get("walkup")
        sci_sizes = _data_file_sizes(small_warehouse, "scientific")
        walkup_sizes = _data_file_sizes(small_warehouse, "walkup")
        if sci is not None and walkup is not None and sci_sizes \
                and walkup_sizes:
            # §6.1: scientific machines touch far larger files.  At this
            # fixture's scale the p90 is seed-noisy (few scientific
            # sessions), so assert on the largest file touched; the
            # benchmark study asserts the p90 ordering.
            assert max(sci_sizes) > np.median(walkup_sizes)

    def test_file_size_quantiles_are_exact(self, small_warehouse):
        # The warehouse path's quantiles come from the exact sample.
        for name, profile in by_category(small_warehouse).items():
            sizes = _data_file_sizes(small_warehouse, name)
            if not sizes:
                assert np.isnan(profile.median_file_size)
                continue
            assert profile.median_file_size == float(np.median(sizes))
            assert profile.p90_file_size == \
                float(np.percentile(sizes, 90))

    def test_throughput_positive(self, small_study, small_warehouse):
        profiles = by_category(small_warehouse,
                               small_study.duration_ticks)
        for p in profiles.values():
            if p.n_data_opens:
                assert p.throughput_kbs > 0

    def test_format_renders(self, small_warehouse):
        assert "category" in format_category_table(
            by_category(small_warehouse))


class TestFigureExport:
    @pytest.fixture(scope="class")
    def figures(self, small_warehouse):
        return figure_series(small_warehouse, np.random.default_rng(1))

    def test_all_figures_present(self, figures):
        expected = {"fig01_run_length_by_files",
                    "fig02_run_length_by_bytes",
                    "fig03_file_size_by_opens",
                    "fig04_file_size_by_bytes",
                    "fig05_open_times", "fig06_new_file_lifetimes",
                    "fig07_size_vs_lifetime", "fig10_llcd",
                    "fig11_open_interarrival", "fig12_session_lifetime",
                    "fig13_latency", "fig14_request_size"}
        assert expected <= set(figures)

    def test_series_are_pairs(self, figures):
        for figure, series in figures.items():
            for name, pair in series.items():
                assert len(pair) == 2, (figure, name)
                x, y = pair
                assert len(x) == len(y), (figure, name)

    def test_cdf_series_monotone(self, figures):
        for name, (x, p) in figures["fig12_session_lifetime"].items():
            assert np.all(np.diff(p) >= -1e-9), name

    def test_write_csv(self, figures, tmp_path):
        paths = write_csv(figures, tmp_path)
        assert len(paths) == len(figures)
        with paths[0].open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        assert any("_x" in col for col in rows[0])


class TestRescaledRange:
    def test_poisson_near_half(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(10, size=8000)
        h = hurst_rescaled_range(counts)
        assert 0.35 < h < 0.68

    def test_persistent_series_higher(self):
        # A long-memory series: cumulative heavy-tailed ON/OFF activity.
        rng = np.random.default_rng(4)
        bursts = np.zeros(8000)
        t = 0
        while t < 8000:
            on = int(min(Pareto(1.2, 5.0).sample(rng), 2000))
            rate = rng.uniform(5, 50)
            bursts[t:t + on] += rng.poisson(rate, size=min(on, 8000 - t))
            t += on + int(min(Pareto(1.2, 10.0).sample(rng), 2000))
        rng2 = np.random.default_rng(5)
        poisson = rng2.poisson(bursts.mean() + 1, size=8000)
        assert hurst_rescaled_range(bursts) > hurst_rescaled_range(poisson)

    def test_requires_length(self):
        with pytest.raises(ValueError):
            hurst_rescaled_range([1, 2, 3])


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        rc = cli_main(["run", "--machines", "1", "--seconds", "15",
                       "--scale", "0.05", "--seed", "5",
                       "--out", str(tmp_path / "t")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "archived 1 machines" in out
        rc = cli_main(["report", str(tmp_path / "t")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out

    def test_figures_from_archive(self, tmp_path, capsys):
        cli_main(["run", "--machines", "1", "--seconds", "15",
                  "--scale", "0.05", "--seed", "6",
                  "--out", str(tmp_path / "t")])
        capsys.readouterr()
        rc = cli_main(["figures", str(tmp_path / "t"),
                       "--out", str(tmp_path / "figs")])
        assert rc == 0
        assert sorted((tmp_path / "figs").glob("*.csv"))

    def test_report_empty_archive_fails(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit):
            cli_main(["report", str(tmp_path / "empty")])
