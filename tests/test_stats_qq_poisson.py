"""Tests for QQ-plot data, the Poisson burstiness comparison, and the
variance-time self-similarity check."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.stats.distributions import Pareto
from repro.stats.poisson import (
    aggregate_counts,
    burstiness_profile,
    index_of_dispersion,
    synthesize_poisson_arrivals,
)
from repro.stats.qq import qq_correlation, qq_normal, qq_pareto
from repro.stats.selfsim import hurst_from_variance_time, variance_time_points


class TestQq:
    def test_pipeline_import_does_not_load_scipy(self):
        # scipy.stats dominates the package's import time (and every spawn
        # worker pays it again); qq_normal imports it on first use.
        code = ("import sys, repro, repro.workload.campaign, repro.replay, "
                "repro.analysis; print('scipy' in sys.modules)")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_normal_sample_fits_normal(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(10, 2, size=5000)
        obs, theo = qq_normal(sample)
        assert qq_correlation(obs, theo) > 0.999

    def test_pareto_sample_fits_pareto_better(self):
        # Figure 9's conclusion as an assertion.
        sample = Pareto(1.2, 1.0).sample_many(np.random.default_rng(2), 5000)
        obs_n, theo_n = qq_normal(sample)
        obs_p, theo_p = qq_pareto(sample)
        assert qq_correlation(obs_p, theo_p) > qq_correlation(obs_n, theo_n)

    def test_qq_shapes(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        obs, theo = qq_normal(sample)
        assert obs.shape == theo.shape == (4,)

    def test_qq_pareto_drops_nonpositive(self):
        obs, theo = qq_pareto([-1, 0, 1, 2, 3])
        assert obs.size == 3

    def test_requires_min_samples(self):
        with pytest.raises(ValueError):
            qq_normal([1.0])
        with pytest.raises(ValueError):
            qq_pareto([1.0, 2.0])

    def test_correlation_degenerate(self):
        assert qq_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_correlation_validates(self):
        with pytest.raises(ValueError):
            qq_correlation(np.ones(3), np.ones(2))


class TestAggregateCounts:
    def test_basic_binning(self):
        counts = aggregate_counts([0.5, 1.5, 1.6, 2.5], interval=1.0,
                                  duration=3.0)
        assert list(counts) == [1, 2, 1]

    def test_keeps_empty_trailing_bins(self):
        counts = aggregate_counts([0.5], interval=1.0, duration=5.0)
        assert counts.size == 5
        assert counts.sum() == 1

    def test_empty(self):
        assert aggregate_counts([], 1.0).size == 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            aggregate_counts([1.0], 0)


class TestPoisson:
    def test_synthesis_rate(self):
        rng = np.random.default_rng(4)
        arrivals = synthesize_poisson_arrivals(10.0, 1000.0, rng)
        assert arrivals.size == pytest.approx(10_000, rel=0.05)
        assert np.all(np.diff(arrivals) >= 0)

    def test_synthesis_validates(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthesize_poisson_arrivals(0, 10, rng)
        with pytest.raises(ValueError):
            synthesize_poisson_arrivals(1, 0, rng)

    def test_poisson_iod_near_one(self):
        rng = np.random.default_rng(5)
        arrivals = synthesize_poisson_arrivals(5.0, 2000.0, rng)
        counts = aggregate_counts(arrivals, 1.0, 2000.0)
        assert index_of_dispersion(counts) == pytest.approx(1.0, abs=0.2)

    def test_iod_degenerate(self):
        assert np.isnan(index_of_dispersion([5]))
        assert np.isnan(index_of_dispersion([0, 0, 0]))

    def test_bursty_process_detected(self):
        # ON/OFF heavy-tailed arrivals stay dispersed; Poisson does not.
        rng = np.random.default_rng(6)
        bursts = []
        t = 0.0
        while t < 5000:
            on = float(Pareto(1.2, 5.0).sample(rng))
            n = rng.poisson(50 * min(on, 50))
            bursts.append(rng.uniform(t, t + on, size=n))
            t += on + float(Pareto(1.2, 20.0).sample(rng))
        arrivals = np.sort(np.concatenate(bursts))
        arrivals = arrivals[arrivals < 5000]
        profile = burstiness_profile(arrivals, intervals=(1.0, 10.0), rng=rng,
                                     duration=5000.0)
        assert profile.trace_iod[0] > 5 * profile.poisson_iod[0]
        assert profile.remains_bursty or profile.trace_iod[-1] > \
            3 * profile.poisson_iod[-1]

    def test_profile_validates(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            burstiness_profile([1.0], intervals=(1.0,), rng=rng)


class TestVarianceTime:
    def test_poisson_hurst_near_half(self):
        rng = np.random.default_rng(7)
        counts = rng.poisson(10, size=10_000)
        h = hurst_from_variance_time(counts)
        assert h == pytest.approx(0.5, abs=0.1)

    def test_points_shape(self):
        rng = np.random.default_rng(8)
        lm, lv = variance_time_points(rng.poisson(5, size=1000))
        assert lm.size == lv.size >= 3

    def test_requires_variance(self):
        with pytest.raises(ValueError):
            variance_time_points([3] * 100)

    def test_requires_length(self):
        with pytest.raises(ValueError):
            variance_time_points([1, 2, 3])
