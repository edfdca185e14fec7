"""Quantile-quantile plot data against Normal and Pareto references.

Figure 9 of the paper shows the open-arrival sample departing badly from a
fitted Normal while matching a fitted Pareto almost perfectly.  These
functions produce the (theoretical quantile, deviation) pairs behind such
plots, plus a correlation score usable as a scalar goodness-of-fit so tests
and benchmarks can assert "Pareto fits better than Normal".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.stats.heavy_tail import pareto_mle


def _plotting_positions(n: int) -> np.ndarray:
    """Median-unbiased plotting positions (Filliben-style)."""
    i = np.arange(1, n + 1, dtype=float)
    return (i - 0.3175) / (n + 0.365)


def qq_normal(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """QQ data against a Normal fitted by sample mean and std.

    Returns ``(observed_sorted, theoretical_quantiles)``.
    """
    # Imported here: scipy.stats dominates the import time of the
    # package, and only this function needs it.
    from scipy import stats as sstats

    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size < 3:
        raise ValueError("need at least 3 samples")
    mu = arr.mean()
    sigma = arr.std(ddof=1)
    if sigma == 0:
        sigma = 1.0
    q = sstats.norm.ppf(_plotting_positions(arr.size), loc=mu, scale=sigma)
    return arr, q


def qq_pareto(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """QQ data against a Pareto fitted by maximum likelihood.

    Returns ``(observed_sorted, theoretical_quantiles)``; only positive
    samples participate (Pareto support is x >= xm > 0).
    """
    arr = np.asarray(values, dtype=float)
    arr = np.sort(arr[arr > 0])
    if arr.size < 3:
        raise ValueError("need at least 3 positive samples")
    alpha, xm = pareto_mle(arr)
    p = _plotting_positions(arr.size)
    q = xm * (1.0 - p) ** (-1.0 / alpha)
    return arr, q


def qq_correlation(observed: np.ndarray, theoretical: np.ndarray) -> float:
    """Pearson correlation of a QQ pairing: 1.0 means a perfect line.

    The probability-plot correlation coefficient is a standard scalar test
    statistic for distributional fit; comparing it across candidate
    distributions reproduces the figure-9 conclusion numerically.
    """
    o = np.asarray(observed, dtype=float)
    t = np.asarray(theoretical, dtype=float)
    if o.size != t.size or o.size < 3:
        raise ValueError("need equal-length arrays of at least 3 points")
    if np.all(o == o[0]) or np.all(t == t[0]):
        return 0.0
    return float(np.corrcoef(o, t)[0, 1])
