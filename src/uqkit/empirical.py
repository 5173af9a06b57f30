"""Empirical distribution primitives shared by the significance tests.

A "sample" throughout this package is a non-empty 1-D collection of finite
real scores. The quantile function deliberately uses the plain order-statistic
rule index = ceil(n * p) (clamped, no interpolation) so that every statistic
built on top of it is reproducible to the bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def as_sample(values) -> np.ndarray:
    """Validate score observations and return them as a 1-D float64 array."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def empirical_cdf(sample, t: float) -> float:
    """Fraction of observations <= t (right-continuous step function)."""
    arr = as_sample(sample)
    return float(np.count_nonzero(arr <= t)) / arr.size


def quantile_function(sample) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized empirical quantile function (inverse CDF) of a sample.

    The returned callable maps an array of levels p in (0, 1) to the
    ceil(n * p)-th order statistic, clamped into the observed support.
    """
    srt = np.sort(as_sample(sample), kind="stable")
    n = srt.size

    def inverse_cdf(p) -> np.ndarray:
        idx = np.ceil(n * np.asarray(p, dtype=float)).astype(np.int64)
        return srt[np.clip(idx - 1, 0, n - 1)]

    return inverse_cdf


def empirical_quantile(sample, p: float) -> float:
    """p-quantile of a sample for a single level p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level out of range")
    return float(quantile_function(sample)(p))


def rankdata(values) -> tuple[np.ndarray, np.ndarray]:
    """Mid-ranks (1-based, ties averaged) of finite values, and each distinct value's count.

    The tie counts are in ascending order of value and sum to the input size.
    Every mid-rank is an exact half-integer, so the ranks equal
    `scipy.stats.rankdata(values)` bit for bit.
    """
    arr = np.asarray(values, dtype=float).ravel()
    order = np.argsort(arr, kind="stable")
    srt = arr[order]
    run_start = np.empty(arr.size, dtype=bool)
    run_start[:1] = True
    run_start[1:] = srt[1:] != srt[:-1]
    starts = np.flatnonzero(run_start)
    counts = np.diff(starts, append=arr.size)
    ranks = np.empty(arr.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks, counts


def bootstrap_resample(sample, m: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-transform bootstrap: draw p ~ U(0,1) and map through the quantile function.

    Every returned value is a member of the input sample.
    """
    if m < 1:
        raise ValueError("resample size must be >= 1")
    return quantile_function(sample)(rng.random(m))
