"""Empirical distribution primitives shared by the significance tests.

A "sample" throughout this package is a non-empty 1-D collection of finite
real scores. Every empirical quantile of a sample picks its order statistic by
one rule, `order_statistic_index`: level p of an n-sample is its ceil(n * p)-th
order statistic, clamped into the sample, with no interpolation. The quantile
function and ASO's grid and bootstrap rows use it, so every statistic built on
them is reproducible to the bit.
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


def order_statistic_index(n: int, p) -> np.ndarray:
    """0-based index, into an n-sample sorted ascending, of the order statistic for level p.

    The one order-statistic rule of the empirical quantiles: ceil(n * p) - 1,
    clamped into [0, n - 1]. `p` may be a scalar or an array of levels.
    """
    # one expression, so that numpy can reuse its temporaries: ASO passes whole
    # bootstrap blocks, and a fresh buffer per step made the call several times slower
    return np.clip(np.ceil(n * np.asarray(p, dtype=float)).astype(np.int64) - 1, 0, n - 1)


def quantile_function(sample) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized empirical quantile function (inverse CDF) of a sample.

    The returned callable maps an array of levels p in (0, 1) to the order
    statistic `order_statistic_index` selects.
    """
    srt = np.sort(as_sample(sample), kind="stable")

    def inverse_cdf(p) -> np.ndarray:
        return srt[order_statistic_index(srt.size, p)]

    return inverse_cdf


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

