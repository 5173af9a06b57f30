"""Almost-stochastic-order (ASO) comparison and classical one-sided tests.

All tests answer the one-sided question "does sample `a` tend larger than
sample `b`?". The ASO routine returns the violation ratio together with its
bootstrap-based upper confidence bound eps_min; the classical tests return a
plain (statistic, p-value) pair.

ASO reads every quantile, of a sample and of its bootstrap resamples, as an
order statistic of a sorted copy, picked by `empirical.order_statistic_index`
(level p of an n-sample is its ceil(n * p)-th order statistic, clamped).

Both rank tests' exact nulls are one cached count of integer-rank subsets per
sum (`_subset_sum_counts`): Wilcoxon's sign patterns are subsets of the doubled
ranks, and Mann-Whitney's rank sum W = U + n(n+1)/2 is an n-member subset of 1..n+m.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .empirical import as_sample, order_statistic_index, rankdata
from .special import ndtr, ndtri, t_sf

CLASSIC_TEST_KINDS = ("student_t", "bootstrap", "permutation", "wilcoxon", "mann_whitney")

# Exact Mann-Whitney enumeration is used up to this per-group size (no ties).
_MW_EXACT_LIMIT = 12
# Wilcoxon p-values are exact up to this many pairs, or up to the second limit when a
# difference is zero or tied (scipy.stats.wilcoxon's rule), and normal beyond.
_WILCOXON_EXACT_LIMIT = 50
_WILCOXON_EXACT_LIMIT_TIED = 13


class AsoResult(NamedTuple):
    """Outcome of the ASO comparison of two score samples."""

    eps_min: float
    violation_ratio: float
    sigma_hat: float


class TestResult(NamedTuple):
    """Statistic and one-sided p-value of a classical significance test."""

    statistic: float
    p_value: float


@functools.lru_cache(maxsize=256)
def _grid_runs(n: int, m: int, dt: float) -> tuple[np.ndarray, ...]:
    """Runs of the grid t = dt, 2*dt, ... < 1 on which the order-statistic pair is constant.

    On the grid, the quantile functions of an n-sample and an m-sample read the
    order statistics `order_statistic_index(n, t)` and `order_statistic_index(m, t)`,
    so any integrand of the two is constant on each run of consecutive grid
    points sharing that pair. Returns read-only arrays with one entry per run:
    the two indices and its weight run_length * dt. Both indices are
    non-decreasing in t, so there are at most n + m - 1 runs, and n when n == m
    and n * dt < 1. A dt outside (0, 1) raises, so lru_cache stores no run for it.
    """
    if not 0.0 < dt < 1.0:
        raise ValueError("dt must lie in (0, 1)")
    grid = np.arange(dt, 1.0, dt)
    idx_a = order_statistic_index(n, grid)
    idx_b = order_statistic_index(m, grid)
    # Neither index decreases, so the pair changes exactly where their sum does.
    starts = np.flatnonzero(np.diff(idx_a + idx_b, prepend=-1))
    runs = (idx_a[starts], idx_b[starts], np.diff(starts, append=grid.size) * dt)
    for arr in runs:
        arr.flags.writeable = False
    return runs


def _check_squared_range(low: float, high: float) -> None:
    """Raise ValueError if the squared range (high - low)**2 of two samples overflows."""
    span = float(high) - float(low)
    if not math.isfinite(span * span):
        raise ValueError("the squared range of the two samples overflows")


def _sorted_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Both validated samples, stable-sorted: every order statistic ASO reads comes from them.

    Raises ValueError if the pair's squared range overflows; below it every sum in
    `_ratios` is finite, as the run weights sum to less than 1.
    """
    srt_a, srt_b = (np.sort(as_sample(x), kind="stable") for x in (a, b))
    _check_squared_range(min(srt_a[0], srt_b[0]), max(srt_a[-1], srt_b[-1]))
    return srt_a, srt_b


def _ratios(f: np.ndarray, g: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Violation ratio of each row of quantiles (f, g) read at the grid runs (0.5 if W2 is 0).

    The numerator sums the denominator's terms in the same order, with zeros where
    f >= g; rounded addition is monotone, so every ratio lies in [0, 1].
    """
    sq = (g - f) ** 2 * weight
    denominator = sq.sum(axis=-1)
    sq *= f < g  # every term is finite (`_sorted_pair`), so a 0 factor gives 0
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator == 0.0, 0.5, sq.sum(axis=-1) / denominator)


def violation_ratio(a, b, dt: float = 0.005) -> float:
    """Fraction of squared quantile-difference mass where `a`'s quantiles fall below `b`'s.

    Integrates (F^-1(t) - G^-1(t))^2 on the grid t = dt, 2*dt, ... < 1; the
    numerator keeps only grid points in the violation set {t : F^-1(t) < G^-1(t)},
    the denominator (the squared 1-D 2-Wasserstein distance) uses all of them.
    Both are summed over `_grid_runs` by `_ratios`, so the ratio lies in [0, 1].
    Returns 0.5 by convention when the quantile functions coincide on the grid,
    so identical samples signal "no dominance either way".
    """
    srt_a, srt_b = _sorted_pair(a, b)
    idx_a, idx_b, weight = _grid_runs(srt_a.size, srt_b.size, dt)
    return float(_ratios(srt_a[idx_a], srt_b[idx_b], weight))


def aso(a, b, alpha: float = 0.05, num_bootstrap: int = 1000, dt: float = 0.005, *,
        rng: np.random.Generator) -> AsoResult:
    """ASO test: violation ratio, bootstrap sigma, and the eps_min bound.

    eps_min = eps - sqrt((N+M)/(N*M)) * sigma_hat * Phi^-1(alpha), clamped into
    [0, 1], where sigma_hat is the standard deviation of the rescaled bootstrap
    violation ratios sqrt(N*M/(N+M)) * (eps* - eps). The caller rejects the null "a is
    not almost stochastically larger than b" when eps_min < tau (`error_rates`). Each
    sample needs at least two observations: with one, every bootstrap resample
    equals the sample, sigma_hat is 0 and eps_min carries no uncertainty.

    Each sample is validated and sorted once. A bootstrap row is an inverse-transform
    resample of the same size (`a`'s rows drawn before `b`'s), sorted and read at the
    grid runs' order statistics: at most N + M - 1 columns, not one per grid point.
    `_ratios` turns each row into its eps*; eps (= `violation_ratio`) is its one-row
    call on the samples' own order statistics, so it is rounded as each eps* is.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if num_bootstrap < 1:
        raise ValueError("num_bootstrap must be >= 1")
    srt_a, srt_b = _sorted_pair(a, b)
    n, m = srt_a.size, srt_b.size
    if n < 2 or m < 2:
        raise ValueError("ASO needs at least two observations per sample")

    idx_a, idx_b, weight = _grid_runs(n, m, dt)
    eps = float(_ratios(srt_a[idx_a], srt_b[idx_b], weight))
    f_star, g_star = (
        np.sort(srt[order_statistic_index(srt.size, rng.random((num_bootstrap, srt.size)))],
                axis=1)[:, idx]
        for srt, idx in ((srt_a, idx_a), (srt_b, idx_b)))
    eps_star = _ratios(f_star, g_star, weight)

    scale = math.sqrt(n * m / (n + m))
    sigma_hat = float(np.std(scale * (eps_star - eps), ddof=1)) if num_bootstrap > 1 else 0.0
    eps_min = eps - math.sqrt((n + m) / (n * m)) * sigma_hat * ndtri(alpha)
    eps_min = min(max(eps_min, 0.0), 1.0)
    return AsoResult(eps_min=eps_min, violation_ratio=eps, sigma_hat=sigma_hat)


def bonferroni(alpha: float, num_comparisons: int) -> float:
    """Family-wise corrected significance level alpha / num_comparisons."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if num_comparisons < 1:
        raise ValueError("num_comparisons must be >= 1")
    return alpha / num_comparisons


def _check_mean_range(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ValueError unless the sums and squares of the mean-based tests stay finite.

    With N = a.size + b.size, M the largest |value| and S the range of the two
    samples, every sum those tests form is at most N * (M + S) in magnitude (a
    bootstrap null value lies within S of the pooled mean) and every sum of
    squared deviations at most N * S**2; both bounds, doubled for rounding, must be
    finite.
    """
    low, high = float(min(a.min(), b.min())), float(max(a.max(), b.max()))
    count, span = 2.0 * (a.size + b.size), high - low
    if not (math.isfinite(count * (max(-low, high) + span)) and math.isfinite(count * span * span)):
        raise ValueError("the sums or the squared range of the two samples overflow")


def _student_t(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided pooled-variance two-sample t-test for H1: mean(a) > mean(b)."""
    n, m = a.size, b.size
    if n < 2 or m < 2:
        raise ValueError("t-test needs at least two observations per sample")
    pooled_var = ((n - 1) * a.var(ddof=1) + (m - 1) * b.var(ddof=1)) / (n + m - 2)
    if pooled_var == 0.0:
        raise ValueError("degenerate variance")
    t_stat = (a.mean() - b.mean()) / math.sqrt(pooled_var * (1.0 / n + 1.0 / m))
    return TestResult(statistic=float(t_stat), p_value=t_sf(t_stat, n + m - 2))


def _bootstrap_test(a: np.ndarray, b: np.ndarray, resamples: int,
                    rng: np.random.Generator) -> TestResult:
    """Bootstrap test on the mean difference, resampling under the shifted null."""
    observed = a.mean() - b.mean()
    pooled_mean = np.concatenate([a, b]).mean()
    a_null = a - a.mean() + pooled_mean
    b_null = b - b.mean() + pooled_mean
    a_star = a_null[rng.integers(0, a.size, size=(resamples, a.size))].mean(axis=1)
    b_star = b_null[rng.integers(0, b.size, size=(resamples, b.size))].mean(axis=1)
    exceed = int(np.count_nonzero(a_star - b_star >= observed))
    return TestResult(statistic=float(observed), p_value=(exceed + 1) / (resamples + 1))


def _permutation_test(a: np.ndarray, b: np.ndarray, resamples: int,
                      rng: np.random.Generator) -> TestResult:
    """Permutation-randomization test on the mean difference."""
    observed = a.mean() - b.mean()
    pooled = np.concatenate([a, b])
    # argsort of uniforms = one random permutation per row
    perms = pooled[np.argsort(rng.random((resamples, pooled.size)), axis=1)]
    diffs = perms[:, :a.size].mean(axis=1) - perms[:, a.size:].mean(axis=1)
    exceed = int(np.count_nonzero(diffs >= observed))
    return TestResult(statistic=float(observed), p_value=(exceed + 1) / (resamples + 1))


@functools.lru_cache(maxsize=256)
def _subset_sum_counts(values: tuple[int, ...], size: int | None = None) -> np.ndarray:
    """Number of subsets of the positive integers `values` per sum 0..sum(values), read-only.

    Row k of a (members, sum) table counts the k-member subsets: each value adds
    the table so far to itself, one member up and shifted by the value. Returns
    row `size`, or with no size the counts of subsets of any size.
    """
    counts = np.zeros((len(values) + 1, sum(values) + 1), dtype=np.int64)
    counts[0, 0] = 1
    for v in values:
        counts[1:, v:] += counts[:-1, :-v].copy()
    counts = counts.sum(axis=0) if size is None else counts[size].copy()
    counts.flags.writeable = False
    return counts


def _wilcoxon(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided paired Wilcoxon signed-rank test for H1: `a` tends larger than `b`.

    Zero differences are dropped and tied |differences| mid-ranked; the
    statistic is the rank sum of the positive differences. The p-value equals
    scipy.stats.wilcoxon(zero_method="wilcox", alternative="greater") to the
    bit. For at most 50 pairs without zero or tied differences, or at most 13
    pairs with them, it is the exact share of the 2**count equally likely
    sign patterns whose positive-rank sum reaches the observed one (scipy
    enumerates these patterns in the tied case); beyond that it is the
    tie-corrected normal approximation without continuity correction.
    """
    if a.size != b.size:
        raise ValueError("Wilcoxon signed-rank test requires paired samples of equal length")
    if np.all(a == b):
        # Every difference is zero: no evidence in either direction.
        return TestResult(statistic=0.0, p_value=1.0)
    d = a - b
    d = d[d != 0.0]
    count = d.size
    ranks, tie_counts = rankdata(np.abs(d))
    r_plus = float(ranks[d > 0.0].sum())

    untied = tie_counts.size == count == a.size
    if a.size <= (_WILCOXON_EXACT_LIMIT if untied else _WILCOXON_EXACT_LIMIT_TIED):
        # A sign pattern is the subset of positive ranks; doubling makes mid-ranks integers.
        counts = _subset_sum_counts(tuple(np.sort(2 * ranks).astype(np.int64).tolist()))
        p = counts[int(2 * r_plus):].sum() / counts.sum()
    else:
        tie_term = float((tie_counts ** 3 - tie_counts).sum())
        mean = count * (count + 1.0) * 0.25
        var24 = count * (count + 1.0) * (2.0 * count + 1.0)
        z = (r_plus - mean) / math.sqrt((var24 - tie_term / 2) / 24)
        p = ndtr(-z)
    return TestResult(statistic=r_plus, p_value=float(p))


def _mann_whitney(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided Mann-Whitney U test for H1: `a` tends larger than `b`.

    U is the rank sum W of `a` less n(n+1)/2. When both groups have at most 12
    observations and no ties are present, the p-value is the exact share of the
    n-member subsets of the ranks 1..n+m whose sum reaches W; otherwise it is the
    normal approximation with tie correction and continuity correction.
    """
    n, m = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks, tie_counts = rankdata(pooled)
    rank_sum = ranks[:n].sum()
    u_stat = rank_sum - n * (n + 1) / 2.0

    has_ties = tie_counts.size < pooled.size
    if not has_ties and max(n, m) <= _MW_EXACT_LIMIT:
        counts = _subset_sum_counts(tuple(range(1, n + m + 1)), n)
        p = counts[int(rank_sum):].sum() / counts.sum()
        return TestResult(statistic=float(u_stat), p_value=float(p))

    mean_u = n * m / 2.0
    tie_term = float(((tie_counts ** 3) - tie_counts).sum())
    total = n + m
    var_u = n * m / 12.0 * (total + 1 - tie_term / (total * (total - 1)))
    if var_u == 0.0:
        return TestResult(statistic=float(u_stat), p_value=1.0)
    z = (u_stat - mean_u - 0.5) / math.sqrt(var_u)
    return TestResult(statistic=float(u_stat), p_value=ndtr(-z))


def classic_test(kind: str, a, b, resamples: int = 1000,
                 rng: np.random.Generator | None = None) -> TestResult:
    """Run one of the classical tests; see CLASSIC_TEST_KINDS for valid kinds.

    The resampling kinds, "bootstrap" and "permutation", need `rng`; the others ignore it.
    """
    arr_a = as_sample(a)
    arr_b = as_sample(b)
    if kind in ("student_t", "bootstrap", "permutation"):
        _check_mean_range(arr_a, arr_b)
    if kind in ("bootstrap", "permutation"):
        if resamples < 1:
            raise ValueError("resamples must be >= 1")
        if rng is None:
            raise ValueError(f"the {kind} test needs an explicit rng")
    if kind == "student_t":
        return _student_t(arr_a, arr_b)
    if kind == "bootstrap":
        return _bootstrap_test(arr_a, arr_b, resamples, rng)
    if kind == "permutation":
        return _permutation_test(arr_a, arr_b, resamples, rng)
    if kind == "wilcoxon":
        return _wilcoxon(arr_a, arr_b)
    if kind == "mann_whitney":
        return _mann_whitney(arr_a, arr_b)
    raise ValueError(f"unknown test kind: {kind!r}")
