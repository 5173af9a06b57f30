"""Almost-stochastic-order (ASO) comparison and classical one-sided tests.

All tests answer the one-sided question "does sample `a` tend larger than
sample `b`?". The ASO routine returns the violation ratio together with its
bootstrap-based upper confidence bound eps_min; the classical tests return a
plain (statistic, p-value) pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported in the functions that call it: it is about 0.3 s of
# import, which CLI commands that never run a test should not pay.
from .empirical import as_sample, quantile_function, rankdata

CLASSIC_TEST_KINDS = ("student_t", "bootstrap", "permutation", "wilcoxon", "mann_whitney")

# Exact Mann-Whitney enumeration is used up to this per-group size (no ties).
_MW_EXACT_LIMIT = 12
# Wilcoxon p-values are exact up to this many pairs, or up to the second limit when a
# difference is zero or tied (scipy.stats.wilcoxon's rule), and normal beyond.
_WILCOXON_EXACT_LIMIT = 50
_WILCOXON_EXACT_LIMIT_TIED = 13


@dataclass(frozen=True)
class AsoResult:
    """Outcome of the ASO comparison of two score samples."""

    eps_min: float
    violation_ratio: float
    sigma_hat: float
    reject: bool


@dataclass(frozen=True)
class TestResult:
    """Statistic and one-sided p-value of a classical significance test."""

    statistic: float
    p_value: float


@functools.lru_cache(maxsize=256)
def _grid_runs(n: int, m: int, dt: float) -> tuple[np.ndarray, ...]:
    """Runs of the grid t = dt, 2*dt, ... < 1 on which the order-statistic pair is constant.

    On the grid, the quantile function of an n-sample is its ceil(n*t)-th order
    statistic and that of an m-sample its ceil(m*t)-th, so any integrand of the
    two is constant on each run of consecutive grid points sharing the 0-based
    pair (ceil(n*t) - 1, ceil(m*t) - 1). Returns read-only arrays with one
    entry per run: its first grid level, the two indices, and its weight
    run_length * dt. Both indices are non-decreasing in t, so there are at most
    n + m - 1 runs, and n when n == m and n * dt < 1. Callers check dt first.
    """
    grid = np.arange(dt, 1.0, dt)
    idx_a = np.clip(np.ceil(n * grid).astype(np.int64) - 1, 0, n - 1)
    idx_b = np.clip(np.ceil(m * grid).astype(np.int64) - 1, 0, m - 1)
    # Neither index decreases, so the pair changes exactly where their sum does.
    starts = np.flatnonzero(np.diff(idx_a + idx_b, prepend=-1))
    runs = (grid[starts], idx_a[starts], idx_b[starts],
            np.diff(starts, append=grid.size) * dt)
    for arr in runs:
        arr.flags.writeable = False
    return runs


def violation_ratio(a, b, dt: float = 0.005) -> float:
    """Fraction of squared quantile-difference mass where `a`'s quantiles fall below `b`'s.

    Integrates (F^-1(t) - G^-1(t))^2 on the grid t = dt, 2*dt, ... < 1; the
    numerator keeps only grid points in the violation set {t : F^-1(t) < G^-1(t)},
    the denominator (the squared 1-D 2-Wasserstein distance) uses all of them.
    The integrand is constant on each run of grid points that share the same
    pair of order statistics, so both sums are taken over runs: each run's
    squared difference, evaluated at its first level, times its length * dt.
    Returns 0.5 by convention when the quantile functions coincide on the grid,
    so identical samples signal "no dominance either way".
    """
    if not 0.0 < dt < 1.0:
        raise ValueError("dt must lie in (0, 1)")
    arr_a = as_sample(a)
    arr_b = as_sample(b)
    level, _, _, weight = _grid_runs(arr_a.size, arr_b.size, dt)
    f = quantile_function(arr_a)(level)
    g = quantile_function(arr_b)(level)
    sq = (g - f) ** 2 * weight
    denominator = float(sq.sum())
    if denominator == 0.0:
        return 0.5
    numerator = float(sq[f < g].sum())
    return numerator / denominator


def _bootstrap_quantiles(sample: np.ndarray, idx: np.ndarray,
                         num_bootstrap: int, rng: np.random.Generator) -> np.ndarray:
    """Order statistics `idx` of `num_bootstrap` inverse-transform resamples.

    Each row is one resample of the same size as the input, sorted, at the
    0-based ranks `idx`: F*^-1 evaluated at the levels those ranks stand for.
    """
    srt = np.sort(sample, kind="stable")
    n = srt.size
    draw_idx = np.ceil(n * rng.random((num_bootstrap, n))).astype(np.int64)
    resamples = srt[np.clip(draw_idx - 1, 0, n - 1)]
    resamples.sort(axis=1)
    return resamples[:, idx]


def aso(a, b, alpha: float = 0.05, num_bootstrap: int = 1000, dt: float = 0.005,
        rng: np.random.Generator | None = None, threshold: float = 0.2) -> AsoResult:
    """ASO test: violation ratio, bootstrap sigma, and the eps_min bound.

    eps_min = eps - sqrt((N+M)/(N*M)) * sigma_hat * Phi^-1(alpha), clamped into
    [0, 1], where sigma_hat is the standard deviation of the rescaled bootstrap
    violation ratios sqrt(N*M/(N+M)) * (eps* - eps). The null "a is not almost
    stochastically larger than b" is rejected when eps_min < threshold. Each
    sample needs at least two observations: with one, every bootstrap resample
    equals the sample, sigma_hat is 0 and eps_min carries no uncertainty.

    Each bootstrap eps* is the run-weighted sum of `violation_ratio`: the
    resample's order statistics are gathered once per run of grid points that
    share an order-statistic pair, so a row has at most N + M - 1 columns, not
    one per grid point. The sums differ from the per-point ones only by
    rounding (a few ulps).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if num_bootstrap < 1:
        raise ValueError("num_bootstrap must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    arr_a = as_sample(a)
    arr_b = as_sample(b)
    n, m = arr_a.size, arr_b.size
    if n < 2 or m < 2:
        raise ValueError("ASO needs at least two observations per sample")

    eps = violation_ratio(arr_a, arr_b, dt)  # checks dt before any run is cached

    _, idx_a, idx_b, weight = _grid_runs(n, m, dt)
    f_star = _bootstrap_quantiles(arr_a, idx_a, num_bootstrap, rng)
    g_star = _bootstrap_quantiles(arr_b, idx_b, num_bootstrap, rng)

    sq = (g_star - f_star) ** 2 * weight
    denominator = sq.sum(axis=1)
    numerator = np.where(f_star < g_star, sq, 0.0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        eps_star = np.where(denominator == 0.0, 0.5, numerator / denominator)

    from scipy.special import ndtri
    scale = math.sqrt(n * m / (n + m))
    sigma_hat = float(np.std(scale * (eps_star - eps), ddof=1)) if num_bootstrap > 1 else 0.0
    eps_min = eps - math.sqrt((n + m) / (n * m)) * sigma_hat * float(ndtri(alpha))
    eps_min = min(max(eps_min, 0.0), 1.0)
    return AsoResult(eps_min=eps_min, violation_ratio=eps, sigma_hat=sigma_hat,
                     reject=eps_min < threshold)


def bonferroni(alpha: float, num_comparisons: int) -> float:
    """Family-wise corrected significance level alpha / num_comparisons."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if num_comparisons < 1:
        raise ValueError("num_comparisons must be >= 1")
    return alpha / num_comparisons


def _student_t(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided pooled-variance two-sample t-test for H1: mean(a) > mean(b)."""
    n, m = a.size, b.size
    if n < 2 or m < 2:
        raise ValueError("t-test needs at least two observations per sample")
    pooled_var = ((n - 1) * a.var(ddof=1) + (m - 1) * b.var(ddof=1)) / (n + m - 2)
    if pooled_var == 0.0:
        raise ValueError("degenerate variance")
    t_stat = (a.mean() - b.mean()) / math.sqrt(pooled_var * (1.0 / n + 1.0 / m))
    from scipy.special import stdtr
    return TestResult(statistic=float(t_stat), p_value=float(stdtr(n + m - 2, -t_stat)))


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
def _sign_pattern_counts(doubled_ranks: tuple[int, ...]) -> np.ndarray:
    """Number of sign patterns of the ranks per doubled positive-rank sum.

    Doubling makes mid-ranks integers. Each rank is positive in half of the
    patterns, so each step adds the counts so far to themselves shifted by it.
    """
    counts = np.zeros(sum(doubled_ranks) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        counts[r:] += counts[:-r].copy()
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
        doubled = tuple(np.sort(2 * ranks).astype(np.int64).tolist())
        reached = _sign_pattern_counts(doubled)[int(2 * r_plus):].sum()
        p = reached / 2 ** count
    else:
        tie_term = float((tie_counts ** 3 - tie_counts).sum())
        mean = count * (count + 1.0) * 0.25
        var24 = count * (count + 1.0) * (2.0 * count + 1.0)
        z = (r_plus - mean) / math.sqrt((var24 - tie_term / 2) / 24)
        from scipy.special import ndtr
        p = ndtr(-z)
    return TestResult(statistic=r_plus, p_value=float(p))


@functools.lru_cache(maxsize=256)
def _mann_whitney_null_counts(n: int, m: int) -> np.ndarray:
    """Number of rank arrangements of groups of n and m untied values per U = 0..n*m.

    Uses the recurrence N(u; n, m) = N(u - m; n - 1, m) + N(u; n, m - 1)
    obtained by conditioning on whether the largest pooled value belongs to
    the first or the second sample.
    """
    max_u = n * m
    f = np.zeros((n + 1, m + 1, max_u + 1), dtype=np.int64)
    f[0, :, 0] = 1
    f[:, 0, 0] = 1
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            f[i, j, :] = f[i, j - 1, :]
            f[i, j, j:] += f[i - 1, j, : max_u + 1 - j]
    counts = f[n, m, :].copy()
    counts.flags.writeable = False
    return counts


def _mann_whitney_exact_p(n: int, m: int, u_obs: float) -> float:
    """P(U >= u_obs) under the null by exact counting of rank arrangements.

    Valid only without ties.
    """
    dist = _mann_whitney_null_counts(n, m)
    threshold = math.ceil(u_obs - 1e-9)
    return float(dist[threshold:].sum() / dist.sum())


def _mann_whitney(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided Mann-Whitney U test for H1: `a` tends larger than `b`.

    Exact enumeration when both groups have at most 12 observations and no
    ties are present; otherwise the normal approximation with tie correction
    and continuity correction.
    """
    n, m = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks, tie_counts = rankdata(pooled)
    u_stat = ranks[:n].sum() - n * (n + 1) / 2.0

    has_ties = tie_counts.size < pooled.size
    if not has_ties and max(n, m) <= _MW_EXACT_LIMIT:
        return TestResult(statistic=float(u_stat), p_value=_mann_whitney_exact_p(n, m, u_stat))

    mean_u = n * m / 2.0
    tie_term = float(((tie_counts ** 3) - tie_counts).sum())
    total = n + m
    var_u = n * m / 12.0 * (total + 1 - tie_term / (total * (total - 1)))
    if var_u == 0.0:
        return TestResult(statistic=float(u_stat), p_value=1.0)
    z = (u_stat - mean_u - 0.5) / math.sqrt(var_u)
    from scipy.special import ndtr
    return TestResult(statistic=float(u_stat), p_value=float(ndtr(-z)))


def classic_test(kind: str, a, b, resamples: int = 1000,
                 rng: np.random.Generator | None = None) -> TestResult:
    """Run one of the classical tests; see CLASSIC_TEST_KINDS for valid kinds."""
    arr_a = as_sample(a)
    arr_b = as_sample(b)
    if kind in ("bootstrap", "permutation"):
        if resamples < 1:
            raise ValueError("resamples must be >= 1")
        if rng is None:
            rng = np.random.default_rng()
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
