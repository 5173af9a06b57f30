import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import aso_grid_oracle
from uqkit import significance
from uqkit.empirical import quantile_function
from uqkit.significance import (_grid_runs, _mann_whitney_exact_p, _mann_whitney_null_counts,
                                aso, bonferroni, classic_test, violation_ratio)

# Bounded finite score samples of size 1..30 for the property tests.
finite_samples = st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                                    allow_infinity=False), min_size=1, max_size=30)
# ASO needs two observations per sample.
aso_samples = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=20)
# Small integer scores: a common integer shift is exact, a scale keeps distinct values apart.
integer_samples = st.lists(st.integers(min_value=-50, max_value=50).map(float), min_size=1,
                           max_size=30)


def brute_force_violation_ratio(a, b, dt):
    """Independent oracle: explicit loop over the integration grid."""
    sa, sb = sorted(a), sorted(b)

    def quantile(srt, p):
        idx = math.ceil(len(srt) * p)
        return srt[min(max(idx - 1, 0), len(srt) - 1)]

    num = den = 0.0
    t = dt
    while t < 1.0 - 1e-12:
        f, g = quantile(sa, t), quantile(sb, t)
        den += (g - f) ** 2 * dt
        if f < g:
            num += (g - f) ** 2 * dt
        t += dt
    return 0.5 if den == 0 else num / den


class TestViolationRatio:
    def test_total_dominance(self):
        assert violation_ratio([11, 12, 13], [1, 2, 3]) == 0.0

    def test_total_inverse_dominance(self):
        assert violation_ratio([1, 2, 3], [11, 12, 13]) == 1.0

    def test_identical_samples_convention(self):
        assert violation_ratio([1, 2, 3], [1, 2, 3]) == 0.5

    def test_dt_out_of_range(self):
        with pytest.raises(ValueError):
            violation_ratio([1.0], [2.0], dt=0.0)
        with pytest.raises(ValueError):
            violation_ratio([1.0], [2.0], dt=1.0)

    def test_matches_fine_grid_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0.3, 1.0, 50)
        b = rng.normal(0.0, 1.0, 50)
        coarse = violation_ratio(a, b, dt=1e-5)
        oracle = brute_force_violation_ratio(a, b, 1e-5)
        assert 0.0 < coarse < 0.5  # overlapping samples: genuine partial violation
        assert coarse == pytest.approx(oracle, abs=1e-2)

    def test_antisymmetry_when_wasserstein_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(0.5, 1.0, 30)
            b = rng.normal(0.0, 1.0, 30)
            total = violation_ratio(a, b, dt=0.005) + violation_ratio(b, a, dt=0.005)
            assert total == pytest.approx(1.0, abs=0.05)

    @given(finite_samples, finite_samples)
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry_property(self, a, b):
        grid = np.arange(0.005, 1.0, 0.005)
        assume(not np.array_equal(quantile_function(a)(grid), quantile_function(b)(grid)))
        total = violation_ratio(a, b) + violation_ratio(b, a)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(finite_samples)
    @settings(max_examples=200, deadline=None)
    def test_identical_samples_property(self, a):
        assert violation_ratio(a, a) == 0.5

    @given(integer_samples, integer_samples, st.integers(min_value=-100, max_value=100),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_invariant_to_common_shift_and_scale(self, a, b, shift, scale):
        """violation_ratio(s*(a+c), s*(b+c)) == violation_ratio(a, b) to 1e-12.

        Bounds: integer scores in [-50, 50], integer shift c in [-100, 100] (so a+c is
        exact) and scale s in [0.01, 100]. Distinct quantiles then differ by >= s while
        each scaled value carries a rounding error <= 150*s*2**-53, so every squared
        difference and the Wasserstein denominator keep a relative error below 1e-13.
        """
        def transform(x):
            return (np.asarray(x, dtype=float) + shift) * scale

        expected = violation_ratio(a, b)
        assert violation_ratio(transform(a), transform(b)) == pytest.approx(expected, abs=1e-12)


class TestAso:
    def test_total_dominance_rejects(self):
        rng = np.random.default_rng(0)
        a = rng.permutation(np.arange(101.0, 121.0))
        b = np.arange(1.0, 21.0)
        result = aso(a, b, alpha=0.05, num_bootstrap=1000, rng=np.random.default_rng(1))
        assert result.violation_ratio == 0.0
        assert result.eps_min < 0.2

    def test_identical_samples_rarely_reject(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(0.0, 1.5, 20)
        keep = 0
        trials = 500
        for trial in range(trials):
            result = aso(sample, sample, alpha=0.05, num_bootstrap=200,
                         rng=np.random.default_rng(trial))
            keep += result.eps_min >= 0.2
        assert keep / trials >= 0.95

    def test_eps_min_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.2, 1.0, 15)
        b = rng.normal(0.0, 1.0, 15)
        values = [aso(a, b, alpha=al, num_bootstrap=500, rng=np.random.default_rng(9)).eps_min
                  for al in (0.01, 0.05, 0.1, 0.25)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            aso([1.0, 2.0], [1.0, 2.0], num_bootstrap=0)
        with pytest.raises(ValueError):
            aso([1.0, 2.0], [1.0, 2.0], alpha=1.5)

    @pytest.mark.parametrize("a, b", [([1.0], [1.0, 2.0]), ([1.0, 2.0], [3.0]), ([1.0], [2.0])])
    def test_needs_two_observations_per_sample(self, a, b):
        with pytest.raises(ValueError, match="two observations"):
            aso(a, b, num_bootstrap=10, rng=np.random.default_rng(0))

    @given(aso_samples, aso_samples, st.floats(min_value=1e-3, max_value=1 - 1e-3),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_eps_min_in_unit_interval_property(self, a, b, alpha, seed):
        result = aso(a, b, alpha=alpha, num_bootstrap=50, rng=np.random.default_rng(seed))
        assert 0.0 <= result.eps_min <= 1.0

    @given(aso_samples, aso_samples, st.lists(st.floats(min_value=1e-3, max_value=1 - 1e-3),
                                              min_size=2, max_size=4),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_eps_min_non_increasing_in_alpha_property(self, a, b, alphas, seed):
        """Same rng seed, same bootstrap draws: eps_min moves only through Phi^-1(alpha)."""
        values = [aso(a, b, alpha=al, num_bootstrap=50, rng=np.random.default_rng(seed)).eps_min
                  for al in sorted(alphas)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    # (a, b, keyword arguments, rng seed, (eps_min, violation_ratio, sigma_hat) as float.hex)
    PINNED = [
        ([0.31, -1.2, 0.77, 1.5, 0.02, -0.4, 0.9],
         [0.1, -0.3, 0.25, -1.1, 0.6, 0.05, -0.75, 1.2, -0.2, 0.4, 0.15],
         {"num_bootstrap": 300}, 1,
         ("0x1.46c9e4d0e813bp-1", "0x1.4ed39401afb1ap-4", "0x1.6648dcf572892p-1")),
        ([2.5, 1.75, 3.0, 0.5, 2.0, 1.25, 2.25, 0.75, 1.5, 2.75],
         [1.0, 2.2, 0.3, 1.4, 3.4, 0.8, 1.9, 0.1, 2.6, 2.4],
         {"num_bootstrap": 500}, 2,
         ("0x1.66c76134fdad6p-1", "0x1.124cc08758659p-3", "0x1.8a833e10ab95ep-1")),
        ([3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 2.0, 2.0], [1.0, 2.0, 4.0, 1.0, 2.0, 3.0, 1.0, 0.0, 2.0],
         {"num_bootstrap": 400}, 3,
         ("0x1.6d2f9a5fed401p-1", "0x1.9249249249249p-3", "0x1.4b138de6ab479p-1")),
        ([0.9, 0.1, 0.5, 0.7, 0.3], [0.2, 0.6, 0.4, 0.8, 0.0, 1.0],
         {"num_bootstrap": 200, "dt": 0.3}, 4,
         ("0x1.0000000000000p+0", "0x1.5555555555556p-1", "0x1.606c0d159a2c2p-1")),
        ([11.0, 12.0, 13.0, 14.0], [1.0, 2.0, 3.0, 4.0, 12.5],
         {"num_bootstrap": 100}, 5,
         ("0x1.255f6635a9951p-8", "0x0.0p+0", "0x1.09e1598867750p-8")),
        ([0.12, 0.55, 0.31, 0.78, 0.44, 0.09], [0.5, 0.41, 0.67, 0.23, 0.58, 0.36, 0.71],
         {"alpha": 0.1, "num_bootstrap": 250, "dt": 0.01}, 6,
         ("0x1.0000000000000p+0", "0x1.ec0e7120d690cp-1", "0x1.042c140bc8853p-1")),
    ]

    @pytest.mark.parametrize("a, b, kwargs, seed, expected", PINNED,
                             ids=["n_ne_m", "n_eq_m", "tied_integers", "coarse_dt", "one_high",
                                  "alpha_and_dt"])
    def test_pinned_results_to_the_bit(self, a, b, kwargs, seed, expected):
        """Every field equals its pinned value exactly: n != m, n == m, ties, dt = 0.3."""
        result = aso(a, b, rng=np.random.default_rng(seed), **kwargs)
        got = (result.eps_min.hex(), result.violation_ratio.hex(), result.sigma_hat.hex())
        assert got == expected

    def test_validates_each_sample_once(self, monkeypatch):
        calls = []
        real = significance.as_sample

        def counting(values):
            calls.append(len(values))
            return real(values)

        monkeypatch.setattr(significance, "as_sample", counting)
        aso([1.0, 3.0, 2.0], [2.0, 0.5, 4.0, 1.0], num_bootstrap=20,
            rng=np.random.default_rng(0))
        assert calls == [3, 4]

    def test_result_fields_in_range(self):
        rng = np.random.default_rng(8)
        result = aso(rng.normal(size=10), rng.normal(size=12), rng=np.random.default_rng(4))
        assert 0.0 <= result.violation_ratio <= 1.0
        assert 0.0 <= result.eps_min <= 1.0
        assert result.sigma_hat >= 0.0


# Grid steps for the run tests: 0.3 gives a three-point grid, coarser than the
# order statistics of most samples; the others give grids of 99 to 333 points.
GRID_STEPS = [0.005, 0.003, 0.007, 0.01, 0.3]


class TestGridRuns:
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
           st.sampled_from(GRID_STEPS))
    @settings(max_examples=200, deadline=None)
    def test_runs_cover_the_grid(self, n, m, dt):
        grid = np.arange(dt, 1.0, dt)
        runs = _grid_runs(n, m, dt)
        assert len(runs) == 3
        idx_a, idx_b, weight = runs
        assert all(not arr.flags.writeable for arr in runs)
        assert weight.sum() == pytest.approx(grid.size * dt, rel=1e-12)
        assert idx_a.size == idx_b.size == weight.size <= min(n + m - 1, grid.size)
        if n == m and n * dt < 1:
            assert idx_a.size == n
        # Runs are maximal: neighbouring runs differ in their pair.
        assert np.all((np.diff(idx_a) > 0) | (np.diff(idx_b) > 0))
        # Expanded back to one entry per grid point, the runs give every point's pair.
        lengths = np.rint(weight / dt).astype(np.int64)
        assert np.array_equal(np.repeat(idx_a, lengths),
                              np.clip(np.ceil(n * grid).astype(np.int64) - 1, 0, n - 1))
        assert np.array_equal(np.repeat(idx_b, lengths),
                              np.clip(np.ceil(m * grid).astype(np.int64) - 1, 0, m - 1))

    @pytest.mark.parametrize("dt", [0.0, 1.0, -0.1, 1.5])
    def test_bad_dt_raises_before_anything_is_cached(self, dt):
        _grid_runs.cache_clear()
        with pytest.raises(ValueError, match="dt must lie"):
            aso([1.0, 2.0, 3.0], [2.0, 3.0], dt=dt, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="dt must lie"):
            violation_ratio([1.0, 2.0, 3.0], [2.0, 3.0], dt=dt)
        assert _grid_runs.cache_info().currsize == 0

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=2, max_value=60),
           st.sampled_from(GRID_STEPS), st.sampled_from([2, 5, None]),
           st.sampled_from([0.0, 0.5]), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=150, deadline=None)
    def test_aso_matches_uncompressed_grid_oracle(self, n, m, dt, levels, shift, seed):
        """Summing per run, not per grid point, moves eps_min and the ratio by <= 1e-12.

        `levels` draws integer scores from that many values, so samples carry ties.
        """
        assume(n != m)
        data = np.random.default_rng(seed)

        def draw(size):
            if levels is None:
                return data.normal(size=size)
            return data.integers(0, levels, size).astype(float)

        a, b = draw(n), draw(m) + shift
        result = aso(a, b, num_bootstrap=200, dt=dt, rng=np.random.default_rng(seed))
        eps_min, ratio = aso_grid_oracle(a, b, 0.05, 200, dt, np.random.default_rng(seed))
        assert abs(result.eps_min - eps_min) <= 1e-12
        assert abs(result.violation_ratio - ratio) <= 1e-12


def mann_whitney_enumeration_p(a, b):
    """Oracle: all C(n+m, n) assignments of pooled ranks, P(U >= observed)."""
    pooled = sorted(a + b)
    n, m = len(a), len(b)
    observed = sum(1 for x in a for y in b if x > y)
    at_least = total = 0
    for positions in itertools.combinations(range(n + m), n):
        chosen = [pooled[i] for i in positions]
        rest = [pooled[i] for i in range(n + m) if i not in positions]
        u = sum(1 for x in chosen for y in rest if x > y)
        total += 1
        at_least += u >= observed
    return at_least / total


def uncached_mann_whitney_counts(n, m):
    """Reference: the exact null counts of U by the recurrence, rebuilt on every call."""
    max_u = n * m
    f = np.zeros((n + 1, m + 1, max_u + 1), dtype=np.int64)
    f[0, :, 0] = 1
    f[:, 0, 0] = 1
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            f[i, j, :] = f[i, j - 1, :]
            f[i, j, j:] += f[i - 1, j, : max_u + 1 - j]
    return f[n, m, :]


def wilcoxon_branch(n, tied_or_zero):
    """Which null distribution scipy.stats.wilcoxon's default method picks."""
    if not tied_or_zero and n <= 50:
        return "exact"
    return "sign_flip" if n <= 13 else "asymptotic"


class TestClassicTests:
    def test_mann_whitney_exact_small(self):
        result = classic_test("mann_whitney", [4, 5, 6], [1, 2, 3])
        assert result.p_value == pytest.approx(1 / 20)

    def test_mann_whitney_cached_null_matches_uncached_recurrence(self):
        for n, m in itertools.product(range(1, 13), repeat=2):
            dist = uncached_mann_whitney_counts(n, m)
            counts = _mann_whitney_null_counts(n, m)
            assert np.array_equal(counts, dist) and not counts.flags.writeable
            assert _mann_whitney_null_counts(n, m) is counts
            for u in range(n * m + 1):
                assert _mann_whitney_exact_p(n, m, u) == float(dist[u:].sum() / dist.sum())

    def test_mann_whitney_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = list(rng.normal(0.5, 1.0, 5))
            b = list(rng.normal(0.0, 1.0, 6))
            result = classic_test("mann_whitney", a, b)
            assert result.p_value == pytest.approx(mann_whitney_enumeration_p(a, b), abs=1e-12)

    def test_permutation_detects_huge_shift(self):
        rng = np.random.default_rng(6)
        b = rng.normal(0.0, 1.0, 10)
        a = b + 100.0
        result = classic_test("permutation", a, b, resamples=1000, rng=np.random.default_rng(0))
        assert result.p_value < 0.01

    def test_bootstrap_detects_huge_shift(self):
        rng = np.random.default_rng(6)
        b = rng.normal(0.0, 1.0, 10)
        a = b + 100.0
        result = classic_test("bootstrap", a, b, resamples=1000, rng=np.random.default_rng(0))
        assert result.p_value < 0.01

    def test_student_t_degenerate_variance(self):
        with pytest.raises(ValueError, match="degenerate variance"):
            classic_test("student_t", [2.0, 2.0, 2.0], [2.0, 2.0, 2.0])

    def test_student_t_direction(self):
        rng = np.random.default_rng(1)
        b = rng.normal(0.0, 1.0, 30)
        assert classic_test("student_t", b + 2.0, b).p_value < 0.01
        assert classic_test("student_t", b - 2.0, b).p_value > 0.95

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=30),
           st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_student_t_p_value_matches_scipy_stats(self, a, b):
        try:
            forward = classic_test("student_t", a, b)
        except ValueError:
            assume(False)
        backward = classic_test("student_t", b, a)
        df = len(a) + len(b) - 2
        # uqkit.special.t_sf is not Boost's incomplete beta: named tolerance, not bits.
        assert forward.p_value == pytest.approx(stats.t.sf(forward.statistic, df),
                                                rel=1e-12, abs=1e-300)
        assert backward.p_value == pytest.approx(stats.t.sf(backward.statistic, df),
                                                 rel=1e-12, abs=1e-300)
        assert abs(forward.p_value + backward.p_value - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", ["ties", "n_above_exact_limit"])
    def test_mann_whitney_normal_branch_matches_scipy_stats(self, case):
        rng = np.random.default_rng(8)
        for _ in range(20):
            if case == "ties":
                a = rng.integers(0, 6, 9).astype(float)
                b = rng.integers(0, 5, 7).astype(float)
            else:
                a = rng.normal(0.3, 1.0, 15)
                b = rng.normal(0.0, 1.0, 13)
            result = classic_test("mann_whitney", a, b)
            n, m = a.size, b.size
            _, tie_counts = np.unique(np.concatenate([a, b]), return_counts=True)
            tie_term = float(((tie_counts ** 3) - tie_counts).sum())
            var_u = n * m / 12.0 * (n + m + 1 - tie_term / ((n + m) * (n + m - 1)))
            z = (result.statistic - n * m / 2.0 - 0.5) / math.sqrt(var_u)
            assert result.p_value == float(stats.norm.sf(z))
            reference = stats.mannwhitneyu(a, b, alternative="greater", method="asymptotic")
            assert result.p_value == pytest.approx(reference.pvalue, rel=1e-12)

    def test_wilcoxon_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            classic_test("wilcoxon", [1.0, 2.0, 3.0], [1.0, 2.0])

    def test_wilcoxon_identical_pairs(self):
        result = classic_test("wilcoxon", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.p_value == 1.0

    @pytest.mark.parametrize("n, case, branch", [
        (1, "continuous", "exact"), (2, "continuous", "exact"), (20, "continuous", "exact"),
        (50, "continuous", "exact"), (51, "continuous", "asymptotic"),
        (69, "continuous", "asymptotic"), (2, "zeros", "sign_flip"), (6, "ties", "sign_flip"),
        (13, "ties", "sign_flip"), (13, "zeros", "sign_flip"), (14, "ties", "asymptotic"),
        (14, "zeros", "asymptotic"), (50, "ties", "asymptotic"), (60, "ties", "asymptotic"),
    ])
    def test_wilcoxon_matches_scipy_stats_on_each_branch(self, n, case, branch):
        rng = np.random.default_rng(n)
        checked = 0
        # scipy's sign-flip branch takes ~1.5 s per call at n = 13, so few shifts.
        for shift in (-0.8, 0.0, 0.4, 1.2):
            a = rng.normal(shift, 1.0, n)
            b = rng.normal(0.0, 1.0, n)
            if case == "ties":
                a, b = np.round(a), np.round(b)
            elif case == "zeros":
                b[: max(1, n // 4)] = a[: max(1, n // 4)]
            d = (a - b)[a != b]
            if d.size == 0:
                continue
            tied = np.unique(np.abs(d)).size < d.size
            assert wilcoxon_branch(n, tied or d.size < n) == branch
            result = classic_test("wilcoxon", a, b)
            reference = stats.wilcoxon(a, b, zero_method="wilcox", alternative="greater")
            assert result.statistic == float(reference.statistic)
            assert result.p_value == float(reference.pvalue)
            checked += 1
        assert checked >= 3

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31),
           st.sampled_from([2, 5, 40]))
    @settings(max_examples=150, deadline=None)
    def test_wilcoxon_matches_scipy_stats_on_integer_pairs(self, n, seed, levels):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, levels, n).astype(float)
        b = rng.integers(0, levels, n).astype(float)
        assume(np.any(a != b))
        result = classic_test("wilcoxon", a, b)
        reference = stats.wilcoxon(a, b, zero_method="wilcox", alternative="greater")
        assert result.statistic == float(reference.statistic)
        assert result.p_value == float(reference.pvalue)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown test kind"):
            classic_test("anova", [1.0, 2.0], [1.0, 2.0])

    @given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=-3.0, max_value=3.0),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_rank_tests_invariant_to_affine_transform(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.4, 1.0, 10)
        b = rng.normal(0.0, 1.0, 10)
        for kind in ("wilcoxon", "mann_whitney"):
            base = classic_test(kind, a, b).p_value
            transformed = classic_test(kind, scale * a + shift, scale * b + shift).p_value
            assert transformed == pytest.approx(base, rel=1e-9)


class TestBonferroni:
    def test_values(self):
        assert bonferroni(0.05, 1) == pytest.approx(0.05)
        assert bonferroni(0.05, 5) == pytest.approx(0.01)
        assert bonferroni(0.10, 4) == pytest.approx(0.025)

    def test_errors(self):
        with pytest.raises(ValueError):
            bonferroni(0.05, 0)
        with pytest.raises(ValueError):
            bonferroni(1.2, 3)
