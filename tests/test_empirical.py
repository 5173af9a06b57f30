import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from uqkit.empirical import (as_sample, bootstrap_resample, empirical_cdf,
                             empirical_quantile, quantile_function, rankdata)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(finite_floats, min_size=1, max_size=50)


def test_cdf_direct_counts():
    assert empirical_cdf([1, 2, 3], 2) == pytest.approx(2 / 3)
    assert empirical_cdf([1, 2, 3], 0.5) == 0.0
    assert empirical_cdf([1, 2, 3], 3) == 1.0


def test_cdf_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="empty sample"):
        empirical_cdf([], 0.0)
    with pytest.raises(ValueError):
        as_sample([1.0, np.nan])
    with pytest.raises(ValueError):
        as_sample([np.inf])


def test_quantile_index_rule():
    assert empirical_quantile([1, 2, 3, 4], 0.5) == 2
    assert empirical_quantile([1, 2, 3, 4], 0.99) == 4
    assert empirical_quantile([5], 0.3) == 5
    assert empirical_quantile([5], 0.97) == 5


def test_quantile_level_out_of_range():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="quantile level out of range"):
            empirical_quantile([1, 2, 3], p)


def test_bootstrap_errors_and_singleton():
    with pytest.raises(ValueError):
        bootstrap_resample([1.0], 0, np.random.default_rng(0))
    out = bootstrap_resample([5.0], 10, np.random.default_rng(0))
    assert np.all(out == 5.0)


def test_bootstrap_determinism():
    a = [0.3, 1.2, -0.5, 2.2]
    first = bootstrap_resample(a, 20, np.random.default_rng(123))
    second = bootstrap_resample(a, 20, np.random.default_rng(123))
    assert np.array_equal(first, second)


def test_bootstrap_mean_matches_sample_mean():
    sample = np.arange(10.0)
    out = bootstrap_resample(sample, 100_000, np.random.default_rng(7))
    assert abs(out.mean() - 4.5) < 0.1


@given(samples)
def test_cdf_is_step_function_on_sample_grid(values):
    n = len(values)
    for t in values:
        level = empirical_cdf(values, t)
        assert round(level * n) == pytest.approx(level * n, abs=1e-9)
        assert 0.0 <= level <= 1.0


@given(samples, st.floats(min_value=0.001, max_value=0.999))
def test_quantile_cdf_compatibility(values, p):
    q = empirical_quantile(values, p)
    assert empirical_cdf(values, q) >= p


@given(samples, st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_resample_closure(values, m, seed):
    out = bootstrap_resample(values, m, np.random.default_rng(seed))
    members = set(np.asarray(values, dtype=float))
    assert all(v in members for v in out)


def test_quantile_function_vectorizes():
    qf = quantile_function([3.0, 1.0, 2.0])
    grid = np.array([0.2, 0.5, 0.9])
    assert np.array_equal(qf(grid), [1.0, 2.0, 3.0])


@given(st.one_of(samples, st.lists(st.integers(min_value=-3, max_value=3).map(float),
                                   min_size=1, max_size=50)))
@settings(max_examples=200)
def test_rankdata_matches_scipy_stats(values):
    ranks, tie_counts = rankdata(values)
    reference = stats.rankdata(values)
    assert ranks.dtype == reference.dtype == np.float64
    assert np.array_equal(ranks, reference)
    _, unique_counts = np.unique(values, return_counts=True)
    assert np.array_equal(tie_counts, unique_counts)


def test_rankdata_mid_ranks_and_empty_input():
    ranks, tie_counts = rankdata([3.0, 1.0, 3.0, 2.0, 3.0])
    assert ranks.tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]
    assert tie_counts.tolist() == [1, 1, 3]
    ranks, tie_counts = rankdata([])
    assert ranks.size == 0 and tie_counts.size == 0
