import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from uqkit.empirical import as_sample, order_statistic_index, quantile_function, rankdata

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(finite_floats, min_size=1, max_size=50)


def test_cdf_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="empty sample"):
        as_sample([])
    with pytest.raises(ValueError):
        as_sample([1.0, np.nan])
    with pytest.raises(ValueError):
        as_sample([np.inf])


def test_order_statistic_index_is_clamped_ceil_rule():
    levels = np.array([0.0, 0.1, 0.25, 0.26, 0.5, 0.99, 1.0, 1.5])
    assert order_statistic_index(4, levels).tolist() == [0, 0, 0, 1, 1, 3, 3, 3]
    assert order_statistic_index(4, 0.5) == 1
    assert order_statistic_index(1, levels).tolist() == [0] * levels.size


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=1e-9, max_value=1 - 1e-9))
@settings(max_examples=200)
def test_order_statistic_index_matches_integer_rule(n, p):
    """In (0, 1) the 1-based order statistic k = index + 1 is the least k with k >= n * p."""
    k = int(order_statistic_index(n, p)) + 1
    assert 1 <= k <= n
    assert k >= n * p > k - 1


@given(samples, st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_quantile_cdf_compatibility(values, p):
    """Q(p) is the least sample value whose empirical CDF reaches p."""
    q = quantile_function(values)(p)
    arr = np.asarray(values, dtype=float)
    assert np.count_nonzero(arr <= q) >= arr.size * p > np.count_nonzero(arr < q)


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
