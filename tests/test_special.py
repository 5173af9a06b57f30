import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

from uqkit.special import lgam, ndtr, ndtri, psi, t_sf

T_GRID = [0.0, 1e-8, 0.5, 2.0, 2.0000001, 10.0, 1e3, 1e8]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_ndtr_equals_scipy_to_the_bit():
    rng = np.random.default_rng(0)
    xs = np.concatenate([
        np.linspace(-40.0, 40.0, 16001),
        rng.normal(0.0, 1.0, 5000),
        rng.normal(0.0, 8.0, 5000),
        [0.0, -0.0, 40.0, -40.0, 38.5, -38.5, 8.0, -8.0, 1e-300, -1e-300, np.sqrt(2.0)],
    ])
    assert np.array_equal(bits([ndtr(x) for x in xs]), bits(special.ndtr(xs)))


def test_ndtri_equals_scipy_to_the_bit():
    rng = np.random.default_rng(1)
    ps = np.concatenate([
        np.linspace(0.0, 1.0, 10001)[1:-1],
        10.0 ** rng.uniform(-300.0, 0.0, 5000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 5000),
        [1e-300, 0.05, 0.5, 1.0 - 1e-16, np.exp(-2.0), np.exp(-32.0), 5e-324],
    ])
    assert np.array_equal(bits([ndtri(p) for p in ps]), bits(special.ndtri(ps)))
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf


def gamma_grid():
    """Log-uniform on [1e-3, 1e6], uniform on [0.2, 20], the integers 1-199 and branch edges."""
    rng = np.random.default_rng(2)
    return np.concatenate([
        10.0 ** rng.uniform(-3.0, 6.0, 20000),
        rng.uniform(0.2, 20.0, 10000),
        np.arange(1.0, 200.0),
        [1e-3, 0.5, 1.0 - 2**-53, 1.0 + 2**-52, 1.4616321449683623, 2.0 - 2**-52, 2.0 + 2**-51,
         2.5, 3.0 - 2**-51, 10.0 - 2**-49, 10.5, 13.0 - 2**-49, 13.0, 999.999, 1000.0,
         1e8, 1e8 + 2.0, 1e17, 1e18, 1e300, 1e-300, 5e-324],
    ])


@pytest.mark.parametrize("ours, theirs", [(psi, special.digamma), (lgam, special.gammaln)],
                         ids=["psi", "lgam"])
def test_psi_and_lgam_equal_scipy_to_the_bit(ours, theirs):
    xs = gamma_grid()
    assert np.array_equal(bits([ours(x) for x in xs]), bits(theirs(xs)))


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_psi_and_lgam_equal_scipy_to_the_bit_anywhere_on_the_dirichlet_range(x):
    assert bits(psi(x)) == bits(special.digamma(x))
    assert bits(lgam(x)) == bits(special.gammaln(x))


def test_psi_and_lgam_take_positive_arguments():
    assert psi(np.inf) == lgam(np.inf) == np.inf
    assert np.isnan(psi(np.nan)) and np.isnan(lgam(np.nan))
    for f, x in itertools.product((psi, lgam), (0.0, -0.0, -1.0, -2.5, -np.inf)):
        with pytest.raises(ValueError, match="x > 0"):
            f(x)


@pytest.mark.parametrize("df", range(1, 61))
def test_t_sf_matches_scipy_within_named_tolerance(df):
    for t in T_GRID + [-t for t in T_GRID]:
        # At df = 1, scipy's stdtr loses digits near t = 0 (3e-9 relative at
        # t = 1e-8); the Cauchy tail arctan2(1, t) / pi is exact there.
        expected = stats.cauchy.sf(t) if df == 1 else stats.t.sf(t, df)
        assert t_sf(t, df) == pytest.approx(expected, rel=1e-12, abs=1e-300), (t, df)


def test_t_sf_center_and_symmetry():
    for df, t in itertools.product(range(1, 61), T_GRID):
        assert t_sf(0.0, df) == 0.5
        assert abs(t_sf(t, df) + t_sf(-t, df) - 1.0) <= 1e-15, (t, df)


def test_t_sf_rejects_df_below_one():
    with pytest.raises(ValueError, match="df"):
        t_sf(1.0, 0)
