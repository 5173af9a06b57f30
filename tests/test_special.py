import itertools

import numpy as np
import pytest
from scipy import special, stats

from uqkit.special import ndtr, ndtri, t_sf

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
