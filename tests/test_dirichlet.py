import math

import numpy as np
import pytest
from scipy import stats

from uqkit import dirichlet as dr
from uqkit.experiments import dirichlet_mc_checks
from uqkit.metrics import predictive_entropy

EULER_GAMMA = 0.5772156649015329


def random_params(rng):
    k = int(rng.integers(2, 9))
    return dr.DirichletParams(rng.uniform(0.2, 10.0, size=k))


class TestHelpers:
    def test_digamma_known_constant(self):
        assert dr.digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)

    def test_digamma_recurrence(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.01, 50.0, 50):
            assert dr.digamma(x + 1.0) == pytest.approx(dr.digamma(x) + 1.0 / x, rel=1e-10)

    def test_log_beta_trivial(self):
        assert dr.log_beta([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            dr.DirichletParams([1.0])
        with pytest.raises(ValueError):
            dr.DirichletParams([1.0, 1e-4])
        with pytest.raises(ValueError):
            dr.DirichletParams([1.0, math.inf])
        with pytest.raises(ValueError, match=r"<= 1e\+08"):  # 1e8 itself is allowed
            dr.DirichletParams([1.0, 1e8 * (1 + 1e-15)])


class TestClosedForms:
    def test_mean_symmetry_and_formula(self):
        assert np.allclose(dr.mean(dr.DirichletParams([1, 1, 1])), [1 / 3] * 3)
        assert np.allclose(dr.mean(dr.DirichletParams([2, 1, 1])), [0.5, 0.25, 0.25])

    def test_log_expectation_known_value(self):
        d = dr.DirichletParams([1.0, 1.0])
        assert dr.log_expectation(d, 0) == pytest.approx(-1.0, abs=1e-10)

    def test_log_expectation_symmetric(self):
        d = dr.DirichletParams([2.5, 2.5, 2.5])
        values = [dr.log_expectation(d, k) for k in range(3)]
        assert max(values) - min(values) < 1e-12

    def test_entropy_uniform_simplex(self):
        assert dr.entropy(dr.DirichletParams([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_permutation_invariant(self):
        a = dr.entropy(dr.DirichletParams([0.5, 2.0, 7.0]))
        b = dr.entropy(dr.DirichletParams([7.0, 0.5, 2.0]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_expected_entropy_limits(self):
        k = 4
        huge = dr.DirichletParams(np.full(k, 1e6))
        assert dr.expected_entropy(huge) == pytest.approx(math.log(k), abs=1e-3)

    def test_expected_entropy_beta_uniform(self):
        # mean Bernoulli entropy over p ~ U(0,1) is 1/2 nat
        d = dr.DirichletParams([1.0, 1.0])
        assert dr.expected_entropy(d) == pytest.approx(0.5, abs=1e-10)

    def test_kl_self_is_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = random_params(rng)
            assert dr.kl(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_kl_uniform_of_ones(self):
        assert dr.kl_uniform(dr.DirichletParams([1, 1, 1])) == pytest.approx(0.0, abs=1e-12)
        assert dr.kl_uniform(dr.DirichletParams(np.ones(7))) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("c", [10.0 ** e for e in range(1, 9)])
    def test_kl_uniform_of_one_large_concentration(self, c):
        # KL(Dir(c, 1) || Dir(1, 1)) = log c - (c - 1)/c; log_beta's lgam difference cancels
        # more as c grows, and 1e8, the largest concentration allowed, still holds to 1e-8.
        exact = math.log(c) - (c - 1) / c
        assert dr.kl_uniform(dr.DirichletParams([c, 1.0])) == pytest.approx(exact, rel=1e-8)

    def test_kl_nonnegative_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            d = dr.DirichletParams(rng.uniform(0.2, 10.0, size=k))
            ref = dr.DirichletParams(rng.uniform(0.2, 10.0, size=k))
            assert dr.kl(d, ref) >= -1e-12

    def test_kl_strictly_positive_for_distinct_params(self):
        d = dr.DirichletParams([2.0, 3.0, 1.0])
        ref = dr.DirichletParams([2.5, 3.0, 1.0])
        assert dr.kl(d, ref) > 1e-6
        assert dr.kl(ref, d) > 1e-6

    def test_mutual_information_vanishes_at_high_concentration(self):
        d = dr.DirichletParams(np.full(5, 2e5))
        assert dr.mutual_information(d) == pytest.approx(0.0, abs=1e-4)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = random_params(rng)
            lhs = predictive_entropy(dr.mean(d))
            rhs = dr.expected_entropy(d) + dr.mutual_information(d)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLogPdf:
    def test_matches_scipy_at_log_points(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = random_params(rng)
            points = dr.sample(d, 50, rng)
            expected = stats.dirichlet.logpdf(points.T, d.alpha)
            assert np.allclose(dr.log_pdf(d, np.log(points)), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bad", [0.5, np.nan], ids=["point_not_log", "nan"])
    def test_rejects_an_entry_that_is_not_a_log_point(self, bad):
        d = dr.DirichletParams([0.5, 1.0, 3.0])
        with pytest.raises(ValueError, match="logs of simplex points"):
            dr.log_pdf(d, np.log([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]) + [[0, 0, 0], [0, 0, bad]])

    def test_mc_checks_read_it_twice_per_vector(self, monkeypatch):
        """Once for the vector's draws, once for its shifted reference."""
        log_pdf, densities = dr.log_pdf, []

        def recording_log_pdf(d, log_points):
            densities.append(d.alpha.tolist())
            return log_pdf(d, log_points)

        monkeypatch.setattr(dr, "log_pdf", recording_log_pdf)
        vectors = [[0.5, 1.0, 3.0], [2.0, 2.0], [4.0, 0.3, 7.0, 1.5]]
        for vec in vectors:
            dirichlet_mc_checks(vec, 200, np.random.default_rng(0))
        assert len(densities) == 2 * len(vectors)
        assert densities[::2] == vectors
        assert all(ref != vec for ref, vec in zip(densities[1::2], vectors))


class TestMonteCarloOracles:
    def test_all_quantities_within_four_se(self):
        rng = np.random.default_rng(4)
        for i in range(5):
            k = int(rng.integers(2, 9))
            alpha = rng.uniform(0.2, 10.0, size=k)
            checks = dirichlet_mc_checks(alpha, 100_000, np.random.default_rng(100 + i))
            assert max(checks.values()) <= 4.0, checks

    def test_sampler_determinism_and_simplex(self):
        d = dr.DirichletParams([0.5, 1.0, 3.0])
        a = dr.sample(d, 1000, np.random.default_rng(5))
        b = dr.sample(d, 1000, np.random.default_rng(5))
        assert np.array_equal(a, b)
        assert np.allclose(a.sum(axis=1), 1.0)
        assert np.all(a >= 0.0)


@pytest.mark.parametrize("call, match", [
    (lambda d: dr.log_expectation(d, 3), "index out of range"),
    (lambda d: dr.log_expectation(d, -1), "index out of range"),
    (lambda d: dr.kl(d, dr.DirichletParams([1.0, 2.0])), "dimension mismatch"),
    (lambda d: dr.sample(d, 0, np.random.default_rng(0)), "n must be >= 1"),
], ids=["index_3", "index_-1", "kl_dimensions", "no_draws"])
def test_rejects_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call(dr.DirichletParams([0.5, 1.0, 3.0]))
