import math

import numpy as np
import pytest

import uqkit.error_sim
from uqkit.error_sim import (Laplace, Normal, NormalMixture, Rayleigh, TestSpec,
                             sample_dist, type1_rate, type2_rate)
from uqkit.experiments import run_aso_grid
from uqkit.significance import CLASSIC_TEST_KINDS


class TestSamplers:
    def test_rayleigh_mean(self):
        draws = sample_dist(Rayleigh(1.0), 1_000_000, np.random.default_rng(0))
        assert draws.mean() == pytest.approx(math.sqrt(math.pi / 2), abs=0.01)

    def test_laplace_variance(self):
        draws = sample_dist(Laplace(0.0, 1.5), 1_000_000, np.random.default_rng(1))
        assert draws.var() == pytest.approx(2 * 1.5**2, abs=0.1)

    def test_mixture_mean(self):
        spec = NormalMixture(components=((0.0, 1.5), (-0.5, 0.25)), weights=(0.75, 0.25))
        draws = sample_dist(spec, 1_000_000, np.random.default_rng(2))
        assert draws.mean() == pytest.approx(-0.125, abs=0.01)

    def test_determinism(self):
        spec = Normal(0.0, 1.5)
        a = sample_dist(spec, 100, np.random.default_rng(3))
        b = sample_dist(spec, 100, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            Rayleigh(-1.0)
        with pytest.raises(ValueError):
            NormalMixture(components=((0.0, 1.0),), weights=(0.9,))
        with pytest.raises(ValueError):
            sample_dist(Normal(0.0, 1.0), 0, np.random.default_rng(0))


class TestRates:
    def test_report_determinism(self):
        spec = TestSpec(kind="student_t", threshold=0.05)
        first = type1_rate(spec, Normal(0.0, 1.5), 10, 50, seed=4)
        second = type1_rate(spec, Normal(0.0, 1.5), 10, 50, seed=4)
        assert first == second

    def test_adding_trials_never_reshuffles_earlier_ones(self):
        # Per-trial streams hash (seed, trial index), so each decision is fixed
        # regardless of the total trial count.
        from uqkit.seeds import derive_rng

        spec = TestSpec(kind="student_t", threshold=0.05)
        dist = Normal(0.0, 1.5)

        def decision(trial):
            rng = derive_rng(6, trial)
            return spec.rejects(sample_dist(dist, 10, rng), sample_dist(dist, 10, rng), rng)

        first_pass = [decision(t) for t in range(40)]
        second_pass = [decision(t) for t in range(80)][:40]
        assert first_pass == second_pass
        short = type1_rate(spec, dist, 10, 40, seed=6)
        assert short.rate == pytest.approx(sum(first_pass) / 40)

    def test_t_test_type1_near_nominal(self):
        spec = TestSpec(kind="student_t", threshold=0.05)
        report = type1_rate(spec, Normal(0.0, 1.5), 20, 1000, seed=7)
        assert abs(report.rate - 0.05) <= 3 * max(report.se, 0.007)

    def test_t_test_small_sample_stays_nominal(self):
        spec = TestSpec(kind="student_t", threshold=0.05)
        report = type1_rate(spec, Normal(0.0, 1.5), 5, 1000, seed=10)
        assert abs(report.rate - 0.048) <= 0.02

    def test_type2_vanishes_with_huge_gap(self):
        spec = TestSpec(kind="student_t", threshold=0.05)
        report = type2_rate(spec, Normal(100.0, 1.0), Normal(0.0, 1.0), 10, 100, seed=8)
        assert report.rate == 0.0

    def test_se_formula(self):
        spec = TestSpec(kind="student_t", threshold=0.05)
        report = type1_rate(spec, Normal(0.0, 1.5), 10, 200, seed=9)
        assert report.se == pytest.approx(math.sqrt(report.rate * (1 - report.rate) / 200))

    def test_trials_validation(self):
        spec = TestSpec(kind="student_t", threshold=0.05)
        with pytest.raises(ValueError):
            type1_rate(spec, Normal(0.0, 1.5), 10, 0, seed=0)
        with pytest.raises(ValueError):
            TestSpec(kind="anova", threshold=0.05)


class TestGridMatchesPerThresholdRates:
    """run_aso_grid computes each trial once for all tests and thresholds; its
    rows must equal the rates of running every test and threshold on its own."""

    FIELDS = ("test", "dist", "n", "threshold", "trials", "rate", "se", "seed")

    # "all" runs every test in one call: each must read the shared draw and then
    # its own stream from the state right after it, not a stream another test
    # has already consumed.
    @pytest.mark.parametrize("kinds", [["aso"], ["bootstrap"], ["aso", *CLASSIC_TEST_KINDS]],
                             ids=["aso", "bootstrap", "all"])
    @pytest.mark.parametrize("dist_b", [None, Normal(-0.5, 1.5)], ids=["type1", "type2"])
    def test_grid_equals_per_threshold_rates(self, kinds, dist_b):
        dists, sizes, thresholds = [Normal(0.0, 1.5), Laplace(0.0, 1.5)], [5, 8], [0.05, 0.3, 0.6]
        records = run_aso_grid(kinds, dists, sizes, thresholds, trials=12, seed=13,
                               num_bootstrap=200, resamples=200, dist_b=dist_b)
        expected = []
        for kind in kinds:
            for dist in dists:
                for n in sizes:
                    for threshold in thresholds:
                        spec = TestSpec(kind=kind, threshold=threshold, num_bootstrap=200,
                                        resamples=200)
                        if dist_b is None:
                            expected.append(type1_rate(spec, dist, n, 12, seed=13))
                        else:
                            expected.append(type2_rate(spec, dist, dist_b, n, 12, seed=13))
        expected.sort(key=lambda r: (r.test, r.dist, r.n, r.threshold))
        assert [tuple(r[f] for f in self.FIELDS) for r in records] == \
            [tuple(getattr(r, f) for f in self.FIELDS) for r in expected]
        # the thresholds must actually separate some trials for the check to bite
        assert len({r["rate"] for r in records}) > 1

    def test_one_stream_and_one_draw_per_trial_whatever_the_tests(self, monkeypatch):
        calls = {"derive_rng": 0, "sample_dist": 0}

        def counted(name):
            original = getattr(uqkit.error_sim, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(uqkit.error_sim, name, counted(name))
        trials, sizes, dists = 3, [5, 6], [Normal(0.0, 1.5), Rayleigh(1.0)]
        run_aso_grid(["aso", *CLASSIC_TEST_KINDS], dists, sizes, [0.05, 0.5], trials=trials,
                     seed=2, num_bootstrap=50, resamples=50)
        groups = trials * len(sizes) * len(dists)
        assert calls == {"derive_rng": groups, "sample_dist": 2 * groups}
