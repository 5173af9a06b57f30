import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (aupr_oracle, auroc_pair_oracle, coverage_oracle, ece_oracle,
                     kendall_oracle, mi_oracle)
from uqkit.conformal import PredictionSet
from uqkit.metrics import (auroc, aupr, bma_mutual_information, brier, class_variance,
                           coverage_report, coverage_report_arrays, dempster_shafer, ece,
                           kendall_tau, max_prob, predictive_entropy, softmax_gap,
                           variation_ratio)


class TestEce:
    def test_perfect_confidence(self):
        assert ece([1.0, 1.0, 1.0], [1, 1, 1]).value == 0.0

    def test_single_bin_arithmetic(self):
        report = ece([0.8, 0.8], [1, 0], num_bins=1)
        assert report.value == pytest.approx(0.3)

    def test_exact_one_falls_in_last_bin(self):
        report = ece([1.0], [1], num_bins=10)
        assert report.counts[-1] == 1

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        conf = rng.random(200)
        correct = rng.integers(0, 2, 200)
        report = ece(conf, correct, num_bins=10)
        assert report.value == pytest.approx(ece_oracle(conf, correct, 10), abs=1e-12)

    def test_zero_when_bins_internally_calibrated(self):
        # in each bin the accuracy equals the mean confidence by construction; at 4 bins the
        # middle bin [0.5, 0.75) is empty, and an empty bin's means are +0.0
        conf = [0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75]
        correct = [1, 0, 0, 0, 1, 1, 1, 0]
        assert ece(conf, correct, num_bins=2).value == pytest.approx(0.0)
        report = ece(conf, correct, num_bins=4)
        assert report.value == pytest.approx(0.0)
        assert report.counts.tolist() == [0, 4, 0, 4]
        for means in (report.confidence[[0, 2]], report.accuracy[[0, 2]]):
            assert means.tolist() == [0.0, 0.0] and not np.signbit(means).any()

    def test_errors(self):
        with pytest.raises(ValueError):
            ece([], [])
        with pytest.raises(ValueError):
            ece([0.5], [1, 0])
        with pytest.raises(ValueError):
            ece([1.5], [1])


def make_sets(sizes, labels_inside, vocab):
    """Build prediction sets of given sizes, containing their label or not."""
    sets = []
    for size, inside in zip(sizes, labels_inside):
        if inside:
            indices = tuple(range(size))
        else:
            indices = tuple(range(1, size + 1))
        sets.append(PredictionSet(indices=indices, q_hat=0.5))
    return sets


class TestCoverageReport:
    def test_all_covered(self):
        sets = make_sets([3, 5, 2], [True, True, True], vocab=10)
        report = coverage_report(sets, [0, 0, 0], alpha=0.1, num_size_bins=5, vocab_size=10)
        assert report.coverage == 1.0
        assert report.ecg == 0.0

    def test_none_covered(self):
        sets = make_sets([3, 5, 2], [False, False, False], vocab=10)
        report = coverage_report(sets, [0, 0, 0], alpha=0.1, num_size_bins=5, vocab_size=10)
        assert report.coverage == 0.0
        assert report.ecg == pytest.approx(0.9)
        assert report.ssc == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        vocab = 40
        sizes = rng.integers(1, vocab + 1, size=150)
        inside = rng.random(150) < 0.8
        sets = make_sets(sizes, inside, vocab)
        labels = np.zeros(150, dtype=int)
        report = coverage_report(sets, labels, alpha=0.1, num_size_bins=7, vocab_size=vocab)
        ecg, ssc = coverage_oracle(sizes, inside.astype(float), 0.1, 7, vocab)
        assert report.ecg == pytest.approx(ecg, abs=1e-12)
        assert report.ssc == pytest.approx(ssc, abs=1e-12)
        assert report.coverage == pytest.approx(inside.mean())
        assert report.mean_width_fraction == pytest.approx(sizes.mean() / vocab)

    @pytest.mark.parametrize("vocab_size", [40, None])
    def test_set_wrapper_matches_array_core(self, vocab_size):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 41, size=150)
        inside = rng.random(150) < 0.8
        wrapped = coverage_report(make_sets(sizes, inside, 40), np.zeros(150, dtype=int),
                                  alpha=0.1, num_size_bins=7, vocab_size=vocab_size)
        core = coverage_report_arrays(sizes, inside, alpha=0.1, num_size_bins=7,
                                      vocab_size=vocab_size)
        for field in ("coverage", "mean_width_fraction", "ssc", "ecg"):
            assert getattr(wrapped, field) == getattr(core, field)
        assert np.array_equal(wrapped.bin_counts, core.bin_counts)
        assert np.array_equal(wrapped.bin_coverage, core.bin_coverage)

    @pytest.mark.parametrize("sizes, covered", [([], []), ([3, 2], [True])])
    def test_array_core_rejects_empty_or_unequal(self, sizes, covered):
        with pytest.raises(ValueError, match="equal-length"):
            coverage_report_arrays(sizes, covered, alpha=0.1)

    @pytest.mark.parametrize("inside, labels", [([], []), ([True, False], [0])])
    def test_set_wrapper_rejects_empty_or_unequal(self, inside, labels):
        with pytest.raises(ValueError, match="equal-length"):
            coverage_report(make_sets([2] * len(inside), inside, vocab=5), labels, alpha=0.1)

    def test_vocab_too_small(self):
        sets = make_sets([5], [True], vocab=10)
        with pytest.raises(ValueError, match="vocab"):
            coverage_report(sets, [0], alpha=0.1, num_size_bins=5, vocab_size=3)
        # Every set empty: no vocab_size, or a NaN one, used to give a NaN width fraction.
        for vocab_size in (None, float("nan")):
            with pytest.raises(ValueError, match="vocab"):
                coverage_report_arrays([0, 0], [False, False], 0.1, vocab_size=vocab_size)

    @pytest.mark.parametrize("metric, args", [
        (ece, ([0.5], [1], 0)),
        (coverage_report_arrays, ([1], [1], 0.1, 0, 2)),
    ], ids=["ece", "coverage_report_arrays"])
    def test_zero_bins_is_a_value_error(self, metric, args):
        with pytest.raises(ValueError, match="at least one bin"):
            metric(*args)

    def test_ecg_zero_when_every_bin_covers(self):
        rng = np.random.default_rng(2)
        sizes = rng.integers(1, 11, size=100)
        sets = make_sets(sizes, [True] * 100, vocab=10)
        report = coverage_report(sets, [0] * 100, alpha=0.1, num_size_bins=4, vocab_size=10)
        assert report.ecg == 0.0


class TestBrier:
    def test_trivials(self):
        assert brier([1.0], [1]) == 0.0
        assert brier([0.5], [1]) == pytest.approx(0.25)
        assert brier([0.5], [0]) == pytest.approx(0.25)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        conf = rng.random(100)
        correct = rng.integers(0, 2, 100)
        direct = sum((c - h) ** 2 for c, h in zip(conf, correct)) / 100
        assert brier(conf, correct) == pytest.approx(direct, abs=1e-12)





class TestDiscrimination:
    def test_auroc_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_auroc_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_auroc_single_class_error(self):
        with pytest.raises(ValueError, match="undefined"):
            auroc([0.1, 0.2], [1, 1])

    def test_auroc_matches_pair_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=30)
            labels = rng.integers(0, 2, 30)
            if labels.min() == labels.max():
                continue
            assert auroc(scores, labels) == pytest.approx(
                auroc_pair_oracle(scores, labels), abs=1e-12)

    def test_auroc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        base = auroc(scores, labels)
        assert auroc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)

    @given(st.lists(st.tuples(st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                                        st.sampled_from([0.0, 0.25, 0.5])),
                              st.booleans()), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_auroc_matches_scipy_rankdata_formula(self, pairs):
        scores = np.array([s for s, _ in pairs])
        labels = np.array([y for _, y in pairs])
        n_pos = int(labels.sum())
        assume(0 < n_pos < labels.size)
        ranks = stats.rankdata(scores)
        expected = float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) /
                         (n_pos * (labels.size - n_pos)))
        assert auroc(scores, labels) == expected

    def test_auroc_rejects_nan_scores(self):
        with pytest.raises(ValueError, match="NaN"):
            auroc([0.1, float("nan"), 0.3], [1, 0, 1])

    def test_aupr_perfect_separation(self):
        assert aupr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_aupr_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=25)
            labels = rng.integers(0, 2, 25)
            if labels.min() == labels.max():
                continue
            assert aupr(scores, labels) == pytest.approx(
                aupr_oracle(list(scores), list(labels)), abs=1e-12)

    @pytest.mark.parametrize("metric, args, match", [
        (ece, ([np.nan, 0.5], [1, 0]), "confidences"),
        (ece, ([0.5, 0.5], [np.nan, 0]), "correctness"),
        (brier, ([np.nan, 0.5], [1, 0]), "finite"),
        (brier, ([0.5, 0.5], [1, np.inf]), "finite"),
        (aupr, ([np.nan, 0.5, 0.2], [1, 0, 1]), "NaN"),
        (brier, ([1.5], [1]), "confidences must lie in"),
        (brier, ([0.5], [3]), "correctness flags must lie in"),
        (coverage_report_arrays, ([1, 2], [1, 0], np.nan), "alpha"),
        (coverage_report_arrays, ([1, 2], [5, -3], 0.1), "coverage flags"),
        (coverage_report_arrays, ([1, -2], [1, 0], 0.1), "set sizes"),
        (coverage_report_arrays, ([1, 2], [1, 0], 1.0), "alpha"),
        (coverage_report_arrays, ([1, 2], [np.nan, 0], 0.1), "coverage flags"),
        (coverage_report_arrays, ([np.nan, 2], [1, 0], 0.1), "set sizes"),
        (coverage_report_arrays, ([1, 2], [1, 0], 0.1, 75, np.inf), "vocab_size must be finite"),
    ])
    def test_rejects_nan_inputs(self, metric, args, match):
        with pytest.raises(ValueError, match=match):
            metric(*args)

    def test_kendall_identical_and_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert kendall_tau([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_kendall_matches_oracle_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.integers(0, 6, 20).astype(float)
            y = rng.integers(0, 6, 20).astype(float)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            assert kendall_tau(x, y) == pytest.approx(kendall_oracle(x, y), abs=1e-12)

    @pytest.mark.parametrize("levels", [2, 3, 5, 40, None], ids=lambda v: f"levels={v}")
    def test_kendall_equals_scipy_to_the_bit(self, levels):
        """Tau-b from integer pair counts, on heavy ties (2-5 levels) down to none."""
        rng = np.random.default_rng(11)
        for n in [2, 3, 7, 8, 9, 64, 65, 500, 2049]:
            for _ in range(4):
                if levels is None:
                    x, y = rng.normal(size=n), rng.normal(size=n)
                else:
                    x = rng.integers(0, levels, n).astype(float)
                    y = (x + rng.integers(0, levels, n)) % levels  # correlated ties
                if np.unique(x).size < 2 or np.unique(y).size < 2:
                    continue
                expected = stats.kendalltau(x, y, variant="b").statistic
                assert np.float64(kendall_tau(x, y)).view(np.int64) == \
                    np.float64(expected).view(np.int64), (n, x, y)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), min_size=2, max_size=40))
    def test_kendall_matches_brute_force_counts(self, pairs):
        x, y = (list(map(float, column)) for column in zip(*pairs))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        assert kendall_tau(x, y) == pytest.approx(kendall_oracle(x, y), abs=1e-12)
        assert kendall_tau(x, y) == stats.kendalltau(x, y, variant="b").statistic

    @pytest.mark.parametrize("x, y, match", [
        ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "entirely tied"),
        ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], "entirely tied"),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "NaN"),
    ])
    def test_kendall_rejects_undefined_inputs(self, x, y, match):
        with pytest.raises(ValueError, match=match):
            kendall_tau(x, y)


class TestUncertaintyMetrics:
    def test_uniform_vector(self):
        p = [0.25] * 4
        assert predictive_entropy(p) == pytest.approx(math.log(4))
        assert softmax_gap(p) == 0.0
        assert max_prob(p) == 0.25

    def test_dempster_shafer_zero_logits(self):
        assert dempster_shafer([0.0, 0.0, 0.0, 0.0]) == pytest.approx(0.5)

    def test_dempster_shafer_extreme_logits(self):
        assert dempster_shafer([1000.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_dempster_shafer_matches_scipy_logsumexp_within_named_tolerance(self):
        # max + log(sum(exp(z - max))) and scipy's log1p form of the log-sum-exp
        # round differently: a few ulps of a log-evidence up to 700 (one ulp is
        # 1.1e-13), so K / (K + evidence) may differ by a relative 1e-12.
        from scipy.special import logsumexp
        rng = np.random.default_rng(5)
        for _ in range(2000):
            k = int(rng.integers(2, 50))
            z = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 2.5), k) + rng.uniform(-690.0, 690.0)
            log_evidence = float(logsumexp(z))
            expected = 0.0 if log_evidence > 700.0 else k / (k + np.exp(log_evidence))
            assert dempster_shafer(z) == pytest.approx(expected, rel=1e-12, abs=0.0), z

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_dempster_shafer_rejects_non_finite_logits(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dempster_shafer([0.0, bad])

    def test_degenerate_agreement(self):
        row = np.array([0.7, 0.2, 0.1])
        matrix = np.tile(row, (6, 1))
        assert variation_ratio([2, 2, 2, 2]) == 0.0
        assert class_variance(matrix) == pytest.approx(0.0, abs=1e-12)
        assert bma_mutual_information(matrix) == pytest.approx(0.0, abs=1e-12)

    def test_variation_ratio_counts_mode(self):
        assert variation_ratio([1, 1, 2, 3]) == pytest.approx(0.5)

    def test_mutual_information_matches_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        matrix = rng.dirichlet(np.ones(5), size=8)
        mean_row = [sum(matrix[b][k] for b in range(8)) / 8 for k in range(5)]
        h_mean = -sum(p * math.log(p) for p in mean_row if p > 0)
        h_rows = [-sum(p * math.log(p) for p in row if p > 0) for row in matrix]
        oracle = h_mean - sum(h_rows) / 8
        assert bma_mutual_information(matrix) == pytest.approx(oracle, abs=1e-12)

    def test_class_variance_matches_formula(self):
        rng = np.random.default_rng(9)
        matrix = rng.dirichlet(np.ones(4), size=6)
        oracle = np.mean([np.mean(matrix[:, k] ** 2) - np.mean(matrix[:, k]) ** 2
                          for k in range(4)])
        assert class_variance(matrix) == pytest.approx(oracle, abs=1e-12)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_mutual_information_jensen_bounds(self, k, b, seed):
        matrix = np.random.default_rng(seed).dirichlet(np.ones(k), size=b)
        mi = bma_mutual_information(matrix)
        assert -1e-12 <= mi <= predictive_entropy(matrix.mean(axis=0)) + 1e-12

    @given(st.integers(min_value=2, max_value=12))
    def test_entropy_extremes(self, k):
        uniform = np.full(k, 1.0 / k)
        assert predictive_entropy(uniform) == pytest.approx(math.log(k), abs=1e-12)
        one_hot = np.zeros(k)
        one_hot[0] = 1.0
        assert predictive_entropy(one_hot) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            predictive_entropy([1.0])
        with pytest.raises(ValueError):
            dempster_shafer([0.5])
