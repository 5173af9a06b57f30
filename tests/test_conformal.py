import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (build_set_threshold_oracle, exact_query_oracle, knn_set_oracle,
                     label_score_oracle, weighted_quantile_oracle)

from uqkit import experiments, synthetic
from uqkit.conformal import (FULL_SET, SCORE_RULES, AdaptiveSets, KnnQuantiles, ThresholdSets,
                             WeightedCalibration, as_prob_matrix, as_prob_vector,
                             build_set_adaptive, conformal_generate_step, is_full_set,
                             rbf_weights, split_quantile, temperature_search,
                             weighted_quantile)
from uqkit.datastore import Datastore, Neighbors
from uqkit.experiments import (ConformalEvalConfig, evaluate_conformal, resolve_tau,
                               run_conformal_condition, run_conformal_eval, synthetic_source)
from uqkit.seeds import derive_rng
from uqkit.synthetic import Chain, generate, inject_noise, new_model, nonconformity, step_probs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def random_prob_rows(rng, steps, vocab):
    """(steps, vocab) distributions; some rows come from a coarse grid, so they hold tied
    and zero probabilities, and some are uniform."""
    probs = rng.dirichlet(np.full(vocab, 0.5), size=steps)
    grid = rng.random(steps) < 0.4
    counts = rng.integers(0, 4, size=(steps, vocab)).astype(float)
    counts[:, 0] += counts.sum(axis=1) == 0  # at least one positive count per row
    probs[grid] = (counts / counts.sum(axis=1, keepdims=True))[grid]
    probs[rng.random(steps) < 0.1] = 1.0 / vocab
    return probs


def random_prob_vector(rng, size):
    raw = rng.dirichlet(np.full(size, 0.7))
    return raw / raw.sum()


prob_vectors = st.integers(min_value=2, max_value=30).flatmap(
    lambda v: st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=v, max_size=v)
).map(lambda raw: np.asarray(raw) / np.sum(raw))


class TestScores:
    def test_simple_values(self):
        assert ThresholdSets([[0.0, 1.0]], [1]).scores()[0] == 0.0
        assert ThresholdSets([[0.25, 0.25, 0.25, 0.25]], [2]).scores()[0] == 0.75
        assert ThresholdSets([[0.6, 0.3, 0.1]], [1]).scores()[0] == pytest.approx(0.7)

    def test_simple_label_out_of_range(self):
        for label in (2, -1):
            for sets in (ThresholdSets, AdaptiveSets):
                with pytest.raises(ValueError, match="label out of range"):
                    sets([[0.5, 0.5]], [label])
                with pytest.raises(ValueError, match="label out of range"):
                    sets([[0.5, 0.5], [0.5, 0.5]], [0, label])

    def test_adaptive_values(self):
        assert AdaptiveSets([[0.5, 0.3, 0.2]], [0]).scores()[0] == pytest.approx(0.5)
        assert AdaptiveSets([[0.5, 0.3, 0.2]], [1]).scores()[0] == pytest.approx(0.8)
        assert AdaptiveSets([[0.2] * 5], [4]).scores()[0] == pytest.approx(1.0)

    def test_adaptive_tie_break_by_class_id(self):
        # equal masses: earlier class id sorts first
        assert AdaptiveSets([[0.25] * 4], [0]).scores()[0] == pytest.approx(0.25)
        assert AdaptiveSets([[0.25] * 4], [3]).scores()[0] == pytest.approx(1.0)

    def test_rejects_bad_prob_vectors(self):
        for sets in (ThresholdSets, AdaptiveSets):
            with pytest.raises(ValueError, match="sum to 1"):
                sets([[0.5, 0.6]], [0])
            with pytest.raises(ValueError, match="two classes"):
                sets([[1.0]], [0])
            with pytest.raises(ValueError, match="sum to 1"):
                sets([[0.5, 0.5], [0.5, 0.6]], [0, 0])
            with pytest.raises(ValueError, match="two classes"):
                sets([[1.0], [1.0]], [0, 0])
            with pytest.raises(ValueError, match="one label per"):
                sets([[0.5, 0.5], [0.5, 0.5]], [0])

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 0.5, 0.5],
                                       [0.5, 0.5, math.nan], [math.inf, 0.0]])
    def test_rejects_non_finite_entries(self, probs):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            as_prob_vector(probs)

    def test_adaptive_set_rejects_nan_probs(self):
        with pytest.raises(ValueError):
            build_set_adaptive([math.nan] * 3, 0.5)

    @pytest.mark.parametrize("bad_row, match", [
        ([0.5, math.nan, 0.5], r"\[0, 1\]"), ([0.5, 0.5, math.inf], r"\[0, 1\]"),
        ([0.7, 0.5, -0.2], r"\[0, 1\]"), ([0.5, 0.3, 0.1], "sum to 1")])
    def test_batch_rejects_a_bad_row(self, bad_row, match):
        probs = [[0.2, 0.3, 0.5], bad_row, [1.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match=match):
            as_prob_vector(bad_row)
        with pytest.raises(ValueError, match=match):
            as_prob_matrix(probs)
        with pytest.raises(ValueError, match=match):
            AdaptiveSets(probs, [0, 1, 2])


class TestSplitQuantile:
    def test_forced_indices(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert split_quantile(scores, 0.1) == pytest.approx(0.9)

    def test_nineteen_scores(self):
        scores = np.linspace(0.05, 0.95, 19)
        assert split_quantile(scores, 0.1) == pytest.approx(np.sort(scores)[17])

    def test_small_n_full_set(self):
        assert is_full_set(split_quantile([0.1, 0.2, 0.3, 0.4], 0.1))

    def test_empty_scores(self):
        with pytest.raises(ValueError, match="empty"):
            split_quantile([], 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            split_quantile([bad, 0.1, 0.2], 0.3)

    @pytest.mark.parametrize("n, alpha, rank", [(9, 0.4999999998, 5), (1999, 0.09999999995, 1800)])
    def test_level_slack_within_a_rank_of_an_integer(self, n, alpha, rank):
        """(N+1)(1-alpha) lies 2e-9 and 1e-7 above the integer `rank`: the slack is on the
        mass level, so rank/(N+1) >= 1 - alpha - 1e-9 and the rank-th score is q_hat."""
        scores = np.random.default_rng(n).random(n)
        assert split_quantile(scores, alpha) == np.sort(scores)[rank - 1]


class TestWeightedQuantile:
    def test_unit_weights_reduce_to_split(self):
        """split_quantile equals the run-end oracle at unit weights, to the bit, at uniform
        alphas and at alphas within 1e-7 / (N+1) of a rank boundary (N+1)(1-alpha) = j."""
        rng = np.random.default_rng(0)
        for _ in range(600):
            n = int(rng.integers(1, 301))
            scores = rng.integers(0, 6, size=n) / 5 if rng.random() < 0.3 else rng.random(n)
            if rng.random() < 0.5:
                alpha = float(rng.uniform(0.01, 0.99))
            else:
                j = int(rng.integers(1, n + 1))
                alpha = 1.0 - (j + float(rng.choice([-1e-7, -1e-10, 0.0, 1e-10, 1e-7]))) / (n + 1)
            expected = weighted_quantile_oracle(WeightedCalibration(scores, np.ones(n)), alpha)
            assert split_quantile(scores, alpha).hex() == expected.hex()

    def test_zero_weights_full_set(self):
        cal = WeightedCalibration(scores=np.array([0.2, 0.4]), weights=np.zeros(2))
        assert is_full_set(weighted_quantile(cal, 0.1))

    def test_single_heavy_score(self):
        cal = WeightedCalibration(scores=np.array([0.4]), weights=np.array([99.0]))
        assert weighted_quantile(cal, 0.1) == pytest.approx(0.4)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            WeightedCalibration(scores=np.array([0.1, 0.2]), weights=np.array([1.0]))

    def test_weight_scaling_monotone(self):
        # Scaling all weights up lets the cumulative mass reach 1 - alpha sooner.
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        weights = rng.random(40)
        alpha = 0.1
        previous = math.inf
        for c in (0.5, 1.0, 2.0, 8.0, 64.0):
            q = weighted_quantile(WeightedCalibration(scores=scores, weights=c * weights), alpha)
            value = math.inf if is_full_set(q) else q
            assert value <= previous + 1e-12
            previous = value

    def test_weight_sum_overflow_is_a_value_error(self):
        """Three weights of 1e308 sum past float64; 1e300 each do not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weighted_quantile(WeightedCalibration([0.1, 0.2, 0.3], [1e300] * 3), 0.5) == 0.2
            with pytest.raises(ValueError, match="overflow"):
                weighted_quantile(WeightedCalibration([0.1, 0.2, 0.3], [1e308] * 3), 0.5)

    def test_empty_calibration_is_full_set(self):
        cal = WeightedCalibration(scores=np.array([]), weights=np.array([]))
        assert is_full_set(weighted_quantile(cal, 0.1))
        assert is_full_set(weighted_quantile_oracle(cal, 0.1))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300),
           st.sampled_from(["ties", "distinct", "zeros", "unit"]),
           st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_matches_run_end_oracle(self, seed, n, kind, alpha):
        """The first-reaching core equals the run-end rule, to the bit, with ties in the
        scores, zero weights and unit weights."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 6, size=n) / 5 if kind == "ties" else rng.random(n)
        if kind == "unit":
            weights = np.ones(n)
        else:
            weights = rng.exponential(size=n) * rng.choice([1e-3, 1.0, 1e3])
            if kind == "zeros":
                weights[rng.random(n) < 0.5] = 0.0
        cal = WeightedCalibration(scores=scores, weights=weights)
        expected, got = weighted_quantile_oracle(cal, alpha), weighted_quantile(cal, alpha)
        assert is_full_set(got) == is_full_set(expected)
        if not is_full_set(got):
            assert got.hex() == expected.hex()

    @given(st.lists(st.tuples(st.integers(0, 8).map(lambda i: i / 8),
                              st.integers(0, 12).map(lambda i: i * 0.25)),
                    min_size=1, max_size=40),
           st.sampled_from([0.05, 0.1, 0.2, 0.5]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_invariant_to_joint_permutation(self, pairs, alpha, data):
        # Few distinct scores force ties; quarter weights keep every weight sum exact.
        order = data.draw(st.permutations(range(len(pairs))))
        scores, weights = np.array(pairs).T
        original = weighted_quantile(WeightedCalibration(scores=scores, weights=weights), alpha)
        permuted = weighted_quantile(
            WeightedCalibration(scores=scores[order], weights=weights[order]), alpha)
        assert original == permuted


class TestRbfWeights:
    def test_l2_zero_distance(self):
        assert rbf_weights([0.0], tau=2.0)[0] == 1.0

    def test_l2_at_tau(self):
        assert rbf_weights([2.0], tau=2.0)[0] == pytest.approx(math.exp(-1))

    def test_cosine_zero_similarity(self):
        # ip and cos keys are negated similarities: similarity 1 weighs exp(+1 / tau)
        assert rbf_weights([-0.0, 0.0], tau=1.0).tolist() == [1.0, 1.0]
        assert rbf_weights([-1.0], tau=0.5)[0] == pytest.approx(math.exp(2))

    def test_clamps_exponent(self):
        # key / -tau overflows to -+inf at the last two: clamped as well, without a warning
        for keys, tau in [([1e9, -1e9], 1.0), ([1.0, -1.0], 1e-320), ([1e308, -1e308], 1e-3)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert rbf_weights(keys, tau).tolist() == np.exp([-700.0, 700.0]).tolist()

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            rbf_weights([1.0], tau=0.0)
        with pytest.raises(ValueError, match="tau must be positive"):
            rbf_weights([1.0], tau=float("nan"))


def exhaustive_adaptive_oracle(p, q):
    """Oracle: test every candidate prefix length explicitly."""
    order = np.argsort(-np.asarray(p), kind="stable")
    best = 0
    for c in range(1, len(p) + 1):
        if np.sum(np.asarray(p)[order[:c]]) < q:
            best = c
    return min(best + 1, len(p))


class TestPredictionSets:
    def test_adaptive_forced_cases(self):
        assert len(build_set_adaptive([0.7, 0.2, 0.1], 0.75)) == 2
        assert len(build_set_adaptive([0.7, 0.2, 0.1], 0.5)) == 1

    def test_adaptive_full_set_sentinel(self):
        pset = build_set_adaptive([0.7, 0.2, 0.1], FULL_SET)
        assert len(pset) == 3
        assert is_full_set(pset.q_hat)

    def test_adaptive_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_prob_vector(rng, 50)
            q = float(rng.random())
            assert len(build_set_adaptive(p, q)) == exhaustive_adaptive_oracle(p, q)

    def test_threshold_cases(self):
        sets = ThresholdSets([[0.6, 0.3, 0.1]] * 3, [0, 1, 2])
        assert sets.sizes(np.array([1.0, 0.0, 0.75])).tolist() == [3, 0, 2]
        # at q_hat 0.75 the set is {0, 1}
        assert sets.covers(np.full(3, 0.75)).tolist() == [True, True, False]

    def test_threshold_one_hot_at_zero(self):
        sets = ThresholdSets([[1.0, 0.0]] * 2, [0, 1])
        assert sets.sizes(np.zeros(2)).tolist() == [1, 1]
        assert sets.covers(np.zeros(2)).tolist() == [True, False]

    @given(prob_vectors, st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_adaptive_monotone_in_q(self, p, q1, q2):
        lo, hi = sorted((q1, q2))
        small = set(build_set_adaptive(p, lo).indices)
        large = set(build_set_adaptive(p, hi).indices)
        full = build_set_adaptive(p, FULL_SET).indices
        assert small <= large <= set(full)
        assert sorted(full) == list(range(len(p)))

    @given(prob_vectors, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_adaptive_never_empty(self, p, q):
        assert len(build_set_adaptive(p, q)) >= 1

    @given(prob_vectors, st.data())
    @settings(max_examples=100)
    def test_label_inclusion_consistency(self, p, data):
        label = data.draw(st.integers(min_value=0, max_value=len(p) - 1))
        score = float(AdaptiveSets([p], [label]).scores()[0])
        assert label in build_set_adaptive(p, score)

    @given(prob_vectors)
    @settings(max_examples=50)
    def test_ordering_matches_descending_probs(self, p):
        pset = build_set_adaptive(p, 1.0)
        probs_in_order = [p[i] for i in pset.indices]
        assert probs_in_order == sorted(probs_in_order, reverse=True)


class TestFullSet:
    def test_short_mass_is_plus_infinity(self):
        assert split_quantile([0.1, 0.2, 0.3, 0.4], 0.1) == math.inf
        cal = WeightedCalibration(scores=np.array([0.2, 0.4]), weights=np.zeros(2))
        assert weighted_quantile(cal, 0.1) == math.inf

    def test_full_set_is_tested_not_clamped(self):
        # The descending cumsum of this row reaches 1.0 at class 1, so a q_hat of +inf
        # clamped to 1 would drop class 2.
        p = [0.9, 0.1, 1e-18]
        assert np.cumsum(p)[1] == 1.0
        sets = AdaptiveSets([p], [2])
        assert sets.sizes(np.array([FULL_SET])).tolist() == [3]
        assert sets.covers(np.array([FULL_SET])).tolist() == [True]
        assert build_set_adaptive(p, FULL_SET).indices == (0, 1, 2)


def random_block(data):
    """(neighbors, probs, gold) of a random block of k-NN steps with forced score ties.

    The ascending keys lie in [-1, 4): l2 distances and negated ip or cos similarities.
    """
    steps = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 15))
    vocab = data.draw(st.integers(2, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    keys = rng.random((steps, k)) * 5.0 - 1.0
    # Scores on a coarse grid tie often; the grid spans [-0.5, 1.5] so the [0, 1] clamp acts.
    scores = rng.integers(-2, 7, size=(steps, k)) / 4
    probs = rng.dirichlet(np.full(vocab, 0.7), size=steps)
    probs[rng.random(steps) < 0.3, :] = 1.0 / vocab  # all-tied rows
    gold = rng.integers(0, vocab, size=steps)
    ids = np.tile(np.arange(k), (steps, 1))
    return Neighbors(np.sort(keys, axis=1), scores, ids), probs, gold


class TestBatchedScores:
    @given(st.data(), st.integers(2, 300), st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_scores_match_per_step_oracle(self, data, vocab, steps):
        """Each row's label score equals the one-row sum to the bit. Prefixes up to 300
        classes cross numpy's 8-wide unrolled and 128-element pairwise summation blocks."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = random_prob_rows(rng, steps, vocab)
        order = np.argsort(-probs, axis=1, kind="stable")
        edge_ranks = [r for r in (0, 7, 8, 9, 127, 128, 129, vocab - 1) if r < vocab]
        ranks = data.draw(st.lists(st.one_of(st.integers(0, vocab - 1),
                                             st.sampled_from(edge_ranks)),
                                   min_size=steps, max_size=steps))
        labels = order[np.arange(steps), ranks]
        for kind, sets in SCORE_RULES.items():
            expected = [label_score_oracle(kind, p, y).hex() for p, y in zip(probs, labels)]
            assert [float(s).hex() for s in sets(probs, labels).scores()] == expected
            assert [float(sets([p], [y]).scores()[0]).hex()
                    for p, y in zip(probs, labels)] == expected


class TestBatchedKernel:
    @given(st.data(),
           # 1e-4 pushes |key| / tau past the +-700 exponent clamp
           st.sampled_from([1e-4, 1e-3, 0.05, 0.5, 2.0, 50.0]),
           st.sampled_from([0.05, 0.1, 0.3, 0.6]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_knn_set(self, data, tau, alpha):
        neighbors, probs, gold = random_block(data)
        q_hat = KnnQuantiles(neighbors, alpha)(tau)
        full = q_hat == FULL_SET
        sets = AdaptiveSets(probs, gold)
        sizes, covers = sets.sizes(q_hat), sets.covers(q_hat)
        for i in range(len(gold)):
            row = Neighbors(neighbors.keys[i], neighbors.scores[i], neighbors.ids[i])
            pset = knn_set_oracle(row, probs[i], alpha, tau)
            assert full[i] == is_full_set(pset.q_hat)
            if not full[i]:
                assert np.clip(q_hat[i], 0.0, 1.0) == pset.q_hat  # bit-exact
            assert sizes[i] == len(pset)
            assert covers[i] == (gold[i] in pset)

    def test_full_set_rows_and_exponent_clamp(self):
        # Key -1 (cos similarity 1) at tau 1e-3 is clamped to exp(700), not exp(1000) = inf,
        # so two such neighbors carry half the mass each; the tied scores of row 1 form one run.
        keys = np.array([[-1.0, -1.0, -0.5], [-1.0, 0.0, 0.0]])
        scores = np.array([[0.25, 0.75, 0.5], [0.5, 0.5, 0.5]])
        q_hat = KnnQuantiles(Neighbors(keys, scores, np.zeros((2, 3), int)), 0.1)(1e-3)
        assert (q_hat == FULL_SET).tolist() == [False, False]
        assert q_hat.tolist() == [0.75, 0.5]
        # A lone neighbor of weight exp(0) = 1 carries half the mass: FULL_SET at alpha 0.1.
        q_hat = KnnQuantiles(Neighbors(keys[:, 1:2], scores[:, 1:2],
                                       np.zeros((2, 1), int)), 0.1)(1e-3)
        assert (q_hat == FULL_SET).tolist() == [False, True]
        assert q_hat[0] == 0.75
        sets = AdaptiveSets([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]], [2, 2])
        assert sets.sizes(q_hat).tolist() == [2, 3]
        assert sets.covers(q_hat).tolist() == [False, True]
        # The top class is in every set, even at q_hat = 0.
        assert sets.covers(np.zeros(2)).tolist() == [False, True]

    def test_weight_sum_overflow_is_a_value_error(self):
        """Key -1e9 at tau 1 clamps every weight to exp(700) ~ 1.0e304: 200 neighbors sum to
        ~2e306 and each carries mass ~1/200, while 20,000 sum past float64."""
        def quantiles(scores):
            k = scores.shape[1]
            return KnnQuantiles(Neighbors(np.full((1, k), -1e9), scores, np.zeros((1, k), int)),
                                0.1)

        scores = np.random.default_rng(0).random((1, 20_000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quantiles(scores[:, :200])(1.0).tolist() == [np.sort(scores[0, :200])[179]]
            with pytest.raises(ValueError, match="overflow"):
                quantiles(scores)(1.0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_threshold_sets_match_per_row_sets(self, data):
        _, probs, gold = random_block(data)
        # q_hat at 0, at 1, at the gold's or another label's exact score, or anywhere in [0, 1].
        q_hat = np.array([data.draw(st.one_of(
            st.sampled_from([0.0, 1.0, 1.0 - p[g], 1.0 - p[data.draw(st.integers(0, p.size - 1))]]),
            st.floats(0.0, 1.0))) for p, g in zip(probs, gold)])
        full = np.array(data.draw(st.lists(st.booleans(), min_size=gold.size, max_size=gold.size)))
        q_hat[full] = FULL_SET
        sets = ThresholdSets(probs, gold)
        sizes, covers = sets.sizes(q_hat), sets.covers(q_hat)
        for i in range(gold.size):
            pset = build_set_threshold_oracle(probs[i], FULL_SET if full[i] else q_hat[i])
            assert sizes[i] == len(pset)
            assert covers[i] == (gold[i] in pset)

    def test_rejects_non_finite_keys(self):
        neighbors = Neighbors(np.array([[0.5, np.nan]]), np.array([[0.1, 0.2]]),
                              np.zeros((1, 2), int))
        with pytest.raises(ValueError, match="finite"):
            KnnQuantiles(neighbors, 0.1)(1.0)


class TestConformalGenerateStep:
    def make_store(self, latents, scores):
        store = Datastore(latents.shape[1])
        store.add_batch(latents.astype(np.float32), scores)
        return store

    def test_single_record_insufficient_mass(self):
        latent = np.array([0.1, 0.2, 0.3, 0.4])
        store = self.make_store(latent[None, :], np.array([0.3]))
        pset = conformal_generate_step(store, latent, [0.5, 0.3, 0.2], alpha=0.1, k=1, tau=1.0)
        # weight 1 normalizes to 0.5 < 0.9: the whole vocabulary is kept
        assert is_full_set(pset.q_hat)
        assert len(pset) == 3

    def test_constant_scores_pin_quantile(self):
        rng = np.random.default_rng(3)
        latents = rng.normal(size=(10_000, 4))
        store = self.make_store(latents, np.full(10_000, 0.2))
        pset = conformal_generate_step(store, rng.normal(size=4), [0.5, 0.3, 0.2],
                                       alpha=0.1, k=200, tau=5.0)
        assert pset.q_hat == pytest.approx(0.2)

    def test_k_larger_than_store_uses_entire_store(self, caplog):
        rng = np.random.default_rng(4)
        latents = rng.normal(size=(5, 3))
        store = self.make_store(latents, rng.random(5))
        with caplog.at_level("DEBUG"):
            pset = conformal_generate_step(store, np.zeros(3), [0.6, 0.4], alpha=0.3,
                                           k=50, tau=1.0)
        whole = conformal_generate_step(store, np.zeros(3), [0.6, 0.4], alpha=0.3, k=5, tau=1.0)
        assert (pset.indices, pset.q_hat) == (whole.indices, whole.q_hat)
        assert caplog.records == []  # evaluate_conformal warns once per call; a step never logs

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        store = self.make_store(rng.normal(size=(5, 3)), rng.random(5))
        with pytest.raises(ValueError, match="dimension"):
            conformal_generate_step(store, np.zeros(4), [0.6, 0.4], alpha=0.3, k=2, tau=1.0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["l2", "ip", "cos"]), st.integers(1, 40),
           # 1e-4 pushes |key| / tau past the +-700 exponent clamp; small l2 weights or a
           # small k leave too little mass, so some steps are FULL_SET
           st.sampled_from([1e-4, 1e-2, 0.5, 2.0, 50.0]),
           st.sampled_from([0.05, 0.1, 0.3, 0.6]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_step_oracle(self, seed, metric, n, tau, alpha):
        """The one-row batched step equals the per-step chain of `knn_set_oracle`, to the bit,
        with duplicated store rows (tied keys), tied scores and k up to two beyond the store."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        distinct = rng.integers(-2, 3, size=(int(rng.integers(1, n + 1)), dim))
        latents = distinct[rng.integers(0, len(distinct), size=n)]
        store = self.make_store(latents, rng.integers(0, 9, size=n) / 8)
        latent = latents[rng.integers(n)] if rng.random() < 0.5 else rng.normal(size=dim)
        k = int(rng.integers(1, n + 3))
        probs = rng.dirichlet(np.full(int(rng.integers(2, 7)), 0.5))
        pset = conformal_generate_step(store, latent, probs, alpha, k, tau, metric=metric)
        expected = knn_set_oracle(store.query(latent, k, metric=metric), probs, alpha, tau)
        assert pset.indices == expected.indices
        assert is_full_set(pset.q_hat) == is_full_set(expected.q_hat)
        if not is_full_set(pset.q_hat):
            assert pset.q_hat.hex() == expected.q_hat.hex()

    def test_end_to_end_synthetic_coverage(self):
        # i.i.d. calibration/test replay: weighted conformal keeps coverage well
        # above the 1 - alpha target minus slack
        from uqkit.experiments import ConformalEvalConfig, run_conformal_condition

        cfg = ConformalEvalConfig(vocab_size=50, latent_dim=8, cal_steps=1000,
                                  test_steps=1000)
        record = run_conformal_condition(cfg, "knn", "l2", 0.0, "heuristic", seed=77)
        assert record["coverage"] >= 0.85


class TestSplitCoverageProperty:
    """Split-conformal marginal coverage over seeds (Vovk et al. 2005; Lei et al. 2018).

    For N exchangeable calibration scores and q_hat their ceil((N+1)(1-alpha))-th
    smallest, a new score is <= q_hat with probability in [1-alpha, 1-alpha+1/(N+1)]
    (the upper end needs untied scores). Given its calibration draw, a seed's
    T test hits are binomial; over calibration draws their count is beta-binomial
    with mean p = ceil((N+1)(1-alpha))/(N+1) and per-seed coverage variance
    p(1-p)(T+N+1)/(T(N+2)). The generated chain is stationary after burn-in, not
    exchangeable, so the bands are checked at 4 sd per seed and 3 sd for the
    mean. The reported coverage counts a label as covered when the adaptive set
    holds it, which every label whose score is <= q_hat is, so it is at least
    the score coverage on every seed and can exceed the upper end.
    """

    CFG = ConformalEvalConfig(vocab_size=10, latent_dim=4, cal_steps=1000, test_steps=1000,
                              alpha=0.1)
    SEEDS = range(30)

    def score_coverage(self, cal, test):
        """Share of the test steps whose gold score is <= the split q_hat of the calibration steps."""
        cfg = self.CFG
        q_hat = split_quantile(nonconformity(cfg.score_kind, cal.probs, cal.golds), cfg.alpha)
        assert not is_full_set(q_hat)
        return float(np.mean(nonconformity(cfg.score_kind, test.probs, test.golds) <= q_hat))

    def test_mean_coverage_within_the_split_bounds(self):
        cfg = self.CFG
        n, t = cfg.cal_steps, cfg.test_steps
        low, high = 1 - cfg.alpha, 1 - cfg.alpha + 1 / (n + 1)
        p = math.ceil((n + 1) * (1 - cfg.alpha)) / (n + 1)
        sd = math.sqrt(p * (1 - p) * (t + n + 1) / (t * (n + 2)))
        score_cov, set_cov = [], []
        for seed in self.SEEDS:
            cal, views = synthetic_source(cfg, [0.0], seed)
            [record] = evaluate_conformal(cfg, cal, views, ["split"], ["l2"], [0.0], "auto", seed)
            score_cov.append(self.score_coverage(cal, views[0.0]))
            set_cov.append(record["coverage"])
            assert low - 4 * sd <= score_cov[-1] <= high + 4 * sd, seed
            assert set_cov[-1] >= score_cov[-1], seed
        mean_sd = sd / math.sqrt(len(self.SEEDS))
        assert low - 3 * mean_sd <= np.mean(score_cov) <= high + 3 * mean_sd
        assert np.mean(set_cov) >= low - 3 * mean_sd


def calibration_store(cfg, seed):
    """A chain of `cfg.cal_steps` steps from the model and stream (seed, 1) that
    `synthetic_source` uses, with no burn-in, and the store built from it."""
    cal = generate(new_model(cfg.vocab_size, cfg.latent_dim, seed=seed), cfg.cal_steps,
                   derive_rng(seed, 1))
    return cal, synthetic.calibration_store(cal, cfg.score_kind)


def small_study(monkeypatch, search_steps=20, search_batch=12, burn_in=10):
    """Patch the study's fixed settings for one test. The defaults keep the search batch
    a strict prefix of `TestConformalEvalDriver.CFG`'s 30 calibration steps."""
    monkeypatch.setattr(experiments, "_SEARCH_STEPS", search_steps)
    monkeypatch.setattr(experiments, "_SEARCH_BATCH", search_batch)
    monkeypatch.setattr(experiments, "_BURN_IN", burn_in)


def per_step_coverage(store, cal, cfg, tau, metric):
    """Reference: the search batch's coverage at tau, one query and one k-NN set per step."""
    batch = cal[: experiments._SEARCH_BATCH]
    hits = 0
    for latent, probs, gold in zip(batch.latents, batch.probs, batch.golds):
        neighbors = store.query(latent, cfg.k, metric=metric)
        hits += gold in knn_set_oracle(neighbors, probs, cfg.alpha, tau)
    return hits / len(batch)


class TestConformalEvalDriver:
    CFG = ConformalEvalConfig(vocab_size=20, latent_dim=4, cal_steps=30, test_steps=40, k=10)

    @pytest.mark.parametrize("noises", [[0.0, -0.1], [float("nan")]])
    def test_negative_or_nan_noise_is_rejected(self, noises):
        with pytest.raises(ValueError, match="noise levels must be non-negative"):
            run_conformal_eval(self.CFG, ["split"], ["l2"], noises, 1.0, seed=0)

    @pytest.mark.parametrize("search_steps", [1, 6])
    def test_auto_tau_queries_each_latent_once(self, monkeypatch, search_steps):
        small_study(monkeypatch, search_steps=search_steps)
        cfg = self.CFG
        cal, store = calibration_store(cfg, seed=3)
        queried = []  # the float32 bytes of every latent queried, one or many per call
        query, query_batch = Datastore.query, Datastore.query_batch

        def counting_query(self, latent, *args, **kwargs):
            queried.append(np.asarray(latent, dtype=np.float32).tobytes())
            return query(self, latent, *args, **kwargs)

        def counting_query_batch(self, latents, *args, **kwargs):
            queried.extend(row.tobytes() for row in np.asarray(latents, dtype=np.float32))
            return query_batch(self, latents, *args, **kwargs)

        monkeypatch.setattr(Datastore, "query", counting_query)
        monkeypatch.setattr(Datastore, "query_batch", counting_query_batch)
        resolve_tau(store, cal, cfg, "l2", "auto", seed=3)
        # heuristic scale probes, then the search batch
        probe = derive_rng(3, 901).choice(len(store), size=min(200, len(store)), replace=False)
        batch = cal.latents[:experiments._SEARCH_BATCH].astype(np.float32)
        expected = [store.latents[i].tobytes() for i in probe] + [z.tobytes() for z in batch]
        assert sorted(queried) == sorted(expected)

    @pytest.mark.parametrize("metric", ["l2", "ip", "cos"])
    def test_search_coverage_matches_per_step_loop(self, monkeypatch, metric):
        # The search batch (40) is a strict prefix of the 60-record store.
        small_study(monkeypatch, search_batch=40)
        cfg = self.CFG._replace(cal_steps=60)
        cal, store = calibration_store(cfg, seed=5)
        searched = {}

        def capture(coverage_eval, alpha, tau_min, tau_max, **kwargs):
            searched.update(coverage_eval=coverage_eval, bounds=(tau_min, tau_max))
            return tau_min

        monkeypatch.setattr(experiments, "temperature_search", capture)
        resolve_tau(store, cal, cfg, metric, "auto", seed=5)
        tau_min, tau_max = searched["bounds"]
        for tau in [*np.linspace(tau_min, tau_max, 12), *np.geomspace(1e-4, 1e2, 13)]:
            assert searched["coverage_eval"](tau) == per_step_coverage(store, cal, cfg, tau,
                                                                        metric)

    def test_shared_pass_generates_once_and_resolves_tau_once_per_metric(self, monkeypatch):
        calls = {"generate": 0, "resolve_tau": 0, "step_probs": 0}

        def counting(name):
            original = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                # step_probs counts the latent rows it is given, one call per block
                calls[name] += len(args[1]) if name == "step_probs" else 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counting(name))
        small_study(monkeypatch, search_steps=2)
        cfg = self.CFG
        records = run_conformal_eval(cfg, ["knn", "split"], ["l2", "cos"], [0.0, 0.1],
                                     "auto", seed=3)
        assert len(records) == 6
        # the test pass runs once per noise level, whatever the conditions at it, and
        # noise 0 reads the distributions generate made: each noisy row's distribution once
        assert calls == {"generate": 1, "resolve_tau": 2, "step_probs": cfg.test_steps}

    def test_noise_zero_reads_the_generated_rows(self, monkeypatch):
        """At noise 0 the recomputation, step_probs of inject_noise(latents, 0), gives the
        generated rows to the bit; the noise-0 records equal the golden ones without it,
        and a call at noise 0 alone draws nothing from the noise stream (seed, 2). Each
        distinct non-zero level is one inject_noise call on a fresh copy of that stream."""
        cfg = ConformalEvalConfig(vocab_size=20, latent_dim=4, cal_steps=120, test_steps=60,
                                  k=10)  # the conformal_eval_tau_auto golden, seed 3
        model = new_model(cfg.vocab_size, cfg.latent_dim, seed=3)
        burn_in = experiments._BURN_IN
        chain = generate(model, burn_in + cfg.cal_steps + cfg.test_steps, derive_rng(3, 1))
        test = chain[burn_in + cfg.cal_steps:]
        recomputed = inject_noise(test.latents, 0.0, derive_rng(3, 2))
        assert np.array_equal(recomputed, test.latents)
        assert np.array_equal([step_probs(model, z) for z in recomputed], test.probs)

        golden = json.loads((GOLDEN_DIR / "conformal_eval_tau_auto.json").read_text())
        streams, sigmas = [], []

        def recording_derive_rng(*key):
            streams.append(key)
            return derive_rng(*key)

        def recording_inject_noise(latent, sigma, rng):
            sigmas.append(sigma)
            return inject_noise(latent, sigma, rng)

        monkeypatch.setattr(experiments, "derive_rng", recording_derive_rng)
        monkeypatch.setattr(experiments, "inject_noise", recording_inject_noise)
        cal, _ = synthetic_source(cfg, [0.5, 0.0, 0.1, 0.5], seed=3)
        latent_std = float(cal.latents.std())
        assert sigmas == [0.1 * latent_std, 0.5 * latent_std]
        assert streams.count((3, 2)) == 2
        streams.clear()
        sigmas.clear()

        monkeypatch.setattr(experiments, "step_probs", None)  # any call would raise TypeError
        records = run_conformal_eval(cfg, ["split", "knn"], ["l2", "ip", "cos"], [0.0], "auto",
                                     seed=3)
        assert records == [r for r in golden if r["noise"] == 0.0]
        assert (3, 1) in streams and (3, 2) not in streams and sigmas == []

    @pytest.mark.parametrize("metrics, noises, expected", [
        (["ip", "l2"], [0.1, 0.0], [
            ("knn", "ip", 0.0), ("knn", "l2", 0.0), ("knn", "ip", 0.1), ("knn", "l2", 0.1),
            ("split", "-", 0.0), ("split", "-", 0.1)]),
        (["l2", "cos", "l2"], [0.1, 0.0, 0.0], [
            ("knn", "cos", 0.0), ("knn", "l2", 0.0), ("knn", "l2", 0.0),
            ("knn", "cos", 0.0), ("knn", "l2", 0.0), ("knn", "l2", 0.0),
            ("knn", "cos", 0.1), ("knn", "l2", 0.1), ("knn", "l2", 0.1),
            ("split", "-", 0.0), ("split", "-", 0.0), ("split", "-", 0.1)]),
    ], ids=["distinct", "repeated"])
    def test_shared_pass_matches_one_condition_calls(self, monkeypatch, metrics, noises,
                                                     expected):
        small_study(monkeypatch, search_steps=2)
        cfg = self.CFG
        records = run_conformal_eval(cfg, ["split", "knn"], metrics, noises, "auto", seed=4)
        assert [(r["method"], r["metric"], r["noise"]) for r in records] == expected
        for record in records:
            assert record == run_conformal_condition(cfg, record["method"], record["metric"],
                                                     record["noise"], "auto", seed=4)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_simple_score_split_coverage_is_the_score_coverage(self, seed):
        """With `score_kind="simple"` the sets threshold the same score that was calibrated."""
        cfg = ConformalEvalConfig(vocab_size=20, latent_dim=4, score_kind="simple")
        cal, views = synthetic_source(cfg, [0.0], seed)
        [record] = evaluate_conformal(cfg, cal, views, ["split"], ["l2"], [0.0], "auto", seed)

        def scores(chain):
            return np.array([label_score_oracle("simple", p, gold)
                             for p, gold in zip(chain.probs, chain.golds)])

        q_hat = split_quantile(scores(cal), cfg.alpha)
        assert record["coverage"] == round(float(np.mean(scores(views[0.0]) <= q_hat)), 6)

    def test_evaluation_reads_only_the_source_arrays(self, monkeypatch, tmp_path):
        """Chains rebuilt from saved arrays, with no model to call, give the same records."""
        small_study(monkeypatch, search_steps=2)
        cfg = self.CFG
        methods, metrics, noises = ["split", "knn"], ["l2", "ip", "cos"], [0.0, 0.1]
        expected = run_conformal_eval(cfg, methods, metrics, noises, "auto", seed=3)
        cal, views = synthetic_source(cfg, noises, seed=3)
        chains = {"cal": cal, **{f"view{i}": views[noise] for i, noise in enumerate(noises)}}
        np.savez(tmp_path / "source.npz", **{f"{name}.{column}": getattr(chain, column)
                                             for name, chain in chains.items()
                                             for column in ("latents", "probs", "golds")})
        with np.load(tmp_path / "source.npz", allow_pickle=False) as saved:
            loaded = {name: Chain(*(saved[f"{name}.{column}"]
                                    for column in ("latents", "probs", "golds")))
                      for name in chains}
        for name in ("new_model", "generate", "step_probs"):
            monkeypatch.setattr(experiments, name, None)  # any call would raise TypeError
        views = {noise: loaded[f"view{i}"] for i, noise in enumerate(noises)}
        assert evaluate_conformal(cfg, loaded["cal"], views, methods, metrics, noises, "auto",
                                  seed=3) == expected

    def test_unknown_method_rejected_before_generation(self, monkeypatch):
        monkeypatch.setattr(experiments, "generate", None)  # any call would raise TypeError
        for methods in (["split", "foo"], ["split", "knn_unit"]):
            with pytest.raises(ValueError, match="unknown method"):
                run_conformal_eval(self.CFG, methods, ["l2"], [0.0], "auto", seed=0)

    def test_k_exceeding_store_warns_once_per_condition(self, monkeypatch, caplog):
        small_study(monkeypatch, search_steps=3)
        cfg = self.CFG._replace(k=50)
        with caplog.at_level("WARNING"):
            run_conformal_condition(cfg, "knn", "l2", 0.0, "auto", seed=2)
        warnings = [r for r in caplog.records if "exceeds datastore size" in r.getMessage()]
        assert len(warnings) == 1

    @pytest.mark.parametrize("methods, expected", [(["knn", "split"], 1), (["split"], 0)])
    def test_k_exceeding_store_warns_once_per_call_with_knn(self, monkeypatch, caplog, methods,
                                                            expected):
        small_study(monkeypatch, search_steps=2)
        cfg = self.CFG._replace(k=50)
        with caplog.at_level("WARNING"):
            run_conformal_eval(cfg, methods, ["l2", "cos"], [0.0, 0.1], "auto", seed=2)
        warnings = [r for r in caplog.records if "exceeds datastore size" in r.getMessage()]
        assert len(warnings) == expected

    def test_mostly_full_set_search_warns_once_for_l2(self, caplog):
        # l2 weights are at most 1: 10 neighbors cannot reach much past 0.9 of the mass.
        cfg = ConformalEvalConfig(vocab_size=20, latent_dim=4, k=10, cal_steps=450,
                                  test_steps=300)
        with caplog.at_level("WARNING"):
            records = run_conformal_eval(cfg, ["knn"], ["l2", "cos"], [0.0], "auto", seed=8)
        assert [(r["metric"], r["width"]) for r in records] == [("cos", 0.314833), ("l2", 1.0)]
        [warning] = [r.getMessage() for r in caplog.records if "tau search" in r.getMessage()]
        assert "metric l2, k=10: 100.0% of the search batch is FULL_SET" in warning
        assert "k/(k+1) = 0.9091" in warning

    def test_default_sized_search_does_not_warn(self, caplog):
        cfg = ConformalEvalConfig()
        cal, store = calibration_store(cfg, seed=3)
        with caplog.at_level("WARNING"):
            for metric in ("l2", "cos"):
                resolve_tau(store, cal, cfg, metric, "auto", seed=3)
        assert caplog.records == []

    def test_heuristic_tau_on_one_record_store_falls_back_once(self, caplog):
        cfg = ConformalEvalConfig(vocab_size=10, latent_dim=3, cal_steps=1, test_steps=5)
        with warnings.catch_warnings(), caplog.at_level("WARNING"):
            warnings.simplefilter("error")
            record = run_conformal_condition(cfg, "knn", "l2", 0.0, "heuristic", seed=0)
        assert record["tau"] == 1.0
        fallbacks = [r for r in caplog.records if "tau = 1.0" in r.getMessage()]
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("metric", ["l2", "ip", "cos"])
    def test_heuristic_tau_is_the_median_key_to_other_rows(self, metric):
        """Under ip a probe is seldom its own nearest row, so the scale leaves out the
        probe's own row by id, not the first column of its k + 1 neighbours."""
        cfg = ConformalEvalConfig(vocab_size=20, latent_dim=4, cal_steps=300, k=10)
        cal, store = calibration_store(cfg, seed=3)
        probe = derive_rng(3, 901).choice(len(store), size=200, replace=False)
        keys = []
        for row in probe:
            found, ids = exact_query_oracle(store.latents, store.latents[row], cfg.k + 1, metric)
            keys.extend(found[ids != row])
        assert resolve_tau(store, cal, cfg, metric, "heuristic", seed=3) == \
            np.median(np.abs(keys))


class TestMedian:
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=32),
                              st.sampled_from([0.0, -0.0, 1.5, np.inf, np.nan, 1e308])),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median(self, values):
        values = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 + 1e308, inf - inf
            expected = np.median(values)
            got = experiments._median(values)
        assert np.array(got).tobytes() == np.float64(expected).tobytes()


class TestTemperatureSearch:
    def test_constant_at_target_returns_first_candidate(self):
        rng = derive_rng(10)
        tau0_probe = derive_rng(10).uniform(1.0, 3.0)
        result = temperature_search(lambda t: 0.9, alpha=0.1, tau_min=1.0, tau_max=3.0, rng=rng)
        assert result == pytest.approx(tau0_probe)

    def test_tracks_toward_target(self):
        hits = 0
        for i in range(100):
            tau = temperature_search(lambda t: min(max(t, 0.0), 1.0), alpha=0.1,
                                     tau_min=0.0, tau_max=1.0, rng=derive_rng(77, i))
            hits += abs(tau - 0.9) <= 0.15
        assert hits >= 90

    def test_single_step_returns_better_of_two(self):
        for i in range(20):
            rng = derive_rng(20, i)
            visited = []

            def eval_cov(tau):
                visited.append(tau)
                return min(max(tau, 0.0), 1.0)

            result = temperature_search(eval_cov, alpha=0.1, tau_min=0.0, tau_max=1.0,
                                        steps=1, rng=rng)
            assert len(visited) <= 2
            best = min(visited, key=lambda t: abs(min(max(t, 0.0), 1.0) - 0.9))
            assert result == pytest.approx(best)

    def test_non_finite_coverage_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            temperature_search(lambda t: math.nan, alpha=0.1, tau_min=0.0, tau_max=1.0,
                               rng=derive_rng(0))

    def test_validates_bounds_and_steps(self):
        with pytest.raises(ValueError):
            temperature_search(lambda t: 0.9, 0.1, tau_min=1.0, tau_max=1.0, rng=derive_rng(0))
        with pytest.raises(ValueError):
            temperature_search(lambda t: 0.9, 0.1, tau_min=0.0, tau_max=1.0, steps=0,
                               rng=derive_rng(0))


@pytest.mark.parametrize("call, match", [
    (lambda: as_prob_matrix([0.5, 0.5]), "one probability vector per row"),
    (lambda: WeightedCalibration([0.1, math.nan], [1.0, 1.0]), "scores must be finite"),
    (lambda: WeightedCalibration([0.1, 0.2], [1.0, math.inf]), "weights must be finite"),
    (lambda: WeightedCalibration([0.1, 0.2], [1.0, -1.0]),
     "weights must be finite and non-negative"),
    (lambda: WeightedCalibration([0.1, 0.2], [1.0]), "scores and weights must have equal length"),
    (lambda: split_quantile([0.1, 0.2], 0.0), r"alpha must lie in \(0, 1\)"),
    (lambda: split_quantile([0.1, 0.2], 1.5), r"alpha must lie in \(0, 1\)"),
    (lambda: weighted_quantile(WeightedCalibration([0.1], [1.0]), 0.0),
     r"alpha must lie in \(0, 1\)"),
    (lambda: weighted_quantile(WeightedCalibration([0.1], [1.0]), 1.5),
     r"alpha must lie in \(0, 1\)"),
    (lambda: KnnQuantiles(Neighbors(np.zeros((1, 2)), np.array([[0.1, math.nan]]),
                                    np.zeros((1, 2), dtype=int)), 0.1), "scores must be finite"),
    (lambda: KnnQuantiles(Neighbors(np.array([[0.1, math.nan]]), np.zeros((1, 2)),
                                    np.zeros((1, 2), dtype=int)), 0.1)(1.0),
     "weights must be finite"),
], ids=["as_prob_matrix_1d", "calibration_scores", "calibration_weights",
        "calibration_negative_weight", "calibration_lengths", "split_alpha_0",
        "split_alpha_1.5", "weighted_alpha_0", "weighted_alpha_1.5", "knn_neighbor_scores",
        "knn_neighbor_keys"])
def test_rejects_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
