import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqkit import experiments
from uqkit.conformal import (FULL_SET, AdaptiveSets, KnnQuantiles, WeightedCalibration,
                             as_prob_matrix, as_prob_vector, build_set_adaptive,
                             build_set_threshold, conformal_generate_step, is_full_set,
                             knn_set, rbf_weights, score_adaptive, score_simple,
                             split_quantile, temperature_search, weighted_quantile)
from uqkit.datastore import Datastore, Neighbors
from uqkit.experiments import (ConformalEvalConfig, resolve_tau, run_conformal_condition,
                               run_conformal_eval)
from uqkit.seeds import derive_rng
from uqkit.synthetic import generate, new_model, nonconformity


def random_prob_vector(rng, size):
    raw = rng.dirichlet(np.full(size, 0.7))
    return raw / raw.sum()


prob_vectors = st.integers(min_value=2, max_value=30).flatmap(
    lambda v: st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=v, max_size=v)
).map(lambda raw: np.asarray(raw) / np.sum(raw))


class TestScores:
    def test_simple_values(self):
        assert score_simple([0.0, 1.0], 1) == 0.0
        assert score_simple([0.25, 0.25, 0.25, 0.25], 2) == 0.75
        assert score_simple([0.6, 0.3, 0.1], 1) == pytest.approx(0.7)

    def test_simple_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            score_simple([0.5, 0.5], 2)

    def test_adaptive_values(self):
        assert score_adaptive([0.5, 0.3, 0.2], 0) == pytest.approx(0.5)
        assert score_adaptive([0.5, 0.3, 0.2], 1) == pytest.approx(0.8)
        assert score_adaptive([0.2] * 5, 4) == pytest.approx(1.0)

    def test_adaptive_tie_break_by_class_id(self):
        # equal masses: earlier class id sorts first
        assert score_adaptive([0.25, 0.25, 0.25, 0.25], 0) == pytest.approx(0.25)
        assert score_adaptive([0.25, 0.25, 0.25, 0.25], 3) == pytest.approx(1.0)

    def test_rejects_bad_prob_vectors(self):
        with pytest.raises(ValueError):
            score_simple([0.5, 0.6], 0)  # does not sum to 1
        with pytest.raises(ValueError):
            score_simple([1.0], 0)  # single class

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


class TestWeightedQuantile:
    def test_unit_weights_reduce_to_split(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            scores = rng.random(n)
            alpha = float(rng.uniform(0.02, 0.5))
            cal = WeightedCalibration(scores=scores, weights=np.ones(n))
            split = split_quantile(scores, alpha)
            weighted = weighted_quantile(cal, alpha)
            if is_full_set(split):
                assert is_full_set(weighted)
            else:
                assert weighted == split  # bit-exact

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
        assert rbf_weights([0.0], tau=2.0, metric="l2")[0] == 1.0

    def test_l2_at_tau(self):
        assert rbf_weights([2.0], tau=2.0, metric="l2")[0] == pytest.approx(math.exp(-1))

    def test_cosine_zero_similarity(self):
        assert rbf_weights([0.0], tau=1.0, metric="cos")[0] == 1.0

    def test_clamps_exponent(self):
        assert np.isfinite(rbf_weights([1e9], tau=1.0, metric="ip")[0])

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            rbf_weights([1.0], tau=0.0)


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
        assert len(build_set_threshold([0.6, 0.3, 0.1], 1.0)) == 3
        assert len(build_set_threshold([0.6, 0.3, 0.1], 0.0)) == 0
        assert build_set_threshold([0.6, 0.3, 0.1], 0.75).indices == (0, 1)

    def test_threshold_one_hot_at_zero(self):
        assert build_set_threshold([1.0, 0.0], 0.0).indices == (0,)

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
        score = score_adaptive(p, label)
        assert label in build_set_adaptive(p, score)

    @given(prob_vectors)
    @settings(max_examples=50)
    def test_ordering_matches_descending_probs(self, p):
        pset = build_set_adaptive(p, 1.0)
        probs_in_order = [p[i] for i in pset.indices]
        assert probs_in_order == sorted(probs_in_order, reverse=True)


def random_block(data, metric):
    """(neighbors, probs, gold) of a random block of k-NN steps with forced score ties."""
    steps = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 15))
    vocab = data.draw(st.integers(2, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    keys = rng.random((steps, k)) * (4.0 if metric == "l2" else 2.0)
    if metric != "l2":
        keys -= 1.0
    # Scores on a coarse grid tie often; the grid spans [-0.5, 1.5] so the [0, 1] clamp acts.
    scores = rng.integers(-2, 7, size=(steps, k)) / 4
    probs = rng.dirichlet(np.full(vocab, 0.7), size=steps)
    probs[rng.random(steps) < 0.3, :] = 1.0 / vocab  # all-tied rows
    gold = rng.integers(0, vocab, size=steps)
    ids = np.tile(np.arange(k), (steps, 1))
    return Neighbors(np.sort(keys, axis=1), scores, ids), probs, gold


class TestBatchedKernel:
    @given(st.data(), st.sampled_from(["l2", "ip", "cos"]),
           # 1e-4 pushes |key| / tau past the +-700 exponent clamp
           st.sampled_from([1e-4, 1e-3, 0.05, 0.5, 2.0, 50.0]),
           st.sampled_from([0.05, 0.1, 0.3, 0.6]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_knn_set(self, data, metric, tau, alpha):
        neighbors, probs, gold = random_block(data, metric)
        q_hat, full = KnnQuantiles(neighbors, alpha, metric)(tau)
        sets = AdaptiveSets(probs, gold)
        sizes, covers = sets.sizes(q_hat, full), sets.covers(q_hat, full)
        for i in range(len(gold)):
            row = Neighbors(neighbors.keys[i], neighbors.scores[i], neighbors.ids[i])
            pset = knn_set(row, probs[i], alpha, tau, metric=metric)
            assert full[i] == is_full_set(pset.q_hat)
            if not full[i]:
                assert np.clip(q_hat[i], 0.0, 1.0) == pset.q_hat  # bit-exact
            assert sizes[i] == len(pset)
            assert covers[i] == (gold[i] in pset)

    def test_full_set_rows_and_exponent_clamp(self):
        # Similarity 1 at tau 1e-3 is clamped to exp(700), not exp(1000) = inf, so two
        # such neighbors carry half the mass each; the tied scores of row 1 form one run.
        keys = np.array([[1.0, 1.0, 0.5], [1.0, 0.0, 0.0]])
        scores = np.array([[0.25, 0.75, 0.5], [0.5, 0.5, 0.5]])
        q_hat, full = KnnQuantiles(Neighbors(keys, scores, np.zeros((2, 3), int)), 0.1,
                                   "cos")(1e-3)
        assert full.tolist() == [False, False]
        assert q_hat.tolist() == [0.75, 0.5]
        # A lone neighbor of weight exp(0) = 1 carries half the mass: FULL_SET at alpha 0.1.
        q_hat, full = KnnQuantiles(Neighbors(keys[:, 1:2], scores[:, 1:2],
                                             np.zeros((2, 1), int)), 0.1, "cos")(1e-3)
        assert full.tolist() == [False, True]
        assert q_hat[0] == 0.75
        sets = AdaptiveSets([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]], [2, 2])
        assert sets.sizes(q_hat, full).tolist() == [2, 3]
        assert sets.covers(q_hat, full).tolist() == [False, True]
        # The top class is in every set, even at q_hat = 0.
        assert sets.covers(np.zeros(2), np.zeros(2, bool)).tolist() == [False, True]

    def test_rejects_non_finite_keys(self):
        neighbors = Neighbors(np.array([[0.5, np.nan]]), np.array([[0.1, 0.2]]),
                              np.zeros((1, 2), int))
        with pytest.raises(ValueError, match="finite"):
            KnnQuantiles(neighbors, 0.1, "ip")(1.0)


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
        with caplog.at_level("WARNING", logger="uqkit.conformal"):
            pset = conformal_generate_step(store, np.zeros(3), [0.6, 0.4], alpha=0.3,
                                           k=50, tau=1.0)
        assert "entire store" in caplog.text
        assert len(pset) >= 1

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        store = self.make_store(rng.normal(size=(5, 3)), rng.random(5))
        with pytest.raises(ValueError, match="dimension"):
            conformal_generate_step(store, np.zeros(4), [0.6, 0.4], alpha=0.3, k=2, tau=1.0)

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

    def score_coverage(self, chain):
        """Share of the test steps whose gold score is <= the split q_hat of the calibration steps."""
        cfg = self.CFG
        scores = np.array([nonconformity(cfg.score_kind, s.probs, s.gold)
                           for s in chain[cfg.burn_in:]])
        q_hat = split_quantile(scores[:cfg.cal_steps], cfg.alpha)
        assert not is_full_set(q_hat)
        return float(np.mean(scores[cfg.cal_steps:] <= q_hat))

    def test_mean_coverage_within_the_split_bounds(self, monkeypatch):
        chains = []

        def recording_generate(*args, **kwargs):
            chains.append(generate(*args, **kwargs))
            return chains[-1]

        monkeypatch.setattr(experiments, "generate", recording_generate)
        cfg = self.CFG
        n, t = cfg.cal_steps, cfg.test_steps
        low, high = 1 - cfg.alpha, 1 - cfg.alpha + 1 / (n + 1)
        p = math.ceil((n + 1) * (1 - cfg.alpha)) / (n + 1)
        sd = math.sqrt(p * (1 - p) * (t + n + 1) / (t * (n + 2)))
        score_cov, set_cov = [], []
        for seed in self.SEEDS:
            record = run_conformal_eval(cfg, ["split"], ["l2"], [0.0], "auto", seed)[0]
            score_cov.append(self.score_coverage(chains[-1]))
            set_cov.append(record["coverage"])
            assert low - 4 * sd <= score_cov[-1] <= high + 4 * sd, seed
            assert set_cov[-1] >= score_cov[-1], seed
        mean_sd = sd / math.sqrt(len(self.SEEDS))
        assert low - 3 * mean_sd <= np.mean(score_cov) <= high + 3 * mean_sd
        assert np.mean(set_cov) >= low - 3 * mean_sd


def calibration_store(cfg, seed):
    """The calibration steps of `cfg` and the store built from them, as `run_conformal_eval` does."""
    cal = generate(new_model(cfg.vocab_size, cfg.latent_dim, seed=seed), cfg.cal_steps,
                   derive_rng(seed, 1))
    store = Datastore(cfg.latent_dim)
    store.add_batch(np.stack([s.latent for s in cal]),
                    [nonconformity(cfg.score_kind, s.probs, s.gold) for s in cal])
    return cal, store


def per_step_coverage(store, cal, cfg, tau, metric):
    """Reference: the search batch's coverage at tau, one query and one `knn_set` per step."""
    batch = cal[: cfg.search_batch]
    hits = 0
    for step in batch:
        neighbors = store.query(step.latent, cfg.k, metric=metric)
        hits += step.gold in knn_set(neighbors, step.probs, cfg.alpha, tau, metric=metric)
    return hits / len(batch)


class TestConformalEvalDriver:
    CFG = ConformalEvalConfig(vocab_size=20, latent_dim=4, cal_steps=30, test_steps=40,
                              k=10, burn_in=10, search_batch=12)

    @pytest.mark.parametrize("search_steps", [1, 6])
    def test_auto_tau_queries_each_latent_once(self, monkeypatch, search_steps):
        cfg = replace(self.CFG, search_steps=search_steps)
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
        expected = ([store.latents[i].tobytes() for i in probe] +
                    [step.latent.astype(np.float32).tobytes() for step in cal[:cfg.search_batch]])
        assert sorted(queried) == sorted(expected)

    @pytest.mark.parametrize("metric", ["l2", "ip", "cos"])
    def test_search_coverage_matches_per_step_loop(self, monkeypatch, metric):
        # The search batch (40) is a strict prefix of the 60-record store.
        cfg = replace(self.CFG, cal_steps=60, search_batch=40)
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
        calls = {"generate": 0, "resolve_tau": 0}

        def counting(name):
            original = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counting(name))
        cfg = replace(self.CFG, search_steps=2)
        records = run_conformal_eval(cfg, ["knn", "split"], ["l2", "cos"], [0.0, 0.1],
                                     "auto", seed=3)
        assert len(records) == 6
        assert calls == {"generate": 1, "resolve_tau": 2}

    def test_shared_pass_matches_one_condition_calls(self):
        cfg = replace(self.CFG, search_steps=2)
        records = run_conformal_eval(cfg, ["split", "knn", "knn_unit"], ["ip", "l2"],
                                     [0.1, 0.0], "auto", seed=4)
        assert [(r["method"], r["metric"], r["noise"]) for r in records] == [
            ("knn", "ip", 0.0), ("knn", "l2", 0.0), ("knn", "ip", 0.1), ("knn", "l2", 0.1),
            ("knn_unit", "-", 0.0), ("knn_unit", "-", 0.1), ("split", "-", 0.0),
            ("split", "-", 0.1)]
        for record in records:
            assert record == run_conformal_condition(cfg, record["method"], record["metric"],
                                                     record["noise"], "auto", seed=4)

    def test_unknown_method_rejected_before_generation(self, monkeypatch):
        monkeypatch.setattr(experiments, "generate", None)  # any call would raise TypeError
        with pytest.raises(ValueError, match="unknown method"):
            run_conformal_eval(self.CFG, ["split", "foo"], ["l2"], [0.0], "auto", seed=0)

    def test_k_exceeding_store_warns_once_per_condition(self, caplog):
        cfg = replace(self.CFG, k=50, search_steps=3)
        with caplog.at_level("WARNING"):
            run_conformal_condition(cfg, "knn", "l2", 0.0, "auto", seed=2)
        warnings = [r for r in caplog.records if "exceeds datastore size" in r.getMessage()]
        assert len(warnings) == 1

    @pytest.mark.parametrize("methods, expected", [(["knn", "split"], 1), (["split"], 0)])
    def test_k_exceeding_store_warns_once_per_call_with_knn(self, caplog, methods, expected):
        cfg = replace(self.CFG, k=50, search_steps=2)
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
                                        eta=0.5, steps=1, rng=rng)
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
