import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqkit import experiments
from uqkit.conformal import (FULL_SET, WeightedCalibration, as_prob_vector,
                             build_set_adaptive, build_set_threshold, conformal_generate_step,
                             is_full_set, rbf_weights, score_adaptive, score_simple,
                             split_quantile, temperature_search, weighted_quantile)
from uqkit.datastore import Datastore
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


class TestConformalEvalDriver:
    CFG = ConformalEvalConfig(vocab_size=20, latent_dim=4, cal_steps=30, test_steps=40,
                              k=10, burn_in=10, search_batch=12)

    @pytest.mark.parametrize("search_steps", [1, 6])
    def test_auto_tau_queries_each_latent_once(self, monkeypatch, search_steps):
        cfg = replace(self.CFG, search_steps=search_steps)
        cal = generate(new_model(cfg.vocab_size, cfg.latent_dim, seed=3), cfg.cal_steps,
                       derive_rng(3, 1))
        store = Datastore(cfg.latent_dim)
        store.add_batch(np.stack([s.latent for s in cal]),
                        [nonconformity(cfg.score_kind, s.probs, s.gold) for s in cal])
        calls = []
        query = Datastore.query

        def counting_query(self, *args, **kwargs):
            calls.append(args)
            return query(self, *args, **kwargs)

        monkeypatch.setattr(Datastore, "query", counting_query)
        resolve_tau(store, cal, cfg, "l2", "auto", seed=3)
        probe_size = min(200, len(store))  # heuristic scale probes
        assert len(calls) == probe_size + cfg.search_batch

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
