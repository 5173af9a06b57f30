import numpy as np
import pytest

from oracles import generate_oracle, label_score_oracle
from uqkit.conformal import build_set_adaptive, split_quantile
from uqkit.seeds import derive_rng
from uqkit.synthetic import (SynthModel, calibration_store, generate, inject_noise, new_model,
                             nonconformity, step_probs)


class TestModelConstruction:
    def test_same_seed_identical(self):
        a = new_model(10, 4, seed=1)
        b = new_model(10, 4, seed=1)
        assert np.array_equal(a.emission, b.emission)
        assert np.array_equal(a.mixing, b.mixing)

    def test_minimal_model(self):
        model = new_model(2, 2, seed=0)
        assert model.vocab_size == 2
        assert model.latent_dim == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            new_model(1, 4, seed=0)
        with pytest.raises(ValueError, match="d x d mixing matrix"):
            SynthModel(emission=np.zeros((3, 3)), mixing=np.zeros((2, 2)),
                       noise_std=0.1, temperature=1.0)
        with pytest.raises(ValueError, match="temperature must be positive"):
            SynthModel(emission=np.zeros((3, 2)), mixing=np.zeros((2, 2)),
                       noise_std=0.1, temperature=0.0)

    def test_probs_sum_to_one(self):
        model = new_model(50, 8, seed=2)
        chain = generate(model, 100, derive_rng(3))
        for probs in chain.probs:
            assert abs(probs.sum() - 1.0) < 1e-9


class TestGenerate:
    def test_determinism(self):
        model = new_model(20, 6, seed=4)
        a = generate(model, 50, derive_rng(5))
        b = generate(model, 50, derive_rng(5))
        assert np.array_equal(a.latents, b.latents)
        assert np.array_equal(a.golds, b.golds)

    def test_low_temperature_gold_is_argmax(self):
        model = new_model(30, 6, seed=6, temperature=1e-4)
        chain = generate(model, 300, derive_rng(7))
        agree = np.count_nonzero(chain.golds == np.argmax(chain.probs, axis=1))
        assert agree / len(chain) >= 0.99

    def test_frozen_latent_token_frequencies(self):
        # mixing 2*I has the stable fixed point z* = tanh(2 z*) coordinate-wise,
        # so the emitted distribution is constant and gold draws are multinomial.
        dim, vocab = 4, 10
        rng = np.random.default_rng(8)
        emission = rng.normal(size=(vocab, dim))
        model = SynthModel(emission=emission, mixing=2.0 * np.eye(dim),
                           noise_std=0.0, temperature=1.0)
        z_star = 0.9575
        for _ in range(60):
            z_star = np.tanh(2.0 * z_star)
        init = np.full(dim, z_star)
        chain = generate(model, 20_000, derive_rng(9), init_latent=init)
        probs = chain.probs[0]
        counts = np.bincount(chain.golds, minlength=vocab)
        n = len(chain)
        for k in range(vocab):
            se = np.sqrt(probs[k] * (1 - probs[k]) / n)
            assert abs(counts[k] / n - probs[k]) <= 3 * se + 1e-12

    def test_validates_num_steps(self):
        with pytest.raises(ValueError):
            generate(new_model(5, 3, seed=0), 0, derive_rng(0))

    @pytest.mark.parametrize("seed", [5, 19])
    @pytest.mark.parametrize("with_init", [False, True])
    def test_columns_equal_per_step_loop(self, seed, with_init):
        # (vocab, dim, steps); the second is the conformal-knn benchmark's chain, and
        # the third's gold pass takes three blocks of steps, the last one short
        for vocab, dim, steps in ((12, 5, 200), (100, 16, 1250), (2000, 4, 150)):
            model = new_model(vocab, dim, seed=seed)
            init = derive_rng(seed, 3).normal(size=dim) if with_init else None
            init_before = None if init is None else init.copy()
            rng, oracle_rng = derive_rng(seed), derive_rng(seed)
            chain = generate(model, steps, rng, init_latent=init)
            oracle = generate_oracle(model, steps, oracle_rng, init_latent=init_before)
            latents, probs, golds = (np.array(column) for column in zip(*oracle))
            assert chain.latents.dtype == np.float64 and chain.probs.dtype == np.float64
            assert chain.golds.dtype == np.int64
            assert chain.latents.tobytes() == latents.tobytes()
            assert chain.probs.tobytes() == probs.tobytes()
            assert chain.golds.tobytes() == golds.astype(np.int64).tobytes()
            # the stream ends where the loop's does, final recurrence draw included
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            if with_init:
                assert np.array_equal(init, init_before)
                assert not np.shares_memory(chain.latents, init)

    def test_nan_latent_fails_the_probability_check(self):
        init = np.array([0.5, np.nan, 0.1])
        model = new_model(8, 3, seed=2)
        with pytest.raises(ValueError, match="(?i)probabilities"):
            generate_oracle(model, 5, derive_rng(1), init_latent=init)
        with pytest.raises(ValueError, match="(?i)probabilities"):
            generate(model, 5, derive_rng(1), init_latent=init)

    def test_slice_keeps_columns_aligned(self):
        chain = generate(new_model(8, 3, seed=20), 30, derive_rng(21))
        for steps in (slice(5, 17), slice(25, None), slice(None, None, 4), slice(40, 50)):
            part = chain[steps]
            assert len(part) == len(range(30)[steps])
            assert part.latents.shape == (len(part), 3) and part.probs.shape == (len(part), 8)
            assert np.array_equal(part.latents, chain.latents[steps])
            assert np.array_equal(part.probs, chain.probs[steps])
            assert np.array_equal(part.golds, chain.golds[steps])
        with pytest.raises(TypeError, match="slices"):
            chain[3]


class TestStepProbs:
    @pytest.mark.parametrize("vocab, dim, temperature", [(12, 5, 1.0), (100, 16, 0.7),
                                                        (2, 2, 3.0)])
    def test_batch_rows_equal_single_calls(self, vocab, dim, temperature):
        model = new_model(vocab, dim, seed=vocab, temperature=temperature)
        scales = np.geomspace(1e-3, 1e3, 130)[:, None]  # from flat to one-hot distributions
        latents = derive_rng(vocab, 4).normal(size=(130, dim)) * scales
        batch = step_probs(model, latents)
        assert batch.shape == (130, vocab)
        for row, latent in zip(batch, latents):
            assert row.tobytes() == step_probs(model, latent).tobytes()
        assert step_probs(model, latents[:0]).shape == (0, vocab)


class TestInjectNoise:
    def test_zero_sigma_identity(self):
        latent = np.array([0.1, -0.2, 0.3])
        out = inject_noise(latent, 0.0, derive_rng(10))
        assert np.array_equal(out, latent)

    def test_determinism(self):
        latent = np.zeros(8)
        a = inject_noise(latent, 0.5, derive_rng(11))
        b = inject_noise(latent, 0.5, derive_rng(11))
        assert np.array_equal(a, b)

    def test_mean_perturbation_norm(self):
        # E||noise|| for d-dim isotropic Gaussians is sigma * sqrt(2) * Gamma((d+1)/2) / Gamma(d/2)
        from scipy.special import gammaln

        d, sigma = 16, 0.3
        latent = np.zeros(d)
        rng = derive_rng(12)
        norms = [np.linalg.norm(inject_noise(latent, sigma, rng)) for _ in range(10_000)]
        expected = sigma * np.sqrt(2.0) * np.exp(gammaln((d + 1) / 2) - gammaln(d / 2))
        assert np.mean(norms) == pytest.approx(expected, rel=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            inject_noise(np.zeros(2), -0.1, derive_rng(0))

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError):
            inject_noise(np.zeros(2), float("nan"), derive_rng(0))


class TestCalibrationStore:
    def test_count_and_score_range(self):
        model = new_model(20, 5, seed=13)
        store = calibration_store(generate(model, 250, derive_rng(14)), "adaptive")
        assert len(store) == 250
        assert np.all(store.scores > 0.0)
        assert np.all(store.scores <= 1.0)

    def test_stored_latent_self_query(self):
        model = new_model(20, 5, seed=15)
        store = calibration_store(generate(model, 100, derive_rng(16)), "simple")
        hit = store.query(store.latents[17], 1, metric="l2")
        assert hit.keys[0] == 0.0
        assert hit.ids[0] == 17

    def test_unknown_score_kind(self):
        model = new_model(5, 3, seed=0)
        with pytest.raises(ValueError, match="score kind"):
            calibration_store(generate(model, 10, derive_rng(0)), "fancy")

    @pytest.mark.parametrize("kind", ["adaptive", "simple"])
    def test_scores_equal_per_step_oracle(self, kind):
        # 300 classes: label prefixes cross numpy's 8- and 128-element summation blocks
        chain = generate(new_model(300, 4, seed=19, temperature=4.0), 400, derive_rng(20))
        expected = [label_score_oracle(kind, p, gold) for p, gold in zip(chain.probs, chain.golds)]
        assert calibration_store(chain, kind).scores.tobytes() == np.array(expected).tobytes()


class TestExchangeabilityByConstruction:
    def test_split_conformal_coverage_on_replay(self):
        model = new_model(40, 8, seed=17)
        chain = generate(model, 1050, derive_rng(18))
        cal, test = chain[50:550], chain[550:]
        scores = nonconformity("adaptive", cal.probs, cal.golds)
        alpha = 0.1
        q_hat = split_quantile(scores, alpha)
        covered = [gold in build_set_adaptive(probs, q_hat)
                   for probs, gold in zip(test.probs, test.golds)]
        rate = np.mean(covered)
        se = np.sqrt(alpha * (1 - alpha) / len(test))
        assert rate >= 1 - alpha - 3 * se


@pytest.mark.parametrize("emission, mixing, match", [
    (np.zeros(3), np.zeros((2, 2)), "must be matrices"),
    (np.full((3, 2), np.nan), np.zeros((2, 2)), "must be finite"),
    (np.zeros((3, 2)), np.array([[0.0, np.inf], [0.0, 0.0]]), "must be finite"),
    (np.zeros((1, 2)), np.zeros((2, 2)), "need V >= 2, d >= 2, and a d x d mixing matrix"),
], ids=["vector_emission", "nan_emission", "inf_mixing", "one_class"])
def test_model_rejects_bad_matrices(emission, mixing, match):
    with pytest.raises(ValueError, match=match):
        SynthModel(emission=emission, mixing=mixing, noise_std=0.1, temperature=1.0)
