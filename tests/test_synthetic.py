import numpy as np
import pytest

from uqkit.conformal import build_set_adaptive, split_quantile
from uqkit.seeds import derive_rng
from uqkit.synthetic import (SynthModel, build_calibration_store, generate, inject_noise,
                             new_model, sample_step, step_probs)


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
        with pytest.raises(ValueError):
            SynthModel(emission=np.zeros((3, 3)), mixing=np.zeros((2, 2)),
                       noise_std=0.1, temperature=1.0)
        with pytest.raises(ValueError):
            SynthModel(emission=np.zeros((3, 2)), mixing=np.zeros((2, 2)),
                       noise_std=0.1, temperature=0.0)

    def test_probs_sum_to_one(self):
        model = new_model(50, 8, seed=2)
        steps = generate(model, 100, derive_rng(3))
        for step in steps:
            assert abs(step.probs.sum() - 1.0) < 1e-9


class TestGenerate:
    def test_determinism(self):
        model = new_model(20, 6, seed=4)
        a = generate(model, 50, derive_rng(5))
        b = generate(model, 50, derive_rng(5))
        for x, y in zip(a, b):
            assert np.array_equal(x.latent, y.latent)
            assert x.gold == y.gold

    def test_low_temperature_gold_is_argmax(self):
        model = new_model(30, 6, seed=6, temperature=1e-4)
        steps = generate(model, 300, derive_rng(7))
        agree = sum(step.gold == int(np.argmax(step.probs)) for step in steps)
        assert agree / len(steps) >= 0.99

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
        steps = generate(model, 20_000, derive_rng(9), init_latent=init)
        probs = steps[0].probs
        counts = np.bincount([s.gold for s in steps], minlength=vocab)
        n = len(steps)
        for k in range(vocab):
            se = np.sqrt(probs[k] * (1 - probs[k]) / n)
            assert abs(counts[k] / n - probs[k]) <= 3 * se + 1e-12

    def test_validates_num_steps(self):
        with pytest.raises(ValueError):
            generate(new_model(5, 3, seed=0), 0, derive_rng(0))


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
        store = build_calibration_store(model, 250, "adaptive", derive_rng(14))
        assert len(store) == 250
        assert np.all(store.scores > 0.0)
        assert np.all(store.scores <= 1.0)

    def test_stored_latent_self_query(self):
        model = new_model(20, 5, seed=15)
        store = build_calibration_store(model, 100, "simple", derive_rng(16))
        hit = store.query(store.latents[17], 1, metric="l2")
        assert hit.keys[0] == 0.0
        assert hit.ids[0] == 17

    def test_unknown_score_kind(self):
        model = new_model(5, 3, seed=0)
        with pytest.raises(ValueError, match="score kind"):
            build_calibration_store(model, 10, "fancy", derive_rng(0))


class TestExchangeabilityByConstruction:
    def test_split_conformal_coverage_on_replay(self):
        model = new_model(40, 8, seed=17)
        chain = generate(model, 1050, derive_rng(18))
        cal, test = chain[50:550], chain[550:]
        from uqkit.synthetic import nonconformity

        scores = [nonconformity("adaptive", s.probs, s.gold) for s in cal]
        alpha = 0.1
        q_hat = split_quantile(scores, alpha)
        covered = [s.gold in build_set_adaptive(s.probs, q_hat) for s in test]
        rate = np.mean(covered)
        se = np.sqrt(alpha * (1 - alpha) / len(test))
        assert rate >= 1 - alpha - 3 * se
