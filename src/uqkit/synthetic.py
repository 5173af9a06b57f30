"""Seeded synthetic sequence model for desk-scale conformal experiments.

A linear emission head over a bounded nonlinear latent recurrence stands in
for a neural decoder: gold tokens are sampled from the emitted distribution,
so calibration and test scores are exchangeable by construction, and additive
latent noise reproduces the distribution-shift protocol without any network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import score_adaptive, score_simple
from .datastore import Datastore


@dataclass(frozen=True)
class SynthModel:
    """Emission matrix, latent mixing matrix, and generation hyperparameters."""

    emission: np.ndarray   # V x d
    mixing: np.ndarray     # d x d
    noise_std: float
    temperature: float

    def __post_init__(self):
        if self.emission.ndim != 2 or self.mixing.ndim != 2:
            raise ValueError("emission and mixing must be matrices")
        v, d = self.emission.shape
        if v < 2 or d < 2 or self.mixing.shape != (d, d):
            raise ValueError("need V >= 2, d >= 2, and a d x d mixing matrix")
        if not (np.all(np.isfinite(self.emission)) and np.all(np.isfinite(self.mixing))):
            raise ValueError("model matrices must be finite")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def vocab_size(self) -> int:
        return self.emission.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.emission.shape[1]


@dataclass(frozen=True)
class StepTriple:
    """One generation step: the emitting latent, its distribution, and the gold token."""

    latent: np.ndarray
    probs: np.ndarray
    gold: int


def new_model(vocab_size: int, latent_dim: int, seed: int, temperature: float = 1.0,
              noise_std: float = 0.02) -> SynthModel:
    """Gaussian-initialized model; identical seeds give identical models.

    The emission scale keeps token distributions moderately peaked (top-1 mass
    around 15-25% at temperature 1), and the small process noise keeps latents
    on a thin attractor so that injected test-time noise visibly stretches
    nearest-neighbor distances.
    """
    if vocab_size < 2 or latent_dim < 2:
        raise ValueError("need vocab_size >= 2 and latent_dim >= 2")
    rng = np.random.default_rng(seed)
    emission = rng.normal(size=(vocab_size, latent_dim)) * (4.0 / np.sqrt(latent_dim))
    mixing = rng.normal(size=(latent_dim, latent_dim)) * (1.2 / np.sqrt(latent_dim))
    return SynthModel(emission=emission, mixing=mixing, noise_std=noise_std,
                      temperature=temperature)


def step_probs(model: SynthModel, latent: np.ndarray) -> np.ndarray:
    """Token distribution softmax(emission @ latent / temperature)."""
    logits = model.emission @ latent / model.temperature
    logits -= logits.max()
    expl = np.exp(logits)
    return expl / expl.sum()


def sample_step(model: SynthModel, latent: np.ndarray, rng: np.random.Generator) -> StepTriple:
    """Emit the distribution for `latent` and draw the gold token from it."""
    probs = step_probs(model, latent)
    gold = int(rng.choice(model.vocab_size, p=probs))
    return StepTriple(latent=np.asarray(latent, dtype=float).copy(), probs=probs, gold=gold)


def generate(model: SynthModel, num_steps: int, rng: np.random.Generator,
             init_latent: np.ndarray | None = None) -> list[StepTriple]:
    """Roll the latent recurrence z' = tanh(M z) + noise for num_steps emissions."""
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    d = model.latent_dim
    z = rng.normal(size=d) if init_latent is None else np.asarray(init_latent, dtype=float).copy()
    steps = []
    for _ in range(num_steps):
        steps.append(sample_step(model, z, rng))
        z = np.tanh(model.mixing @ z) + rng.normal(0.0, model.noise_std, size=d)
    return steps


def inject_noise(latent: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add isotropic N(0, sigma^2) noise per coordinate."""
    if not sigma >= 0:  # written so that NaN fails it
        raise ValueError("sigma must be non-negative")
    arr = np.asarray(latent, dtype=float)
    return arr + rng.normal(0.0, 1.0, size=arr.shape) * sigma


_SCORERS = {"adaptive": score_adaptive, "simple": score_simple}


def nonconformity(score_kind: str, probs: np.ndarray, gold: int) -> float:
    try:
        return _SCORERS[score_kind](probs, gold)
    except KeyError:
        raise ValueError(f"unknown score kind: {score_kind!r}") from None


def build_calibration_store(model: SynthModel, num_steps: int, score_kind: str,
                            rng: np.random.Generator) -> Datastore:
    """Teacher-forced collection: store every step's latent with its gold score."""
    steps = generate(model, num_steps, rng)
    store = Datastore(model.latent_dim)
    latents = np.stack([s.latent for s in steps])
    scores = np.array([nonconformity(score_kind, s.probs, s.gold) for s in steps])
    store.add_batch(latents, scores)
    return store
