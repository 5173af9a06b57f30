"""Seeded synthetic sequence model for desk-scale conformal experiments.

A linear emission head over a bounded nonlinear latent recurrence stands in
for a neural decoder: gold tokens are sampled from the emitted distribution,
so calibration and test scores are exchangeable by construction, and additive
latent noise reproduces the distribution-shift protocol without any network.
`generate` returns one `Chain`: aligned step columns of latents, emitted
distributions and gold tokens, which slice together. `calibration_store`
scores a whole chain at once, with the class that also builds the test sets
of its score kind.
"""

from __future__ import annotations

import numpy as np

from .conformal import as_prob_matrix, score_rule
from .datastore import Datastore

# Float64 values per block of the gold-token pass (1 MB): its temporaries are
# (steps, V) arrays, and one block of all steps held about three of them beside
# the probs, which at V 1,000 and 5,000 steps raised generate's peak RSS by 76 MB.
_GOLD_BLOCK_ELEMENTS = 1 << 17


class SynthModel:
    """Emission matrix (V x d), latent mixing matrix (d x d), and generation hyperparameters."""

    __slots__ = ("emission", "mixing", "noise_std", "temperature")

    def __init__(self, emission: np.ndarray, mixing: np.ndarray, noise_std: float,
                 temperature: float):
        if emission.ndim != 2 or mixing.ndim != 2:
            raise ValueError("emission and mixing must be matrices")
        v, d = emission.shape
        if v < 2 or d < 2 or mixing.shape != (d, d):
            raise ValueError("need V >= 2, d >= 2, and a d x d mixing matrix")
        if not (np.all(np.isfinite(emission)) and np.all(np.isfinite(mixing))):
            raise ValueError("model matrices must be finite")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.emission, self.mixing = emission, mixing
        self.noise_std, self.temperature = noise_std, temperature

    @property
    def vocab_size(self) -> int:
        return self.emission.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.emission.shape[1]


class Chain:
    """Generated steps as aligned columns: latents (T, d), distributions (T, V), golds (T,)."""

    __slots__ = ("latents", "probs", "golds")

    def __init__(self, latents: np.ndarray, probs: np.ndarray, golds: np.ndarray):
        self.latents, self.probs, self.golds = latents, probs, golds

    def __len__(self) -> int:
        return self.golds.size

    def __getitem__(self, steps: slice) -> Chain:
        if not isinstance(steps, slice):
            raise TypeError("a Chain is indexed by step slices")
        return Chain(self.latents[steps], self.probs[steps], self.golds[steps])


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


def step_probs(model: SynthModel, latents: np.ndarray) -> np.ndarray:
    """Token distribution softmax(emission @ z / temperature) of a latent z, or of each
    row of a (T, d) latent matrix as a (T, V) matrix.

    Each row is one gemv of the emission matrix, so a row of the batch equals the
    call on that row to the bit.
    """
    logits = np.matmul(model.emission, latents[..., None])[..., 0] / model.temperature
    logits -= logits.max(axis=-1, keepdims=True)
    expl = np.exp(logits)
    return expl / expl.sum(axis=-1, keepdims=True)


def generate(model: SynthModel, num_steps: int, rng: np.random.Generator,
             init_latent: np.ndarray | None = None) -> Chain:
    """Roll the latent recurrence z' = tanh(M z) + noise for num_steps emissions.

    Each step emits its distribution, draws the gold token from it, then draws
    the recurrence noise, in that order on `rng`. The gold draw is
    `rng.choice(V, p=probs)`'s: one uniform u per step, taken in the loop, and
    the count of entries <= u in the normalized cumsum of the step's probs,
    taken after it for bounded blocks of steps at once. Each block of
    distributions meets `as_prob_matrix`, the check the set classes run on the
    same rows.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    d, v = model.latent_dim, model.vocab_size
    latents = np.empty((num_steps, d))
    uniforms = np.empty(num_steps)
    z = rng.normal(size=d) if init_latent is None else np.asarray(init_latent, dtype=float)
    for t in range(num_steps):
        latents[t] = z
        uniforms[t] = rng.random()
        z = np.tanh(model.mixing @ z) + rng.normal(0.0, model.noise_std, size=d)
    probs = np.empty((num_steps, v))
    golds = np.empty(num_steps, dtype=np.int64)
    step = max(1, _GOLD_BLOCK_ELEMENTS // v)
    for start in range(0, num_steps, step):
        block = slice(start, start + step)
        probs[block] = as_prob_matrix(step_probs(model, latents[block]))
        cdf = probs[block].cumsum(axis=1)
        cdf /= cdf[:, -1:]
        golds[block] = np.count_nonzero(cdf <= uniforms[block, None], axis=1)
    return Chain(latents, probs, golds)


def inject_noise(latent: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add isotropic N(0, sigma^2) noise per coordinate."""
    if not sigma >= 0:  # written so that NaN fails it
        raise ValueError("sigma must be non-negative")
    arr = np.asarray(latent, dtype=float)
    return arr + rng.normal(0.0, 1.0, size=arr.shape) * sigma


def nonconformity(score_kind: str, probs: np.ndarray, golds: np.ndarray) -> np.ndarray:
    """The gold score of every row of a (T, V) distribution matrix, under `score_kind`."""
    return score_rule(score_kind)(probs, golds).scores()


def calibration_store(chain: Chain, score_kind: str) -> Datastore:
    """Teacher-forced collection: store every step's latent with its gold score."""
    store = Datastore(chain.latents.shape[1])
    store.add_batch(chain.latents, nonconformity(score_kind, chain.probs, chain.golds))
    return store
