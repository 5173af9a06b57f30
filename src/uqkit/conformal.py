"""Split and nearest-neighbor-weighted conformal prediction.

Non-conformity scores, calibration quantiles (exchangeable and weighted),
prediction-set construction, RBF relevance weights, the composed per-step
generation routine, and the stochastic temperature search.

Quantile levels are compared with a 1e-9 slack so that mathematically exact
boundaries such as (N+1)*(1-alpha) landing on an integer are not perturbed by
float representation error; the slack is far below the 1/(N+1) mass resolution
of any calibration set this package targets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

_LEVEL_SLACK = 1e-9


class _FullSet:
    """Sentinel quantile meaning "insufficient calibration mass: keep every class"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FULL_SET"


FULL_SET = _FullSet()


def is_full_set(q_hat) -> bool:
    return q_hat is FULL_SET


def as_prob_vector(probs) -> np.ndarray:
    """Validate a categorical distribution (entries in [0,1], unit sum, >= 2 classes)."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.size < 2:
        raise ValueError("probability vector needs at least two classes")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # written so that NaN fails it
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return p


@dataclass(frozen=True)
class PredictionSet:
    """Retained class ids in descending-probability order plus the quantile used."""

    indices: tuple[int, ...]
    q_hat: object  # float in [0, 1] or FULL_SET

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, label: int) -> bool:
        return label in self.indices


@dataclass(frozen=True)
class WeightedCalibration:
    """Non-conformity scores with per-point relevance weights."""

    scores: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if scores.size != weights.size:
            raise ValueError("scores and weights must have equal length")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError("weights must be finite and non-negative")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "weights", weights)


def _descending_order(p: np.ndarray) -> np.ndarray:
    """Stable descending sort order; ties broken by ascending class id."""
    return np.argsort(-p, kind="stable")


def score_simple(probs, label: int) -> float:
    """Non-conformity as one minus the probability assigned to the label."""
    p = as_prob_vector(probs)
    if not 0 <= label < p.size:
        raise ValueError("label out of range")
    return float(1.0 - p[label])


def score_adaptive(probs, label: int) -> float:
    """Cumulative descending-sorted probability mass up to and including the label."""
    p = as_prob_vector(probs)
    if not 0 <= label < p.size:
        raise ValueError("label out of range")
    order = _descending_order(p)
    position = int(np.nonzero(order == label)[0][0])
    return min(float(p[order[: position + 1]].sum()), 1.0)


def split_quantile(scores, alpha: float):
    """The ceil((N+1)(1-alpha))-th smallest score, or FULL_SET when that index exceeds N."""
    s = np.asarray(scores, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("empty scores")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rank = math.ceil((s.size + 1) * (1.0 - alpha) - _LEVEL_SLACK)
    if rank > s.size:
        return FULL_SET
    return float(np.sort(s, kind="stable")[rank - 1])


def weighted_quantile(cal: WeightedCalibration, alpha: float):
    """Smallest score whose normalized cumulative weight reaches 1 - alpha.

    Weights are normalized as w_i / (1 + sum(w)); when even the total
    normalized mass stays below 1 - alpha the quantile is FULL_SET. With unit
    weights this reduces exactly to split_quantile.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    normalized = cal.weights / (1.0 + cal.weights.sum())
    order = np.argsort(cal.scores, kind="stable")
    sorted_scores = cal.scores[order]
    cumulative = np.cumsum(normalized[order])
    # Mass at a score value must include every point tied at that value.
    last_of_run = np.nonzero(np.diff(sorted_scores, append=np.inf) != 0.0)[0]
    mass_at_value = cumulative[last_of_run]
    reached = np.nonzero(mass_at_value >= (1.0 - alpha) - _LEVEL_SLACK)[0]
    if reached.size == 0:
        return FULL_SET
    return float(sorted_scores[last_of_run[reached[0]]])


def rbf_weights(dists, tau: float, metric: str = "l2") -> np.ndarray:
    """RBF relevance weights from neighbor distances or similarities.

    Squared-l2 distances map to exp(-d / tau); inner-product and cosine
    similarities map to exp(+sim / tau). Exponents are clamped to +-700 to
    keep exp() finite.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = np.asarray(dists, dtype=float)
    if metric == "l2":
        exponent = -d / tau
    elif metric in ("ip", "cos"):
        exponent = d / tau
    else:
        raise ValueError(f"unknown metric: {metric!r}")
    return np.exp(np.clip(exponent, -700.0, 700.0))


def build_set_adaptive(probs, q_hat) -> PredictionSet:
    """Smallest descending-probability prefix whose mass reaches q_hat, never empty.

    The retained size is sup{c : cumulative mass of top-c classes < q_hat} + 1
    with sup of the empty set taken as 0; FULL_SET keeps the whole vocabulary.
    """
    p = as_prob_vector(probs)
    order = _descending_order(p)
    if is_full_set(q_hat):
        return PredictionSet(indices=tuple(int(i) for i in order), q_hat=FULL_SET)
    q = min(max(float(q_hat), 0.0), 1.0)
    cumulative = np.cumsum(p[order])
    size = min(int(np.count_nonzero(cumulative < q)) + 1, p.size)
    return PredictionSet(indices=tuple(int(i) for i in order[:size]), q_hat=q)


def build_set_threshold(probs, q_hat) -> PredictionSet:
    """All classes with probability >= 1 - q_hat; may be empty for small q_hat."""
    p = as_prob_vector(probs)
    order = _descending_order(p)
    if is_full_set(q_hat):
        return PredictionSet(indices=tuple(int(i) for i in order), q_hat=FULL_SET)
    q = float(q_hat)
    keep = order[p[order] >= 1.0 - q]
    return PredictionSet(indices=tuple(int(i) for i in keep), q_hat=q)


def knn_set(neighbors, probs, alpha: float, tau: float, metric: str = "l2") -> PredictionSet:
    """The tau-dependent half of a step: weight retrieved neighbors, find q_hat, build the set."""
    weights = rbf_weights(neighbors.keys, tau, metric=metric)
    q_hat = weighted_quantile(WeightedCalibration(scores=neighbors.scores, weights=weights), alpha)
    return build_set_adaptive(probs, q_hat)


def conformal_generate_step(store, latent, probs, alpha: float, k: int, tau: float,
                            metric: str = "l2") -> PredictionSet:
    """One generation step: retrieve neighbors, weight, find q_hat, build the set."""
    if len(store) == 0:
        raise ValueError("empty datastore")
    if k > len(store):
        logger.warning("k=%d exceeds datastore size %d; using the entire store", k, len(store))
    return knn_set(store.query(latent, k, metric=metric), probs, alpha, tau, metric=metric)


def temperature_search(coverage_eval, alpha: float, tau_min: float, tau_max: float,
                       eta: float = 0.1, steps: int = 20,
                       rng: np.random.Generator | None = None) -> float:
    """Stochastic hill climb on the RBF temperature toward coverage 1 - alpha.

    Starts at tau_0 ~ U[tau_min, tau_max] and proposes
    tau_{t+1} = tau_t + eta * eps * sign(1 - alpha - coverage(tau_t)),
    clamping candidates into the search interval; returns the visited tau with
    the smallest coverage gap. The Gaussian draw eps ~ N(0, (tau_max -
    tau_min)^2) acts as the step magnitude (its absolute value is used) so
    that the coverage-gap sign alone decides the direction.
    """
    if not tau_min < tau_max:
        raise ValueError("tau_min must be smaller than tau_max")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    target = 1.0 - alpha

    def gap_of(tau: float) -> float:
        coverage = float(coverage_eval(tau))
        if not math.isfinite(coverage):
            raise ValueError("coverage evaluation returned a non-finite value")
        return coverage - target

    tau = float(rng.uniform(tau_min, tau_max))
    gap = gap_of(tau)
    best_tau, best_gap = tau, abs(gap)
    for _ in range(steps):
        if best_gap == 0.0:
            return best_tau
        noise = abs(rng.normal(0.0, tau_max - tau_min))
        tau = tau + eta * noise * float(np.sign(-gap))
        tau = min(max(tau, tau_min), tau_max)
        gap = gap_of(tau)
        if abs(gap) < best_gap:
            best_tau, best_gap = tau, abs(gap)
    return best_tau
