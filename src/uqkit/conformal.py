"""Split and nearest-neighbor-weighted conformal prediction.

Non-conformity scores, calibration quantiles (exchangeable and weighted),
prediction sets, RBF relevance weights and the stochastic temperature search.
Each score kind is one class (`SCORE_RULES`) that computes both the calibration
scores and the test sets of a (steps, classes) matrix. One weighted-quantile
core serves `KnnQuantiles` and `weighted_quantile`; `conformal_generate_step`
is one `KnnQuantiles` row.

FULL_SET, "keep every class", is the quantile q_hat = +inf: the weighted
quantile puts the leftover mass 1 / (1 + sum(w)) at +inf, so when the
calibration mass never reaches 1 - alpha the quantile is that point mass at
infinity. Every quantile, scalar or per row, is one float.

Quantile levels are compared with a 1e-9 slack so that mathematically exact
boundaries such as (N+1)*(1-alpha) landing on an integer are not perturbed by
float representation error; the slack is far below the 1/(N+1) mass resolution
of any calibration set this package targets.
"""

from __future__ import annotations

import math

import numpy as np

_LEVEL_SLACK = 1e-9
_SEARCH_ETA = 0.1  # the temperature search's step size, eta


FULL_SET = math.inf  # the quantile when the calibration mass falls short: keep every class


def is_full_set(q_hat) -> bool:
    return q_hat == FULL_SET


def as_prob_matrix(probs) -> np.ndarray:
    """Validate one categorical distribution per row (entries in [0,1], unit sums, >= 2 classes)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise ValueError("expected one probability vector per row")
    if p.shape[1] < 2:
        raise ValueError("probability vector needs at least two classes")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # written so that NaN fails it
        raise ValueError("probabilities must lie in [0, 1]")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1")
    return p


def as_prob_vector(probs) -> np.ndarray:
    """Validate a categorical distribution (entries in [0,1], unit sum, >= 2 classes)."""
    return as_prob_matrix(np.reshape(np.asarray(probs, dtype=float), (1, -1)))[0]


class PredictionSet:
    """Retained class ids in descending-probability order plus the quantile used."""

    __slots__ = ("indices", "q_hat")

    def __init__(self, indices: tuple[int, ...], q_hat: float):
        self.indices = indices
        self.q_hat = q_hat  # in [0, 1], or FULL_SET (+inf)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, label: int) -> bool:
        return label in self.indices


class WeightedCalibration:
    """Non-conformity scores with per-point relevance weights."""

    __slots__ = ("scores", "weights")

    def __init__(self, scores, weights):
        scores = np.asarray(scores, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if scores.size != weights.size:
            raise ValueError("scores and weights must have equal length")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError("weights must be finite and non-negative")
        self.scores, self.weights = scores, weights


def _descending_order(p: np.ndarray) -> np.ndarray:
    """Stable descending sort order along the last axis; ties broken by ascending class id."""
    return np.argsort(-p, axis=-1, kind="stable")


def split_quantile(scores, alpha: float):
    """The ceil((N+1)(1-alpha))-th smallest score, or FULL_SET when that index exceeds N."""
    s = np.asarray(scores, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("empty scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rank = math.ceil((s.size + 1) * (1.0 - alpha) - _LEVEL_SLACK)
    if rank > s.size:
        return FULL_SET
    return float(np.sort(s, kind="stable")[rank - 1])


def _quantile_level(alpha: float) -> float:
    """The cumulative-mass level 1 - alpha, less the slack; ValueError unless 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return (1.0 - alpha) - _LEVEL_SLACK


def _first_reaching(sorted_scores: np.ndarray, order: np.ndarray, weights: np.ndarray,
                    level: float) -> np.ndarray:
    """q_hat per row: the smallest score whose cumulative weight w_i / (1 + sum(w)),
    summed in the stable score `order`, reaches `level`; FULL_SET where none does.

    Tied scores need no run ends: the cumulative mass never decreases and a
    run shares one score, so the first position that reaches the level names
    the same score as the end of its run.
    """
    normalized = weights / (1.0 + weights.sum(axis=1, keepdims=True))
    cumulative = np.cumsum(np.take_along_axis(normalized, order, axis=1), axis=1)
    reached = cumulative >= level
    first = reached.argmax(axis=1)
    rows = np.arange(first.size)
    return np.where(reached[rows, first], sorted_scores[rows, first], FULL_SET)


def weighted_quantile(cal: WeightedCalibration, alpha: float):
    """Smallest score whose normalized cumulative weight reaches 1 - alpha.

    Weights are normalized as w_i / (1 + sum(w)); when even the total
    normalized mass stays below 1 - alpha the quantile is FULL_SET. With unit
    weights this reduces exactly to split_quantile. One `KnnQuantiles` row.
    """
    level = _quantile_level(alpha)
    if cal.scores.size == 0:  # no calibration mass at all
        return FULL_SET
    order = np.argsort(cal.scores, kind="stable")[None]
    return float(_first_reaching(cal.scores[order], order, cal.weights[None], level)[0])


def rbf_weights(keys, tau: float) -> np.ndarray:
    """RBF relevance weights exp(-key / tau) of neighbor keys.

    Keys are distances: smaller is nearer (the datastore's ip and cos keys are
    negated similarities). Exponents are clamped to +-700 to keep exp() finite; one
    that overflows to +-inf (a tiny tau) is clamped too.
    """
    if not tau > 0:  # written so that NaN fails it
        raise ValueError("tau must be positive")
    with np.errstate(over="ignore"):
        exponents = np.asarray(keys, dtype=float) / -tau
    return np.exp(np.clip(exponents, -700.0, 700.0))


def build_set_adaptive(probs, q_hat) -> PredictionSet:
    """Smallest descending-probability prefix whose mass reaches q_hat, never empty: one
    `AdaptiveSets` row, whose `sizes` states the rule. FULL_SET keeps the whole vocabulary.
    """
    sets = AdaptiveSets(np.reshape(probs, (1, -1)), [0])  # sizes do not read the label
    q = float(q_hat)
    size = int(sets.sizes(np.array([q]))[0])
    return PredictionSet(indices=tuple(int(i) for i in sets.order[0, :size]),
                         q_hat=q if is_full_set(q) else min(max(q, 0.0), 1.0))


class KnnQuantiles:
    """The weighted q_hat of every row of a (steps, k) `Neighbors` block, at any tau.

    The neighbor keys are distances, smaller is nearer, so row i at temperature
    tau is `weighted_quantile` of row i's scores under `rbf_weights` of its
    keys: both run `_first_reaching`. The stable score order does not depend on
    tau, so it is computed once here and reused by every call.
    """

    def __init__(self, neighbors, alpha: float):
        self._level = _quantile_level(alpha)
        scores = np.asarray(neighbors.scores, dtype=float)
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        self._keys = np.asarray(neighbors.keys, dtype=float)
        self._order = np.argsort(scores, axis=1, kind="stable")
        self._sorted = np.take_along_axis(scores, self._order, axis=1)

    def __call__(self, tau: float) -> np.ndarray:
        """The per-row quantile, FULL_SET where the row's mass falls short."""
        weights = rbf_weights(self._keys, tau)
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        return _first_reaching(self._sorted, self._order, weights, self._level)


def _as_labels(labels, p: np.ndarray) -> np.ndarray:
    """One in-range class id per row of the probability matrix `p`."""
    labels = np.asarray(labels, dtype=int).ravel()
    if labels.size != p.shape[0]:
        raise ValueError("need one label per probability vector")
    if np.any((labels < 0) | (labels >= p.shape[1])):
        raise ValueError("label out of range")
    return labels


class AdaptiveSets:
    """Adaptive label scores and `build_set_adaptive` sets of each row of a (steps, classes) matrix.

    A label's score is the descending-probability mass up to and including
    it. The prefix sums and the mass ranked before each label do not depend
    on q_hat, so they are computed once here. A label is in its row's set iff
    the set is FULL_SET, or the label is the top class, or the mass ranked
    before it is below the clamped q_hat. FULL_SET is tested, not clamped: the
    clamp maps +inf to 1, and a descending cumsum may round to 1.0 before its
    last class.
    """

    def __init__(self, probs, labels):
        p = as_prob_matrix(probs)
        labels = _as_labels(labels, p)
        self.order = order = _descending_order(p)  # class ids, most probable first
        self._sorted = np.take_along_axis(p, order, axis=1)
        self._cumulative = np.cumsum(self._sorted, axis=1)
        rows = np.arange(labels.size)
        self._position = position = np.argmax(order == labels[:, None], axis=1)
        # -inf keeps the top class in every set, even at q_hat = 0.
        self._before_label = np.where(position > 0, self._cumulative[rows, position - 1],
                                      -np.inf)

    def scores(self) -> np.ndarray:
        """Per-row label score: the descending mass up to and including the label, at most 1.

        Each row's prefix is summed on its own, with one row sum per prefix
        length, so it equals `sorted_row[:position + 1].sum()` to the bit; a
        cumsum adds in another order and differs in the last bits.
        """
        lengths = self._position + 1
        mass = np.empty(lengths.size)
        for length in np.flatnonzero(np.bincount(lengths)):
            rows = np.flatnonzero(lengths == length)
            mass[rows] = self._sorted[rows, :length].sum(axis=1)
        return np.minimum(mass, 1.0)

    def sizes(self, q_hat: np.ndarray) -> np.ndarray:
        """Per-row set size: the descending prefix reaching the clamped q_hat, never empty.

        The size is sup{c : cumulative mass of the top c classes < q_hat} + 1, with sup
        of the empty set taken as 0, and at most the vocabulary.
        """
        q = np.clip(q_hat, 0.0, 1.0)
        vocab = self._cumulative.shape[1]
        below = np.count_nonzero(self._cumulative < q[:, None], axis=1)
        return np.where(q_hat == FULL_SET, vocab, np.minimum(below + 1, vocab))

    def covers(self, q_hat: np.ndarray) -> np.ndarray:
        """Per-row flag: the row's label is in its set."""
        return (q_hat == FULL_SET) | (self._before_label < np.clip(q_hat, 0.0, 1.0))


class ThresholdSets:
    """Simple label scores, 1 - p, and threshold sets for every row of a (steps, classes) matrix.

    A label is in its row's set iff its score is <= q_hat; every score is
    <= FULL_SET. A set may be empty.
    """

    def __init__(self, probs, labels):
        p = as_prob_matrix(probs)
        labels = _as_labels(labels, p)
        self._scores = 1.0 - p
        self._label_scores = self._scores[np.arange(labels.size), labels]

    def scores(self) -> np.ndarray:
        """Per-row label score, 1 - p[label]."""
        return self._label_scores

    def sizes(self, q_hat: np.ndarray) -> np.ndarray:
        """Per-row set size: the number of labels whose score is <= q_hat."""
        return np.count_nonzero(self._scores <= np.asarray(q_hat)[:, None], axis=1)

    def covers(self, q_hat: np.ndarray) -> np.ndarray:
        """Per-row flag: the row's label is in its set."""
        return self._label_scores <= q_hat


# Each kind's class scores the calibration steps and builds the test sets, so both
# follow one rule.
SCORE_RULES = {"adaptive": AdaptiveSets, "simple": ThresholdSets}


def score_rule(kind: str) -> type:
    """`SCORE_RULES[kind]`, or ValueError naming an unknown kind."""
    try:
        return SCORE_RULES[kind]
    except KeyError:
        raise ValueError(f"unknown score kind: {kind!r}") from None


def conformal_generate_step(store, latent, probs, alpha: float, k: int, tau: float,
                            metric: str = "l2") -> PredictionSet:
    """One generation step's adaptive set: the one-row case of `query_batch` + `KnnQuantiles`.
    A k beyond the store's size uses the whole store."""
    neighbors = store.query_batch(np.reshape(latent, (1, -1)), k, metric=metric)
    q_hat = KnnQuantiles(neighbors, alpha)(tau)
    return build_set_adaptive(probs, float(q_hat[0]))


def temperature_search(coverage_eval, alpha: float, tau_min: float, tau_max: float,
                       steps: int = 20, *, rng: np.random.Generator) -> float:
    """Stochastic hill climb on the RBF temperature toward coverage 1 - alpha.

    Starts at tau_0 ~ U[tau_min, tau_max] and proposes
    tau_{t+1} = tau_t + eta * eps * sign(1 - alpha - coverage(tau_t)), with
    eta = 0.1, clamping candidates into the search interval; returns the
    visited tau with the smallest coverage gap. The Gaussian draw eps ~ N(0,
    (tau_max - tau_min)^2) acts as the step magnitude (its absolute value is
    used) so that the coverage-gap sign alone decides the direction.
    """
    if not tau_min < tau_max:
        raise ValueError("tau_min must be smaller than tau_max")
    if steps < 1:
        raise ValueError("steps must be >= 1")
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
        tau = tau + _SEARCH_ETA * noise * float(np.sign(-gap))
        tau = min(max(tau, tau_min), tau_max)
        gap = gap_of(tau)
        if abs(gap) < best_gap:
            best_tau, best_gap = tau, abs(gap)
    return best_tau
