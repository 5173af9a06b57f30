"""Brute-force reference implementations used to check the library routines.

Everything here is deliberately independent of the code paths under test:
plain loops, one row at a time, or the computation a batched or compressed
routine replaced (ASO on every grid point, the weighted quantile by run ends).
"""

import math

import numpy as np


def ece_oracle(confidences, correct, num_bins):
    edges = [m / num_bins for m in range(num_bins + 1)]
    totals = [0] * num_bins
    conf_sums = [0.0] * num_bins
    hit_sums = [0.0] * num_bins
    for c, h in zip(confidences, correct):
        bin_id = num_bins - 1
        for m in range(num_bins):
            if edges[m] <= c < edges[m + 1]:
                bin_id = m
                break
        totals[bin_id] += 1
        conf_sums[bin_id] += c
        hit_sums[bin_id] += h
    value = 0.0
    n = len(confidences)
    for m in range(num_bins):
        if totals[m]:
            value += totals[m] / n * abs(hit_sums[m] / totals[m] - conf_sums[m] / totals[m])
    return value


def coverage_oracle(sizes, covered, alpha, num_bins, vocab):
    """Returns (ecg, ssc) from a per-bin loop."""
    edges = [b * vocab / num_bins for b in range(num_bins + 1)]
    bins = [[] for _ in range(num_bins)]
    for size, hit in zip(sizes, covered):
        bin_id = num_bins - 1
        for b in range(num_bins):
            if edges[b] <= size < edges[b + 1]:
                bin_id = b
                break
        bins[bin_id].append(hit)
    n = len(sizes)
    ecg = 0.0
    ssc = None
    for members in bins:
        if members:
            cov = sum(members) / len(members)
            ecg += len(members) / n * max(1 - alpha - cov, 0.0)
            ssc = cov if ssc is None else min(ssc, cov)
    return ecg, ssc


def auroc_pair_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = wins = 0.0
    for p in pos:
        for q in neg:
            total += 1
            if p > q:
                wins += 1
            elif p == q:
                wins += 0.5
    return wins / total


def aupr_oracle(scores, labels):
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(labels)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and not l)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def kendall_oracle(x, y):
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def mi_oracle(matrix):
    """Two-pass loop: entropy of the mean row minus mean row entropy."""
    b = len(matrix)
    k = len(matrix[0])
    mean_row = [sum(matrix[i][j] for i in range(b)) / b for j in range(k)]
    h_mean = -sum(p * math.log(p) for p in mean_row if p > 0)
    h_rows = [-sum(p * math.log(p) for p in row if p > 0) for row in matrix]
    return h_mean - sum(h_rows) / b


def linear_scan_oracle(latents, query, k, metric):
    """(keys, ids) of the k nearest rows by exhaustive python-loop search in float64.

    Keys are distances, smaller is nearer: squared l2, or the negated normalized
    inner product or cosine similarity. Equal keys keep row order.
    """
    q = np.asarray(query, dtype=np.float64)
    keyed = []
    for i, vec in enumerate(latents):
        vec = np.asarray(vec, dtype=np.float64)
        if metric == "l2":
            key = float(((vec - q) ** 2).sum())
        elif metric == "ip":
            key = -float(vec @ q) / math.sqrt(len(q))
        else:
            denom = float(np.linalg.norm(vec) * np.linalg.norm(q))
            key = -float(vec @ q / denom) if denom > 0 else 0.0
        keyed.append((key, i))
    keyed.sort()
    return [key for key, _ in keyed[:k]], [i for _, i in keyed[:k]]


def exact_query_oracle(latents, query, k, metric):
    """(keys, ids) of one query's nearest k rows: float32 keys against every row, one
    query at a time, then a stable argsort, so equal keys keep row order.

    The arithmetic `Datastore` ran per query before it searched blocks of
    queries with a partial sort; `Datastore.query`, `query_batch` and the scan
    of `query_ivf` must equal it bit for bit. The ip and cos keys are negated
    similarities, so every metric's keys are distances.
    """
    rows = np.asarray(latents, dtype=np.float32)
    q = np.asarray(query, dtype=np.float32).ravel()
    if metric == "l2":
        diff = rows - q[None, :]
        keys = np.einsum("ij,ij->i", diff, diff).astype(np.float64)
    elif metric == "ip":
        keys = -(rows @ q).astype(np.float64) / np.sqrt(rows.shape[1])
    else:
        norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(q)
        with np.errstate(invalid="ignore", divide="ignore"):
            keys = -np.where(norms > 0.0, (rows @ q) / norms, 0.0).astype(np.float64)
    ids = np.argsort(keys, kind="stable")[:k]
    return keys[ids], ids


def aso_grid_oracle(a, b, alpha, num_bootstrap, dt, rng):
    """ASO evaluated at every point of the grid t = dt, 2*dt, ... < 1, not per run.

    Makes the same rng draws as `significance.aso` (the resamples of `a`, then
    of `b`) and returns its (eps_min, violation_ratio).
    """
    from scipy.special import ndtri

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = a.size, b.size
    grid = np.arange(dt, 1.0, dt)
    idx_a = np.clip(np.ceil(n * grid).astype(np.int64) - 1, 0, n - 1)
    idx_b = np.clip(np.ceil(m * grid).astype(np.int64) - 1, 0, m - 1)

    def ratio(f, g):
        sq = (g - f) ** 2 * dt
        denominator = sq.sum(axis=-1)
        numerator = np.where(f < g, sq, 0.0).sum(axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denominator == 0.0, 0.5, numerator / denominator)

    def resampled_grids(sample, idx):
        srt = np.sort(sample, kind="stable")
        draw_idx = np.ceil(srt.size * rng.random((num_bootstrap, srt.size))).astype(np.int64)
        resamples = srt[np.clip(draw_idx - 1, 0, srt.size - 1)]
        resamples.sort(axis=1)
        return resamples[:, idx]

    eps = float(ratio(np.sort(a)[idx_a], np.sort(b)[idx_b]))
    eps_star = ratio(resampled_grids(a, idx_a), resampled_grids(b, idx_b))
    scale = math.sqrt(n * m / (n + m))
    sigma_hat = float(np.std(scale * (eps_star - eps), ddof=1)) if num_bootstrap > 1 else 0.0
    eps_min = eps - math.sqrt((n + m) / (n * m)) * sigma_hat * float(ndtri(alpha))
    return min(max(eps_min, 0.0), 1.0), eps


def generate_oracle(model, num_steps, rng, init_latent=None):
    """The synthetic chain one step at a time: a list of (latent, probs, gold) per step.

    Draws on `rng` in `synthetic.generate`'s order: the initial latent (unless
    given), then per step the gold token and the recurrence noise.
    """
    from uqkit.synthetic import step_probs

    d = model.latent_dim
    z = rng.normal(size=d) if init_latent is None else np.asarray(init_latent, dtype=float).copy()
    steps = []
    for _ in range(num_steps):
        probs = step_probs(model, z)
        gold = int(rng.choice(model.vocab_size, p=probs))
        steps.append((z.copy(), probs, gold))
        z = np.tanh(model.mixing @ z) + rng.normal(0.0, model.noise_std, size=d)
    return steps


def weighted_quantile_oracle(cal, alpha):
    """Smallest score whose normalized cumulative weight reaches 1 - alpha, by run ends.

    The mass at a score value includes every point tied at that value, so the
    cumulative mass is read at the last position of each run of equal sorted
    scores. Weights are normalized as w_i / (1 + sum(w)); FULL_SET when even
    the total mass stays below 1 - alpha.
    """
    from uqkit.conformal import _LEVEL_SLACK, FULL_SET

    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    normalized = cal.weights / (1.0 + cal.weights.sum())
    order = np.argsort(cal.scores, kind="stable")
    sorted_scores = cal.scores[order]
    cumulative = np.cumsum(normalized[order])
    last_of_run = np.nonzero(np.diff(sorted_scores, append=np.inf) != 0.0)[0]
    mass_at_value = cumulative[last_of_run]
    reached = np.nonzero(mass_at_value >= (1.0 - alpha) - _LEVEL_SLACK)[0]
    if reached.size == 0:
        return FULL_SET
    return float(sorted_scores[last_of_run[reached[0]]])


def knn_set_oracle(neighbors, probs, alpha, tau):
    """One k-NN step's set: RBF-weight the retrieved neighbors, find q_hat by
    `weighted_quantile_oracle`, and build the adaptive set."""
    from uqkit.conformal import WeightedCalibration, build_set_adaptive, rbf_weights

    weights = rbf_weights(neighbors.keys, tau)
    q_hat = weighted_quantile_oracle(WeightedCalibration(scores=neighbors.scores,
                                                         weights=weights), alpha)
    return build_set_adaptive(probs, q_hat)


def build_set_threshold_oracle(probs, q_hat):
    """All classes whose score 1 - p is <= q_hat, in descending-probability order;
    may be empty. FULL_SET keeps every class."""
    from uqkit.conformal import FULL_SET, PredictionSet, is_full_set

    p = np.asarray(probs, dtype=float)
    order = np.argsort(-p, kind="stable")
    if is_full_set(q_hat):
        return PredictionSet(indices=tuple(int(i) for i in order), q_hat=FULL_SET)
    keep = order[1.0 - p[order] <= float(q_hat)]
    return PredictionSet(indices=tuple(int(i) for i in keep), q_hat=float(q_hat))


def label_score_oracle(score_kind, probs, label):
    """One step's gold score, one row at a time: the descending-probability mass up to
    and including the label ("adaptive", at most 1), or 1 - p[label] ("simple")."""
    p = np.asarray(probs, dtype=float)
    if score_kind == "simple":
        return float(1.0 - p[label])
    order = np.argsort(-p, kind="stable")
    position = int(np.nonzero(order == label)[0][0])
    return min(float(p[order[: position + 1]].sum()), 1.0)
