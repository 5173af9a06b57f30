"""Brute-force reference implementations used to check the library routines.

Everything here is deliberately independent of the code paths under test:
plain loops, or for ASO the uncompressed computation on every grid point.
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
    """Best-first indices by exhaustive python-loop search."""
    dim = len(query)
    keyed = []
    for i, vec in enumerate(latents):
        vec = np.asarray(vec, dtype=np.float64)
        q = np.asarray(query, dtype=np.float64)
        if metric == "l2":
            key = float(((vec - q) ** 2).sum())
        elif metric == "ip":
            key = float(vec @ q) / math.sqrt(dim)
        else:
            denom = float(np.linalg.norm(vec) * np.linalg.norm(q))
            key = float(vec @ q / denom) if denom > 0 else 0.0
        keyed.append((key, i))
    reverse = metric != "l2"
    keyed.sort(key=lambda item: (-item[0] if reverse else item[0], item[1]))
    return [i for _, i in keyed[:k]]


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
