"""Calibration, coverage, discrimination, and predictive-uncertainty metrics.

Binning conventions (shared by ECE and the set-size coverage report): bins are
equal-width with left-inclusive edges, the top bin additionally includes the
right endpoint, and empty bins are skipped. All entropies use the natural
logarithm with 0*log(0) = 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .conformal import PredictionSet, as_prob_matrix, as_prob_vector
from .empirical import rankdata


def _bin_means(values: np.ndarray, upper: float, num_bins: int,
               *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """(counts, *means) of equal-width bins of `values` over [0, upper], the last bin
    right-inclusive: each column's mean per bin, +0.0 (a sum of +0.0 over 1) in an empty one."""
    if not num_bins >= 1:
        raise ValueError("need at least one bin")
    edges = np.arange(num_bins + 1) * (upper / num_bins)
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, num_bins - 1)
    counts = np.bincount(idx, minlength=num_bins)
    return (counts, *(np.bincount(idx, weights=c, minlength=num_bins) / np.maximum(counts, 1)
                      for c in columns))


def _check_unit_interval(conf: np.ndarray, hits: np.ndarray) -> None:
    """Raises unless every confidence and correctness flag lies in [0, 1]; NaN fails too."""
    if not (conf.min() >= 0.0 and conf.max() <= 1.0):  # written so that NaN fails it
        raise ValueError("confidences must lie in [0, 1]")
    if not (hits.min() >= 0.0 and hits.max() <= 1.0):  # written so that NaN fails it
        raise ValueError("correctness flags must lie in [0, 1]")


class BinReport(NamedTuple):
    """Per-bin counts and means behind a scalar calibration/coverage metric."""

    value: float
    counts: np.ndarray
    confidence: np.ndarray  # mean confidence (ECE) or bin coverage (coverage report)
    accuracy: np.ndarray


def ece(confidences, correct, num_bins: int = 10) -> BinReport:
    """Expected calibration error over equal-width confidence bins."""
    conf = np.asarray(confidences, dtype=float).ravel()
    hits = np.asarray(correct, dtype=float).ravel()
    if conf.size == 0:
        raise ValueError("empty input")
    if conf.size != hits.size:
        raise ValueError("confidences and correctness flags must have equal length")
    _check_unit_interval(conf, hits)
    counts, mean_conf, mean_acc = _bin_means(conf, 1.0, num_bins, conf, hits)
    value = float((counts / conf.size * np.abs(mean_acc - mean_conf)).sum())
    return BinReport(value=value, counts=counts, confidence=mean_conf, accuracy=mean_acc)


class CoverageReport(NamedTuple):
    """Marginal coverage plus size-stratified diagnostics of prediction sets."""

    coverage: float
    mean_width_fraction: float
    ssc: float
    ecg: float
    bin_counts: np.ndarray
    bin_coverage: np.ndarray


def coverage_report(sets: list[PredictionSet], labels, alpha: float,
                    num_size_bins: int = 75, vocab_size: int | None = None) -> CoverageReport:
    """Coverage, mean width fraction, worst-bin coverage (SSC), and coverage gap (ECG).

    Sets are binned by their size into equal-width bins over [0, vocab_size];
    ECG sums (bin weight) * max(1 - alpha - bin coverage, 0), so overcoverage
    is not penalized, and SSC is the minimum coverage over non-empty bins.
    """
    labels_arr = np.asarray(labels).ravel()
    if len(sets) != labels_arr.size or not sets:
        raise ValueError("sets and labels must be non-empty and equal-length")
    return coverage_report_arrays([len(s) for s in sets],
                                  [int(label) in s for s, label in zip(sets, labels_arr)],
                                  alpha, num_size_bins=num_size_bins, vocab_size=vocab_size)


def coverage_report_arrays(sizes, covered, alpha: float, num_size_bins: int = 75,
                           vocab_size: int | None = None) -> CoverageReport:
    """`coverage_report` from set sizes and coverage flags; finite vocab_size >= max(1, largest set)."""
    sizes = np.asarray(sizes, dtype=float).ravel()
    covered = np.asarray(covered, dtype=float).ravel()
    if sizes.size != covered.size or not sizes.size:
        raise ValueError("sets and labels must be non-empty and equal-length")
    # Each check is written so that NaN fails it.
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not np.all((covered == 0.0) | (covered == 1.0)):
        raise ValueError("coverage flags must be 0 or 1")
    if not sizes.min() >= 0.0:
        raise ValueError("set sizes must be >= 0")
    if vocab_size is None:
        vocab_size = max(1.0, float(sizes.max()))
    if not math.inf > vocab_size >= max(1.0, sizes.max()):  # NaN fails too
        raise ValueError("vocab_size must be finite, >= 1 and >= the largest prediction set")

    counts, bin_cov = _bin_means(sizes, float(vocab_size), num_size_bins, covered)
    nonempty = counts > 0
    ecg_val = float((counts[nonempty] / covered.size *
                     np.maximum(1.0 - alpha - bin_cov[nonempty], 0.0)).sum())
    return CoverageReport(
        coverage=float(covered.mean()),
        mean_width_fraction=float(sizes.mean() / vocab_size),
        ssc=float(bin_cov[nonempty].min()),
        ecg=ecg_val,
        bin_counts=counts,
        bin_coverage=bin_cov,
    )


def brier(confidences, correct) -> float:
    """Mean squared gap between confidence and the correctness indicator, both in [0, 1]."""
    conf = np.asarray(confidences, dtype=float).ravel()
    hits = np.asarray(correct, dtype=float).ravel()
    if conf.size == 0 or conf.size != hits.size:
        raise ValueError("inputs must be non-empty and equal-length")
    if not (np.all(np.isfinite(conf)) and np.all(np.isfinite(hits))):
        raise ValueError("inputs must be finite")
    _check_unit_interval(conf, hits)
    return float(((conf - hits) ** 2).mean())


def auroc(scores, labels) -> float:
    """Area under the ROC curve via mid-rank statistics (ties count half)."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel().astype(bool)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("undefined: labels contain a single class")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    ranks, _ = rankdata(s)
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def aupr(scores, labels) -> float:
    """Area under the precision-recall curve by step integration over thresholds."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel().astype(bool)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        raise ValueError("undefined: labels contain a single class")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    sorted_hits = y[order].astype(float)
    # Evaluate precision/recall only where the threshold actually drops.
    cum_tp = np.cumsum(sorted_hits)
    distinct = np.nonzero(np.diff(sorted_scores, append=-np.inf) != 0.0)[0]
    tp = cum_tp[distinct]
    predicted = distinct + 1.0
    precision = tp / predicted
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def _pairs_within(group_sizes: np.ndarray) -> int:
    """Pairs that fall in one group, summed over groups of the given sizes."""
    sizes = group_sizes.astype(np.int64)
    return int((sizes * (sizes - 1) // 2).sum())


def _discordant_pairs(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by a bottom-up merge sort (Knight 1966).

    At each width w the array is sorted within blocks of w; every element of an
    odd block counts the elements of the even block before it that exceed it,
    and then each pair of blocks is sorted together. Offsetting each pair's
    ranks by pair * span keeps one global sort and one searchsorted per width.
    """
    n = ranks.size
    span = int(ranks.max()) + 1
    positions = np.arange(n)
    values = ranks.astype(np.int64)
    discordant = 0
    width = 1
    while width < n:
        offsets = positions // (2 * width) * span
        keys = values + offsets
        right = positions // width % 2 == 1
        left_keys = keys[~right]
        # the left block of a right element's pair ends at (pair + 1) * width in left_keys
        left_end = (positions[right] // (2 * width) + 1) * width
        discordant += int((left_end - np.searchsorted(left_keys, keys[right], side="right")).sum())
        values = np.sort(keys, kind="stable") - offsets
        width *= 2
    return discordant


def kendall_tau(x, y) -> float:
    """Kendall's tau-b rank correlation (tie-corrected), from integer pair counts.

    Counts the tied and discordant pairs as `scipy.stats.kendalltau` does and
    combines them with the same arithmetic, so it returns the same bits.
    """
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.size != ya.size or xa.size < 2:
        raise ValueError("inputs must be equal-length with at least two elements")
    if np.isnan(xa).any() or np.isnan(ya).any():
        raise ValueError("inputs must not be NaN")
    x_rank = np.unique(xa, return_inverse=True)[1]
    y_rank = np.unique(ya, return_inverse=True)[1]
    order = np.lexsort((y_rank, x_rank))  # by x, then by y within tied x
    xs, ys = x_rank[order], y_rank[order]
    runs = np.flatnonzero(np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]), True])
    joint_ties = _pairs_within(np.diff(runs))
    x_ties, y_ties = _pairs_within(np.bincount(x_rank)), _pairs_within(np.bincount(y_rank))
    total = xa.size * (xa.size - 1) // 2
    if x_ties == total or y_ties == total:
        raise ValueError("undefined: a list is entirely tied")
    # total = concordant + discordant + x_ties + y_ties - joint_ties
    con_minus_dis = total - x_ties - y_ties + joint_ties - 2 * _discordant_pairs(ys)
    tau = con_minus_dis / math.sqrt(total - x_ties) / math.sqrt(total - y_ties)
    return min(1.0, max(-1.0, tau))


# -- predictive-uncertainty metrics -----------------------------------------


def max_prob(probs) -> float:
    """Highest class probability (its complement is the uncertainty score)."""
    return float(as_prob_vector(probs).max())


def predictive_entropy(probs) -> float:
    """Shannon entropy of a categorical distribution in nats."""
    p = as_prob_vector(probs)
    nonzero = p[p > 0.0]
    return float(-(nonzero * np.log(nonzero)).sum())


def softmax_gap(probs) -> float:
    """Difference between the two largest class probabilities."""
    p = np.sort(as_prob_vector(probs))
    return float(p[-1] - p[-2])


def dempster_shafer(logits) -> float:
    """Evidence-style uncertainty K / (K + sum(exp(logits)))."""
    z = np.asarray(logits, dtype=float).ravel()
    if z.size < 2:
        raise ValueError("need at least two classes")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    k = z.size
    top = z.max()
    log_evidence = float(top + np.log(np.exp(z - top).sum()))
    if log_evidence > 700.0:  # exp overflow: evidence dwarfs K
        return 0.0
    return float(k / (k + np.exp(log_evidence)))


def variation_ratio(predicted_labels) -> float:
    """One minus the relative frequency of the modal predicted label."""
    labels = np.asarray(predicted_labels).ravel()
    if labels.size == 0:
        raise ValueError("empty input")
    _, counts = np.unique(labels, return_counts=True)
    return float(1.0 - counts.max() / labels.size)


def class_variance(matrix) -> float:
    """Mean over classes of the across-pass variance of predicted probabilities."""
    rows = as_prob_matrix(matrix)
    return float(rows.var(axis=0, ddof=0).mean())


def bma_mutual_information(matrix) -> float:
    """Entropy of the averaged prediction minus the average per-pass entropy."""
    rows = as_prob_matrix(matrix)
    mean_row = rows.mean(axis=0)
    mean_entropy = float(np.mean([predictive_entropy(r) for r in rows]))
    return predictive_entropy(mean_row) - mean_entropy
