"""Reusable experiment drivers behind the CLI subcommands.

Each driver is deterministic given (seed, config): RNG streams are derived per
condition/trial via hashing, conditions are enumerated in canonical sorted
order, and results are returned as plain records ready for CSV/JSON emission.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
from dataclasses import dataclass

import numpy as np

from . import dirichlet as dr
from .conformal import (KnnQuantiles, WeightedCalibration, is_full_set, score_rule,
                        split_quantile, temperature_search, weighted_quantile)
from .error_sim import DistSpec, TestSpec, error_rates
from .metrics import coverage_report_arrays, predictive_entropy
from .seeds import derive_rng
from .synthetic import Chain, calibration_store, generate, inject_noise, new_model, step_probs

logger = logging.getLogger(__name__)

ASO_SIM_SCHEMA = "uqkit.aso-sim.csv.v1"
CONFORMAL_EVAL_SCHEMA = "uqkit.conformal-eval.json.v1"
DIRICHLET_CHECK_SCHEMA = "uqkit.dirichlet-check.json.v1"
CONFORMAL_METHODS = ("split", "knn", "knn_unit")
# Test steps per block of the batched test loop: large enough to amortize the
# per-call overhead, small enough that a block's arrays stay small. One block per
# noise level raised the conformal-knn benchmark's peak RSS from 40.6 to 45.3 MB.
_CHUNK_STEPS = 128
_FLOAT32_MAX = float(np.finfo(np.float32).max)


# -- error-rate grids ---------------------------------------------------------


def run_aso_grid(tests: list[str], dists: list[DistSpec], sizes: list[int],
                 thresholds: list[float], trials: int, seed: int, alpha: float = 0.05,
                 num_bootstrap: int = 1000, resamples: int = 1000,
                 dist_b: DistSpec | None = None) -> list[dict]:
    """Type I (or, with dist_b, Type II) error rates over the full grid.

    Each (n, dist) condition runs its trials once for all tests: every test
    reads the same per-trial draw, and every threshold reuses the same
    per-trial statistics.
    """
    if not thresholds:
        return []
    specs = [TestSpec(kind=kind, threshold=thresholds[0], alpha=alpha,
                      num_bootstrap=num_bootstrap, resamples=resamples) for kind in tests]
    records = []
    for n in sizes:
        for dist in dists:
            for report in error_rates(specs, dist, dist_b, n, thresholds, trials, seed):
                records.append({
                    "test": report.test, "dist": report.dist, "n": report.n,
                    "threshold": report.threshold, "trials": report.trials,
                    "rate": report.rate, "se": report.se, "seed": report.seed,
                })
    records.sort(key=lambda r: (r["test"], r["dist"], r["n"], r["threshold"]))
    return records


def aso_sim_csv(records: list[dict]) -> str:
    """`run_aso_grid` records as the schema-tagged CSV, with rate and se at 6 decimals."""
    buffer = io.StringIO()
    buffer.write(f"# schema={ASO_SIM_SCHEMA}\n")
    writer = csv.DictWriter(buffer, fieldnames=["test", "dist", "n", "threshold", "trials",
                                                "rate", "se", "seed"], lineterminator="\n")
    writer.writeheader()
    writer.writerows({**r, "rate": f"{r['rate']:.6f}", "se": f"{r['se']:.6f}"} for r in records)
    return buffer.getvalue()


# -- conformal coverage study -------------------------------------------------


@dataclass(frozen=True)
class ConformalEvalConfig:
    """Synthetic-model coverage study configuration."""

    vocab_size: int = 100
    latent_dim: int = 16
    cal_steps: int = 2000
    test_steps: int = 2000
    alpha: float = 0.1
    k: int = 50
    score_kind: str = "adaptive"
    burn_in: int = 50
    search_steps: int = 20
    search_batch: int = 400


def _q_digest(q_hat: np.ndarray, full: np.ndarray) -> str:
    """Stable digest of a q-hat stream in step order; FULL_SET steps hash as the tag "FULL"."""
    h = hashlib.sha256()
    for q, is_full in zip(q_hat, full):
        h.update(b"FULL" if is_full else q.tobytes())
    return h.hexdigest()[:16]


def _median_neighbor_distance(store, metric: str, k: int, seed: int) -> float:
    """Median best-first neighbor key magnitude over a probe subset of the store."""
    rng = derive_rng(seed, 901)
    probe = rng.choice(len(store), size=min(200, len(store)), replace=False)
    # [:, 1:] skips each probe's self match
    keys = store.query_batch(store.latents[probe], k + 1, metric=metric).keys[:, 1:]
    if keys.size == 0:
        logger.warning("store has %d record(s), so no neighbor keys to take the median of; "
                       "using tau = 1.0", len(store))
        return 1.0
    med = _median(np.abs(keys))
    return med if med > 0 else 1.0


def _median(values: np.ndarray) -> float:
    """`np.median` of a non-empty array to the bit: the mean of its middle one or two
    values after a partition, and NaN if any value is NaN.

    `np.median` itself imports `numpy.ma` on its first call, ~15 ms of every run.
    """
    flat = values.ravel()
    if np.isnan(flat).any():
        return float("nan")
    half = flat.size // 2
    middle = [half] if flat.size % 2 else [half - 1, half]
    return float(np.partition(flat, middle)[middle].mean())


def resolve_tau(store, cal: Chain, cfg: ConformalEvalConfig, metric: str,
                tau_request, seed: int) -> float:
    """Numeric tau passes through; "heuristic" uses the median neighbor key;
    "auto" runs the stochastic temperature search."""
    if tau_request == "heuristic":
        return _median_neighbor_distance(store, metric, cfg.k, seed)
    if tau_request != "auto":
        return float(tau_request)
    scale = _median_neighbor_distance(store, metric, cfg.k, seed)
    batch = cal[: cfg.search_batch]
    neighbors = store.query_batch(batch.latents, cfg.k, metric=metric)
    quantiles = KnnQuantiles(neighbors, cfg.alpha, metric)
    sets = score_rule(cfg.score_kind)(batch.probs, batch.golds)

    def coverage_eval(tau: float) -> float:
        return int(np.count_nonzero(sets.covers(*quantiles(tau)))) / len(batch)

    tau = temperature_search(coverage_eval, cfg.alpha, tau_min=0.1 * scale,
                             tau_max=4.0 * scale, steps=cfg.search_steps,
                             rng=derive_rng(seed, 902))
    full_share = float(quantiles(tau)[1].mean())
    if full_share >= 0.5:
        k = neighbors.keys.shape[1]
        ceiling = (f"; l2 weights are at most 1, so the normalized mass of k neighbors stays "
                   f"below k/(k+1) = {k / (k + 1):.4f}" if metric == "l2" else "")
        logger.warning("tau search, metric %s, k=%d: %.1f%% of the search batch is FULL_SET "
                       "at tau %.6g%s", metric, k, 100.0 * full_share, tau, ceiling)
    return tau


def _noisy_blocks(test: Chain, sigma: float, seed: int):
    """Each block of `_CHUNK_STEPS` test steps with its latents plus N(0, sigma^2) noise.

    Every pass replays one stream, `derive_rng(seed, 2)`, drawn in step order,
    so every pass at one noise level reads the same latents. At sigma 0 the
    clean latents are yielded and nothing is drawn.
    """
    noise_rng = derive_rng(seed, 2)
    for start in range(0, len(test), _CHUNK_STEPS):
        block = test[start: start + _CHUNK_STEPS]
        yield block, (block.latents if sigma == 0 else
                      inject_noise(block.latents, sigma, noise_rng))


def _check_key_range(latents: np.ndarray, noise: float) -> None:
    """ValueError if a noisy test latent's squared norm, in float64, exceeds the float32 range.

    The datastore computes k-NN keys in float32, so beyond that range a query's
    cos norm or its l2 keys overflow, and every neighbour read from them is meaningless.
    """
    with np.errstate(over="ignore"):
        sq_norms = np.einsum("ij,ij->i", latents, latents)
    if not np.all(sq_norms <= _FLOAT32_MAX):  # written so that inf and NaN fail it
        raise ValueError(f"noise {noise:g} puts a test latent's squared norm beyond the "
                         "float32 range of the k-NN keys")


def run_conformal_condition(cfg: ConformalEvalConfig, method: str, metric: str,
                            noise: float, tau, seed: int) -> dict:
    """Evaluate one (method, metric, noise) condition; returns a result record."""
    return run_conformal_eval(cfg, [method], [metric], [noise], tau, seed)[0]


def run_conformal_eval(cfg: ConformalEvalConfig, methods: list[str], metrics: list[str],
                       noises: list[float], tau, seed: int) -> list[dict]:
    """All requested conditions in canonical order, one result record each.

    `noise` is the injected latent noise as a fraction of the calibration
    latents' per-coordinate standard deviation. Gold tokens always come from the
    clean emission distribution; sets are built from the corrupted one, mirroring
    a shifted-representation deployment. Everything else is built once per call,
    tau once per metric, and the test blocks' noise, rows and sets once per noise level;
    noise 0 reads the rows `generate` made. Before any tau search or query, a
    noisy latent that a knn condition would query with a squared norm beyond
    the float32 range raises ValueError.
    """
    if not set(methods) <= set(CONFORMAL_METHODS):
        raise ValueError(f"unknown method in {methods!r}; expected {CONFORMAL_METHODS}")
    conditions = [(method, metric, noise) for method in sorted(methods) for noise in sorted(noises)
                  for metric in (sorted(metrics) if method == "knn" else ["-"])]

    model = new_model(cfg.vocab_size, cfg.latent_dim, seed=seed)
    chain = generate(model, cfg.burn_in + cfg.cal_steps + cfg.test_steps, derive_rng(seed, 1))
    cal = chain[cfg.burn_in: cfg.burn_in + cfg.cal_steps]
    test = chain[cfg.burn_in + cfg.cal_steps:]

    store = calibration_store(cal, cfg.score_kind)
    score_sets = score_rule(cfg.score_kind)
    latent_std = float(cal.latents.std())
    fixed_q = {"split": split_quantile(store.scores, cfg.alpha),
               "knn_unit": weighted_quantile(
                   WeightedCalibration(store.scores, np.ones(len(store))), cfg.alpha)}

    knn_metrics = sorted({metric for method, metric, _ in conditions if method == "knn"})
    for noise in sorted({noise for method, _, noise in conditions if method == "knn"}):
        for _, corrupted in _noisy_blocks(test, noise * latent_std, seed):
            _check_key_range(corrupted, noise)
    if knn_metrics and len(store) < cfg.k:
        logger.warning("k=%d exceeds datastore size %d; using the entire store", cfg.k, len(store))
    taus = {metric: resolve_tau(store, cal, cfg, metric, tau, seed) for metric in knn_metrics}

    blocks = {c: [] for c in conditions}  # per block: (clamped q_hat, FULL_SET mask, sizes, hits)
    for noise in sorted(set(noises)):
        for block, corrupted in _noisy_blocks(test, noise * latent_std, seed):
            # the clean rows: generate already holds their distributions
            probs = block.probs if noise == 0 else step_probs(model, corrupted)
            sets = score_sets(probs, block.golds)
            for method, metric in [c[:2] for c in blocks if c[2] == noise]:
                if method == "knn":
                    neighbors = store.query_batch(corrupted, cfg.k, metric=metric)
                    q_hat, full = KnnQuantiles(neighbors, cfg.alpha, metric)(taus[metric])
                else:
                    full = np.full(len(block), is_full_set(fixed_q[method]))
                    q_hat = np.full(len(block), 0.0 if full[0] else fixed_q[method])
                blocks[method, metric, noise].append((np.clip(q_hat, 0.0, 1.0), full,
                                                      sets.sizes(q_hat, full),
                                                      sets.covers(q_hat, full)))

    records = []
    for method, metric, noise in conditions:
        q_hat, full, sizes, covered = map(np.concatenate, zip(*blocks[method, metric, noise]))
        report = coverage_report_arrays(sizes, covered, cfg.alpha, vocab_size=cfg.vocab_size)
        records.append({
            "schema": CONFORMAL_EVAL_SCHEMA, "method": method, "metric": metric,
            "tau": round(taus[metric], 6) if method == "knn" else None,
            "alpha": cfg.alpha, "noise": noise, "seed": seed,
            "coverage": round(report.coverage, 6), "width": round(report.mean_width_fraction, 6),
            "ssc": round(report.ssc, 6), "ecg": round(report.ecg, 6),
            "q_digest": _q_digest(q_hat, full),
            "mean_set_size": round(report.mean_width_fraction * cfg.vocab_size, 6),
        })
    return records


# -- Dirichlet closed-form verification ---------------------------------------


def dirichlet_mc_checks(alpha_vec, num_samples: int, rng: np.random.Generator) -> dict:
    """Closed forms vs Monte Carlo for one concentration vector; returns z-scores."""
    d = dr.DirichletParams(alpha_vec)
    draws = dr.sample(d, num_samples, rng)
    if not draws.min() > 0.0:  # written so that a NaN row fails it too
        raise ValueError(f"alpha {d.alpha.tolist()}: a Gamma draw underflowed to 0, so the "
                         "log-based checks are undefined")
    root_n = np.sqrt(num_samples)

    def z_score(closed: float, values: np.ndarray) -> float:
        se = float(values.std(ddof=1)) / root_n
        return abs(closed - float(values.mean())) / max(se, 1e-300)

    log_draws = np.log(draws)
    log_density = dr._log_pdf_of_logs(d, log_draws)
    checks = {}
    checks["mean"] = max(z_score(m_k, draws[:, k]) for k, m_k in enumerate(dr.mean(d)))
    checks["log_expectation"] = max(
        z_score(dr.log_expectation(d, k), log_draws[:, k]) for k in range(len(d)))
    checks["entropy"] = z_score(dr.entropy(d), -log_density)
    point_entropies = -np.sum(np.where(draws > 0, draws * log_draws, 0.0), axis=1)
    checks["expected_entropy"] = z_score(dr.expected_entropy(d), point_entropies)

    ref = dr.DirichletParams(np.roll(d.alpha, 1) + 0.5)
    checks["kl"] = z_score(dr.kl(d, ref), log_density - dr._log_pdf_of_logs(ref, log_draws))

    # Delta-method linearization of H[mean pi] so the MI estimate has a usable SE.
    mean_draws = draws.mean(axis=0)
    linearized = -np.sum((1.0 + np.log(mean_draws)) * (draws - mean_draws), axis=1)
    mi_closed = dr.mutual_information(d)
    mi_values = linearized + float(predictive_entropy(mean_draws / mean_draws.sum())) - point_entropies
    checks["mutual_information"] = z_score(mi_closed, mi_values)
    return checks


def run_dirichlet_check(num_random: int, num_samples: int, seed: int,
                        explicit_alpha: list[float] | None = None) -> list[dict]:
    """Verify all closed forms against their Monte Carlo oracles."""
    records = []
    if explicit_alpha is not None:
        vectors = [np.asarray(explicit_alpha, dtype=float)]
    else:
        vectors = []
        for i in range(num_random):
            rng = derive_rng(seed, 10, i)
            k = int(rng.integers(2, 9))
            vectors.append(rng.uniform(0.2, 10.0, size=k))
    for i, vec in enumerate(vectors):
        checks = dirichlet_mc_checks(vec, num_samples, derive_rng(seed, 11, i))
        d = dr.DirichletParams(vec)
        records.append({
            "schema": DIRICHLET_CHECK_SCHEMA,
            "alpha": [round(float(a), 6) for a in vec],
            "kl_uniform": round(dr.kl_uniform(d), 10),
            "max_abs_z": round(max(checks.values()), 4),
            "z_scores": {name: round(z, 4) for name, z in sorted(checks.items())},
            "seed": seed,
        })
    return records
