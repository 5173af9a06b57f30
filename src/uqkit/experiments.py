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
from .conformal import (WeightedCalibration, build_set_adaptive,
                        conformal_generate_step, is_full_set, knn_set, split_quantile,
                        temperature_search, weighted_quantile)
from .datastore import Datastore
from .error_sim import DistSpec, TestSpec, error_rates
from .metrics import coverage_report, predictive_entropy
from .seeds import derive_rng
from .synthetic import generate, inject_noise, new_model, nonconformity, step_probs

logger = logging.getLogger(__name__)

ASO_SIM_SCHEMA = "uqkit.aso-sim.csv.v1"
CONFORMAL_EVAL_SCHEMA = "uqkit.conformal-eval.json.v1"
DIRICHLET_CHECK_SCHEMA = "uqkit.dirichlet-check.json.v1"
CONFORMAL_METHODS = ("split", "knn", "knn_unit")


# -- error-rate grids ---------------------------------------------------------


def run_aso_grid(tests: list[str], dists: list[DistSpec], sizes: list[int],
                 thresholds: list[float], trials: int, seed: int, alpha: float = 0.05,
                 num_bootstrap: int = 1000, resamples: int = 1000,
                 dist_b: DistSpec | None = None) -> list[dict]:
    """Type I (or, with dist_b, Type II) error rates over the full grid.

    Each (test, n, dist) condition runs its trials once; every threshold reuses
    the same per-trial statistics.
    """
    if not thresholds:
        return []
    records = []
    for test_kind in tests:
        spec = TestSpec(kind=test_kind, threshold=thresholds[0], alpha=alpha,
                        num_bootstrap=num_bootstrap, resamples=resamples)
        for n in sizes:
            for dist in dists:
                for report in error_rates(spec, dist, dist_b, n, thresholds, trials, seed):
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
    num_size_bins: int = 75
    burn_in: int = 50
    process_noise: float = 0.02
    temperature: float = 1.0
    search_steps: int = 20
    search_batch: int = 400


def _q_digest(q_values: list) -> str:
    """Stable digest of a q-hat stream; FULL_SET entries hash as the tag "FULL"."""
    h = hashlib.sha256()
    for q in q_values:
        h.update(b"FULL" if is_full_set(q) else np.float64(q).tobytes())
    return h.hexdigest()[:16]


def _median_neighbor_distance(store, metric: str, k: int, seed: int) -> float:
    """Median best-first neighbor key magnitude over a probe subset of the store."""
    rng = derive_rng(seed, 901)
    probe = rng.choice(len(store), size=min(200, len(store)), replace=False)
    keys = np.concatenate([store.query(store.latents[i], k + 1, metric=metric).keys[1:]
                           for i in probe])  # [1:] skips the self match
    if keys.size == 0:
        logger.warning("store has %d record(s), so no neighbor keys to take the median of; "
                       "using tau = 1.0", len(store))
        return 1.0
    med = float(np.median(np.abs(keys)))
    return med if med > 0 else 1.0


def resolve_tau(store, cal_steps, cfg: ConformalEvalConfig, metric: str,
                tau_request, seed: int) -> float:
    """Numeric tau passes through; "heuristic" uses the median neighbor key;
    "auto" runs the stochastic temperature search."""
    if tau_request == "heuristic":
        return _median_neighbor_distance(store, metric, cfg.k, seed)
    if tau_request != "auto":
        return float(tau_request)
    scale = _median_neighbor_distance(store, metric, cfg.k, seed)
    batch = cal_steps[: cfg.search_batch]
    retrieved = [store.query(step.latent, cfg.k, metric=metric) for step in batch]

    def coverage_eval(tau: float) -> float:
        hits = 0
        for step, neighbors in zip(batch, retrieved):
            hits += step.gold in knn_set(neighbors, step.probs, cfg.alpha, tau, metric=metric)
        return hits / len(batch)

    return temperature_search(coverage_eval, cfg.alpha, tau_min=0.1 * scale,
                              tau_max=4.0 * scale, steps=cfg.search_steps,
                              rng=derive_rng(seed, 902))


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
    a shifted-representation deployment. Only the test loop depends on the
    condition: everything else is built once per call, and tau once per metric.
    """
    if not set(methods) <= set(CONFORMAL_METHODS):
        raise ValueError(f"unknown method in {methods!r}; expected {CONFORMAL_METHODS}")
    conditions = [(method, metric, noise) for method in sorted(methods) for noise in sorted(noises)
                  for metric in (sorted(metrics) if method == "knn" else ["-"])]

    model = new_model(cfg.vocab_size, cfg.latent_dim, seed=seed,
                      temperature=cfg.temperature, noise_std=cfg.process_noise)
    chain = generate(model, cfg.burn_in + cfg.cal_steps + cfg.test_steps, derive_rng(seed, 1))
    cal = chain[cfg.burn_in: cfg.burn_in + cfg.cal_steps]
    test = chain[cfg.burn_in + cfg.cal_steps:]

    cal_latents = np.stack([s.latent for s in cal])
    store = Datastore(cfg.latent_dim)
    store.add_batch(cal_latents,
                    np.array([nonconformity(cfg.score_kind, s.probs, s.gold) for s in cal]))
    latent_std = float(cal_latents.std())
    fixed_q = {"split": split_quantile(store.scores, cfg.alpha),
               "knn_unit": weighted_quantile(
                   WeightedCalibration(store.scores, np.ones(len(store))), cfg.alpha)}

    k = min(cfg.k, len(store))
    knn_metrics = sorted({metric for method, metric, _ in conditions if method == "knn"})
    if knn_metrics and k < cfg.k:
        logger.warning("k=%d exceeds datastore size %d; using the entire store", cfg.k, k)
    taus = {metric: resolve_tau(store, cal, cfg, metric, tau, seed) for metric in knn_metrics}

    records = []
    for method, metric, noise in conditions:
        noise_rng = derive_rng(seed, 2)
        sets = []
        for step in test:
            corrupted = inject_noise(step.latent, noise * latent_std, noise_rng)
            probs = step_probs(model, corrupted)
            if method == "knn":
                sets.append(conformal_generate_step(store, corrupted, probs, cfg.alpha, k,
                                                    taus[metric], metric=metric))
            else:
                sets.append(build_set_adaptive(probs, fixed_q[method]))
        report = coverage_report(sets, [step.gold for step in test], cfg.alpha,
                                 num_size_bins=cfg.num_size_bins, vocab_size=cfg.vocab_size)
        records.append({
            "schema": CONFORMAL_EVAL_SCHEMA, "method": method, "metric": metric,
            "tau": round(taus[metric], 6) if method == "knn" else None,
            "alpha": cfg.alpha, "noise": noise, "seed": seed,
            "coverage": round(report.coverage, 6), "width": round(report.mean_width_fraction, 6),
            "ssc": round(report.ssc, 6), "ecg": round(report.ecg, 6),
            "q_digest": _q_digest([pset.q_hat for pset in sets]),
            "mean_set_size": round(report.mean_width_fraction * cfg.vocab_size, 6),
        })
    return records


# -- Dirichlet closed-form verification ---------------------------------------


def dirichlet_mc_checks(alpha_vec, num_samples: int, rng: np.random.Generator) -> dict:
    """Closed forms vs Monte Carlo for one concentration vector; returns z-scores."""
    d = dr.DirichletParams(alpha_vec)
    draws = dr.sample(d, num_samples, rng)
    root_n = np.sqrt(num_samples)

    def z_score(closed: float, values: np.ndarray) -> float:
        se = float(values.std(ddof=1)) / root_n
        return abs(closed - float(values.mean())) / max(se, 1e-300)

    checks = {}
    checks["mean"] = max(z_score(m_k, draws[:, k]) for k, m_k in enumerate(dr.mean(d)))
    checks["log_expectation"] = max(
        z_score(dr.log_expectation(d, k), np.log(draws[:, k])) for k in range(len(d)))
    checks["entropy"] = z_score(dr.entropy(d), -dr.log_pdf(d, draws))
    point_entropies = -np.sum(np.where(draws > 0, draws * np.log(draws), 0.0), axis=1)
    checks["expected_entropy"] = z_score(dr.expected_entropy(d), point_entropies)

    ref = dr.DirichletParams(np.roll(d.alpha, 1) + 0.5)
    checks["kl"] = z_score(dr.kl(d, ref), dr.log_pdf(d, draws) - dr.log_pdf(ref, draws))

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
