"""Reusable experiment drivers behind the CLI subcommands.

Each driver is deterministic given (seed, config): RNG streams are derived per
condition/trial via hashing, conditions are enumerated in canonical sorted
order, and results are returned as plain records ready for CSV/JSON emission.
The conformal coverage study is a source and an evaluation: `synthetic_source`
builds the calibration chain and the noisy test views of the synthetic model, and
`evaluate_conformal` evaluates any calibration chain and test views, reading only
their arrays.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from . import dirichlet as dr
from .conformal import FULL_SET, KnnQuantiles, score_rule, split_quantile, temperature_search
from .error_sim import DistSpec, ErrorRateReport, TestSpec, error_rates
from .metrics import coverage_report_arrays, predictive_entropy
from .seeds import derive_rng
from .synthetic import Chain, calibration_store, generate, inject_noise, new_model, step_probs

logger = logging.getLogger(__name__)
_FLOAT32_MAX = float(np.finfo(np.float32).max)

ASO_SIM_SCHEMA = "uqkit.aso-sim.csv.v1"
CONFORMAL_EVAL_SCHEMA = "uqkit.conformal-eval.json.v1"
DIRICHLET_CHECK_SCHEMA = "uqkit.dirichlet-check.json.v1"
CONFORMAL_METHODS = ("split", "knn", "knn_unit")
# Test steps per block of the batched test loop: large enough to amortize the
# per-call overhead, small enough that a block's arrays stay small. One block per
# noise level raised the conformal-knn benchmark's peak RSS from 40.6 to 45.3 MB.
_CHUNK_STEPS = 128


# -- error-rate grids ---------------------------------------------------------


def run_aso_grid(tests: list[str], dists: list[DistSpec], sizes: list[int],
                 thresholds: list[float], trials: int, seed: int, alpha: float = 0.05,
                 num_bootstrap: int = 1000, resamples: int = 1000,
                 dist_b: DistSpec | None = None) -> list[ErrorRateReport]:
    """Type I (or, with dist_b, Type II) error rates over the full grid, sorted by
    (test, dist, n, threshold).

    Each (n, dist) condition runs its trials once for all tests: every test
    reads the same per-trial draw, and every threshold reuses the same
    per-trial statistics.
    """
    if not thresholds:
        return []
    specs = [TestSpec(kind=kind, threshold=thresholds[0], alpha=alpha,
                      num_bootstrap=num_bootstrap, resamples=resamples) for kind in tests]
    reports = [report for n in sizes for dist in dists
               for report in error_rates(specs, dist, dist_b, n, thresholds, trials, seed)]
    reports.sort(key=lambda r: (r.test, r.dist, r.n, r.threshold))
    return reports


# -- conformal coverage study -------------------------------------------------


class ConformalEvalConfig(NamedTuple):
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


def _q_digest(q_hat: np.ndarray) -> str:
    """Stable digest of a q-hat stream in step order; FULL_SET steps hash as the tag "FULL".

    `hashlib` loads OpenSSL (~2 ms), so only the calls that digest import it.
    """
    import hashlib

    return hashlib.sha256(b"".join(b"FULL" if q == FULL_SET else q.tobytes()
                                   for q in q_hat)).hexdigest()[:16]


def _median_neighbor_distance(store, metric: str, k: int, seed: int) -> float:
    """Median best-first neighbor key magnitude over a probe subset of the store."""
    rng = derive_rng(seed, 901)
    probe = rng.choice(len(store), size=min(200, len(store)), replace=False)
    # [:, 1:] drops each probe's best-first neighbor: its own row under l2 and cos, but
    # under ip usually a row of larger norm, so there it drops the nearest other row.
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
    quantiles = KnnQuantiles(neighbors, cfg.alpha)
    sets = score_rule(cfg.score_kind)(batch.probs, batch.golds)

    def coverage_eval(tau: float) -> float:
        return int(np.count_nonzero(sets.covers(quantiles(tau)))) / len(batch)

    tau = temperature_search(coverage_eval, cfg.alpha, tau_min=0.1 * scale,
                             tau_max=4.0 * scale, steps=cfg.search_steps,
                             rng=derive_rng(seed, 902))
    full_share = float((quantiles(tau) == FULL_SET).mean())
    if full_share >= 0.5:
        k = neighbors.keys.shape[1]
        ceiling = (f"; l2 weights are at most 1, so the normalized mass of k neighbors stays "
                   f"below k/(k+1) = {k / (k + 1):.4f}" if metric == "l2" else "")
        logger.warning("tau search, metric %s, k=%d: %.1f%% of the search batch is FULL_SET "
                       "at tau %.6g%s", metric, k, 100.0 * full_share, tau, ceiling)
    return tau


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
    """All requested conditions on the synthetic source, in canonical order, one
    record each: `evaluate_conformal` of `synthetic_source`."""
    if not set(methods) <= set(CONFORMAL_METHODS):
        raise ValueError(f"unknown method in {methods!r}; expected {CONFORMAL_METHODS}")
    cal, views = synthetic_source(cfg, noises, seed)
    return evaluate_conformal(cfg, cal, views, methods, metrics, noises, tau, seed)


def synthetic_source(cfg: ConformalEvalConfig, noises: list[float],
                     seed: int) -> tuple[Chain, dict[float, Chain]]:
    """The synthetic model's calibration chain and one test view per distinct noise level.

    After `cfg.burn_in` steps come the calibration and then the test steps of one
    generated chain. A view holds the test latents plus noise, their distributions
    and the clean gold tokens: a shifted-representation deployment. `noise` is a
    fraction of the calibration latents' standard deviation: each distinct non-zero
    level is `inject_noise` of the test latents with a fresh `derive_rng(seed, 2)`,
    so every level scales the same unit-normal draw. Noise 0 is the generated test
    slice itself and draws nothing. ValueError names a negative or NaN level, or one
    whose noisy latents or distributions are not finite.
    """
    if not all(noise >= 0 for noise in noises):  # written so that NaN fails it
        raise ValueError(f"noise levels must be non-negative, got {noises!r}")
    model = new_model(cfg.vocab_size, cfg.latent_dim, seed=seed)
    chain = generate(model, cfg.burn_in + cfg.cal_steps + cfg.test_steps, derive_rng(seed, 1))
    cal = chain[cfg.burn_in: cfg.burn_in + cfg.cal_steps]
    test = chain[cfg.burn_in + cfg.cal_steps:]

    latent_std = float(cal.latents.std())
    views = {noise: test for noise in noises if noise == 0}
    for noise in sorted(set(noises) - {0.0}):
        probs = np.empty_like(test.probs)
        with np.errstate(over="ignore", invalid="ignore"):
            latents = inject_noise(test.latents, noise * latent_std, derive_rng(seed, 2))
            for start in range(0, len(test), _CHUNK_STEPS):  # a (T, V) call peaks higher
                probs[start: start + _CHUNK_STEPS] = step_probs(
                    model, latents[start: start + _CHUNK_STEPS])
        if not (np.isfinite(latents).all() and np.isfinite(probs).all()):
            raise ValueError(f"noise {noise:g} makes a test latent or its token distribution "
                             "non-finite")
        views[noise] = Chain(latents, probs, test.golds)
    return cal, views


def evaluate_conformal(cfg: ConformalEvalConfig, cal: Chain, views: dict[float, Chain],
                       methods: list[str], metrics: list[str], noises: list[float], tau,
                       seed: int) -> list[dict]:
    """All requested conditions in canonical order, one record each, calibrated on
    `cal` and tested on `views[noise]`, reading only their arrays.

    The store and the one fixed q_hat of split and knn_unit (unit weights) are built
    once per call, tau once per knn metric and each test block's sets once per noise
    level. Before any tau search or query, a latent that a knn condition would query
    with a squared norm beyond the float32 range raises ValueError.
    """
    conditions = [(method, metric, noise) for method in sorted(methods) for noise in sorted(noises)
                  for metric in (sorted(metrics) if method == "knn" else ["-"])]
    store = calibration_store(cal, cfg.score_kind)
    score_sets = score_rule(cfg.score_kind)
    fixed_q = split_quantile(store.scores, cfg.alpha)  # knn_unit's unit weights give it too

    knn_metrics = sorted({metric for method, metric, _ in conditions if method == "knn"})
    for noise in sorted({noise for method, _, noise in conditions if method == "knn"}):
        _check_key_range(views[noise].latents, noise)
    if knn_metrics and len(store) < cfg.k:
        logger.warning("k=%d exceeds datastore size %d; using the entire store", cfg.k, len(store))
    taus = {metric: resolve_tau(store, cal, cfg, metric, tau, seed) for metric in knn_metrics}

    blocks = {c: [] for c in conditions}  # per block: (q_hat, sizes, hits)
    for noise in sorted(set(noises)):
        view = views[noise]
        for start in range(0, len(view), _CHUNK_STEPS):
            block = view[start: start + _CHUNK_STEPS]
            sets = score_sets(block.probs, block.golds)
            for method, metric in [c[:2] for c in blocks if c[2] == noise]:
                if method == "knn":
                    neighbors = store.query_batch(block.latents, cfg.k, metric=metric)
                    q_hat = KnnQuantiles(neighbors, cfg.alpha)(taus[metric])
                else:
                    q_hat = np.full(len(block), fixed_q)
                blocks[method, metric, noise].append((q_hat, sets.sizes(q_hat),
                                                      sets.covers(q_hat)))

    vocab = cal.probs.shape[1]
    records = []
    for method, metric, noise in conditions:
        q_hat, sizes, covered = map(np.concatenate, zip(*blocks[method, metric, noise]))
        report = coverage_report_arrays(sizes, covered, cfg.alpha, vocab_size=vocab)
        records.append({
            "schema": CONFORMAL_EVAL_SCHEMA, "method": method, "metric": metric,
            "tau": round(taus[metric], 6) if method == "knn" else None,
            "alpha": cfg.alpha, "noise": noise, "seed": seed,
            "coverage": round(report.coverage, 6), "width": round(report.mean_width_fraction, 6),
            "ssc": round(report.ssc, 6), "ecg": round(report.ecg, 6),
            "q_digest": _q_digest(q_hat),
            "mean_set_size": round(report.mean_width_fraction * vocab, 6),
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
    log_density = dr.log_pdf(d, log_draws)
    checks = {}
    checks["mean"] = max(z_score(m_k, draws[:, k]) for k, m_k in enumerate(dr.mean(d)))
    checks["log_expectation"] = max(
        z_score(dr.log_expectation(d, k), log_draws[:, k]) for k in range(len(d)))
    checks["entropy"] = z_score(dr.entropy(d), -log_density)
    point_entropies = -np.sum(draws * log_draws, axis=1)
    checks["expected_entropy"] = z_score(dr.expected_entropy(d), point_entropies)

    # A shifted reference that differs from d; an entry near the cap steps down, not up.
    rolled = np.roll(d.alpha, 1)
    ref = dr.DirichletParams(rolled + np.where(rolled + 0.5 > dr._MAX_ALPHA, -0.5, 0.5))
    checks["kl"] = z_score(dr.kl(d, ref), log_density - dr.log_pdf(ref, log_draws))

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
