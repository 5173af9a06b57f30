"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion lines are echoed immediately (visible with -s) and replayed in the
terminal summary of a captured run. The whole module is budgeted to finish
within a few minutes on a laptop.
"""

import subprocess
import sys

import numpy as np

from conftest import record_acceptance_line
from uqkit.conformal import (WeightedCalibration, is_full_set, split_quantile,
                             weighted_quantile)
from uqkit.datastore import Datastore
from uqkit.error_sim import Normal, TestSpec, type1_rate, type2_rate
from uqkit.experiments import (ConformalEvalConfig, dirichlet_mc_checks,
                               run_conformal_condition)
from uqkit.metrics import (auroc, bma_mutual_information, coverage_report, ece,
                           kendall_tau, predictive_entropy)
from uqkit.seeds import derive_rng
from uqkit import dirichlet as dr

SEED = 20240811


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    record_acceptance_line(line)


def test_criterion_01_aso_type1_reproduction():
    spec = TestSpec(kind="aso", threshold=0.2)
    rates = {n: type1_rate(spec, Normal(0.0, 1.5), n, 500, seed=SEED).rate
             for n in (5, 10, 15, 20)}
    cell_small = type1_rate(TestSpec(kind="aso", threshold=0.05), Normal(0.0, 1.5),
                            5, 500, seed=SEED).rate
    all_low = all(rate <= 0.06 for rate in rates.values())
    small_ok = abs(cell_small - 0.020) <= 0.03
    ten_ok = abs(rates[10] - 0.038) <= 0.03
    passed = all_low and small_ok and ten_ok
    report(1, "ASO Type I reproduction (normal, tau=0.2 grid + table cells)", passed,
           f"rates={rates}, n5/tau.05={cell_small:.3f}")
    assert passed


def test_criterion_02_classical_type1_sanity():
    rates = {}
    for kind in ("student_t", "bootstrap", "permutation", "wilcoxon", "mann_whitney"):
        spec = TestSpec(kind=kind, threshold=0.05)
        rates[kind] = type1_rate(spec, Normal(0.0, 1.5), 20, 1000, seed=SEED + 1).rate
    passed = all(abs(rate - 0.05) <= 0.02 for rate in rates.values())
    report(2, "classical tests Type I rate 0.05 +/- 0.02 (n=20, 1000 trials)", passed,
           ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))
    assert passed


def test_criterion_03_aso_type2_spot_check():
    t_rate = type2_rate(TestSpec(kind="student_t", threshold=0.05),
                        Normal(0.5, 1.5), Normal(0.0, 1.5), 20, 1000, seed=SEED + 2).rate
    aso_rate = type2_rate(TestSpec(kind="aso", threshold=0.05),
                          Normal(0.5, 1.5), Normal(0.0, 1.5), 20, 500, seed=SEED + 2).rate
    passed = abs(t_rate - 0.732) <= 0.05 and abs(aso_rate - 0.976) <= 0.03
    report(3, "Type II spot check (t 0.732 +/- 0.05, ASO 0.976 +/- 0.03)", passed,
           f"t={t_rate:.3f}, aso={aso_rate:.3f}")
    assert passed


def test_criterion_04_split_conformal_coverage():
    cfg = ConformalEvalConfig(vocab_size=100, latent_dim=16, cal_steps=2000,
                              test_steps=2000, alpha=0.1, score_kind="adaptive")
    record = run_conformal_condition(cfg, "split", "-", 0.0, "auto", seed=SEED + 3)
    passed = 0.885 <= record["coverage"] <= 0.925
    report(4, "split-conformal coverage in [0.885, 0.925] (V=100, d=16, N=2000)", passed,
           f"coverage={record['coverage']:.4f}")
    assert passed


def test_criterion_05_exchangeable_reduction_exactness():
    rng = derive_rng(SEED + 4)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 80))
        scores = rng.random(n)
        alpha = float(rng.uniform(0.02, 0.5))
        split = split_quantile(scores, alpha)
        weighted = weighted_quantile(
            WeightedCalibration(scores=scores, weights=np.ones(n)), alpha)
        if is_full_set(split) != is_full_set(weighted):
            mismatches += 1
        elif not is_full_set(split) and split != weighted:
            mismatches += 1
    passed = mismatches == 0
    report(5, "weighted quantile with unit weights equals split quantile bit-exactly "
              "(1000 random sets)", passed, f"mismatches={mismatches}")
    assert passed


def test_criterion_06_noise_robustness():
    cfg = ConformalEvalConfig()
    noise_levels = (0.0, 0.05, 0.1)
    all_monotone = True
    all_covering = True
    details = []
    for seed in (SEED + 5, SEED + 6, SEED + 7):
        sizes = []
        knn_cov_high = None
        for noise in noise_levels:
            rec = run_conformal_condition(cfg, "knn", "l2", noise, "heuristic", seed=seed)
            sizes.append(rec["mean_set_size"])
            if noise == noise_levels[-1]:
                knn_cov_high = rec["coverage"]
        split_high = run_conformal_condition(cfg, "split", "-", noise_levels[-1], "auto",
                                             seed=seed)["coverage"]
        monotone = sizes[0] <= sizes[1] <= sizes[2]
        covering = knn_cov_high >= split_high
        all_monotone &= monotone
        all_covering &= covering
        details.append(f"seed{seed % 100}: sizes={[round(s, 1) for s in sizes]} "
                       f"knn={knn_cov_high:.3f} split={split_high:.3f}")
    passed = all_monotone and all_covering
    report(6, "noise robustness: set size non-decreasing, kNN coverage >= split at "
              "highest sigma (3 seeds)", passed, "; ".join(details))
    assert passed


def test_criterion_07_dirichlet_closed_forms():
    rng = derive_rng(SEED + 8)
    worst_z = 0.0
    for i in range(20):
        k = int(rng.integers(2, 9))
        alpha = rng.uniform(0.2, 10.0, size=k)
        checks = dirichlet_mc_checks(alpha, 100_000, derive_rng(SEED + 9, i))
        worst_z = max(worst_z, max(checks.values()))
    worst_gap = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        d = dr.DirichletParams(rng.uniform(0.2, 10.0, size=k))
        gap = abs(predictive_entropy(dr.mean(d))
                  - dr.expected_entropy(d) - dr.mutual_information(d))
        worst_gap = max(worst_gap, gap)
    passed = worst_z <= 4.0 and worst_gap <= 1e-10
    report(7, "Dirichlet closed forms within 4 SE of MC oracles; decomposition to 1e-10",
           passed, f"max|z|={worst_z:.2f}, max gap={worst_gap:.1e}")
    assert passed


def test_criterion_08_metric_oracle_equivalence():
    rng = derive_rng(SEED + 10)
    from oracles import auroc_pair_oracle, coverage_oracle, ece_oracle, kendall_oracle, mi_oracle

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        conf = rng.random(n)
        hits = rng.integers(0, 2, n)
        worst = max(worst, abs(ece(conf, hits, 10).value - ece_oracle(conf, hits, 10)))

        labels = rng.integers(0, 2, n)
        scores = rng.choice(np.linspace(0.1, 0.9, 5), size=n)
        if labels.min() != labels.max():
            worst = max(worst, abs(auroc(scores, labels) - auroc_pair_oracle(scores, labels)))

        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        if np.unique(x).size > 1 and np.unique(y).size > 1:
            worst = max(worst, abs(kendall_tau(x, y) - kendall_oracle(x, y)))

        matrix = rng.dirichlet(np.ones(int(rng.integers(2, 8))), size=int(rng.integers(2, 10)))
        worst = max(worst, abs(bma_mutual_information(matrix) - mi_oracle(matrix)))

        vocab = 30
        sizes = rng.integers(1, vocab + 1, size=n)
        inside = rng.random(n) < 0.8
        from uqkit.conformal import PredictionSet

        sets = [PredictionSet(indices=tuple(range(s)) if c else tuple(range(1, s + 1)),
                              q_hat=0.5) for s, c in zip(sizes, inside)]
        rep = coverage_report(sets, np.zeros(n, dtype=int), alpha=0.1, num_size_bins=6,
                              vocab_size=vocab)
        ecg_expected, ssc_expected = coverage_oracle(sizes, inside.astype(float), 0.1, 6, vocab)
        worst = max(worst, abs(rep.ecg - ecg_expected), abs(rep.ssc - ssc_expected))
    passed = worst <= 1e-12
    report(8, "ECE/ECG/SSC/AUROC/Kendall/BMA-MI equal brute-force oracles to 1e-12",
           passed, f"worst={worst:.2e}")
    assert passed


def test_criterion_09_datastore_correctness(tmp_path):
    rng = derive_rng(SEED + 11)
    store = Datastore(8)
    store.add_batch(rng.random((1000, 8)).astype(np.float32), rng.random(1000))

    from oracles import linear_scan_oracle

    scan_ok = True
    for metric in ("l2", "ip", "cos"):
        for _ in range(10):
            query = rng.random(8).astype(np.float32)
            got = store.query(query, 10, metric=metric).ids.tolist()
            _, expected = linear_scan_oracle(store.latents, query, 10, metric)
            scan_ok &= got == expected

    path = tmp_path / "acc.uqds"
    store.save(path)
    first = path.read_bytes()
    Datastore.load(path).save(path)
    roundtrip_ok = path.read_bytes() == first

    big = Datastore(8)
    big.add_batch(rng.random((10_000, 8)).astype(np.float32), rng.random(10_000))
    big.build_ivf(64, derive_rng(SEED + 12))
    hits = 0
    for _ in range(50):
        query = rng.random(8).astype(np.float32)
        exact = set(big.query(query, 10).ids.tolist())
        approx = set(big.query_ivf(query, 10, nprobe=16).ids.tolist())
        hits += len(exact & approx)
    recall = hits / 500
    passed = scan_ok and roundtrip_ok and recall >= 0.95
    report(9, "datastore: exact=scan (3 metrics), byte-identical round trip, "
              "IVF recall@10 >= 0.95", passed, f"recall={recall:.3f}")
    assert passed


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "uqkit.cli", *args], capture_output=True)


def test_criterion_10_cli_determinism(tmp_path):
    rng = derive_rng(SEED + 13)
    store = Datastore(3)
    store.add_batch(rng.random((6, 3)).astype(np.float32), rng.random(6))
    uqds = tmp_path / "c10.uqds"
    store.save(uqds)

    commands = {
        "aso-sim": ["aso-sim", "--test", "aso,student_t", "--n", "5,10", "--tau", "0.2",
                    "--trials", "25", "--seed", "17"],
        "conformal-eval": ["conformal-eval", "--vocab", "30", "--dim", "6", "--cal-steps",
                           "300", "--test-steps", "200", "--method", "split,knn",
                           "--metric", "l2", "--noise", "0,0.1", "--tau", "heuristic",
                           "--seed", "17"],
        "dirichlet-check": ["dirichlet-check", "--num-random", "3", "--samples", "20000",
                            "--seed", "17"],
        "datastore": ["datastore", "dump", str(uqds)],
    }
    passed = True
    details = []
    for name, args in commands.items():
        outputs = []
        for run_id in range(3):
            out = tmp_path / f"{name}.{run_id}.out"
            result = run_cli(args + ["--out", str(out)])
            ok = result.returncode == 0
            passed &= ok
            outputs.append(out.read_bytes() if ok else b"<error>")
        identical = outputs[0] == outputs[1] == outputs[2]
        passed &= identical
        details.append(f"{name}:{'ok' if identical else 'DIFFERS'}")
    report(10, "CLI byte-identical across reruns", passed, ", ".join(details))
    assert passed
