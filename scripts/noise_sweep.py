#!/usr/bin/env python3
"""Coverage and set size of split vs kNN-weighted conformal under latent noise.

Sweeps injected latent noise (as a fraction of the calibration latent std) for
the synthetic sequence model over several seeds and prints a small table; the
kNN-weighted method should widen its sets and hold coverage where the static
split calibration degrades.

Usage:
    python3 scripts/noise_sweep.py [--seeds 1 2 3] [--noise 0 0.05 0.1] [--tau heuristic]
"""

import argparse

from uqkit.cli import number, rbf_tau
from uqkit.experiments import ConformalEvalConfig, run_conformal_eval


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--noise", type=number(float, at_least=0.0), nargs="+",
                        default=[0.0, 0.05, 0.1])
    parser.add_argument("--tau", type=rbf_tau, default="heuristic")
    parser.add_argument("--metric", default="l2", choices=["l2", "ip", "cos"])
    parser.add_argument("--k", type=number(int, at_least=1), default=50)
    args = parser.parse_args()

    cfg = ConformalEvalConfig(k=args.k)

    header = f"{'seed':>5} {'noise':>6} | {'knn cov':>8} {'knn size':>9} {'tau':>8} | {'split cov':>9} {'split size':>10}"
    print(header)
    print("-" * len(header))
    for seed in args.seeds:
        records = run_conformal_eval(cfg, ["knn", "split"], [args.metric], args.noise,
                                     args.tau, seed)
        by_condition = {(r["method"], r["noise"]): r for r in records}
        for noise in args.noise:
            knn, split = by_condition["knn", noise], by_condition["split", noise]
            print(f"{seed:>5} {noise:>6.3f} | {knn['coverage']:>8.4f} "
                  f"{knn['mean_set_size']:>9.1f} {knn['tau']:>8.3f} | "
                  f"{split['coverage']:>9.4f} {split['mean_set_size']:>10.1f}")


if __name__ == "__main__":
    main()
