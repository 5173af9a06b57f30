#!/usr/bin/env python3
"""Desk-scale reproduction of the Type I / Type II error-rate threshold tables.

Runs every test across sample sizes and decision thresholds for the four score
distributions, then writes one CSV per table. Each (dist, n, trial) draws its
samples once, and all six tests read that draw. At the default 500 trials this
took 22.7-23.8 s on a shared 2-vCPU VM (2.4-2.8 s at --trials 50), nearly all
of it in the tests themselves: the script loads no scipy module. Shrink
--trials for a quick look.

Usage:
    python3 scripts/error_rate_tables.py --out-dir results/ [--trials 500] [--seed 7]
"""

import argparse
from pathlib import Path

from uqkit.cli import ASO_SIM_TESTS, number
from uqkit.error_sim import Laplace, Normal, NormalMixture, Rayleigh
from uqkit.experiments import aso_sim_csv, run_aso_grid

SIZES = [5, 10, 15, 20]
THRESHOLDS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]

DISTRIBUTIONS = {
    "normal": Normal(0.0, 1.5),
    "normal_mixture": NormalMixture(components=((0.0, 1.5), (-0.5, 0.25)),
                                    weights=(0.75, 0.25)),
    "laplace": Laplace(0.0, 1.5),
    "rayleigh": Rayleigh(1.0),
}

TYPE2_PAIRS = {
    "normal_shifted": (Normal(0.5, 1.5), Normal(0.0, 1.5)),
}


def write_csv(path: Path, records: list[dict]) -> None:
    path.write_text(aso_sim_csv(records), encoding="utf-8")
    print(f"wrote {path} ({len(records)} rows)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=Path)
    parser.add_argument("--trials", type=number(int, at_least=1), default=500)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for name, dist in DISTRIBUTIONS.items():
        records = run_aso_grid(ASO_SIM_TESTS, [dist], SIZES, THRESHOLDS,
                               trials=args.trials, seed=args.seed)
        write_csv(args.out_dir / f"type1_{name}.csv", records)

    for name, (better, worse) in TYPE2_PAIRS.items():
        records = run_aso_grid(ASO_SIM_TESTS, [better], SIZES, THRESHOLDS,
                               trials=args.trials, seed=args.seed, dist_b=worse)
        write_csv(args.out_dir / f"type2_{name}.csv", records)


if __name__ == "__main__":
    main()
