#!/usr/bin/env python3
"""Self-test of the traced run: counts repeat exactly and match their closed forms.

Usage (from the repository root):
    python3 perfbench/selftest.py [--seed 0]

For every workload it makes two traced runs (run.py --trace 1 --seconds 1,
one untraced and one traced pass each) with the same seed and requires

- every count metric (layers.COUNT_METRICS) to be identical in both runs;
- the counts to equal their closed forms (CLOSED_FORMS below);
- both runs to report correct outputs;
- the metric names and units in BENCHMARK.json to be those run.py and
  layers.py print.

Exits 1 and names each mismatch when one check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import layers
import run
import workloads

# Constants of the workloads and of uqkit's conformal-eval defaults
# (ConformalEvalConfig: search_steps=20, search_batch=400; 200 heuristic probes,
# both capped at the number of calibration steps, which is the datastore's size).
TYPE1_ROWS, TYPE2_ROWS = 576, 144     # tests x dists x n x thresholds
ASO_ROWS_PER_TRIAL = 120              # 24 (n, threshold) cells x 5 distributions
GRID_POINTS, BOOTSTRAP = 199, 1000
STORE_ROWS = workloads.CONFORMAL_CAL_STEPS
KNN_CONDITIONS, SEARCH_EVALS = 2, 21
PROBES, SEARCH_BATCH = min(200, STORE_ROWS), min(400, STORE_ROWS)
QUERIES_PER_CONDITION = PROBES + SEARCH_EVALS * SEARCH_BATCH + workloads.CONFORMAL_TEST_STEPS


def _aso_tables(m: dict) -> list[tuple[str, float, float]]:
    decisions = (TYPE1_ROWS + TYPE2_ROWS) * workloads.ASO_TRIALS
    aso = ASO_ROWS_PER_TRIAL * workloads.ASO_TRIALS
    return [
        ("error_sim.decisions", m["error_sim.decisions"], decisions),
        ("seeds.derive_rng_calls (one stream per decision)", m["seeds.derive_rng_calls"], decisions),
        ("significance.aso_calls", m["significance.aso_calls"], aso),
        ("empirical.quantile_function_calls (2 per ASO call)",
         m["empirical.quantile_function_calls"], 2 * aso),
        ("significance.aso_grid_cells (2 x bootstrap x grid points per call)",
         m["significance.aso_grid_cells"], aso * 2 * BOOTSTRAP * GRID_POINTS),
        ("significance.distinct_input_frac (six thresholds share inputs)",
         m["significance.distinct_input_frac"], 1 / 6),
    ]


def _conformal_knn(m: dict) -> list[tuple[str, float, float]]:
    evals = m["conformal.coverage_evals"]
    test = workloads.CONFORMAL_TEST_STEPS
    queries = KNN_CONDITIONS * (PROBES + test) + evals * SEARCH_BATCH
    checks = [
        ("datastore.query_calls = conditions x (probes + test_steps) + coverage_evals x search_batch",
         m["datastore.query_calls"], queries),
        ("datastore.distinct_query_frac (probes, the search batch once, test steps)",
         m["datastore.distinct_query_frac"],
         KNN_CONDITIONS * (PROBES + SEARCH_BATCH + test) / queries),
        (f"datastore.rows_scanned (every query scans the {STORE_ROWS}-row store)",
         m["datastore.rows_scanned"], queries * STORE_ROWS),
    ]
    if evals == KNN_CONDITIONS * SEARCH_EVALS:  # the search ran all its steps
        checks.append((f"datastore.query_calls = {QUERIES_PER_CONDITION:,} per knn/auto condition",
                       m["datastore.query_calls"], KNN_CONDITIONS * QUERIES_PER_CONDITION))
    else:
        print(f"note: the temperature search stopped early ({evals} coverage evaluations)")
    return checks


def _cli_short(m: dict) -> list[tuple[str, float, float]]:
    record = 4 * workloads.DATASTORE_DIM + 8
    return [
        ("error_sim.decisions (2 tests x trials)", m["error_sim.decisions"],
         2 * workloads.SHORT_ASO_TRIALS),
        ("significance.distinct_input_frac (one threshold)", m["significance.distinct_input_frac"], 1.0),
        ("dirichlet.draws", m["dirichlet.draws"],
         workloads.DIRICHLET_VECTORS * workloads.DIRICHLET_SAMPLES),
        ("datastore.bytes_written (two UQDS files)", m["datastore.bytes_written"],
         2 * (20 + workloads.DATASTORE_ROWS * record)),
    ]


CLOSED_FORMS = {"aso-tables": _aso_tables, "conformal-knn": _conformal_knn, "cli-short": _cli_short}


def traced_result(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_benchmark_json(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from what run.py prints")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    problems: list[str] = []
    check_benchmark_json(problems)
    for workload in workloads.WORKLOADS:
        first, second = traced_result(workload, args.seed), traced_result(workload, args.seed)
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{workload}: a traced run reported incorrect output")
        m1 = {name: v["value"] for name, v in first["metrics"].items()}
        m2 = {name: v["value"] for name, v in second["metrics"].items()}
        differing = [name for name in layers.COUNT_METRICS if m1[name] != m2[name]]
        problems += [f"{workload}: {name} differs between runs: {m1[name]} vs {m2[name]}"
                     for name in differing]
        print(f"{workload}: {len(layers.COUNT_METRICS) - len(differing)} of "
              f"{len(layers.COUNT_METRICS)} counts identical across two traced runs")
        for label, got, expected in CLOSED_FORMS[workload](m1):
            status = "ok" if got == expected else "MISMATCH"
            print(f"{workload}: {label}: {got} (closed form {expected}) {status}")
            if got != expected:
                problems.append(f"{workload}: {label}: {got} != {expected}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
