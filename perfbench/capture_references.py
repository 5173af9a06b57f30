#!/usr/bin/env python3
"""Pin the benchmark's reference values by running the current code on every input set.

Usage (from the repository root):
    python3 perfbench/capture_references.py

Runs each workload's invocations once per input set, untraced, and writes
the values the checks compare to perfbench/references.json:

- aso-tables and the cli-short aso-sim: the rejection count per
  (test, dist, n, threshold) row; rate and se follow as count/trials and
  sqrt(rate*(1-rate)/trials), printed as aso-sim prints them;
- conformal-knn: coverage, width, ssc, ecg, tau and q_digest per
  (method, metric, noise) record;
- cli-short dirichlet-check: kl_uniform and z_scores per record.

The datastore calls and the bad-input calls need no pins: their expected
bytes and exit codes follow from the generated inputs and the documented
format and exit codes. Re-pinning is a change to the benchmark; a change to
uqkit that alters these values must say why.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def _aso_table(stdout: bytes, trials: int) -> tuple[list[str], list[int]]:
    keys, counts = [], []
    for row in workloads.csv_rows(stdout):
        count = round(float(row["rate"]) * trials)
        if (row["rate"], row["se"]) != workloads.rate_fields(count, trials):
            raise SystemExit(f"row {workloads.aso_key(row)} is not count/trials")
        keys.append(workloads.aso_key(row))
        counts.append(count)
    return keys, counts


def _pin_table(refs: dict, path: tuple, trials: int, input_set: int, stdout: bytes) -> None:
    keys, counts = _aso_table(stdout, trials)
    table = refs
    for key in path:
        table = table.setdefault(key, {})
    if table.setdefault("keys", keys) != keys:
        raise SystemExit(f"{'/'.join(path)}: rows differ between input sets")
    table["trials"] = trials
    table.setdefault("counts", {})[str(input_set)] = counts


def capture(input_set: int, refs: dict) -> None:
    env = run.child_env()
    work = run.WORK_ROOT / f"capture-{input_set}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        for workload in workloads.WORKLOADS.values():
            workload.prepare(input_set, inputs)
            pass_dir = work / workload.name
            pass_dir.mkdir()
            outputs = {}
            for inv in workload.build(input_set, inputs, pass_dir, refs):
                child = run.run_child([sys.executable, "-m", "uqkit.cli", *inv.args],
                                      workloads.stdout_path(pass_dir, inv.label),
                                      pass_dir / f"{inv.label}.err", env,
                                      time.perf_counter() + 600.0)
                outputs[inv.label] = child.stdout
            if workload.name == "aso-tables":
                for table in ("type1", "type2"):
                    _pin_table(refs, ("aso-tables", table), workloads.ASO_TRIALS, input_set,
                               outputs[table])
            elif workload.name == "conformal-knn":
                records = json.loads(outputs["conformal-eval"])
                refs.setdefault("conformal-knn", {})[str(input_set)] = {
                    workloads.conformal_key(r): {f: r[f] for f in workloads.CONFORMAL_FIELDS}
                    for r in records}
            else:
                _pin_table(refs, ("cli-short", "aso-sim"), workloads.SHORT_ASO_TRIALS, input_set,
                           outputs["aso-sim"])
                records = json.loads(outputs["dirichlet-check"])["records"]
                refs.setdefault("cli-short", {}).setdefault("dirichlet-check", {})[str(input_set)] = [
                    {"kl_uniform": r["kl_uniform"], "z_scores": r["z_scores"]} for r in records]
            print(f"input set {input_set}: {workload.name} pinned", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    refs: dict = {}
    for input_set in range(workloads.POOL_SIZE):
        capture(input_set, refs)
    path = workloads.REFERENCES_PATH
    path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
