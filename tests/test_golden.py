"""Golden outputs: small CLI runs whose stdout must match committed bytes.

Regenerate (only in a change that says why in CHANGES.md; see golden/README.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from uqkit.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RECORDS_CSV = GOLDEN_DIR / "datastore_records.csv"
STORE = "<store>"

_EVAL = ["conformal-eval", "--vocab", "20", "--dim", "4", "--k", "10"]
_ALL = ["--method", "split,knn,knn_unit", "--metric", "l2,ip,cos", "--noise", "0,0.1",
        "--cal-steps", "120", "--test-steps", "60"]
_ASO = ["aso-sim", "--test", "aso,student_t,bootstrap,permutation,wilcoxon,mann_whitney",
        "--n", "5,12,13,14,50,51", "--tau", "0.05,0.2", "--trials", "3",
        "--bootstrap", "200", "--resamples", "200"]

CASES = {
    "conformal_eval_tau_auto": _EVAL + _ALL + ["--tau", "auto", "--seed", "3"],
    "conformal_eval_tau_heuristic": _EVAL + _ALL + ["--tau", "heuristic", "--seed", "4"],
    "conformal_eval_tau_numeric": _EVAL + _ALL + ["--tau", "0.5", "--seed", "5"],
    "conformal_eval_score_simple": _EVAL + [
        "--method", "split,knn", "--metric", "l2", "--noise", "0,0.1", "--cal-steps", "120",
        "--test-steps", "60", "--score", "simple", "--tau", "heuristic", "--seed", "6"],
    "conformal_eval_k_exceeds_store": _EVAL + [
        "--method", "knn,knn_unit", "--metric", "l2,cos", "--noise", "0,0.1",
        "--cal-steps", "8", "--test-steps", "30", "--alpha", "0.3", "--tau", "auto",
        "--seed", "7"],
    # The tau search batch (400) is a strict prefix of the 450-record store, and
    # the 300 test steps span several whole chunks of the batched test loop plus
    # a partial one. At this seed the l2 sets mix FULL_SET and sized steps.
    "conformal_eval_search_prefix": _EVAL + [
        "--method", "split,knn,knn_unit", "--metric", "l2,ip,cos", "--noise", "0,0.1",
        "--cal-steps", "450", "--test-steps", "300", "--tau", "auto", "--seed", "11"],
    # n 12/13 straddle the exact Mann-Whitney limit, 50/51 the untied Wilcoxon one.
    "aso_sim_type1": _ASO + ["--dist", "normal:0:1.5,laplace:0:1.5"],
    "aso_sim_type2": _ASO + ["--dist", "normal:0.5:1.5", "--dist-b", "normal:0:1.5"],
    "dirichlet_check": ["dirichlet-check", "--num-random", "2", "--samples", "2000"],
    "datastore_dump": ["datastore", "dump", STORE],
}

_SUFFIX = {"conformal-eval": ".json", "aso-sim": ".csv", "dirichlet-check": ".json",
           "datastore": ".csv"}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}{_SUFFIX[CASES[name][0]]}"


def run_case(argv) -> str:
    """Stdout of `main(argv)`; STORE names a store built by `from-csv` from RECORDS_CSV."""
    buffer = StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        store = str(Path(tmp) / "records.uqds")
        if STORE in argv:
            assert main(["datastore", "from-csv", str(RECORDS_CSV), store]) == 0
        argv = [store if arg == STORE else arg for arg in argv]
        with redirect_stdout(buffer):
            assert main(argv) == 0, argv
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    assert run_case(CASES[name]).encode("utf-8") == golden_path(name).read_bytes()


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        golden_path(name).write_text(run_case(argv), encoding="utf-8")
        print(f"wrote {golden_path(name).name}", file=sys.stderr)
