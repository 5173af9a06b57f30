"""Golden outputs: small CLI runs whose stdout must match committed bytes.

Regenerate (only in a change that says why in CHANGES.md; see golden/README.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from uqkit.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_EVAL = ["conformal-eval", "--vocab", "20", "--dim", "4", "--k", "10"]
_ALL = ["--method", "split,knn,knn_unit", "--metric", "l2,ip,cos", "--noise", "0,0.1",
        "--cal-steps", "120", "--test-steps", "60"]

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
}


def run_case(argv) -> str:
    buffer = StringIO()
    with redirect_stdout(buffer):
        assert main(argv) == 0, argv
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert run_case(CASES[name]).encode("utf-8") == expected


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        (GOLDEN_DIR / f"{name}.json").write_text(run_case(argv), encoding="utf-8")
        print(f"wrote {name}.json", file=sys.stderr)
