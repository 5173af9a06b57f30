"""The benchmark's three workloads: their CLI invocations, generated inputs and output checks.

A workload is a fixed list of uqkit CLI invocations. Its inputs depend only on
the input set, which is the benchmark seed modulo POOL_SIZE: the CLI receives
that number as --seed plus the files generated here. Every input set has its
reference values pinned in references.json (written by capture_references.py),
so each run checks every output whatever seed it is given.

Outputs are compared field by field, by column or key name: a new column or
field is not a failure, a changed value is.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

POOL_SIZE = 10
REFERENCES_PATH = Path(__file__).with_name("references.json")

# The error-rate table of scripts/error_rate_tables.py at reduced trials, so that
# one call is a few seconds and a run repeats it several times.
ASO_TESTS = "aso,student_t,bootstrap,permutation,wilcoxon,mann_whitney"
ASO_SIZES = "5,10,15,20"
ASO_THRESHOLDS = "0.05,0.1,0.2,0.3,0.4,0.5"
TYPE1_DISTS = "normal:0:1.5,mixture:0:1.5:0.75:-0.5:0.25:0.25,laplace:0:1.5,rayleigh:1"
TYPE2_BETTER, TYPE2_WORSE = "normal:0.5:1.5", "normal:0:1.5"
ASO_TRIALS = 2

# conformal-eval at the CLI defaults except for fewer calibration and test
# steps, so that one call is a few seconds and a run repeats it several times.
# Spelled out so that a changed default cannot change the workload. With 200
# calibration steps the temperature search batch (at most 400 steps) is the
# whole 200-row datastore.
CONFORMAL_CAL_STEPS, CONFORMAL_TEST_STEPS = 200, 1000
CONFORMAL_CONFIG = ["--vocab", "100", "--dim", "16", "--cal-steps", str(CONFORMAL_CAL_STEPS),
                    "--test-steps", str(CONFORMAL_TEST_STEPS), "--alpha", "0.1", "--k", "50"]
CONFORMAL_METHODS = "split,knn"
CONFORMAL_METRICS = "l2,cos"
CONFORMAL_CONDITIONS = 3  # split, knn/l2, knn/cos at one noise level
CONFORMAL_FIELDS = ("coverage", "width", "ssc", "ecg", "tau", "q_digest")

SHORT_ASO_TRIALS = 20
DATASTORE_ROWS, DATASTORE_DIM = 256, 8
DIRICHLET_VECTORS, DIRICHLET_SAMPLES = 4, 20000
DATASTORE_CSV_SCHEMA = "uqkit.datastore.csv.v1"


@dataclass(frozen=True)
class KnownDefect:
    """A failure the code is known to have today; it counts as failed but not as incorrect."""

    note: str
    exit_code: int
    stderr_marker: bytes

    def matches(self, returncode: int, stderr: bytes) -> bool:
        return returncode == self.exit_code and self.stderr_marker in stderr


@dataclass(frozen=True)
class Invocation:
    """One CLI call: arguments after `uqkit`, its output check and the items it completes."""

    label: str
    args: list[str]
    check: Callable[[int, bytes, bytes], str | None]  # (exit code, stdout, stderr) -> error
    items: int = 1
    known_defect: KnownDefect | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], None]  # (input set, inputs dir): write generated inputs
    build: Callable[[int, Path, Path, dict], list[Invocation]]  # + pass dir, references


def input_set_of(seed: int) -> int:
    return seed % POOL_SIZE


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))


# -- output parsing (shared with capture_references.py) -------------------------


def csv_rows(stdout: bytes) -> list[dict]:
    """Rows of a uqkit CSV output, skipping `#` comment lines."""
    lines = [line for line in stdout.decode("utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def aso_key(row: dict) -> str:
    return "|".join((row["test"], row["dist"], row["n"], row["threshold"]))


def rate_fields(count: int, trials: int) -> tuple[str, str]:
    """The `rate` and `se` strings aso-sim prints for `count` decisions out of `trials`."""
    rate = count / trials
    return f"{rate:.6f}", f"{math.sqrt(rate * (1 - rate) / trials):.6f}"


def conformal_key(record: dict) -> str:
    return f"{record['method']}|{record['metric']}|{record['noise']}"


# -- checks -------------------------------------------------------------------


def _exit_ok(returncode: int, stderr: bytes) -> str | None:
    if returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return f"exit {returncode}: {tail[0][:200]}"
    return None


def _pinned(refs: dict, *path):
    node = refs
    for key in path:
        if key not in node:
            raise LookupError(f"no reference pinned at {'/'.join(map(str, path))}")
        node = node[key]
    return node


def check_aso_counts(refs: dict, path: tuple, input_set: int) -> Callable:
    """aso-sim rows: `rate` and `se` per (test, dist, n, threshold) from pinned rejection counts."""

    def check(returncode, stdout, stderr):
        if (error := _exit_ok(returncode, stderr)) is not None:
            return error
        table = _pinned(refs, *path)
        counts = _pinned(table, "counts", str(input_set))
        rows = {aso_key(row): row for row in csv_rows(stdout)}
        for key, count in zip(table["keys"], counts):
            row = rows.get(key)
            if row is None:
                return f"missing row {key}"
            rate, se = rate_fields(count, table["trials"])
            if (row.get("rate"), row.get("se")) != (rate, se):
                return f"row {key}: rate,se {row.get('rate')},{row.get('se')} != {rate},{se}"
        return None

    return check


def check_conformal(refs: dict, input_set: int) -> Callable:
    def check(returncode, stdout, stderr):
        if (error := _exit_ok(returncode, stderr)) is not None:
            return error
        pinned = _pinned(refs, "conformal-knn", str(input_set))
        records = {conformal_key(r): r for r in json.loads(stdout)}
        for key, fields in pinned.items():
            record = records.get(key)
            if record is None:
                return f"missing record {key}"
            for name, value in fields.items():
                if record.get(name) != value:
                    return f"record {key}: {name} {record.get(name)!r} != {value!r}"
        return None

    return check


def check_dirichlet(refs: dict, input_set: int) -> Callable:
    def check(returncode, stdout, stderr):
        if (error := _exit_ok(returncode, stderr)) is not None:
            return error
        pinned = _pinned(refs, "cli-short", "dirichlet-check", str(input_set))
        records = json.loads(stdout)["records"]
        if len(records) != len(pinned):
            return f"{len(records)} records != {len(pinned)}"
        for i, (record, expected) in enumerate(zip(records, pinned)):
            if record.get("kl_uniform") != expected["kl_uniform"]:
                return f"record {i}: kl_uniform {record.get('kl_uniform')!r} != {expected['kl_uniform']!r}"
            z_scores = record.get("z_scores", {})
            for name, value in expected["z_scores"].items():
                if z_scores.get(name) != value:
                    return f"record {i}: z_scores.{name} {z_scores.get(name)!r} != {value!r}"
        return None

    return check


def check_exit(expected: int) -> Callable:
    """A bad-input call: the documented exit code and no traceback."""

    def check(returncode, stdout, stderr):
        if returncode != expected:
            return f"exit {returncode}, expected {expected}"
        if b"Traceback" in stderr:
            return "traceback on stderr"
        return None

    return check


# -- generated datastore records ---------------------------------------------------


def _f32(value: float) -> float:
    return struct.unpack("<f", struct.pack("<f", value))[0]


def datastore_records(input_set: int) -> list[tuple[float, list[float]]]:
    """(score, latent) rows; latents are float32 values so that UQDS holds them exactly."""
    rng = random.Random(f"uqkit-bench/datastore/{input_set}")
    return [(rng.random(), [_f32(rng.gauss(0.0, 1.0)) for _ in range(DATASTORE_DIM)])
            for _ in range(DATASTORE_ROWS)]


def datastore_csv(records) -> str:
    lines = [f"# schema={DATASTORE_CSV_SCHEMA}",
             ",".join(["score"] + [f"latent{i}" for i in range(DATASTORE_DIM)])]
    lines += [",".join(repr(x) for x in [score] + latent) for score, latent in records]
    return "\n".join(lines) + "\n"


def uqds_bytes(records) -> bytes:
    """The UQDS v1 file for these records, built from the documented format."""
    record = struct.Struct(f"<{DATASTORE_DIM}fd")
    header = struct.pack("<4sIIQ", b"UQDS", 1, DATASTORE_DIM, len(records))
    return header + b"".join(record.pack(*latent, score) for score, latent in records)


def check_store_file(path: Path, expected: bytes) -> Callable:
    def check(returncode, stdout, stderr):
        if (error := _exit_ok(returncode, stderr)) is not None:
            return error
        if not path.exists():
            return f"{path.name} not written"
        if path.read_bytes() != expected:
            return f"{path.name} differs from the expected UQDS bytes"
        return None

    return check


def check_info(records) -> Callable:
    def check(returncode, stdout, stderr):
        if (error := _exit_ok(returncode, stderr)) is not None:
            return error
        info = json.loads(stdout)
        expected = {"count": len(records), "dim": DATASTORE_DIM, "version": 1}
        for name, value in expected.items():
            if info.get(name) != value:
                return f"info {name} {info.get(name)!r} != {value!r}"
        return None

    return check


def check_dump(records) -> Callable:
    def check(returncode, stdout, stderr):
        if (error := _exit_ok(returncode, stderr)) is not None:
            return error
        rows = csv_rows(stdout)
        if len(rows) != len(records):
            return f"{len(rows)} rows != {len(records)}"
        for i, (row, (score, latent)) in enumerate(zip(rows, records)):
            expected = {"score": score, **{f"latent{j}": x for j, x in enumerate(latent)}}
            for name, value in expected.items():
                if name not in row or float(row[name]) != value:
                    return f"row {i}: {name} {row.get(name)!r} != {value!r}"
        return None

    return check


# -- workloads ----------------------------------------------------------------


def _no_inputs(input_set: int, inputs: Path) -> None:
    return None


def _aso_args(input_set: int, dists: str, dist_b: str | None) -> list[str]:
    args = ["aso-sim", "--test", ASO_TESTS, "--dist", dists, "--n", ASO_SIZES,
            "--tau", ASO_THRESHOLDS, "--trials", str(ASO_TRIALS), "--seed", str(input_set)]
    return args + (["--dist-b", dist_b] if dist_b else [])


def _aso_items(refs: dict, table: str) -> int:
    keys = refs.get("aso-tables", {}).get(table, {}).get("keys", [])
    return len(keys) * ASO_TRIALS


def build_aso_tables(input_set: int, inputs: Path, pass_dir: Path, refs: dict) -> list[Invocation]:
    return [
        Invocation("type1", _aso_args(input_set, TYPE1_DISTS, None),
                   check_aso_counts(refs, ("aso-tables", "type1"), input_set),
                   items=_aso_items(refs, "type1")),
        Invocation("type2", _aso_args(input_set, TYPE2_BETTER, TYPE2_WORSE),
                   check_aso_counts(refs, ("aso-tables", "type2"), input_set),
                   items=_aso_items(refs, "type2")),
    ]


def build_conformal_knn(input_set: int, inputs: Path, pass_dir: Path, refs: dict) -> list[Invocation]:
    args = ["conformal-eval", *CONFORMAL_CONFIG, "--method", CONFORMAL_METHODS,
            "--metric", CONFORMAL_METRICS, "--noise", "0.05", "--tau", "auto",
            "--seed", str(input_set)]
    return [Invocation("conformal-eval", args, check_conformal(refs, input_set),
                       items=CONFORMAL_CONDITIONS * CONFORMAL_TEST_STEPS)]


EMPTY_CSV_DEFECT = KnownDefect(
    note="datastore from-csv on an empty CSV exits 1 with an IndexError traceback, "
         "not the documented 3 (ROADMAP: robustness at the boundaries)",
    exit_code=1, stderr_marker=b"IndexError")


def prepare_cli_short(input_set: int, inputs: Path) -> None:
    records = datastore_records(input_set)
    (inputs / "records.csv").write_text(datastore_csv(records), encoding="utf-8")
    (inputs / "empty.csv").write_bytes(b"")
    (inputs / "truncated.uqds").write_bytes(uqds_bytes(records)[:-5])


def stdout_path(pass_dir: Path, label: str) -> Path:
    """Where the runner keeps an invocation's stdout; later calls may read it."""
    return pass_dir / f"{label}.out"


def build_cli_short(input_set: int, inputs: Path, pass_dir: Path, refs: dict) -> list[Invocation]:
    records = datastore_records(input_set)
    expected_store = uqds_bytes(records)
    store, roundtrip = pass_dir / "store.uqds", pass_dir / "roundtrip.uqds"
    seed = str(input_set)
    return [
        Invocation("from-csv", ["datastore", "from-csv", str(inputs / "records.csv"), str(store)],
                   check_store_file(store, expected_store)),
        Invocation("info", ["datastore", "info", str(store)], check_info(records)),
        Invocation("dump", ["datastore", "dump", str(store)], check_dump(records)),
        Invocation("from-csv-roundtrip",
                   ["datastore", "from-csv", str(stdout_path(pass_dir, "dump")), str(roundtrip)],
                   check_store_file(roundtrip, expected_store)),
        Invocation("dirichlet-check",
                   ["dirichlet-check", "--num-random", str(DIRICHLET_VECTORS),
                    "--samples", str(DIRICHLET_SAMPLES), "--seed", seed],
                   check_dirichlet(refs, input_set)),
        Invocation("aso-sim", ["aso-sim", "--test", "aso,student_t", "--dist", "normal:0:1.5",
                               "--n", "10", "--tau", "0.2", "--trials", str(SHORT_ASO_TRIALS),
                               "--seed", seed],
                   check_aso_counts(refs, ("cli-short", "aso-sim"), input_set)),
        Invocation("bad-dist", ["aso-sim", "--dist", "normal:0:x", "--trials", "1", "--seed", seed],
                   check_exit(2)),
        Invocation("truncated-uqds", ["datastore", "info", str(inputs / "truncated.uqds")],
                   check_exit(3)),
        Invocation("empty-csv", ["datastore", "from-csv", str(inputs / "empty.csv"),
                                 str(pass_dir / "empty.uqds")],
                   check_exit(3), known_defect=EMPTY_CSV_DEFECT),
    ]


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "aso-tables": Workload("aso-tables", _no_inputs, build_aso_tables),
    "conformal-knn": Workload("conformal-knn", _no_inputs, build_conformal_knn),
    "cli-short": Workload("cli-short", prepare_cli_short, build_cli_short),
}
