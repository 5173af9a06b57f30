"""Batch command-line harness.

Subcommands: `aso-sim` (Type I/II error-rate grids), `conformal-eval`
(synthetic-model coverage study), `dirichlet-check` (closed forms vs Monte
Carlo), and `datastore` (inspect/convert UQDS files). Every subcommand is
deterministic given --seed and its configuration; outputs embed a schema tag.

Exit codes: 0 ok, 2 usage error, 3 data error. `aso-sim` runs its trials
serially, and every test reads one draw per (dist, n, trial).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import operator
import os
import sys
from argparse import ArgumentTypeError
from pathlib import Path

# One BLAS thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is
# set: at the default sizes the gemvs run no faster on two, while the idle worker spins
# (see the README). OpenBLAS reads the count once, when numpy loads, so the variable is
# set just for the first import that loads numpy and taken out again, and no process
# this one starts inherits it.
_ONE_BLAS_THREAD = not ({"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
                        & os.environ.keys())
if _ONE_BLAS_THREAD:
    os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

if _ONE_BLAS_THREAD:
    del os.environ["OMP_NUM_THREADS"]

from .conformal import SCORE_RULES
from .datastore import METRICS, Datastore
from .dirichlet import DirichletParams
from .error_sim import TEST_KINDS, DistSpec
from .experiments import (ASO_SIM_SCHEMA, CONFORMAL_METHODS, ConformalEvalConfig,
                          run_aso_grid, run_conformal_eval, run_dirichlet_check)

DATASTORE_CSV_SCHEMA = "uqkit.datastore.csv.v1"


class UsageError(ValueError):
    """Malformed command-line value; exits with code 2."""


class ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage and exiting; subparsers inherit it."""
    def error(self, message):
        raise UsageError(message)


# -- option types: each option is parsed and checked where it is declared ------


def number(cast, *, at_least=None, above=None, below=None):
    """`type=` parser for one int or finite float; `at_least` is closed, `above`/`below` open."""
    bounds = [(op, test, b) for op, test, b in ((">=", operator.ge, at_least),
              (">", operator.gt, above), ("<", operator.lt, below)) if b is not None]
    expected = " ".join(["an integer" if cast is int else "a finite number",
                         " and ".join(f"{op} {b}" for op, _, b in bounds)]).rstrip()
    def parse(text: str):
        try:
            value = cast(text)
            if (cast is int or math.isfinite(value)) and \
                    all(test(value, b) for _, test, b in bounds):
                return value
        except ValueError:
            pass
        raise ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def comma_list(item):
    """`type=` parser for a non-empty comma list with no empty item; `item` parses each."""
    def parse(text: str) -> list:
        if "" in text.split(","):
            raise ArgumentTypeError(f"expected a comma list with no empty item, got {text!r}")
        return [item(part) for part in text.split(",")]
    return parse


def names(choices: tuple[str, ...]):
    """`type=` parser for a comma list of names out of `choices`."""
    def name(text: str) -> str:
        if text not in choices:
            raise ArgumentTypeError(f"unknown name {text!r}; expected one of {','.join(choices)}")
        return text
    return comma_list(name)


def parse_dist(text: str) -> DistSpec:
    """`type=` parser for one distribution spec; `DistSpec` holds the rules."""
    try:
        return DistSpec.parse(text)
    except ValueError as exc:
        raise ArgumentTypeError(f"cannot parse distribution spec {text!r}: {exc}") from exc


def concentrations(text: str) -> list[float]:
    """`type=` parser for Dirichlet concentrations; `DirichletParams` holds the rules."""
    try:
        return DirichletParams(comma_list(float)(text)).alpha.tolist()
    except ValueError as exc:
        raise ArgumentTypeError(str(exc)) from exc


def rbf_tau(text: str):
    """`type=` parser for a conformal RBF scale: auto, heuristic or a finite number > 0."""
    return text if text in ("auto", "heuristic") else number(float, above=0.0)(text)


def _tagged_csv(schema: str, header: list[str], rows) -> str:
    """A `# schema=` line, then the header and the rows as CSV with LF line ends."""
    buffer = io.StringIO()
    buffer.write(f"# schema={schema}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload, encoding="utf-8")


# -- tiny self-contained SVG emitter ------------------------------------------


def _svg_line_chart(records: list, point, title: str) -> str:
    """Minimal 640 x 400 chart of one line per name, from `point(record) -> (name, x, y)`;
    enough to eyeball curves."""
    width, height = 640, 400
    series = {}
    for record in records:
        name, x, y = point(record)
        series.setdefault(name, []).append((x, y))
    pad = 50.0
    points = [pt for pts in series.values() for pt in pts]
    xs = [p[0] for p in points] or [0.0, 1.0]
    ys = [p[1] for p in points] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(1e-9, max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>']
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{path}"/>')
        parts.append(f'<text x="{width - pad + 4:.1f}" y="{pad + 16 * i:.1f}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- subcommands ---------------------------------------------------------------


def cmd_aso_sim(args) -> int:
    records = run_aso_grid(
        tests=args.test, dists=args.dist, sizes=args.n, thresholds=args.tau,
        trials=args.trials, seed=args.seed, alpha=args.alpha, num_bootstrap=args.bootstrap,
        resamples=args.resamples, dist_b=args.dist_b)
    _emit(_tagged_csv(ASO_SIM_SCHEMA,
                      ["test", "dist", "n", "threshold", "trials", "rate", "se", "seed"],
                      ([r.test, r.dist, r.n, r.threshold, r.trials, f"{r.rate:.6f}",
                        f"{r.se:.6f}", r.seed] for r in records)), args.out)
    if args.plot:
        _emit(_svg_line_chart(records, lambda r: (f"{r.test} tau={r.threshold:g}", r.n, r.rate),
                              "error rate vs sample size"), args.plot)
    return 0


def cmd_conformal_eval(args) -> int:
    cfg = ConformalEvalConfig(vocab_size=args.vocab, latent_dim=args.dim,
                              cal_steps=args.cal_steps, test_steps=args.test_steps,
                              alpha=args.alpha, k=args.k, score_kind=args.score)
    records = run_conformal_eval(cfg, methods=args.method, metrics=args.metric,
                                 noises=args.noise, tau=args.tau, seed=args.seed)
    _emit(json.dumps(records, sort_keys=True, indent=2) + "\n", args.out)
    if args.plot:
        _emit(_svg_line_chart(
            records, lambda r: (r["method"] + ("" if r["metric"] == "-" else "/" + r["metric"]),
                                r["noise"], r["coverage"]),
            "coverage vs injected noise"), args.plot)
    return 0


def cmd_dirichlet_check(args) -> int:
    if args.alpha is None and args.num_random < 1:
        raise UsageError("argument --num-random: expected an integer >= 1, "
                         f"got '{args.num_random}'")
    records = run_dirichlet_check(num_random=args.num_random, num_samples=args.samples,
                                  seed=args.seed, explicit_alpha=args.alpha)
    overall = max(record["max_abs_z"] for record in records)
    _emit(json.dumps({"records": records, "overall_max_abs_z": overall},
                     sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_datastore(args) -> int:
    if args.action == "from-csv":
        lines = Path(args.path).read_text(encoding="utf-8").splitlines()
        rows = [row for row in csv.reader(line for line in lines if not line.startswith("#"))]
        if not rows:
            raise ValueError(f"{args.path}: empty CSV, expected a header row")
        header, body = rows[0], rows[1:]
        for number, row in enumerate(body, start=1):
            if len(row) != len(header):
                raise ValueError(f"{args.path}: data row {number} has {len(row)} fields, "
                                 f"the header has {len(header)}")
        store = Datastore(len(header) - 1)
        if body:
            latents = np.array([[float(x) for x in row[1:]] for row in body])
            scores = np.array([float(row[0]) for row in body])
            store.add_batch(latents, scores)
        store.save(args.dest)
        return 0
    store = Datastore.load(args.path)
    if args.action == "info":
        _emit(json.dumps({"schema": DATASTORE_CSV_SCHEMA, "dim": store.dim,
                          "count": len(store), "version": 1}, sort_keys=True) + "\n",
              args.out)
        return 0
    _emit(_tagged_csv(DATASTORE_CSV_SCHEMA, ["score"] + [f"latent{i}" for i in range(store.dim)],
                      ([repr(float(score))] + [repr(float(x)) for x in latent]
                       for latent, score in zip(store.latents, store.scores))), args.out)
    return 0


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(prog="uqkit", description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    at_least_0, at_least_1 = number(int, at_least=0), number(int, at_least=1)
    unit_interval = number(float, above=0.0, below=1.0)

    p = sub.add_parser("aso-sim", help="Type I/II error-rate grids")
    p.add_argument("--test", default="aso", type=names(TEST_KINDS),
                   help=f"comma list: {','.join(TEST_KINDS)}")
    p.add_argument("--dist", default="normal:0:1.5", type=comma_list(parse_dist),
                   help="comma list of distribution specs")
    p.add_argument("--dist-b", default=None, dest="dist_b", type=parse_dist,
                   help="second distribution; switches to Type II mode (--dist is the better system)")
    p.add_argument("--n", default="5", type=comma_list(number(int, at_least=2)),
                   help="comma list of sample sizes (each >= 2)")
    p.add_argument("--tau", default="0.2", type=comma_list(number(float)),
                   help="comma list of decision thresholds")
    p.add_argument("--trials", type=at_least_1, default=500)
    p.add_argument("--seed", type=at_least_0, default=0)
    p.add_argument("--alpha", type=unit_interval, default=0.05, help="ASO confidence level")
    p.add_argument("--bootstrap", type=at_least_1, default=1000)
    p.add_argument("--resamples", type=at_least_1, default=1000)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None, help="write an SVG chart to this path")
    p.set_defaults(func=cmd_aso_sim)

    p = sub.add_parser("conformal-eval", help="synthetic-model conformal coverage study")
    p.add_argument("--vocab", type=number(int, at_least=2), default=100)
    p.add_argument("--dim", type=number(int, at_least=2), default=16)
    p.add_argument("--cal-steps", type=at_least_1, default=2000, dest="cal_steps")
    p.add_argument("--test-steps", type=at_least_1, default=2000, dest="test_steps")
    p.add_argument("--alpha", type=unit_interval, default=0.1)
    p.add_argument("--method", default="split,knn", type=names(CONFORMAL_METHODS),
                   help=f"comma list: {','.join(CONFORMAL_METHODS)}")
    p.add_argument("--metric", default="l2", type=names(METRICS),
                   help=f"comma list: {','.join(METRICS)}")
    p.add_argument("--noise", default="0", type=comma_list(number(float, at_least=0.0)),
                   help="comma list of noise levels (fractions of latent std)")
    p.add_argument("--k", type=at_least_1, default=50)
    p.add_argument("--tau", default="auto", type=rbf_tau,
                   help='"auto" (stochastic search), "heuristic" (median neighbor key), '
                        "or a numeric RBF scale")
    p.add_argument("--score", default="adaptive", choices=sorted(SCORE_RULES))
    p.add_argument("--seed", type=at_least_0, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None)
    p.set_defaults(func=cmd_conformal_eval)

    p = sub.add_parser("dirichlet-check", help="closed forms vs Monte Carlo oracles")
    p.add_argument("--alpha", default=None, type=concentrations,
                   help="explicit comma list of concentrations")
    p.add_argument("--num-random", type=number(int), default=20, dest="num_random")
    p.add_argument("--samples", type=number(int, at_least=2), default=100000)
    p.add_argument("--seed", type=at_least_0, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dirichlet_check)

    p = sub.add_parser("datastore", help="inspect/convert UQDS files")
    p.add_argument("action", choices=["info", "dump", "from-csv"])
    p.add_argument("path")
    p.add_argument("dest", nargs="?", default=None, help="output path for from-csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_datastore)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "datastore" and args.action == "from-csv" and not args.dest:
            raise UsageError("argument dest: from-csv requires a destination path")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # DatastoreFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Process entry of `python -m uqkit.cli` and the `uqkit` script: `main` after
    `gc.freeze()`, so the collections of the run and of teardown skip the import-time heap.

    Teardown still runs (atexit, stream flushes, profilers). `main` never freezes,
    because tests and tools call it in their own process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
