"""Batch command-line harness.

Subcommands: `aso-sim` (Type I/II error-rate grids), `conformal-eval`
(synthetic-model coverage study), `dirichlet-check` (closed forms vs Monte
Carlo), and `datastore` (inspect/convert UQDS files). Every subcommand is
deterministic given --seed and its configuration; outputs embed a schema tag.

Exit codes: 0 ok, 2 usage error, 3 data error. UQKIT_THREADS caps the trial
worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .datastore import Datastore, DatastoreFormatError
from .error_sim import DistSpec, Laplace, Normal, NormalMixture, Rayleigh, worker_count
from .experiments import (CONFORMAL_METHODS, ConformalEvalConfig, aso_sim_csv,
                          run_aso_grid, run_conformal_eval, run_dirichlet_check)
from .significance import CLASSIC_TEST_KINDS

DATASTORE_CSV_SCHEMA = "uqkit.datastore.csv.v1"


class UsageError(ValueError):
    """Malformed command-line value; exits with code 2."""


def parse_dist(text: str) -> DistSpec:
    try:
        parts = text.split(":")
        kind = parts[0]
        values = [float(p) for p in parts[1:]]
        if kind == "normal" and len(values) == 2:
            return Normal(values[0], values[1])
        if kind == "laplace" and len(values) == 2:
            return Laplace(values[0], values[1])
        if kind == "rayleigh" and len(values) == 1:
            return Rayleigh(values[0])
        if kind == "mixture" and len(values) >= 6 and len(values) % 3 == 0:
            components = tuple((values[i], values[i + 1]) for i in range(0, len(values), 3))
            weights = tuple(values[i + 2] for i in range(0, len(values), 3))
            return NormalMixture(components, weights)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"cannot parse distribution spec {text!r}: {exc}") from exc
    raise UsageError(f"cannot parse distribution spec {text!r}")


def _split_list(text: str, cast):
    try:
        return [cast(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"cannot parse list {text!r}: {exc}") from exc


def _require_at_least(minimum: int, *options: tuple[str, int]) -> None:
    for option, value in options:
        if value < minimum:
            raise UsageError(f"{option} must be >= {minimum}, got {value}")


def _require_choices(option: str, values: list[str], choices: tuple[str, ...]) -> None:
    for value in values:
        if value not in choices:
            raise UsageError(f"{option}: unknown name {value!r}; expected one of "
                             f"{','.join(choices)}")


def _require_unit_interval(option: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise UsageError(f"{option} must lie in (0, 1), got {value!r}")


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload, encoding="utf-8")


# -- tiny self-contained SVG emitter ------------------------------------------


def _svg_line_chart(series: dict[str, list[tuple[float, float]]], title: str,
                    width: int = 640, height: int = 400) -> str:
    """Minimal multi-series line chart; enough to eyeball rate curves."""
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
    try:
        worker_count()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dists = [parse_dist(d) for d in _split_list(args.dist, str)]
    dist_b = parse_dist(args.dist_b) if args.dist_b else None
    sizes = _split_list(args.n, int)
    thresholds = _split_list(args.tau, float)
    tests = _split_list(args.test, str)
    _require_choices("--test", tests, ("aso", *CLASSIC_TEST_KINDS))
    _require_at_least(1, ("--trials", args.trials), ("--bootstrap", args.bootstrap),
                      ("--resamples", args.resamples), *(("--n", n) for n in sizes))
    _require_unit_interval("--alpha", args.alpha)
    if not all(math.isfinite(t) for t in thresholds):
        raise UsageError(f"--tau values must be finite, got {args.tau!r}")
    records = run_aso_grid(
        tests=tests, dists=dists, sizes=sizes, thresholds=thresholds, trials=args.trials,
        seed=args.seed, alpha=args.alpha, num_bootstrap=args.bootstrap,
        resamples=args.resamples, dist_b=dist_b)
    _emit(aso_sim_csv(records), args.out)
    if args.plot:
        series = {}
        for record in records:
            key = f"{record['test']} tau={record['threshold']:g}"
            series.setdefault(key, []).append((record["n"], record["rate"]))
        Path(args.plot).write_text(
            _svg_line_chart(series, "error rate vs sample size"), encoding="utf-8")
    return 0


def cmd_conformal_eval(args) -> int:
    _require_at_least(1, ("--cal-steps", args.cal_steps), ("--test-steps", args.test_steps),
                      ("--k", args.k))
    _require_at_least(2, ("--vocab", args.vocab), ("--dim", args.dim))
    _require_unit_interval("--alpha", args.alpha)
    methods = _split_list(args.method, str)
    metrics = _split_list(args.metric, str)
    noises = _split_list(args.noise, float)
    _require_choices("--method", methods, CONFORMAL_METHODS)
    _require_choices("--metric", metrics, ("l2", "ip", "cos"))
    if not all(math.isfinite(noise) and noise >= 0.0 for noise in noises):
        raise UsageError(f"--noise values must be finite and >= 0, got {args.noise!r}")
    try:
        tau = args.tau if args.tau in ("auto", "heuristic") else float(args.tau)
    except ValueError as exc:
        raise UsageError(f"cannot parse --tau {args.tau!r}") from exc
    if isinstance(tau, float) and not (math.isfinite(tau) and tau > 0.0):
        raise UsageError(f"--tau must be a finite number > 0, got {args.tau!r}")
    cfg = ConformalEvalConfig(vocab_size=args.vocab, latent_dim=args.dim,
                              cal_steps=args.cal_steps, test_steps=args.test_steps,
                              alpha=args.alpha, k=args.k, score_kind=args.score)
    records = run_conformal_eval(cfg, methods=methods, metrics=metrics, noises=noises,
                                 tau=tau, seed=args.seed)
    _emit(json.dumps(records, sort_keys=True, indent=2) + "\n", args.out)
    if args.plot:
        series = {}
        for record in records:
            name = record["method"] if record["metric"] == "-" else \
                f"{record['method']}/{record['metric']}"
            series.setdefault(name, []).append((record["noise"], record["coverage"]))
        Path(args.plot).write_text(
            _svg_line_chart(series, "coverage vs injected noise"), encoding="utf-8")
    return 0


def cmd_dirichlet_check(args) -> int:
    explicit = _split_list(args.alpha, float) if args.alpha else None
    _require_at_least(1, ("--samples", args.samples))
    if explicit is None:
        _require_at_least(1, ("--num-random", args.num_random))
    records = run_dirichlet_check(num_random=args.num_random, num_samples=args.samples,
                                  seed=args.seed, explicit_alpha=explicit)
    overall = max(record["max_abs_z"] for record in records)
    payload = json.dumps({"records": records, "overall_max_abs_z": overall},
                         sort_keys=True, indent=2) + "\n"
    _emit(payload, args.out)
    return 0


def cmd_datastore(args) -> int:
    if args.action == "info":
        store = Datastore.load(args.path)
        _emit(json.dumps({"schema": DATASTORE_CSV_SCHEMA, "dim": store.dim,
                          "count": len(store), "version": 1}, sort_keys=True) + "\n",
              args.out)
        return 0
    if args.action == "dump":
        store = Datastore.load(args.path)
        buffer = io.StringIO()
        buffer.write(f"# schema={DATASTORE_CSV_SCHEMA}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["score"] + [f"latent{i}" for i in range(store.dim)])
        for latent, score in zip(store.latents, store.scores):
            writer.writerow([repr(float(score))] + [repr(float(x)) for x in latent])
        _emit(buffer.getvalue(), args.out)
        return 0
    if args.action == "from-csv":
        lines = Path(args.path).read_text(encoding="utf-8").splitlines()
        rows = [row for row in csv.reader(line for line in lines if not line.startswith("#"))]
        if not rows:
            raise ValueError(f"{args.path}: empty CSV, expected a header row")
        header, body = rows[0], rows[1:]
        dim = len(header) - 1
        store = Datastore(dim)
        if body:
            latents = np.array([[float(x) for x in row[1:]] for row in body], dtype=np.float32)
            scores = np.array([float(row[0]) for row in body])
            store.add_batch(latents, scores)
        store.save(args.dest)
        return 0
    raise ValueError(f"unknown datastore action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uqkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aso-sim", help="Type I/II error-rate grids")
    p.add_argument("--test", default="aso", help="comma list: aso,student_t,bootstrap,permutation,wilcoxon,mann_whitney")
    p.add_argument("--dist", default="normal:0:1.5", help="comma list of distribution specs")
    p.add_argument("--dist-b", default=None, dest="dist_b",
                   help="second distribution; switches to Type II mode (--dist is the better system)")
    p.add_argument("--n", default="5", help="comma list of sample sizes")
    p.add_argument("--tau", default="0.2", help="comma list of decision thresholds")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05, help="ASO confidence level")
    p.add_argument("--bootstrap", type=int, default=1000)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None, help="write an SVG chart to this path")
    p.set_defaults(func=cmd_aso_sim)

    p = sub.add_parser("conformal-eval", help="synthetic-model conformal coverage study")
    p.add_argument("--vocab", type=int, default=100)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--cal-steps", type=int, default=2000, dest="cal_steps")
    p.add_argument("--test-steps", type=int, default=2000, dest="test_steps")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--method", default="split,knn", help="comma list: split,knn,knn_unit")
    p.add_argument("--metric", default="l2", help="comma list: l2,ip,cos")
    p.add_argument("--noise", default="0", help="comma list of noise levels (fractions of latent std)")
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--tau", default="auto",
                   help='"auto" (stochastic search), "heuristic" (median neighbor key), '
                        "or a numeric RBF scale")
    p.add_argument("--score", default="adaptive", choices=["adaptive", "simple"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None)
    p.set_defaults(func=cmd_conformal_eval)

    p = sub.add_parser("dirichlet-check", help="closed forms vs Monte Carlo oracles")
    p.add_argument("--alpha", default=None, help="explicit comma list of concentrations")
    p.add_argument("--num-random", type=int, default=20, dest="num_random")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
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
    args = build_parser().parse_args(argv)
    if args.command == "datastore" and args.action == "from-csv" and not args.dest:
        build_parser().error("from-csv requires a destination path")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DatastoreFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
