"""Per-layer metrics from the span files the trace launcher writes.

Layers are named after the src/uqkit modules: a span "datastore.query"
belongs to the layer "datastore". A span's self time is its duration minus
the durations of its child spans; the CLI is single-threaded, so children
never overlap. `_s` metrics are total seconds over one pass of a workload,
`_self_s` metrics are self seconds, `_calls` and the other counts are
numbers of calls or items. Ratios whose denominator is 0 on a workload (for
example datastore ratios on aso-tables) read 0.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "experiments.resolve_tau_s": "s",
    "experiments.self_s": "s",
    "error_sim.decisions": "count",
    "error_sim.self_s": "s",
    "error_sim.sample_dist_s": "s",
    "seeds.derive_rng_calls": "count",
    "seeds.derive_rng_s": "s",
    "empirical.quantile_function_calls": "count",
    "significance.aso_calls": "count",
    "significance.aso_s": "s",
    "significance.aso_p50_ms": "ms",
    "significance.student_t_s": "s",
    "significance.bootstrap_s": "s",
    "significance.permutation_s": "s",
    "significance.wilcoxon_s": "s",
    "significance.mann_whitney_s": "s",
    "significance.distinct_input_frac": "fraction",
    "significance.aso_grid_cells": "count",
    "datastore.query_calls": "count",
    "datastore.query_s": "s",
    "datastore.query_p50_us": "us",
    "datastore.distinct_query_frac": "fraction",
    "datastore.rows_scanned": "count",
    "datastore.useful_frac": "fraction",
    "datastore.save_s": "s",
    "datastore.load_s": "s",
    "datastore.add_batch_s": "s",
    "datastore.bytes_written": "bytes",
    "conformal.generate_step_self_s": "s",
    "conformal.weighted_quantile_calls": "count",
    "conformal.weighted_quantile_s": "s",
    "conformal.build_set_adaptive_calls": "count",
    "conformal.build_set_adaptive_s": "s",
    "conformal.coverage_evals": "count",
    "conformal.full_set_frac": "fraction",
    "metrics.coverage_report_s": "s",
    "synthetic.generate_s": "s",
    "synthetic.step_probs_calls": "count",
    "synthetic.nonconformity_s": "s",
    "dirichlet.sample_s": "s",
    "dirichlet.draws": "count",
    "dirichlet.log_pdf_s": "s",
    "dirichlet.bytes_drawn": "bytes",
    "trace.overhead_frac": "fraction",
}

# Counts and ratios of counts: they repeat exactly.
COUNT_METRICS = [name for name, unit in PER_LAYER.items()
                 if unit in ("count", "bytes", "fraction") and name != "trace.overhead_frac"]

_NS = 1e-9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class PassSpans:
    """Totals over the span files of one pass of a workload."""

    def __init__(self):
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.layer_self_ns: Counter = Counter()
        self.durations_ns: defaultdict[str, list[int]] = defaultdict(list)
        self.counters: Counter = Counter()
        self.missing: set[str] = set()  # traced functions the package no longer has

    def add_file(self, path: Path) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        names, spans = data["names"], data["spans"]
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name_id, start, end, _), children in zip(spans, child_ns):
            name = names[name_id]
            own = end - start - children
            self.total_ns[name] += end - start
            self.self_ns[name] += own
            self.calls[name] += 1
            self.layer_self_ns[name.split(".", 1)[0]] += own
            if name in ("significance.aso", "datastore.query"):
                self.durations_ns[name].append(end - start)
        self.counters.update(data["counters"])
        self.missing.update(data["missing"])

    def _p50_ns(self, name: str) -> float:
        durations = self.durations_ns[name]
        return statistics.median(durations) if durations else 0.0

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_frac, which needs the untraced pass."""
        t, own, calls, c = self.total_ns, self.self_ns, self.calls, self.counters
        return {
            "cli.import_s": t["cli.import"] * _NS,
            "cli.main_self_s": own["cli.main"] * _NS,
            "experiments.resolve_tau_s": t["experiments.resolve_tau"] * _NS,
            "experiments.self_s": self.layer_self_ns["experiments"] * _NS,
            "error_sim.decisions": calls["error_sim.rejects"],
            "error_sim.self_s": self.layer_self_ns["error_sim"] * _NS,
            "error_sim.sample_dist_s": t["error_sim.sample_dist"] * _NS,
            "seeds.derive_rng_calls": calls["seeds.derive_rng"],
            "seeds.derive_rng_s": t["seeds.derive_rng"] * _NS,
            "empirical.quantile_function_calls": calls["empirical.quantile_function"],
            "significance.aso_calls": calls["significance.aso"],
            "significance.aso_s": t["significance.aso"] * _NS,
            "significance.aso_p50_ms": self._p50_ns("significance.aso") * 1e-6,
            "significance.student_t_s": t["significance.student_t"] * _NS,
            "significance.bootstrap_s": t["significance.bootstrap"] * _NS,
            "significance.permutation_s": t["significance.permutation"] * _NS,
            "significance.wilcoxon_s": t["significance.wilcoxon"] * _NS,
            "significance.mann_whitney_s": t["significance.mann_whitney"] * _NS,
            "significance.distinct_input_frac": _ratio(c["significance.inputs.distinct"],
                                                       c["significance.calls"]),
            "significance.aso_grid_cells": c["significance.aso_grid_cells"],
            "datastore.query_calls": calls["datastore.query"],
            "datastore.query_s": t["datastore.query"] * _NS,
            "datastore.query_p50_us": self._p50_ns("datastore.query") * 1e-3,
            "datastore.distinct_query_frac": _ratio(c["datastore.queries.distinct"],
                                                    calls["datastore.query"]),
            "datastore.rows_scanned": c["datastore.rows_scanned"],
            "datastore.useful_frac": _ratio(c["datastore.neighbors_returned"],
                                            c["datastore.rows_scanned"]),
            "datastore.save_s": t["datastore.save"] * _NS,
            "datastore.load_s": t["datastore.load"] * _NS,
            "datastore.add_batch_s": t["datastore.add_batch"] * _NS,
            "datastore.bytes_written": c["datastore.bytes_written"],
            "conformal.generate_step_self_s": own["conformal.conformal_generate_step"] * _NS,
            "conformal.weighted_quantile_calls": calls["conformal.weighted_quantile"],
            "conformal.weighted_quantile_s": t["conformal.weighted_quantile"] * _NS,
            "conformal.build_set_adaptive_calls": calls["conformal.build_set_adaptive"],
            "conformal.build_set_adaptive_s": t["conformal.build_set_adaptive"] * _NS,
            "conformal.coverage_evals": calls["experiments.coverage_eval"],
            "conformal.full_set_frac": _ratio(c["conformal.full_sets"],
                                              calls["conformal.build_set_adaptive"]),
            "metrics.coverage_report_s": t["metrics.coverage_report"] * _NS,
            "synthetic.generate_s": t["synthetic.generate"] * _NS,
            "synthetic.step_probs_calls": calls["synthetic.step_probs"],
            "synthetic.nonconformity_s": t["synthetic.nonconformity"] * _NS,
            "dirichlet.sample_s": t["dirichlet.sample"] * _NS,
            "dirichlet.draws": c["dirichlet.draws"],
            "dirichlet.log_pdf_s": t["dirichlet.log_pdf"] * _NS,
            "dirichlet.bytes_drawn": c["dirichlet.bytes_drawn"],
        }
