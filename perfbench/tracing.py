"""Timing wrappers, counters and spans for trace_launcher.py.

install() replaces every function in FUNCTIONS and METHODS with a timing
wrapper. The package binds names with `from .x import y`, so a function is
replaced in every uqkit module that binds it: `experiments.build_set_adaptive`
as well as `conformal.build_set_adaptive`. A listed function the package no
longer has is recorded in the spans file under "missing"; run.py then fails
the traced run instead of reporting that layer's metrics as 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, functions) whose calls become spans named "<module>.<function>".
FUNCTIONS = [
    ("uqkit.experiments", ["run_aso_grid", "run_conformal_eval", "run_conformal_condition",
                           "resolve_tau", "run_dirichlet_check", "dirichlet_mc_checks"]),
    ("uqkit.error_sim", ["type1_rate", "type2_rate", "sample_dist"]),
    ("uqkit.seeds", ["derive_rng"]),
    ("uqkit.empirical", ["quantile_function"]),
    ("uqkit.significance", ["aso", "classic_test"]),
    ("uqkit.conformal", ["conformal_generate_step", "weighted_quantile", "build_set_adaptive",
                         "split_quantile", "rbf_weights", "temperature_search"]),
    ("uqkit.metrics", ["coverage_report"]),
    ("uqkit.synthetic", ["new_model", "generate", "step_probs", "inject_noise", "nonconformity"]),
    ("uqkit.dirichlet", ["sample", "log_pdf"]),
]
# (module, class, methods) whose calls become spans named "<module>.<method>".
METHODS = [
    ("uqkit.error_sim", "TestSpec", ["rejects"]),
    ("uqkit.datastore", "Datastore", ["query", "add_batch", "save", "load"]),
]

HOOK_SPAN = "trace.hook"


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.missing: list[str] = []  # listed functions the package does not have

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, hook=None, rename=None):
        """`fn` recording a span per call.

        `rename(arguments)` names the span from the call's arguments and
        `hook(tracer, arguments, result)` updates counters. Both run after the
        call inside a "trace.hook" child span of the caller, so their cost is
        excluded from every layer's self time.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        name_id, hook_id = self.name_id(name), self.name_id(HOOK_SPAN)
        signature = inspect.signature(fn) if hook or rename else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_id, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if signature is not None:
                hook_start = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if rename is not None:
                    spans[index][0] = self.name_id(rename(bound.arguments))
                if hook is not None:
                    hook(self, bound.arguments, result)
                spans.append([hook_id, hook_start, clock(), spans[index][3]])
            return result

        return wrapper

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters.update({f"{key}.distinct": len(keys) for key, keys in self.distinct.items()})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": counters,
                       "missing": self.missing}, fh)


# -- counters recorded at the layer boundaries ------------------------------------


def _sample_bytes(values) -> bytes:
    import numpy as np
    return np.asarray(values, dtype=float).ravel().tobytes()


def _aso_hook(tracer, arguments, result):
    import numpy as np
    a, b = _sample_bytes(arguments["a"]), _sample_bytes(arguments["b"])
    tracer.distinct["significance.inputs"].add(("aso", a, b))
    tracer.counters["significance.calls"] += 1
    grid_points = np.arange(arguments["dt"], 1.0, arguments["dt"]).size
    tracer.counters["significance.aso_grid_cells"] += 2 * arguments["num_bootstrap"] * grid_points


def _classic_hook(tracer, arguments, result):
    a, b = _sample_bytes(arguments["a"]), _sample_bytes(arguments["b"])
    tracer.distinct["significance.inputs"].add((arguments["kind"], a, b))
    tracer.counters["significance.calls"] += 1


def _query_hook(tracer, arguments, result):
    import numpy as np
    latent = np.asarray(arguments["latent"], dtype=np.float32).ravel().tobytes()
    tracer.distinct["datastore.queries"].add((latent, arguments["k"], arguments["metric"]))
    tracer.counters["datastore.rows_scanned"] += len(arguments["self"])
    tracer.counters["datastore.neighbors_returned"] += len(result)


def _save_hook(tracer, arguments, result):
    tracer.counters["datastore.bytes_written"] += os.path.getsize(arguments["path"])


def _set_hook(tracer, arguments, result):
    from uqkit.conformal import is_full_set
    tracer.counters["conformal.full_sets"] += bool(is_full_set(getattr(result, "q_hat", None)))


def _sample_hook(tracer, arguments, result):
    tracer.counters["dirichlet.draws"] += result.shape[0]
    tracer.counters["dirichlet.bytes_drawn"] += result.nbytes


HOOKS = {
    "significance.aso": _aso_hook,
    "significance.classic_test": _classic_hook,
    "datastore.query": _query_hook,
    "datastore.save": _save_hook,
    "conformal.build_set_adaptive": _set_hook,
    "dirichlet.sample": _sample_hook,
}
# classic_test spans are named by test kind: "significance.student_t", ...
RENAMES = {"significance.classic_test": lambda arguments: f"significance.{arguments['kind']}"}


def _with_traced_callback(tracer, search):
    """temperature_search whose coverage callback is a span "experiments.coverage_eval"."""

    @functools.wraps(search)
    def temperature_search(coverage_eval, *args, **kwargs):
        return search(tracer.wrap(coverage_eval, "experiments.coverage_eval"), *args, **kwargs)

    return temperature_search


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "uqkit"]
    for module_name, names in FUNCTIONS:
        home = sys.modules.get(module_name)
        short = module_name.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(home, name, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{name}")
                continue
            span = f"{short}.{name}"
            target = _with_traced_callback(tracer, original) if name == "temperature_search" else original
            wrapper = tracer.wrap(target, span, hook=HOOKS.get(span), rename=RENAMES.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    for module_name, class_name, names in METHODS:
        cls = getattr(sys.modules.get(module_name), class_name, None)
        short = module_name.rsplit(".", 1)[-1]
        for name in names:
            raw = vars(cls).get(name) if cls is not None else None
            if raw is None:
                tracer.missing.append(f"{module_name}.{class_name}.{name}")
                continue
            span = f"{short}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(raw.__func__, span, hook=HOOKS.get(span))))
            else:
                setattr(cls, name, tracer.wrap(raw, span, hook=HOOKS.get(span)))


