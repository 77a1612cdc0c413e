"""Spans around farkit's public functions, recorded from outside the program.

`Tracer.install` replaces a function at every binding that holds it in a
loaded ``farkit`` module (its defining module and each module that imported
it, e.g. ``eigendecompose`` in ``fpca``, ``tikhonov``, ``evaluate`` and
``cli``), so each call goes through exactly one wrapper. A function that no
longer exists, or that nothing calls any more, reports 0 calls. `uninstall`
puts the originals back.

Spans are kept in memory as (name, start, end, parent, error, observed) and
written out once, after the run. The program runs single-threaded
(``threads=1``), so one parent stack suffices.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# (span name, defining module, attributes); several attributes share one span
SPANS = (
    ("simulate.simulate_far1", "simulate", ("simulate_far1",)),
    ("fpca.eigendecompose", "fpca", ("eigendecompose",)),
    ("moments.weighted_moments", "moments", ("weighted_moments",)),
    ("tikhonov.cv_select_alpha", "tikhonov", ("cv_select_alpha",)),
    ("tikhonov.tikhonov_fit", "tikhonov", ("tikhonov_fit",)),
    ("fpca.fpca_far_fit", "fpca", ("fpca_far_fit",)),
    ("evaluate.fit_method", "evaluate", ("fit_method",)),
    ("evaluate.run_benchmark", "evaluate", ("run_benchmark",)),
    ("evaluate.misfe", "evaluate", ("misfe",)),
    (
        "evaluate.tables",
        "evaluate",
        ("mean_misfe_table", "regret_table", "worst_case_table", "tuning_summary",
         "rate_slope_from_report"),
    ),
    ("preprocess.load_halfhourly_csv", "preprocess", ("load_halfhourly_csv",)),
    ("preprocess.filter_and_interpolate", "preprocess", ("filter_and_interpolate",)),
    ("preprocess.preprocess_curves", "preprocess", ("preprocess_curves",)),
    ("preprocess.rolling_forecast", "preprocess", ("rolling_forecast",)),
    ("preprocess.ise", "evaluate", ("ise",)),
    ("moments.OperatorEstimate.predict", "moments", ("OperatorEstimate.predict",)),
    ("cli.write", "cli", ("_write_csv", "_write_json")),
)
ROOT = "cli.main"
FAILURE_CLASSES = (
    "NumericalError",
    "SingularSystemError",
    "DegenerateSpectrumError",
    "InsufficientDataError",
    "ValueError",
)
# Golub & Van Loan: a symmetric eigendecomposition with vectors costs about 9 M^3 flops
EIGH_FLOPS_PER_M3 = 9


def _observe_dim(result):
    return int(result.eigenvalues.size)


def _observe_edge(result):
    alphas = [a for a, _ in result.cv_curve]
    return result.selected_alpha in (alphas[0], alphas[-1])


OBSERVERS = {"fpca.eigendecompose": _observe_dim, "tikhonov.cv_select_alpha": _observe_edge}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, error class, observed]
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                record[5] = observe(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "farkit" or n.startswith("farkit.")]
        for name, module_name, attrs in SPANS:
            module = sys.modules.get(f"farkit.{module_name}")
            for attr in attrs if module is not None else ():
                owner_path, _, leaf = attr.rpartition(".")
                if owner_path:  # a method: wrap it on its class
                    owner = getattr(module, owner_path, None)
                    original = getattr(owner, leaf, None) if owner is not None else None
                    if original is not None:
                        self._replace(owner, leaf, original, self.wrap(name, original))
                    continue
                original = getattr(module, leaf, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, binding, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans once, with parent links, as JSON."""
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "error", "observed"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload))


def layer_metrics(spans) -> dict:
    """Per-layer numbers from one traced command (a root span plus its tree)."""
    durations = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, durations):
        if s[3] >= 0:
            child[s[3]] += d
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        idx = by_name.get(name, [])
        return float(durations[idx].sum() - child[idx].sum()) if idx else 0.0

    metrics = {}
    for name, _, _ in SPANS:
        if name != "cli.write":
            metrics[f"{name}.calls"] = (calls(name), "count")
            metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["cli.write.calls"] = (calls("cli.write"), "count")
    metrics["cli.write_s"] = (float(sum(durations[i] for i in by_name.get("cli.write", []))), "s")
    metrics["cli.main.self_s"] = (self_s(ROOT), "s")

    dims = np.array([spans[i][5] for i in by_name.get("fpca.eigendecompose", [])], dtype=float)
    metrics["fpca.eigendecompose.dim_mean"] = (float(dims.mean()) if dims.size else 0.0, "count")
    metrics["fpca.eigendecompose.flops_computed"] = (
        float(EIGH_FLOPS_PER_M3 * np.sum(dims**3)), "flop")
    edges = [spans[i][5] for i in by_name.get("tikhonov.cv_select_alpha", []) if spans[i][5] is not None]
    metrics["tikhonov.cv_edge_ratio"] = (sum(edges) / len(edges) if edges else 0.0, "ratio")

    fits = by_name.get("evaluate.fit_method", [])
    fit_ms = durations[fits] * 1e3
    metrics["evaluate.fit_method.p50_ms"] = (float(np.percentile(fit_ms, 50)) if fits else 0.0, "ms")
    metrics["evaluate.fit_method.p99_ms"] = (float(np.percentile(fit_ms, 99)) if fits else 0.0, "ms")
    metrics["evaluate.eigh_per_fit"] = (
        calls("fpca.eigendecompose") / len(fits) if fits else 0.0, "ratio")
    errors = [spans[i][4] for i in fits if spans[i][4] is not None]
    for cls in FAILURE_CLASSES:
        metrics[f"evaluate.fit_failures.{cls}"] = (errors.count(cls), "count")
    metrics["evaluate.fit_failures.other"] = (
        sum(1 for e in errors if e not in FAILURE_CLASSES), "count")

    roots = by_name.get(ROOT, [])
    top = [i for i, s in enumerate(spans) if s[3] in roots]
    root_s = float(durations[roots].sum())
    metrics["trace.coverage"] = (float(durations[top].sum()) / root_s if root_s else 0.0, "ratio")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics
