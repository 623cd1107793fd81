"""Outside-in spans around eigu's layers, and the per-layer metrics they give.

The tracer replaces public functions at the module attribute the program
looks them up through: eigu's modules import with ``from .x import y``, so
``eigu.evaluation.build_blocks`` is the binding ``run_cv`` calls, not
``eigu.classifiers.build_blocks``.  Nothing under ``src/`` changes.  Spans
(name, start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

#: Metric prefix -> (module, attribute path) of the binding that is wrapped.
LAYERS = {
    "dataio.load_bonn_set": ("eigu.evaluation", "load_bonn_set"),
    "dataio.load_recording": ("eigu.dataio", "load_recording"),
    "features.dwt": ("eigu.evaluation", "dwt_features"),
    "features.fit": ("eigu.evaluation", "fit_features"),
    "features.transform": ("eigu.features", "FittedFeatures.transform"),
    "classifiers.build_blocks": ("eigu.evaluation", "build_blocks"),
    "classifiers.train": ("eigu.evaluation", "train_with_blocks"),
    "classifiers.predict": ("eigu.evaluation", "predict"),
    "kernels.gram": ("eigu.classifiers", "gram"),
    "eigsolve.standard": ("eigu.classifiers", "smallest_eigpair_standard"),
    "eigsolve.generalized": ("eigu.classifiers", "smallest_eigpair_generalized"),
    "evaluation.run_cv": ("eigu.evaluation", "run_cv"),
    "evaluation.grid_search": ("eigu.evaluation", "grid_search"),
}

#: Layers whose call latency is reported as a median and 90th percentile.
LATENCY_LAYERS = ("eigsolve.standard", "eigsolve.generalized", "evaluation.run_cv")

#: The span around one whole run_benchmark call; its self time is "other".
ROOT = "evaluation.run_benchmark"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None


class Tracer:
    """Records nested spans around the wrapped bindings while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ridge_escalations = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, type(exc).__name__)
                raise
            tracer.close(span)
            if name == "eigsolve.generalized" and result.used_ridge > 0:
                tracer.ridge_escalations += 1
            return result

        return traced

    def install(self) -> None:
        for name, (module_name, path) in LAYERS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[list]:
        """Spans as ``[id, parent, name, start, end, error]`` rows."""
        return [[s.id, s.parent, s.name, s.start, s.end, s.error] for s in self.spans]


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    tracer: Tracer, traced_calls: int, folds: int, traced_wall_s: float, untraced_wall_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced run_benchmark call, as (value, unit)."""
    child_time: dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    for span in tracer.spans:
        duration = span.end - span.start
        calls[span.name] += 1
        self_s[span.name] += duration - child_time[span.id]
        durations[span.name].append(duration)
        if span.error is not None:
            errors[(span.name, span.error)] += 1

    n = max(traced_calls, 1)
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (calls[name] / n, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / n, "s")
    for name in LATENCY_LAYERS:
        metrics[f"{name}.p50_ms"] = (1e3 * _quantile(durations[name], 50), "ms")
        metrics[f"{name}.p90_ms"] = (1e3 * _quantile(durations[name], 90), "ms")
    metrics["other.self_s"] = (self_s[ROOT] / n, "s")
    metrics["eigsolve.generalized.ridge_escalations"] = (tracer.ridge_escalations / n, "count")
    metrics["eigsolve.singular_denominator"] = (
        errors[("eigsolve.generalized", "SingularDenominatorError")] / n,
        "count",
    )
    metrics["classifiers.degenerate_planes"] = (
        errors[("classifiers.train", "DegeneratePlaneError")] / n,
        "count",
    )
    cv_folds = calls["evaluation.run_cv"] * folds
    hit_ratio = 1.0 - calls["classifiers.build_blocks"] / cv_folds if cv_folds else 0.0
    metrics["evaluation.block_cache_hit_ratio"] = (hit_ratio, "ratio")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall_s / untraced_wall_s - 1.0), "%")
    return metrics
