"""Span tracing installed from outside the program, and the per-layer split.

``Tracer.install`` wraps each layer's public functions where their caller
looks the name up (``perimetric.cli.resolve_effective_grants``, not the
defining module), so the program itself is unchanged. Spans (name, start,
end, parent) stay in memory; ``layer_metrics`` turns one run's spans into
the per-layer metrics.

A layer's "time in" counts only outermost spans of its functions, so
recursion or a function of the same layer called from another (band_of
inside band_report) is not counted twice. Self time is a span's duration
minus its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module the caller looks the name up in, attribute, span name)
SPANNED = (
    ("perimetric.cli", "parse_snapshot", "ingestion.parse_snapshot"),
    ("perimetric.ingestion", "build_tree", "hierarchy.build_tree"),
    ("perimetric.cli", "resolve_effective_grants", "ingestion.resolve_effective_grants"),
    ("perimetric.cli", "effective_distance", "metric.effective_distance"),
    ("perimetric.cli", "check_ultrametricity", "metric.check_ultrametricity"),
    ("perimetric.kernels", "build_matrix", "kernels.build_matrix"),
    ("perimetric.kernels", "try_scale", "kernels.try_scale"),
    ("perimetric.kernels", "nn_tour_flat", "kernels.nn_tour_flat"),
    ("perimetric.kernels", "violations_flat", "kernels.violations_flat"),
    ("perimetric.cli", "assess_principal", "perimeter.assess_principal"),
    ("perimetric.cli", "rank_spns", "ranking.rank_spns"),
    ("perimetric.cli", "band_of", "ranking.band_of"),
    ("perimetric.ranking", "band_of", "ranking.band_of"),
    ("perimetric.cli", "band_report", "ranking.band_report"),
    ("perimetric.cli", "render_band_report_csv", "ranking.render_band_report_csv"),
    ("perimetric.cli", "render_band_report_json", "ranking.render_band_report_json"),
    ("perimetric.cli", "format_fixed", "render.format_fixed"),
    ("perimetric.ranking", "format_fixed", "render.format_fixed"),
    ("perimetric.cli", "fraction_str", "render.fraction_str"),
    ("perimetric.ranking", "fraction_str", "render.fraction_str"),
)

# Counters fed from a spanned call: span name -> (counter, amount(args, result))
CALL_COUNTERS = {
    "kernels.build_matrix": ("kernels.matrix_cells", lambda args, result: len(args[0]) ** 2),
    "ingestion.resolve_effective_grants": ("grants_resolved", lambda args, result: len(result)),
}

# Distance callables are counted, not spanned: a span per pair would cost
# more than the distance itself.
COUNTED_CALLS = (
    ("perimetric.metric", "EffectiveDistance", "metric.distance_calls"),
    ("perimetric.metric", "DistanceModel", "metric.distance_calls"),
)

ROOT = "cli.command"

# name -> unit
LAYER_METRICS = {
    "cli.self_s": "s",
    "ingestion.parse_s": "s",
    "ingestion.resolve_s": "s",
    "ingestion.resolve_calls": "count",
    "ingestion.resolve_us_per_grant": "us",
    "hierarchy.build_s": "s",
    "hierarchy.builds": "count",
    "metric.closure_s": "s",
    "metric.distance_calls": "count",
    "metric.check_s": "s",
    "kernels.build_matrix_s": "s",
    "kernels.scale_s": "s",
    "kernels.tour_s": "s",
    "kernels.violations_s": "s",
    "kernels.matrix_cells": "count",
    "perimeter.assess_s": "s",
    "perimeter.assess_self_s": "s",
    "perimeter.assess_p50_ms": "ms",
    "perimeter.assess_p99_ms": "ms",
    "ranking.rank_s": "s",
    "ranking.band_s": "s",
    "ranking.render_s": "s",
    "render.format_s": "s",
    "render.calls": "count",
}


class Tracer:
    """Collects spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        clock = time.perf_counter
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = clock()
            self._stack.pop()

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        counter, amount = CALL_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                self._count(counter, amount(args, result))
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, name in SPANNED:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        for module_name, cls_name, key in COUNTED_CALLS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            call = cls.__call__

            def counted(inst, a, b, _call=call, _key=key):
                self._count(_key, 1)
                return _call(inst, a, b)

            self._patch(cls, "__call__", counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced command (see LAYER_METRICS)."""
    spans = tracer.spans
    children: list[float] = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start

    def outermost(names: set[str]) -> list[int]:
        picked = []
        for i, (name, _, _, parent) in enumerate(spans):
            if name not in names:
                continue
            while parent is not None and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent is None:
                picked.append(i)
        return picked

    def time_in(*names: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in outermost(set(names)))

    def self_time(name: str) -> float:
        return sum(end - start - children[i] for i, (n, start, end, _) in enumerate(spans) if n == name)

    def count(*names: str) -> int:
        return sum(1 for span in spans if span[0] in names)

    resolve_s = time_in("ingestion.resolve_effective_grants")
    grants = tracer.counters.get("grants_resolved", 0)
    assess_ms = [(end - start) * 1e3 for name, start, end, _ in spans if name == "perimeter.assess_principal"]
    return {
        "cli.self_s": self_time(ROOT),
        "ingestion.parse_s": self_time("ingestion.parse_snapshot"),
        "ingestion.resolve_s": resolve_s,
        "ingestion.resolve_calls": count("ingestion.resolve_effective_grants"),
        "ingestion.resolve_us_per_grant": resolve_s * 1e6 / grants if grants else 0.0,
        "hierarchy.build_s": time_in("hierarchy.build_tree"),
        "hierarchy.builds": count("hierarchy.build_tree"),
        "metric.closure_s": time_in("metric.effective_distance"),
        "metric.distance_calls": tracer.counters.get("metric.distance_calls", 0),
        "metric.check_s": time_in("metric.check_ultrametricity"),
        "kernels.build_matrix_s": time_in("kernels.build_matrix"),
        "kernels.scale_s": time_in("kernels.try_scale"),
        "kernels.tour_s": self_time("kernels.nn_tour_flat"),
        "kernels.violations_s": self_time("kernels.violations_flat"),
        "kernels.matrix_cells": tracer.counters.get("kernels.matrix_cells", 0),
        "perimeter.assess_s": time_in("perimeter.assess_principal"),
        "perimeter.assess_self_s": self_time("perimeter.assess_principal"),
        "perimeter.assess_p50_ms": _percentile(assess_ms, 50),
        "perimeter.assess_p99_ms": _percentile(assess_ms, 99),
        "ranking.rank_s": time_in("ranking.rank_spns"),
        "ranking.band_s": time_in("ranking.band_of", "ranking.band_report"),
        "ranking.render_s": time_in("ranking.render_band_report_csv", "ranking.render_band_report_json"),
        "render.format_s": time_in("render.format_fixed", "render.fraction_str"),
        "render.calls": count("render.format_fixed", "render.fraction_str"),
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
