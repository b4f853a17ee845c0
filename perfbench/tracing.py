"""Per-layer tracing for the benchmark, installed from outside the package.

The layers are detkit's modules: cli, dataio, metrics, geometry, yolo and
anchors.  ``Tracer.install`` replaces the module attributes through which
the benchmark and the CLI reach each layer's public functions, and
``uninstall`` puts the originals back, so untraced operations run the
program exactly as shipped.

Calls at a layer boundary record a span (name, start, end, parent, operation
id).  The hot inner functions ``geometry.iou``, ``metrics.match`` and
``yolo.decode`` are called up to a million times per operation, so they only
add to a call count and a time total; that time still counts as child time
of the span they run under.  A span's self time is its duration minus the
time of its children.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from detkit import cli, dataio, geometry, metrics, yolo

# (module, attribute, span name, counts taken from the call's argument and result)
SPAN_POINTS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (cli, "main", "cli.main", None),
    (cli, "load_dataset", "dataio.load_dataset", None),
    (cli, "load_results", "dataio.load_results", None),
    (cli, "evaluate", "metrics.evaluate", None),
    (cli, "load_dimension_samples", "dataio.load_dimension_samples", None),
    (cli, "kmeans_anchors", "anchors.kmeans_anchors", lambda args, result: {"iters": len(result.objective_history) - 1}),
    (cli, "split_scales", "anchors.split_scales", None),
    (geometry, "nms", "geometry.nms", lambda args, result: {"in": len(args[0]), "kept": len(result)}),
    (dataio, "dump_results", "dataio.dump_results", None),
)

# (module, attribute, counter name).  metrics and geometry each bind iou in
# their own namespace; the two sites are counted apart so that IOU work can
# be split between evaluation and suppression.
COUNT_POINTS: tuple[tuple[object, str, str], ...] = (
    (metrics, "match", "metrics.match"),
    (metrics, "iou", "metrics.iou"),
    (geometry, "iou", "geometry.iou"),
    (yolo, "decode", "yolo.decode"),
)

# Name and unit of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("cli.self_s", "s"),
    ("dataio.load_dataset_s", "s"),
    ("dataio.load_results_s", "s"),
    ("dataio.dump_results_s", "s"),
    ("dataio.load_dimension_samples_s", "s"),
    ("metrics.evaluate_s", "s"),
    ("metrics.evaluate_self_s", "s"),
    ("metrics.match_calls", "count"),
    ("metrics.match_s", "s"),
    ("metrics.match_calls_per_group", "calls/group"),
    ("metrics.iou_calls_per_pair", "calls/pair"),
    ("geometry.iou_calls", "count"),
    ("geometry.iou_s", "s"),
    ("geometry.nms_s", "s"),
    ("geometry.nms_in", "count"),
    ("geometry.nms_kept", "count"),
    ("geometry.nms_iou_per_candidate", "calls/box"),
    ("yolo.decode_calls", "count"),
    ("yolo.decode_s", "s"),
    ("anchors.kmeans_s", "s"),
    ("anchors.kmeans_iters", "count"),
    ("anchors.split_scales_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans and call counters for the operations run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []
        self._counted_depth = 0
        self._counters: dict[str, list] = {name: [0, 0.0] for _, _, name in COUNT_POINTS}
        self._op_counters: dict[int, dict[str, tuple[int, float]]] = {}
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, counts in SPAN_POINTS:
            self._patch(module, attr, self._spanned(name, getattr(module, attr), counts))
        for module, attr, name in COUNT_POINTS:
            self._patch(module, attr, self._counted(name, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, parent, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counter = self._counters[name]

        def wrapper(*args, **kwargs):
            self._counted_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._counted_depth -= 1
                counter[0] += 1
                counter[1] += elapsed
                # Only the outermost counted call is a child of the open span;
                # iou inside match is already inside match's time.
                if self._counted_depth == 0 and self._open:
                    self.spans[self._open[-1]].child_s += elapsed

        return wrapper

    def end_op(self) -> None:
        """Close the books on the current operation and start the next one."""
        self._op_counters[self.op] = {name: (c[0], c[1]) for name, c in self._counters.items()}
        for counter in self._counters.values():
            counter[0], counter[1] = 0, 0.0
        self.op += 1

    def op_metrics(self, op: int, inputs: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics of one finished operation; ratios use the input counts as base."""
        spans = [s for s in self.spans if s.op == op]

        def total(name: str) -> float:
            return sum(s.duration for s in spans if s.name == name)

        def self_time(name: str) -> float:
            return sum(s.self_s for s in spans if s.name == name)

        def span_count(name: str, key: str) -> int:
            return sum(s.counts.get(key, 0) for s in spans if s.name == name)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        counters = self._op_counters[op]
        match_calls, match_s = counters["metrics.match"]
        eval_iou_calls, eval_iou_s = counters["metrics.iou"]
        nms_iou_calls, nms_iou_s = counters["geometry.iou"]
        decode_calls, decode_s = counters["yolo.decode"]
        nms_in = span_count("geometry.nms", "in")
        return {
            "cli.self_s": self_time("cli.main"),
            "dataio.load_dataset_s": total("dataio.load_dataset"),
            "dataio.load_results_s": total("dataio.load_results"),
            "dataio.dump_results_s": total("dataio.dump_results"),
            "dataio.load_dimension_samples_s": total("dataio.load_dimension_samples"),
            "metrics.evaluate_s": total("metrics.evaluate"),
            "metrics.evaluate_self_s": self_time("metrics.evaluate"),
            "metrics.match_calls": match_calls,
            "metrics.match_s": match_s,
            "metrics.match_calls_per_group": ratio(match_calls, inputs.get("groups", 0)),
            "metrics.iou_calls_per_pair": ratio(eval_iou_calls, inputs.get("pairs", 0)),
            "geometry.iou_calls": eval_iou_calls + nms_iou_calls,
            "geometry.iou_s": eval_iou_s + nms_iou_s,
            "geometry.nms_s": total("geometry.nms"),
            "geometry.nms_in": nms_in,
            "geometry.nms_kept": span_count("geometry.nms", "kept"),
            "geometry.nms_iou_per_candidate": ratio(nms_iou_calls, nms_in),
            "yolo.decode_calls": decode_calls,
            "yolo.decode_s": decode_s,
            "anchors.kmeans_s": total("anchors.kmeans_anchors"),
            "anchors.kmeans_iters": span_count("anchors.kmeans_anchors", "iters"),
            "anchors.split_scales_s": total("anchors.split_scales"),
        }

    def span_summary(self, op: int) -> dict[str, dict[str, float]]:
        """Per span name in one operation: calls, total seconds and self seconds."""
        summary: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.op == op:
                row = summary.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["total_s"] += span.duration
                row["self_s"] += span.self_s
        return summary

    def write(self, path: Path) -> None:
        """Write every span and every operation's counters as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                record = {"span": index, **asdict(span), "self_s": span.self_s}
                del record["child_s"]
                out.write(json.dumps(record) + "\n")
            for op, counters in self._op_counters.items():
                out.write(json.dumps({"op": op, "counters": counters}) + "\n")
