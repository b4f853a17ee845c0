"""detkit command line: evaluation, anchor fitting, layout math, NMS, plot data.

Exit codes: 0 success, 2 unreadable or invalid input data, 64 usage errors
(unknown flags, missing arguments), 65 semantically invalid flag values.
A reader that closes the output pipe early is no error: the command stops
with 0 and writes nothing to stderr.
All output is deterministic: TSV numbers carry six decimal places ("NA" for
values whose denominator is empty), JSON keeps full float precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Sequence

from .anchors import InsufficientSamplesError, NotDivisibleError, kmeans_anchors, split_scales
from .dataio import (
    ParseError,
    ValidationError,
    demo_map_pathology,
    load_dataset,
    load_dimension_samples,
    load_results,
    load_speed_table,
    results_document,
)
from .geometry import _codes, _suppress
from .metrics import MetricReport, evaluate
from .yolo import GridSpec, OutOfBoundsError, tensor_index

EXIT_OK = 0
EXIT_DATA_ERROR = 2
EXIT_USAGE_ERROR = 64
EXIT_SEMANTIC_ERROR = 65


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with 64 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _format_value(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6f}"


_METRIC_FIELDS = {
    "voc50": ("voc50",),
    "coco": ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"),
    "global": ("global_ap",),
    "per-image": ("per_image_ap",),
}
_METRIC_FIELDS["all"] = _METRIC_FIELDS["voc50"] + _METRIC_FIELDS["coco"] + _METRIC_FIELDS["global"] + _METRIC_FIELDS["per-image"]


def _report_fields(report: MetricReport, metric: str) -> list[tuple[str, float | None]]:
    return [(name, getattr(report, name)) for name in _METRIC_FIELDS[metric]]


def _report_document(report: MetricReport, metric: str) -> dict:
    """The object `detkit eval --format json` prints: metric's fields, then per_class_ap for voc50 and all."""
    doc: dict = dict(_report_fields(report, metric))
    if metric in ("voc50", "all"):
        doc["per_class_ap"] = {str(c): report.per_class_ap[c] for c in sorted(report.per_class_ap)}
    return doc


def _side_by_side(rows: Iterable[tuple[str, float | None, float | None]]) -> str:
    """The two-detector table: a header, then one (label, detector_a, detector_b) line per row."""
    lines = [f"{label}\t{_format_value(a)}\t{_format_value(b)}" for label, a, b in rows]
    return "\n".join(["metric\tdetector_a\tdetector_b", *lines])


def _cmd_eval(args: argparse.Namespace) -> int:
    truths = load_dataset(args.gt)
    detections = load_results(args.dets, truths)
    report = evaluate(detections, truths, iou_threshold=args.iou, shards=args.shards)
    if args.format == "tsv":
        fields = _report_fields(report, args.metric)
        print("\t".join(name for name, _ in fields))
        print("\t".join(_format_value(value) for _, value in fields))
    else:
        print(json.dumps(_report_document(report, args.metric)))
    return EXIT_OK


def _cmd_anchors(args: argparse.Namespace) -> int:
    if args.scales < 1 or args.k % args.scales != 0:
        raise NotDivisibleError(f"--k {args.k} does not split into --scales {args.scales} equal groups")
    samples = load_dimension_samples(args.boxes)
    result = kmeans_anchors(samples, args.k, max_iters=args.iters, seed=args.seed, distance=args.distance)
    groups = split_scales(result.centroids, args.scales)
    lines: list[str] = []
    for group in groups:
        if lines:
            lines.append("")
        lines.extend(f"{prior.width:g} {prior.height:g}" for prior in group)
    print("\n".join(lines))
    return EXIT_OK


def _parse_at(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected row,col,anchor,channel")
    try:
        row, col, anchor, channel = (int(p) for p in parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err
    return row, col, anchor, channel


def _cmd_layout(args: argparse.Namespace) -> int:
    spec = GridSpec(args.grid, args.anchors, args.classes)
    if args.at is None:
        print(f"depth\t{spec.cell_depth}")
        print(f"total\t{spec.total_elements}")
    else:
        row, col, anchor, channel = args.at
        print(tensor_index(spec, row, col, anchor, channel))
    return EXIT_OK


def _cmd_nms(args: argparse.Namespace) -> int:
    truths = load_dataset(args.gt)  # supplies the image registry only
    detections = load_results(args.dets, truths)
    image_ids, class_ids, scores, centers, _ = detections._column_view()
    kept = _suppress(list(zip(image_ids, class_ids)), scores, centers, args.iou)
    place = _codes(image_ids, truths.image_ids).tolist()  # each detection's image's registry position
    records = results_document(detections)  # each record as read, so no survivor goes through its center
    print(json.dumps([records[i] for i in sorted(kept.tolist(), key=place.__getitem__)]))
    return EXIT_OK


def _cmd_plotdata(args: argparse.Namespace) -> int:
    table = load_speed_table(args.table)
    columns = {name: i for i, name in enumerate(table.columns)}
    x_cell = columns[args.x]
    y_cell = columns[args.y]
    ordered = sorted(table.rows, key=lambda row: row.time_ms)
    lines = [f"{row.cells[0]}\t{row.cells[x_cell]}\t{row.cells[y_cell]}" for row in ordered]
    if lines:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    reports = demo_map_pathology()
    a, b = reports.detector_a, reports.detector_b
    print(_side_by_side((name, getattr(a, name), getattr(b, name)) for name in ("voc50", "global_ap", "per_image_ap")))
    print(
        "both detectors tie on the per-class mean at IOU 0.5, but detector_b's spurious "
        "boxes outrank another class's true detections, so the pooled and per-image APs drop"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="detkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_eval = sub.add_parser("eval", help="evaluate a results file against a dataset")
    p_eval.add_argument("--gt", required=True, help="ground-truth dataset file")
    p_eval.add_argument("--dets", required=True, help="detection results file")
    p_eval.add_argument(
        "--metric",
        choices=("voc50", "coco", "global", "per-image", "all"),
        default="all",
        help="which report fields to print (default: all)",
    )
    p_eval.add_argument("--iou", type=float, default=0.5, help="IOU threshold for the pooled metrics")
    p_eval.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_eval.add_argument(
        "--shards",
        type=int,
        default=1,
        help="kept for compatibility: must be positive, starts no threads, changes no output",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_anchors = sub.add_parser("anchors", help="cluster box sizes into anchor priors")
    p_anchors.add_argument("--boxes", required=True, help="text file of 'width height' lines")
    p_anchors.add_argument("--k", type=int, required=True, help="number of clusters")
    p_anchors.add_argument("--scales", type=int, required=True, help="number of detection scales")
    p_anchors.add_argument("--iters", type=int, default=100, help="maximum Lloyd iterations")
    p_anchors.add_argument("--seed", type=int, default=0, help="clustering seed")
    p_anchors.add_argument("--distance", choices=("iou", "euclidean"), default="iou")
    p_anchors.set_defaults(func=_cmd_anchors)

    p_layout = sub.add_parser("layout", help="prediction-tensor sizes and flat offsets")
    p_layout.add_argument("--grid", type=int, required=True, help="grid size N")
    p_layout.add_argument("--anchors", type=int, required=True, help="priors per cell")
    p_layout.add_argument("--classes", type=int, required=True, help="class count")
    p_layout.add_argument("--at", type=_parse_at, default=None, metavar="ROW,COL,ANCHOR,CHANNEL")
    p_layout.set_defaults(func=_cmd_layout)

    p_nms = sub.add_parser("nms", help="suppress overlapping detections per image and class")
    p_nms.add_argument("--dets", required=True, help="detection results file")
    p_nms.add_argument("--gt", required=True, help="dataset file supplying the image registry")
    p_nms.add_argument("--iou", type=float, default=0.45, help="suppression threshold")
    p_nms.add_argument("--format", choices=("json",), default="json")
    p_nms.set_defaults(func=_cmd_nms)

    p_plot = sub.add_parser("plotdata", help="emit speed/accuracy points for plotting")
    p_plot.add_argument("--table", required=True, help="TSV with header method/time_ms/metric")
    p_plot.add_argument("--x", choices=("time_ms", "metric"), default="time_ms")
    p_plot.add_argument("--y", choices=("time_ms", "metric"), default="metric")
    p_plot.set_defaults(func=_cmd_plotdata)

    p_demo = sub.add_parser("demo", help="built-in demonstrations")
    p_demo.add_argument("topic", choices=("map-pathology",))
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # help or a usage error, printed by argparse: its output meets the reader here too
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()  # so a reader that has gone shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # the reader closed the pipe: not a data error, and no one is left to tell
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # what is still buffered goes nowhere
        return EXIT_OK
    except (ParseError, ValidationError, InsufficientSamplesError, OSError) as err:
        print(f"detkit: {err}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (OutOfBoundsError, ValueError) as err:  # NotDivisibleError is a ValueError
        print(f"detkit: {err}", file=sys.stderr)
        return EXIT_SEMANTIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
