"""File formats: dataset/results documents, anchor-size lists, speed tables.

Datasets and results use the same structured-text layout as the common
large-vocabulary detection benchmark, so real ground-truth and result files
load directly.  Corner-form bboxes ([left, top, width, height]) are converted
to center form at this boundary; the rest of the package never sees corner
form.  A loaded results set also keeps its bboxes as read, and
results_document writes them back unchanged.

demo_map_pathology evaluates the shipped two-detector fixture where the
per-class mean is blind to ranking defects that the class-pooled and
per-image APs expose.
"""

from __future__ import annotations

import gc
import json
import math
import operator
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .anchors import DimensionSample, DimensionSamples
from .geometry import Box, ScoredBox, _box_ok, _center_form, _score_ok
from .metrics import (
    Detection,
    DetectionResultSet,
    GroundTruth,
    GroundTruthSet,
    ImageInfo,
    MetricReport,
    evaluate,
)

SPEED_TABLE_HEADER = ("method", "time_ms", "metric")


class ParseError(ValueError):
    """The file is not structurally readable; the message carries line/offset."""


class ValidationError(ValueError):
    """A structurally readable record violates the format; the message names it."""


def fixture_path(name: str) -> Path:
    """Filesystem path of a data file shipped with the package."""
    path = resources.files("detkit").joinpath("data", name)
    return Path(str(path))


def pathology_fixture() -> tuple[GroundTruthSet, DetectionResultSet, DetectionResultSet]:
    """The two-detector fixture behind demo_map_pathology: (truths, detector_a, detector_b).

    Read from the shipped pathology_gt.json, pathology_dets_a.json and
    pathology_dets_b.json.  Detector A finds every truth with a tight box and
    a confident, consistently ranked score.  Detector B finds the same true
    boxes, but the cross-image score ordering is swapped and a pile of
    low-scoring spurious boxes lands between the weakest true detection of one
    class and the strongest of another.  Within each class every true box
    still outranks every spurious one, so per-class AP is blind to the damage.
    """
    truths = load_dataset(fixture_path("pathology_gt.json"))
    return (
        truths,
        load_results(fixture_path("pathology_dets_a.json"), truths),
        load_results(fixture_path("pathology_dets_b.json"), truths),
    )


@dataclass(frozen=True)
class PathologyReports:
    detector_a: MetricReport
    detector_b: MetricReport


def demo_map_pathology() -> PathologyReports:
    """Evaluate the shipped fixture where mAP cannot separate two detectors.

    Both detectors score a perfect class-averaged mAP at IOU 0.5, yet detector
    B buries one class's true detections under another class's spurious ones:
    the class-pooled global AP and the per-image AP both drop for B while
    staying at 1.0 for A.
    """
    truths, dets_a, dets_b = pathology_fixture()
    return PathologyReports(evaluate(dets_a, truths), evaluate(dets_b, truths))


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: byte {err.start}: not valid UTF-8") from err


def _load_json(path: str | Path):
    """The parsed document, read with the cyclic GC paused.

    json.loads builds many containers and no cycle, so a collection during the
    parse frees nothing.  The GC's state before the call is restored, whether
    parsing succeeds or not.
    """
    text = _read_text(path)
    paused = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno} column {err.colno}: {err.msg}") from err
    except RecursionError as err:  # nesting too deep
        raise ParseError(f"{path}: {err}") from err
    except ValueError as err:  # past the interpreter's limit on digits in an integer
        raise ParseError(f"{path}: an integer literal is too long") from err
    finally:
        if paused:
            gc.enable()


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range: the type rejects the infinity
        return math.inf if value > 0 else -math.inf


def _require_size(value, what: str) -> int | float:
    """value as read where _require_number finds it finite, else that non-finite float.

    An int size stays whole, so one past 2**53 keeps its low bits, and one
    past the float range still reads as infinite.
    """
    number = _require_number(value, what)
    return value if math.isfinite(number) else number


# The per-record checks below raise without the record's name: the loader's
# loop adds it when a check fails, so a valid record formats no message.


def _require_box(entry: dict) -> Box:
    bbox = entry.get("bbox")
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise ValidationError("bbox must be [left, top, width, height]")
    return Box.from_corner_size(*(_require_number(v, "bbox entry") for v in bbox))


def _require_registered(registry: GroundTruthSet, entry: dict) -> tuple[int, int]:
    image_id = _require_int(entry.get("image_id"), "image_id")
    if image_id not in registry.images:
        raise ValidationError(f"unknown image {image_id}")
    category_id = _require_int(entry.get("category_id"), "category_id")
    if category_id not in registry.categories:
        raise ValidationError(f"unknown category {category_id}")
    return image_id, category_id


def load_dataset(path: str | Path) -> GroundTruthSet:
    """Read a ground-truth document: images, annotations, and categories.

    Annotation bboxes are corner form and become center-form boxes.  A record
    that breaks the file format or a rule of the type it becomes (ImageInfo,
    GroundTruthSet, Box) raises ValidationError naming the file and the
    record: by its position in its section until its id is read (image #1),
    by its id after that (annotation 7).  Crowd regions (annotations with a
    truthy iscrowd) are rejected rather than silently mis-scored.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("images", "annotations", "categories"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"{path}: missing or non-list '{key}' section")
    try:
        return _dataset(doc)
    except ValueError as err:  # a file rule or a type's own, the record named: name the file too
        raise ValidationError(f"{path}: {err}") from err


def _entries(section: list, name: str) -> Iterator[tuple[int, dict]]:
    """(id, entry) of each entry of a dataset section, in order.

    Raises ValidationError naming the entry by its position unless it is an
    object with an integer id.
    """
    what = f"{name} id"
    for position, entry in enumerate(section):
        try:
            if not isinstance(entry, dict):
                raise ValidationError(f"{name} entries must be objects")
            entry_id = _require_int(entry.get("id"), what)
        except ValidationError as err:
            raise ValidationError(f"{name} #{position}: {err}") from err
        yield entry_id, entry


def _dataset(doc: dict) -> GroundTruthSet:
    """The GroundTruthSet of a document whose three sections are lists; a ValueError names the bad record."""
    images: list[ImageInfo] = []
    for image_id, entry in _entries(doc["images"], "image"):
        width = _require_size(entry.get("width"), f"image {image_id}: width")
        height = _require_size(entry.get("height"), f"image {image_id}: height")
        images.append(ImageInfo(image_id, width, height))

    categories: dict[int, str] = {}
    for category_id, entry in _entries(doc["categories"], "category"):
        if category_id in categories:
            raise ValidationError(f"duplicate category id {category_id}")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ValidationError(f"category {category_id}: name must be a string")
        categories[category_id] = name
    registry = GroundTruthSet(images, categories)

    truths: list[GroundTruth] = []
    seen_annotations: set[int] = set()
    for annotation_id, entry in _entries(doc["annotations"], "annotation"):
        if annotation_id in seen_annotations:
            raise ValidationError(f"duplicate annotation id {annotation_id}")
        seen_annotations.add(annotation_id)
        try:
            if entry.get("iscrowd"):
                raise ValidationError("crowd regions unsupported")
            image_id, category_id = _require_registered(registry, entry)
            truths.append(GroundTruth(image_id, category_id, _require_box(entry)))
        except ValueError as err:  # a file rule or the Box's own: name the record
            raise ValidationError(f"annotation {annotation_id}: {err}") from err

    return GroundTruthSet(images, categories, truths)


def load_results(path: str | Path, ground_truths: GroundTruthSet) -> DetectionResultSet:
    """Read a flat detection-results document, validated against a dataset's registry.

    Records keep file order, which fixes tie-breaking between equal scores.
    A record that breaks the file format or a rule of the type it becomes
    raises ValidationError naming the file and the record by its position
    (result #0).
    """
    doc = _load_json(path)
    try:
        return _results_set(path, doc, ground_truths)
    except ValidationError as err:  # the walk named the record: name the file too
        raise ValidationError(f"{path}: {err}") from err


def _results_set(path: str | Path, doc, ground_truths: GroundTruthSet) -> DetectionResultSet:
    """load_results of the document already parsed from path; detection i comes from doc[i]."""
    if not isinstance(doc, list):
        raise ParseError(f"{path}: top level must be a list of result records")
    # The record walk below is the definition of the format.  _result_columns
    # proves over whole columns that no record fails it; whatever it refuses
    # goes through the walk, which returns the same set or raises the
    # ValidationError naming the record.
    columns = _result_columns(doc, ground_truths)
    if columns is None:
        return _walk_results(doc, ground_truths)
    return DetectionResultSet._from_columns(*columns)


def _result_columns(doc: list, registry: GroundTruthSet):
    """(image ids, category ids, scores, center-form boxes, bboxes as read) of doc's records, or None unless every record passes the walk.

    Only the file's own rules are checked here: exact types, bbox arity and
    the float range.  Types are compared exactly, so a bool, which json reads
    for true and false, is refused as the walk refuses it.  An int beyond the
    float range is refused too: the walk reads it as an infinity, which no
    rule admits.  The registry test, the center form, the Box rule and the
    score rule are their owners' (GroundTruthSet and geometry), run once on
    whole columns.
    """
    if not set(map(type, doc)) <= {dict}:
        return None
    image_ids = [entry.get("image_id") for entry in doc]
    class_ids = [entry.get("category_id") for entry in doc]
    scores = [entry.get("score") for entry in doc]
    bboxes = [entry.get("bbox") for entry in doc]
    if not (
        set(map(type, image_ids)) <= {int}
        and set(map(type, class_ids)) <= {int}
        and registry._registers(image_ids, class_ids)
        and set(map(type, scores)) <= {int, float}
        and set(map(type, bboxes)) <= {list}
        and set(map(len, bboxes)) <= {4}
    ):
        return None
    values = [value for bbox in bboxes for value in bbox]
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        bbox_rows = np.array(values, dtype=np.float64).reshape(-1, 4)
        score = np.array(scores, dtype=np.float64)
    except OverflowError:
        return None
    centers = np.column_stack(_center_form(*bbox_rows.T))
    with np.errstate(all="ignore"):
        if not (_box_ok(*centers.T).all() and _score_ok(score).all()):
            return None
    return image_ids, class_ids, score, centers, bbox_rows


def _walk_results(doc: list, ground_truths: GroundTruthSet) -> DetectionResultSet:
    rows: list[tuple[int, ScoredBox]] = []
    for position, entry in enumerate(doc):
        try:
            if not isinstance(entry, dict):
                raise ValidationError("records must be objects")
            image_id, category_id = _require_registered(ground_truths, entry)
            score = _require_number(entry.get("score"), "score")
            rows.append((image_id, ScoredBox(_require_box(entry), score, category_id)))
        except ValueError as err:  # a file rule or the Box's or ScoredBox's own: name the record
            raise ValidationError(f"result #{position}: {err}") from err
    return DetectionResultSet(rows)


def results_document(detections: Iterable[Detection] | DetectionResultSet) -> list[dict]:
    """Results records (corner-form bboxes) in the detections' order; the one writer of a record.

    A set from load_results writes each record with the numbers the loader
    read: the ids, then the bbox and score as floats; other keys are gone.
    Any other detections, a set built from objects or returned by filter,
    write their box's corners, rebuilt from its center, and keep their
    fields as given.
    """
    columns = getattr(detections, "_columns", None)
    if columns is not None and columns.bboxes is not None:
        rows = zip(columns.image_ids, columns.class_ids, columns.bboxes.tolist(), columns.scores.tolist())
        return [{"image_id": i, "category_id": c, "bbox": bbox, "score": s} for i, c, bbox, s in rows]
    # Built directly, not through rows as above: a tuple per detection costs about a tenth more on a 2,500-record dump.
    return [
        {"image_id": det.image_id, "category_id": det.class_id,
         "bbox": [(box := det.box).left, box.top, box.width, box.height], "score": det.score}
        for det in detections
    ]


def dump_results(detections: Iterable[Detection] | DetectionResultSet) -> str:
    """Serialize detections as a results document; floats keep full precision, numpy integer ids become ints."""
    return json.dumps(results_document(detections), default=operator.index)


def write_results(detections: DetectionResultSet, path: str | Path) -> None:
    Path(path).write_text(dump_results(detections) + "\n", encoding="utf-8")


def load_dimension_samples(path: str | Path) -> DimensionSamples:
    """Read box sizes from a text file: one 'width height' pair per line.

    Blank lines and lines whose first token starts with '#' are skipped.
    Malformed lines and sizes that are not positive and finite raise
    ParseError naming the line number.
    """
    text = _read_text(path)
    # The line walk below is the definition of the format.  numpy's C reader
    # takes the common case in one call; whatever it refuses, and any row
    # that breaks the size rule, goes through the walk, which returns the
    # same array or raises the ParseError naming the line.  Text without a
    # '#' holds no comment line to drop, and numpy reads it by its path, in C
    # chunks, where it would take lines one at a time in Python.
    if "#" not in text and _numpy_reads_lines_alike(path, text):
        data, has_row = os.path.abspath(path), bool(text.strip())  # absolute, so numpy never takes it for a URL
    else:
        data = text.splitlines()
        if "#" in text:  # (the `in` test comes first because it costs a third of lstrip)
            data = [line for line in data if "#" not in line or not line.lstrip().startswith("#")]
        has_row = any(map(str.strip, data))
    if has_row:  # loadtxt warns on input without a row
        try:
            sizes = np.loadtxt(data, comments=None, ndmin=2, encoding="utf-8")
            if sizes.shape[1] == 2:
                return DimensionSamples(sizes)
        except ValueError:
            pass
    return DimensionSamples(_walk_dimension_lines(path, text.splitlines()))


# The line breaks of str.splitlines besides "\n", "\r\n" and "\r", at which a file read as text does not break.
_OTHER_LINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _numpy_reads_lines_alike(path: str | Path, text: str) -> bool:
    """Whether np.loadtxt, given the path, reads the lines that text.splitlines() gives.

    numpy opens a regular file as text with universal newlines, so the lines
    agree unless the text holds another break.  It decompresses a file by its
    suffix, and a pipe, already read, holds nothing more.
    """
    return (
        not any(char in text for char in _OTHER_LINE_BREAKS)
        and os.path.isfile(path)
        and os.path.splitext(path)[1] not in (".gz", ".bz2", ".xz", ".lzma")
    )


def _walk_dimension_lines(path: str | Path, lines: list[str]) -> np.ndarray:
    rows: list[tuple[float, float]] = []
    for line_number, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(f"{path}: line {line_number}: expected 'width height', got {raw!r}")
        # The line is named in the except: naming every line up front adds
        # about a quarter to the time of a walk over a 100,000-line file.
        try:
            sample = DimensionSample(float(parts[0]), float(parts[1]))
        except ValueError as err:
            raise ParseError(f"{path}: line {line_number}: {err}") from err
        rows.append((sample.width, sample.height))
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


@dataclass(frozen=True)
class SpeedAccuracyRow:
    """One plotted point, time_ms positive and finite, metric in [0, 100]; cells keep the file's text."""

    method: str
    time_ms: float
    metric: float
    cells: tuple[str, str, str]

    def __post_init__(self) -> None:
        if not (0.0 < self.time_ms < math.inf):
            raise ValueError(f"time_ms must be positive and finite, got {self.time_ms!r}")
        if not (0.0 <= self.metric <= 100.0):
            raise ValueError(f"metric must lie in [0, 100], got {self.metric!r}")


@dataclass(frozen=True)
class SpeedAccuracyTable:
    columns: tuple[str, str, str]
    rows: tuple[SpeedAccuracyRow, ...]


def load_speed_table(path: str | Path) -> SpeedAccuracyTable:
    """Read a speed/accuracy TSV: header 'method<TAB>time_ms<TAB>metric', then rows.

    Times must be positive and finite, and metric values must lie in [0, 100]; a bad row
    raises ParseError naming its line.
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header line")
    header = tuple(lines[0].split("\t"))
    if header != SPEED_TABLE_HEADER:
        expected = "\t".join(SPEED_TABLE_HEADER)
        raise ParseError(f"{path}: line 1: header must be {expected!r}, got {lines[0]!r}")
    rows: list[SpeedAccuracyRow] = []
    for line_number, raw in enumerate(lines[1:], start=2):
        cells = raw.split("\t")
        if len(cells) != 3:
            raise ParseError(f"{path}: line {line_number}: expected 3 tab-separated cells")
        try:
            rows.append(SpeedAccuracyRow(cells[0], float(cells[1]), float(cells[2]), tuple(cells)))
        except ValueError as err:
            raise ParseError(f"{path}: line {line_number}: {err}") from err
    return SpeedAccuracyTable(SPEED_TABLE_HEADER, tuple(rows))
