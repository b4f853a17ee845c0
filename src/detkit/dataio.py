"""File formats: dataset/results documents, anchor-size lists, speed tables.

Datasets and results use the same structured-text layout as the common
large-vocabulary detection benchmark, so real ground-truth and result files
load directly.  Corner-form bboxes ([left, top, width, height]) are converted
to center form at this boundary; the rest of the package never sees corner
form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from .anchors import DimensionSample
from .geometry import Box, ScoredBox
from .metrics import Detection, DetectionResultSet, GroundTruth, GroundTruthSet, ImageInfo

SPEED_TABLE_HEADER = ("method", "time_ms", "metric")


class ParseError(ValueError):
    """The file is not structurally readable; the message carries line/offset."""


class ValidationError(ValueError):
    """A structurally readable record violates the format; the message names it."""


def fixture_path(name: str) -> Path:
    """Filesystem path of a data file shipped with the package."""
    path = resources.files("detkit").joinpath("data", name)
    return Path(str(path))


def _load_json(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno} column {err.colno}: {err.msg}") from err


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{what} must be finite, got {number!r}")
    return number


def _require_bbox(value, what: str) -> tuple[float, float, float, float]:
    if not isinstance(value, list) or len(value) != 4:
        raise ValidationError(f"{what}: bbox must be [left, top, width, height]")
    left, top, width, height = (_require_number(v, f"{what}: bbox entry") for v in value)
    if width <= 0 or height <= 0:
        raise ValidationError(f"{what}: bbox size must be positive, got {width} x {height}")
    if not (math.isfinite(left + width) and math.isfinite(top + height) and math.isfinite(width * height)):
        raise ValidationError(f"{what}: bbox right edge, bottom edge or area overflows")
    return left, top, width, height


def load_dataset(path: str | Path) -> GroundTruthSet:
    """Read a ground-truth document: images, annotations, and categories.

    Annotation bboxes are corner form and become center-form boxes.  Dangling
    image/category references, non-positive sizes, non-finite numbers, bboxes
    whose far edge or area overflows, and duplicate ids raise ValidationError
    naming the offending record.  Crowd regions (annotations
    with a truthy iscrowd) are rejected rather than silently mis-scored.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("images", "annotations", "categories"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"{path}: missing or non-list '{key}' section")

    images: list[ImageInfo] = []
    seen_images: set[int] = set()
    for entry in doc["images"]:
        if not isinstance(entry, dict):
            raise ValidationError("image entries must be objects")
        image_id = _require_int(entry.get("id"), "image id")
        if image_id in seen_images:
            raise ValidationError(f"duplicate image id {image_id}")
        seen_images.add(image_id)
        width = _require_number(entry.get("width"), f"image {image_id}: width")
        height = _require_number(entry.get("height"), f"image {image_id}: height")
        if width <= 0 or height <= 0:
            raise ValidationError(f"image {image_id}: size must be positive")
        images.append(ImageInfo(image_id, int(width), int(height)))

    categories: dict[int, str] = {}
    for entry in doc["categories"]:
        if not isinstance(entry, dict):
            raise ValidationError("category entries must be objects")
        category_id = _require_int(entry.get("id"), "category id")
        if category_id in categories:
            raise ValidationError(f"duplicate category id {category_id}")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ValidationError(f"category {category_id}: name must be a string")
        categories[category_id] = name

    truths: list[GroundTruth] = []
    seen_annotations: set[int] = set()
    for entry in doc["annotations"]:
        if not isinstance(entry, dict):
            raise ValidationError("annotation entries must be objects")
        annotation_id = _require_int(entry.get("id"), "annotation id")
        if annotation_id in seen_annotations:
            raise ValidationError(f"duplicate annotation id {annotation_id}")
        seen_annotations.add(annotation_id)
        where = f"annotation {annotation_id}"
        if entry.get("iscrowd"):
            raise ValidationError(f"{where}: crowd regions unsupported")
        image_id = _require_int(entry.get("image_id"), f"{where}: image_id")
        if image_id not in seen_images:
            raise ValidationError(f"{where}: unknown image {image_id}")
        category_id = _require_int(entry.get("category_id"), f"{where}: category_id")
        if category_id not in categories:
            raise ValidationError(f"{where}: unknown category {category_id}")
        left, top, width, height = _require_bbox(entry.get("bbox"), where)
        truths.append(GroundTruth(image_id, category_id, Box.from_corner_size(left, top, width, height)))

    return GroundTruthSet(images, categories, truths)


def load_results(path: str | Path, ground_truths: GroundTruthSet) -> DetectionResultSet:
    """Read a flat detection-results document, validated against a dataset's registry.

    Records keep file order, which fixes tie-breaking between equal scores.
    """
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: top level must be a list of result records")
    rows: list[tuple[int, ScoredBox]] = []
    for position, entry in enumerate(doc):
        where = f"result #{position}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: records must be objects")
        image_id = _require_int(entry.get("image_id"), f"{where}: image_id")
        if image_id not in ground_truths.images:
            raise ValidationError(f"{where}: unknown image {image_id}")
        category_id = _require_int(entry.get("category_id"), f"{where}: category_id")
        if category_id not in ground_truths.categories:
            raise ValidationError(f"{where}: unknown category {category_id}")
        score = _require_number(entry.get("score"), f"{where}: score")
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"{where}: score must lie in [0, 1], got {score}")
        left, top, width, height = _require_bbox(entry.get("bbox"), where)
        box = Box.from_corner_size(left, top, width, height)
        rows.append((image_id, ScoredBox(box, score, category_id)))
    return DetectionResultSet(rows)


def results_document(detections: Iterable[Detection] | DetectionResultSet) -> list[dict]:
    """Results records (corner-form bboxes) in the detections' order."""
    doc = []
    for det in detections:
        box = det.box
        doc.append(
            {
                "image_id": det.image_id,
                "category_id": det.class_id,
                "bbox": [box.left, box.top, box.width, box.height],
                "score": det.score,
            }
        )
    return doc


def dump_results(detections: Iterable[Detection] | DetectionResultSet) -> str:
    """Serialize detections as a results document; floats keep full precision."""
    return json.dumps(results_document(detections))


def write_results(detections: DetectionResultSet, path: str | Path) -> None:
    Path(path).write_text(dump_results(detections) + "\n", encoding="utf-8")


def load_dimension_samples(path: str | Path) -> list[DimensionSample]:
    """Read box sizes from a text file: one 'width height' pair per line.

    Blank lines and lines starting with '#' are skipped.  Malformed lines and
    sizes that are not positive and finite raise ParseError naming the line
    number.
    """
    samples: list[DimensionSample] = []
    for line_number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}: line {line_number}: expected 'width height', got {raw!r}")
        try:
            width, height = float(parts[0]), float(parts[1])
        except ValueError as err:
            raise ParseError(f"{path}: line {line_number}: {err}") from err
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise ParseError(f"{path}: line {line_number}: sizes must be positive and finite")
        samples.append(DimensionSample(width, height))
    return samples


@dataclass(frozen=True)
class SpeedAccuracyRow:
    """One plotted point; cells keep the file's original text for re-emission."""

    method: str
    time_ms: float
    metric: float
    cells: tuple[str, str, str]


@dataclass(frozen=True)
class SpeedAccuracyTable:
    columns: tuple[str, str, str]
    rows: tuple[SpeedAccuracyRow, ...]


def load_speed_table(path: str | Path) -> SpeedAccuracyTable:
    """Read a speed/accuracy TSV: header 'method<TAB>time_ms<TAB>metric', then rows.

    Times must be positive and finite, and metric values must lie in [0, 100]; a bad row
    raises ParseError naming its line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
        method, time_text, metric_text = cells
        try:
            time_ms = float(time_text)
            metric = float(metric_text)
        except ValueError as err:
            raise ParseError(f"{path}: line {line_number}: {err}") from err
        if not (0 < time_ms < math.inf):
            raise ParseError(f"{path}: line {line_number}: time_ms must be positive and finite")
        if not (0.0 <= metric <= 100.0):
            raise ParseError(f"{path}: line {line_number}: metric must lie in [0, 100]")
        rows.append(SpeedAccuracyRow(method, time_ms, metric, (method, time_text, metric_text)))
    return SpeedAccuracyTable(SPEED_TABLE_HEADER, tuple(rows))
