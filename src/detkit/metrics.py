"""Detection evaluation: greedy matching, PR curves, and the AP metric family.

Every metric is a view over one matching pass: image ids are checked once,
detections and truths are grouped once by (image, class), each same-group IOU
is computed once, and one greedy rule matches at every threshold needed.  A
detection matched at IOU 0.5 belongs to its truth's size band; other bands
leave it out of both their ranking and their re-matching.

Alongside the usual per-class AP means (VOC-style mAP at IOU 0.5 and the
COCO-style threshold sweep), this module provides two rank-sensitive
alternatives: a class-pooled AP over one global ranking, and the mean of
class-pooled APs taken per image.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# iou is bound here though unused: perfbench/tracing.py counts calls through metrics.iou
from .geometry import Box, ScoredBox, _check_threshold, _iou_lists, _is_whole, _positive_count, iou  # noqa: F401

SMALL_AREA_MAX = 32.0 * 32.0
MEDIUM_AREA_MAX = 96.0 * 96.0
AREA_BANDS = ("small", "medium", "large")

# The standard threshold sweep 0.50, 0.55, ..., 0.95.
COCO_IOU_THRESHOLDS = tuple(t / 100.0 for t in range(50, 100, 5))

_RECALL_SAMPLES = np.arange(101) / 100.0

INTERPOLATION_MODES = ("continuous", "101-point")


class UnknownImageError(KeyError):
    """An image id does not resolve against the ground-truth registry."""


class NoGroundTruthError(ValueError):
    """No ground truth exists for the requested class."""


@dataclass(frozen=True)
class ImageInfo:
    image_id: int
    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            value = getattr(self, name)
            if not (value > 0 and _is_whole(value)):
                raise ValueError(f"image {self.image_id}: {name} must be a positive whole number, got {value}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class GroundTruth:
    image_id: int
    class_id: int
    box: Box


class GroundTruthSet:
    """Ground-truth boxes grouped by image, with the declared category set.

    Whole-valued category ids are stored as int (2.0 becomes 2); given as a
    list, each category is named by its stored id (2.0 is named "2").  Raises
    ValueError for a duplicate image id, an empty category set, a category id
    that is negative, fractional or not finite, or a truth naming an
    unregistered image or category.
    """

    def __init__(
        self,
        images: Iterable[ImageInfo],
        categories: Mapping[int, str] | Iterable[int],
        ground_truths: Iterable[GroundTruth] = (),
    ) -> None:
        self._images: dict[int, ImageInfo] = {}
        for info in images:
            if info.image_id in self._images:
                raise ValueError(f"duplicate image id {info.image_id}")
            self._images[info.image_id] = info
        named = isinstance(categories, Mapping)
        declared = categories.items() if named else ((c, None) for c in categories)
        self._categories: dict[int, str] = {}
        for category_id, name in declared:
            if not (category_id >= 0 and _is_whole(category_id)):
                raise ValueError(f"category {category_id}: id must be a non-negative whole number")
            category_id = int(category_id)
            self._categories[category_id] = name if named else str(category_id)
        if len(self._categories) == 0:
            raise ValueError("at least one category must be declared")
        self._by_image: dict[int, list[GroundTruth]] = {i: [] for i in self._images}
        self._class_totals: dict[int, int] = {}
        self._total = 0
        for gt in ground_truths:
            if gt.image_id not in self._images:
                raise ValueError(f"ground truth references unknown image {gt.image_id}")
            if gt.class_id not in self._categories:
                raise ValueError(f"ground truth references unknown category {gt.class_id}")
            self._by_image[gt.image_id].append(gt)
            self._class_totals[gt.class_id] = self._class_totals.get(gt.class_id, 0) + 1
            self._total += 1

    @property
    def images(self) -> Mapping[int, ImageInfo]:
        return self._images

    @property
    def categories(self) -> Mapping[int, str]:
        return self._categories

    @property
    def image_ids(self) -> tuple[int, ...]:
        return tuple(self._images)

    def for_image(self, image_id: int) -> tuple[GroundTruth, ...]:
        if image_id not in self._images:
            raise UnknownImageError(image_id)
        return tuple(self._by_image[image_id])

    def class_count(self, class_id: int) -> int:
        return self._class_totals.get(class_id, 0)

    @property
    def total_count(self) -> int:
        return self._total

    def classes_with_truth(self) -> tuple[int, ...]:
        return tuple(sorted(self._class_totals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundTruthSet):
            return NotImplemented
        return (
            self._images == other._images
            and self._categories == other._categories
            and self._by_image == other._by_image
        )


@dataclass(frozen=True)
class Detection:
    """One detection plus its position in the original input order."""

    image_id: int
    scored: ScoredBox
    index: int

    @property
    def score(self) -> float:
        return self.scored.score

    @property
    def class_id(self) -> int:
        return self.scored.class_id

    @property
    def box(self) -> Box:
        return self.scored.box


class DetectionResultSet:
    """Detections across images, preserving input order for score tie-breaks."""

    def __init__(self, detections: Iterable[tuple[int, ScoredBox]]) -> None:
        self._detections = tuple(
            Detection(image_id, scored, i) for i, (image_id, scored) in enumerate(detections)
        )
        self._by_image: dict[int, list[Detection]] = {}
        for det in self._detections:
            self._by_image.setdefault(det.image_id, []).append(det)

    @property
    def detections(self) -> tuple[Detection, ...]:
        return self._detections

    def for_image(self, image_id: int) -> tuple[Detection, ...]:
        return tuple(self._by_image.get(image_id, ()))

    def filter(self, keep: Callable[[Detection], bool]) -> "DetectionResultSet":
        """Subset preserving relative order (and therefore tie-break behaviour)."""
        return DetectionResultSet(
            (d.image_id, d.scored) for d in self._detections if keep(d)
        )

    def __len__(self) -> int:
        return len(self._detections)

    def __iter__(self):
        return iter(self._detections)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionResultSet):
            return NotImplemented
        return self._detections == other._detections


@dataclass(frozen=True)
class MatchTable:
    """Greedy matching outcome for one (image, class) pair.

    detections holds the evaluated detections in sweep order;
    detection_matches[i] is the matched ground-truth position (into the
    image's class-filtered truth list) or None; gt_matches[g] is the matching
    detection position or None.  Both directions are injective.
    """

    detections: tuple[Detection, ...]
    detection_matches: tuple[int | None, ...]
    gt_matches: tuple[int | None, ...]


def _sweep_order(detections: Iterable[Detection]) -> list[Detection]:
    return sorted(detections, key=lambda d: (-d.score, d.index))


def _greedy(rows: Sequence[Sequence[float]], iou_threshold: float, taken: Iterable[int] = ()) -> list[int | None]:
    """The matching rule, over IOU rows given in sweep order.

    Row i takes the still-free column of highest IOU, provided that IOU
    reaches iou_threshold; the strict comparison sends IOU ties to the lower
    column.  Columns in taken are never free.  Returns each row's column, or None.
    """
    taken = set(taken)
    out: list[int | None] = []
    for row in rows:
        best = None
        best_value = -1.0
        for g, value in enumerate(row):
            if value >= iou_threshold and value > best_value and g not in taken:
                best_value = value
                best = g
        out.append(best)
        if best is not None:
            taken.add(best)
    return out


def match(
    detections: DetectionResultSet,
    ground_truths: GroundTruthSet,
    iou_threshold: float,
    class_id: int,
    image_id: int,
) -> MatchTable:
    """Greedily match one image's detections of one class against its truths.

    Detections are visited by descending score (ties by input order); each
    takes the highest-IOU still-unmatched ground truth of the class provided
    the IOU reaches iou_threshold (IOU ties toward the lower truth index).
    Raises UnknownImageError for an unregistered image id.
    """
    _check_threshold(iou_threshold)
    truths = [gt for gt in ground_truths.for_image(image_id) if gt.class_id == class_id]
    cands = _sweep_order(d for d in detections.for_image(image_id) if d.class_id == class_id)
    det_matches = _greedy(_iou_lists([det.box for det in cands], [gt.box for gt in truths]), iou_threshold)
    gt_matches: list[int | None] = [None] * len(truths)
    for pos, g in enumerate(det_matches):
        if g is not None:
            gt_matches[g] = pos
    return MatchTable(tuple(cands), tuple(det_matches), tuple(gt_matches))


@dataclass(frozen=True)
class PRCurve:
    """Cumulative (recall, precision) points from a score-ordered sweep."""

    points: tuple[tuple[float, float], ...]
    num_gt: int

    @property
    def ap(self) -> float:
        return average_precision(self, "continuous")


class _Evaluation:
    """The one matching pass behind every metric.

    Image ids are checked once.  Detections are grouped once by (image,
    class) in sweep order, truths once by (image, class) in input order, and
    the IOU of every same-group (detection, truth) pair is computed once.  A
    detection whose IOUs all fall below the lowest threshold can match at no
    threshold, so its row is dropped before matching; it still ranks as a
    false positive.  matched[t] maps the input index of each detection that
    took a truth at threshold t to that truth.
    """

    def __init__(
        self,
        detections: DetectionResultSet,
        ground_truths: GroundTruthSet,
        thresholds: Sequence[float],
    ) -> None:
        for threshold in thresholds:
            _check_threshold(threshold)
        for det in detections:
            if det.image_id not in ground_truths.images:
                raise UnknownImageError(det.image_id)
        # every truth, image by image in input order
        self.truths = [gt for image_id in ground_truths.image_ids for gt in ground_truths.for_image(image_id)]
        self.counts = Counter(gt.class_id for gt in self.truths)
        self.order = _sweep_order(detections)
        self.by_class: dict[int, list[Detection]] = {}
        self.by_image: dict[int, list[Detection]] = {}
        by_group: dict[tuple[int, int], list[Detection]] = {}
        for det in self.order:
            self.by_class.setdefault(det.class_id, []).append(det)
            self.by_image.setdefault(det.image_id, []).append(det)
            by_group.setdefault((det.image_id, det.class_id), []).append(det)
        truths: dict[tuple[int, int], list[GroundTruth]] = {}
        for gt in self.truths:
            truths.setdefault((gt.image_id, gt.class_id), []).append(gt)
        lowest = min(thresholds)
        # (detections, truths, IOU rows, columns taken from the start) per group holding both, over rows that can match
        self.groups = []
        for key, dets in by_group.items():
            if key in truths:
                rows = zip(dets, _iou_lists([det.box for det in dets], [gt.box for gt in truths[key]]))
                rows = [(det, row) for det, row in rows if max(row) >= lowest]
                self.groups.append(([det for det, _ in rows], truths[key], [row for _, row in rows], ()))
        self.matched = {t: self._match(self.groups, t) for t in thresholds}

    def _match(self, groups, iou_threshold: float) -> dict[int, GroundTruth]:
        matched: dict[int, GroundTruth] = {}
        for dets, truths, rows, taken in groups:
            for det, g in zip(dets, _greedy(rows, iou_threshold, taken)):
                if g is not None:
                    matched[det.index] = truths[g]
        return matched

    def _sweeps(
        self,
        swept: Mapping[int, Sequence[Detection]],
        matches: Sequence[Mapping[int, GroundTruth]],
        counts: Mapping[int, int],
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per match map, the PR sweeps of the keys of counts (truth counts) in ascending key order.

        Each is (recall, precision, lengths): the sweeps laid end to end, key
        k's the next lengths[k] points.  swept[key] is in sweep order.
        """
        keys = sorted(counts)
        lengths = np.array([len(swept.get(k, ())) for k in keys], dtype=np.intp)
        index = np.fromiter((det.index for k in keys for det in swept.get(k, ())), np.intp, lengths.sum())
        row = np.repeat(np.arange(len(keys)), lengths)
        before = (np.cumsum(lengths) - lengths)[row]  # sweep positions ahead of each key's first
        num_gt = np.array([counts[k] for k in keys], dtype=np.intp)[row]
        ranked = np.arange(len(index)) - before + 1  # tp + fp
        out = []
        for matched in matches:
            taken = np.zeros(len(self.order), dtype=bool)
            taken[np.fromiter(matched, np.intp, len(matched))] = True
            hits = np.cumsum(taken[index])
            tp = hits - np.concatenate(([0], hits))[before]
            out.append((tp / num_gt, tp / ranked, lengths))
        return out

    def _aps(self, swept, matches, counts: Mapping[int, int], interpolation: str) -> list[dict[int, float]]:
        """Per match map, the AP of each key of counts in ascending key order (arguments as for _sweeps)."""
        keys = sorted(counts)
        sweeps = self._sweeps(swept, matches, counts)
        return [dict(zip(keys, _ap_rows(*sweep, interpolation).tolist())) for sweep in sweeps]

    def class_aps(self, iou_threshold: float, interpolation: str) -> dict[int, float]:
        return self._aps(self.by_class, [self.matched[iou_threshold]], self.counts, interpolation)[0]

    def coco(self, band: str | None = None) -> CocoAPResult:
        """The COCO family, over every truth or over one size band's scope.

        A band's scope is its truths, the detections that no other band owns at
        IOU 0.5, and a re-match on the same IOU rows with the other bands'
        truths taken from the start.
        """
        swept, matched, counts = self.by_class, self.matched, self.counts
        if band is not None:
            owned = {index for index, truth in self.matched[0.5].items() if area_band(truth.box) != band}
            groups = []
            for dets, truths, rows, _ in self.groups:
                others = {g for g, gt in enumerate(truths) if area_band(gt.box) != band}
                if len(others) < len(truths):
                    rest = [(det, row) for det, row in zip(dets, rows) if det.index not in owned]
                    groups.append(([det for det, _ in rest], truths, [row for _, row in rest], others))
            matched = {t: self._match(groups, t) for t in COCO_IOU_THRESHOLDS}
            counts = Counter(gt.class_id for gt in self.truths if area_band(gt.box) == band)
            swept = {c: [d for d in self.by_class.get(c, ()) if d.index not in owned] for c in counts}
        per_class = self._aps(swept, [matched[t] for t in COCO_IOU_THRESHOLDS], counts, "101-point")
        by_threshold = {t: _mean(list(aps.values())) for t, aps in zip(COCO_IOU_THRESHOLDS, per_class)}
        ap = _mean(list(by_threshold.values())) if counts else None
        return CocoAPResult(ap, by_threshold[0.5], by_threshold[0.75], by_threshold)

    def global_ap(self, iou_threshold: float) -> float | None:
        if not self.truths:
            return None
        return self._aps({0: self.order}, [self.matched[iou_threshold]], {0: len(self.truths)}, "continuous")[0][0]

    def per_image_ap(self, iou_threshold: float) -> float | None:
        counts = Counter(gt.image_id for gt in self.truths)
        return _mean(list(self._aps(self.by_image, [self.matched[iou_threshold]], counts, "continuous")[0].values()))


def pr_curve(
    detections: DetectionResultSet,
    ground_truths: GroundTruthSet,
    iou_threshold: float,
    class_id: int,
) -> PRCurve:
    """Precision/recall sweep for one class across all images.

    The recall denominator is the total ground-truth count of the class;
    raises NoGroundTruthError when that count is zero (callers exclude such
    classes from any mean).
    """
    evaluation = _Evaluation(detections, ground_truths, (iou_threshold,))
    num_gt = ground_truths.class_count(class_id)
    if num_gt == 0:
        raise NoGroundTruthError(f"no ground truth for class {class_id}")
    sweeps = evaluation._sweeps(evaluation.by_class, [evaluation.matched[iou_threshold]], {class_id: num_gt})
    recall, precision, _ = sweeps[0]
    return PRCurve(tuple(zip(recall.tolist(), precision.tolist())), num_gt)


def _ap_rows(recall: np.ndarray, precision: np.ndarray, lengths: Sequence[int], interpolation: str) -> np.ndarray:
    """The AP of each PR sweep, for sweeps laid end to end: sweep k is the next lengths[k] points.

    Recall never falls within a sweep.  Each sum adds left to right in sweep
    or sample order, as the sweeps would one at a time.
    """
    if interpolation not in INTERPOLATION_MODES:
        raise ValueError(f"interpolation must be one of {INTERPOLATION_MODES}, got {interpolation!r}")
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    row = np.repeat(np.arange(len(lengths)), lengths)
    # per point, the highest precision there or later in its sweep: a running maximum from the end over
    # (-sweep, precision) pairs, held exactly as complex numbers, which numpy orders by real part first
    envelope = np.maximum.accumulate((-row + 1j * precision)[::-1])[::-1].imag
    if interpolation == "continuous":
        # per point, the recall gained over the point before it in its sweep (over 0 at the first)
        before = (ends - lengths)[row]
        rise = recall - np.where(np.arange(len(row)) == before, 0.0, np.roll(recall, 1))
        up = rise > 0.0
        # only points that gain recall add area; sweep k's n-th such point adds it in column n of row k
        rises = np.cumsum(up)
        column = rises - np.concatenate(([0], rises))[before] - 1
        area = np.zeros((len(lengths), column.max(initial=-1) + 2))
        area[row[up], column[up]] = rise[up] * envelope[up]
        return np.cumsum(area, axis=1)[:, -1]
    # per point, how many samples its recall reaches; per sweep and sample, how many of its points fall short
    reached = np.searchsorted(_RECALL_SAMPLES, recall, side="right")
    bins = len(_RECALL_SAMPLES) + 1
    short = np.bincount(row * bins + reached, minlength=len(lengths) * bins).reshape(-1, bins).cumsum(axis=1)[:, :-1]
    # the first point to reach a sample comes next; past the sweep's last point it reads 0
    first = np.where(short < lengths[:, None], (ends - lengths)[:, None] + short, len(row))
    values = np.append(envelope, 0.0)[first]
    return np.cumsum(values, axis=1)[:, -1] / len(_RECALL_SAMPLES)


def average_precision(curve: PRCurve, interpolation: str = "continuous") -> float:
    """Area under the precision envelope of a PR curve.

    "continuous" integrates the envelope exactly over recall.  "101-point"
    averages the envelope at the 101 recall samples 0.00, 0.01, ..., 1.00,
    taking 0 beyond the highest achieved recall.  An empty curve scores 0.
    """
    points = np.array(curve.points, dtype=float).reshape(-1, 2)
    return float(_ap_rows(points[:, 0], points[:, 1], [len(points)], interpolation)[0])


def per_class_ap(
    detections: DetectionResultSet,
    ground_truths: GroundTruthSet,
    iou_threshold: float = 0.5,
    interpolation: str = "continuous",
) -> dict[int, float]:
    """AP per class, for every class with at least one ground truth."""
    return _Evaluation(detections, ground_truths, (iou_threshold,)).class_aps(iou_threshold, interpolation)


def _mean(values: Sequence[float]) -> float | None:
    """The arithmetic mean, or None for no values.

    Added left to right, as sum() added floats before Python 3.12 compensated
    it, so every mean is the same on every supported Python.
    """
    if not values:
        return None
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def map_voc(detections: DetectionResultSet, ground_truths: GroundTruthSet) -> float | None:
    """Mean over classes of continuous AP at IOU 0.5; classes without truth are skipped.

    None when no class has any ground truth.
    """
    return _mean(list(per_class_ap(detections, ground_truths, 0.5, "continuous").values()))


@dataclass(frozen=True)
class CocoAPResult:
    """Threshold-averaged AP plus the two standard single-threshold values."""

    ap: float | None
    ap50: float | None
    ap75: float | None
    by_threshold: Mapping[float, float | None] = field(default_factory=dict)


def coco_ap(detections: DetectionResultSet, ground_truths: GroundTruthSet) -> CocoAPResult:
    """101-point mAP averaged over IOU thresholds 0.50 to 0.95 in steps of 0.05.

    ap is exactly the arithmetic mean of the ten per-threshold values; ap50
    and ap75 are the 0.50 and 0.75 entries.  All values are None when no
    class has ground truth.
    """
    return _Evaluation(detections, ground_truths, COCO_IOU_THRESHOLDS).coco()


def area_band(box: Box) -> str:
    """Which size band a box falls in: small (< 32^2), medium, or large (>= 96^2)."""
    area = box.area
    if area < SMALL_AREA_MAX:
        return "small"
    if area < MEDIUM_AREA_MAX:
        return "medium"
    return "large"


def ap_by_area(
    detections: DetectionResultSet, ground_truths: GroundTruthSet, band: str
) -> float | None:
    """COCO-style threshold-averaged AP restricted to truths of one size band.

    A detection whose greedy match over the full truth set at IOU 0.5 lands on
    a truth of another band belongs to that band: it is left out here instead
    of counting as a false positive.  None when the band contains no ground
    truth.
    """
    if band not in AREA_BANDS:
        raise ValueError(f"band must be one of {AREA_BANDS}, got {band!r}")
    return _Evaluation(detections, ground_truths, (0.5,)).coco(band).ap


def global_ap(
    detections: DetectionResultSet, ground_truths: GroundTruthSet, iou_threshold: float = 0.5
) -> float | None:
    """Continuous AP over a single all-class ranking.

    Detections of every class are pooled by descending score (ties by input
    order); each may only match a still-unmatched truth of its own class.
    The recall denominator is the total truth count over all classes, so
    cross-class score calibration affects the result.  None when there is no
    ground truth at all.
    """
    return _Evaluation(detections, ground_truths, (iou_threshold,)).global_ap(iou_threshold)


def per_image_ap(
    detections: DetectionResultSet, ground_truths: GroundTruthSet, iou_threshold: float = 0.5
) -> float | None:
    """Unweighted mean over images of the class-pooled continuous AP on that image.

    Images without any ground truth are skipped (detections there go unjudged);
    None when no image has ground truth.
    """
    return _Evaluation(detections, ground_truths, (iou_threshold,)).per_image_ap(iou_threshold)


@dataclass(frozen=True)
class MetricReport:
    """Full evaluation summary; None marks a value whose denominator is empty."""

    voc50: float | None
    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None
    per_class_ap: Mapping[int, float]
    global_ap: float | None
    per_image_ap: float | None


def evaluate(
    detections: DetectionResultSet,
    ground_truths: GroundTruthSet,
    iou_threshold: float = 0.5,
    shards: int = 1,
) -> MetricReport:
    """Compute every report field from one matching pass.

    The pass matches at the ten COCO thresholds plus iou_threshold, which
    applies to the two pooled metrics only; the per-class families use their
    own fixed thresholds.  Size bands reuse the IOU-0.5 matches to decide
    which band owns each detection (see ap_by_area).  shards is kept for
    compatibility: it must be a positive whole number, starts no threads and
    changes nothing.
    """
    _positive_count("shards", shards)
    extra = () if iou_threshold in COCO_IOU_THRESHOLDS else (iou_threshold,)
    evaluation = _Evaluation(detections, ground_truths, COCO_IOU_THRESHOLDS + extra)
    per_class = evaluation.class_aps(0.5, "continuous")
    coco = evaluation.coco()
    return MetricReport(
        voc50=_mean(list(per_class.values())),
        ap=coco.ap,
        ap50=coco.ap50,
        ap75=coco.ap75,
        ap_small=evaluation.coco("small").ap,
        ap_medium=evaluation.coco("medium").ap,
        ap_large=evaluation.coco("large").ap,
        per_class_ap=per_class,
        global_ap=evaluation.global_ap(iou_threshold),
        per_image_ap=evaluation.per_image_ap(iou_threshold),
    )
