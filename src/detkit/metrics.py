"""Detection evaluation: greedy matching, PR curves, and the AP metric family.

Every metric is a view over one matching pass: ids are checked once, the IOU
of every same-(image, class) (detection, truth) pair is computed once into
one pair table, and one greedy scan over it matches at every threshold.  A
view is detection indices in key order (by class, by image, or one key for
the global ranking), with a truth count per key.  Each AP is taken over a
key's hits alone, one point per matched detection ranked as in the full
sweep, which gives the full sweep's AP bit for bit (see _Evaluation._aps);
pr_curve alone walks every point.  A detection matched at IOU 0.5 belongs to
its truth's size band, decided once per truth; other bands mask it out of
both their ranking and their re-matching.

match alone keeps its own pass over one (image, class) group.  As a view it
would build the pass for every group of the set to answer for one, about four
times the time per call.

Alongside the usual per-class AP means (VOC-style mAP at IOU 0.5 and the
COCO-style threshold sweep), this module provides two rank-sensitive
alternatives: a class-pooled AP over one global ranking, and the mean of
class-pooled APs taken per image.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# iou is bound here though unused: perfbench/tracing.py counts calls through metrics.iou
from .geometry import (  # noqa: F401
    Box, ScoredBox, _box_fields, _check_unit, _codes, _corner_rows, _greedy, _greedy_matrix, _iou_matrix, _is_whole,
    _overlaps, _positive_count, _ranked, _score_ok, _slot_setters, _sum_in_order, _visit_order, iou,
)

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
        if not (isinstance(self.image_id, numbers.Real) and _is_whole(self.image_id)):
            raise ValueError(f"image {self.image_id!r}: id must be a whole number")
        object.__setattr__(self, "image_id", int(self.image_id))
        for name in ("width", "height"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and value > 0 and _is_whole(value)):
                raise ValueError(f"image {self.image_id}: {name} must be a positive whole number, got {value}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class GroundTruth:
    image_id: int
    class_id: int
    box: Box


class GroundTruthSet:
    """Ground-truth boxes and the declared category set.

    Each truth is held once, in the one truth order: image by image in
    registry order, input order within an image.  A truth's position in it
    names the truth in every pass, and the truth counts are read from it.

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
            if not (isinstance(category_id, numbers.Real) and category_id >= 0 and _is_whole(category_id)):
                raise ValueError(f"category {category_id}: id must be a non-negative whole number")
            category_id = int(category_id)
            self._categories[category_id] = name if named else str(category_id)
        if len(self._categories) == 0:
            raise ValueError("at least one category must be declared")
        by_image: dict[int, list[GroundTruth]] = {i: [] for i in self._images}
        for gt in ground_truths:
            if gt.image_id not in self._images:
                raise ValueError(f"ground truth references unknown image {gt.image_id}")
            if gt.class_id not in self._categories:
                raise ValueError(f"ground truth references unknown category {gt.class_id}")
            by_image[gt.image_id].append(gt)
        self._truths = tuple(gt for truths in by_image.values() for gt in truths)

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
        return tuple(gt for gt in self._truths if gt.image_id == image_id)

    def class_count(self, class_id: int) -> int:
        return [gt.class_id for gt in self._truths].count(class_id)

    @property
    def total_count(self) -> int:
        return len(self._truths)

    def classes_with_truth(self) -> tuple[int, ...]:
        return tuple(sorted({gt.class_id for gt in self._truths}))

    def _registers(self, image_ids: Iterable, class_ids: Iterable) -> bool:
        """True when every id of image_ids is a registered image and every one of class_ids a declared category."""
        return self._images.keys() >= set(image_ids) and self._categories.keys() >= set(class_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundTruthSet):
            return NotImplemented
        return (
            self._images == other._images
            and self._categories == other._categories
            # each image's truths in input order, whatever order the registry lists the images in
            and sorted(self._truths, key=lambda gt: gt.image_id) == sorted(other._truths, key=lambda gt: gt.image_id)
        )


@dataclass(frozen=True, init=False, slots=True)
class Detection:
    """One detection plus its position in its own set's input order (filter renumbers)."""

    image_id: int
    scored: ScoredBox
    index: int

    def __init__(self, image_id: int, scored: ScoredBox, index: int) -> None:
        _set_image_id(self, image_id)
        _set_scored(self, scored)
        _set_index(self, index)

    @property
    def score(self) -> float:
        return self.scored.score

    @property
    def class_id(self) -> int:
        return self.scored.class_id

    @property
    def box(self) -> Box:
        return self.scored.box


_set_image_id, _set_scored, _set_index = _slot_setters(Detection)


class _Columns(NamedTuple):
    """A results set as columns: detection i's image and class id, its score, and its box's (n, 4) center-form fields.

    bboxes holds a loaded set's records' (n, 4) [left, top, width, height]
    as read, which results_document writes back; it is None for a set built
    from objects.
    """

    image_ids: Sequence[int]
    class_ids: Sequence[int]
    scores: np.ndarray
    centers: np.ndarray
    bboxes: np.ndarray | None


class DetectionResultSet:
    """Detections across images, preserving input order for score tie-breaks.

    A set built from (image_id, ScoredBox) pairs keeps those objects as given.
    A loaded set is columnar: it builds its Detection objects only when
    detections, iteration, for_image, filter or == asks for them.  The
    evaluation engine reads columns, derived once from a built set's objects.
    """

    def __init__(self, detections: Iterable[tuple[int, ScoredBox]]) -> None:
        self._detections: tuple[Detection, ...] | None = tuple(
            Detection(image_id, scored, i) for i, (image_id, scored) in enumerate(detections)
        )
        self._columns: _Columns | None = None
        self._by_image: dict[int, list[Detection]] | None = None

    @classmethod
    def _from_columns(cls, *columns) -> "DetectionResultSet":
        """A set over the _Columns of checked records: exact int ids, float64 scores and (n, 4) boxes."""
        made = cls.__new__(cls)
        made._detections = None
        made._columns = _Columns(*columns)
        made._by_image = None
        return made

    @property
    def detections(self) -> tuple[Detection, ...]:
        if self._detections is None:
            image_ids, class_ids, scores, centers, _ = self._columns
            self._detections = tuple(
                Detection(image_id, ScoredBox(Box(*fields), score, class_id), i)
                for i, (image_id, class_id, score, fields) in enumerate(
                    zip(image_ids, class_ids, scores.tolist(), centers.tolist())
                )
            )
        return self._detections

    def _column_view(self) -> _Columns:
        if self._columns is None:
            dets = self._detections
            self._columns = _Columns(
                [det.image_id for det in dets],
                [det.class_id for det in dets],
                np.array([det.score for det in dets], dtype=np.float64),
                _box_fields([det.box for det in dets]),
                None,
            )
        return self._columns

    def for_image(self, image_id: int) -> tuple[Detection, ...]:
        if self._by_image is None:
            self._by_image = {}
            for det in self.detections:
                self._by_image.setdefault(det.image_id, []).append(det)
        return tuple(self._by_image.get(image_id, ()))

    def filter(self, keep: Callable[[Detection], bool]) -> "DetectionResultSet":
        """Subset preserving relative order (and therefore tie-break behaviour)."""
        return DetectionResultSet(
            (d.image_id, d.scored) for d in self.detections if keep(d)
        )

    def __len__(self) -> int:
        return len(self._detections) if self._detections is not None else len(self._columns.scores)

    def __iter__(self):
        return iter(self.detections)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionResultSet):
            return NotImplemented
        return self.detections == other.detections


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
    Every detection is checked as the other views check it, whatever its
    image or class.  Raises UnknownImageError for an unregistered image id,
    and ValueError for an undeclared class_id.
    """
    _check_inputs(detections, ground_truths, (iou_threshold,))
    if class_id not in ground_truths.categories:
        raise ValueError(f"unknown category {class_id}")
    truths = [gt for gt in ground_truths.for_image(image_id) if gt.class_id == class_id]
    cands = [d for d in detections.for_image(image_id) if d.class_id == class_id]
    cands = [cands[i] for i in _visit_order(np.array([d.score for d in cands], dtype=np.float64))]
    matched = _greedy_matrix(_iou_matrix([det.box for det in cands], [gt.box for gt in truths]), iou_threshold)
    det_matches = tuple(None if g < 0 else g for g in matched.tolist())
    position = {g: pos for pos, g in enumerate(det_matches) if g is not None}  # each matched truth's detection
    return MatchTable(tuple(cands), det_matches, tuple(map(position.get, range(len(truths)))))


@dataclass(frozen=True)
class PRCurve:
    """Cumulative (recall, precision) points from a score-ordered sweep.

    Raises ValueError, naming the point, for a recall or precision outside
    [0, 1] or NaN, and for a recall below the one before it.
    """

    points: tuple[tuple[float, float], ...]
    num_gt: int

    def __post_init__(self) -> None:
        before = 0.0
        for i, (recall, precision) in enumerate(self.points):
            if not (_score_ok(recall) and _score_ok(precision)):
                raise ValueError(f"point {i} {(recall, precision)!r}: recall and precision must lie in [0, 1]")
            if recall < before:
                raise ValueError(f"point {i} {(recall, precision)!r}: recall falls below the {before!r} before it")
            before = recall

    @property
    def ap(self) -> float:
        return average_precision(self, "continuous")


def _check_inputs(detections: DetectionResultSet, ground_truths: GroundTruthSet, thresholds: Sequence[float]) -> _Columns:
    """Raise for a threshold outside [0, 1], then for a detection naming an unregistered image or undeclared category.

    Returns the detections' columns.
    """
    for threshold in thresholds:
        _check_unit("iou_threshold", threshold)
    columns = detections._column_view()
    if not ground_truths._registers(columns.image_ids, columns.class_ids):
        for image_id, class_id in zip(columns.image_ids, columns.class_ids):  # name the first bad detection
            if image_id not in ground_truths.images:
                raise UnknownImageError(image_id)
            if class_id not in ground_truths.categories:
                raise ValueError(f"detection references unknown category {class_id}")
    return columns


class _Evaluation:
    """The one matching pass behind every metric.

    Image and category ids are checked once, and coded once by ascending id.
    Detections, read as columns, are named by their input index and truths by
    their position in the truth set's own order.  Every same-(image, class)
    IOU is computed in one call, and each pair reaching the lowest threshold
    enters one pair table, ranked once by sweep order, then descending IOU,
    then lower truth: pair_det, pair_truth and pair_iou.  A detection without
    a pair still ranks as a false positive.  Each distinct threshold t is
    matched once: matched[t][d] is the position of the truth detection d
    takes at t, or -1.  Each truth's size band is decided once.  Every view
    is detection indices in key order, a key per detection and a truth count
    per key.
    """

    def __init__(self, detections: DetectionResultSet, ground_truths: GroundTruthSet, thresholds: Sequence[float]) -> None:
        image_ids, class_ids, scores, centers, _ = _check_inputs(detections, ground_truths, thresholds)
        self.images, self.classes = sorted(ground_truths.images), sorted(ground_truths.categories)
        truths = ground_truths._truths
        self.image_of, self.class_of = _codes(image_ids, self.images), _codes(class_ids, self.classes)
        self.truth_image = _codes([gt.image_id for gt in truths], self.images)
        self.truth_class = _codes([gt.class_id for gt in truths], self.classes)
        self.truth_band = np.array([AREA_BANDS.index(area_band(gt.box)) for gt in truths], dtype=np.intp)
        self.order = _visit_order(scores)
        self.by_class = self.order[np.argsort(self.class_of[self.order], kind="stable")]
        self.by_image = self.order[np.argsort(self.image_of[self.order], kind="stable")]
        # truth positions sorted by (image, class) group; each swept detection's group is a run of them
        truth_group = self.truth_image * len(self.classes) + self.truth_class
        by_group = np.argsort(truth_group, kind="stable")
        group = (self.image_of * len(self.classes) + self.class_of)[self.order]
        first = np.searchsorted(truth_group[by_group], group, side="left")
        count = np.searchsorted(truth_group[by_group], group, side="right") - first
        # every same-group pair: detections by sweep position, each one's truths by position
        sweep = np.repeat(np.arange(len(self.order)), count)
        truth = by_group[np.arange(len(sweep)) + np.repeat(first - np.cumsum(count) + count, count)]
        truth_rows = _corner_rows(_box_fields([gt.box for gt in truths]))
        with np.errstate(all="ignore"):
            ious = _overlaps(_corner_rows(centers[self.order])[sweep], truth_rows[truth])
        reach = np.flatnonzero(ious >= min(thresholds))
        ranked = reach[_ranked(sweep[reach], truth[reach], ious[reach])]
        self.pair_det, self.pair_truth, self.pair_iou = self.order[sweep[ranked]], truth[ranked], ious[ranked]
        self.matched = {t: self._match(self.pair_iou >= t) for t in dict.fromkeys(thresholds)}

    def _match(self, pairs: np.ndarray) -> np.ndarray:
        """Each detection's matched truth position, or -1, by the greedy scan over the pairs where pairs is True."""
        return _greedy(self.pair_det[pairs], self.pair_truth[pairs], len(self.class_of))

    @staticmethod
    def _aps(index, key_of, counts, matches, interpolation: str) -> tuple[list[int], list[list[float]]]:
        """The keys that hold a truth, ascending, and per match map their APs, each taken over the map's hits alone.

        index holds detection indices in key order, sweep order within a key;
        key_of[d] is detection d's key and counts[k] key k's truth count.
        Detection d is a hit where matched[d] >= 0, and a hit's key holds the
        truth it matched.  Each hit is one point of its key's PR sweep: tp is
        its hit count within the key and its rank its position in the key's
        sweep plus 1, so recall is tp / counts[key] and precision tp / rank.  A
        key with truth but no hit has no point and reads 0.0; a key without
        truth is dropped.

        Why this is the AP of the full sweep over every detection, bit for bit:
        - recall rises only at a hit, and the point before a hit holds the
          previous hit's recall, so each rise is the same float;
        - a miss has the tp of the last hit before it and a larger rank, and
          float division is monotone, so its precision is no higher (0 before
          the first hit): the envelope at each hit is the maximum over later
          hits;
        - the first point to reach a 101-point sample above 0 is the hit at
          which recall rose to it, and sample 0 reads the sweep's first point,
          whose envelope is the sweep's maximum: the first hit's envelope, or 0
          with no hit.
        """
        lengths = np.bincount(key_of[index], minlength=len(counts))
        first = np.cumsum(lengths) - lengths  # each key's first position in index
        keys = np.flatnonzero(counts)
        out = []
        for matched in matches:
            hit = np.flatnonzero(matched[index] >= 0)  # positions in index, in key order
            key = key_of[index[hit]]
            hits = np.bincount(key, minlength=len(counts))
            tp = np.arange(1, len(hit) + 1) - (np.cumsum(hits) - hits)[key]
            out.append(_ap_rows(tp / counts[key], tp / (hit - first[key] + 1), hits[keys], interpolation).tolist())
        return keys.tolist(), out

    def class_aps(self, iou_threshold: float, interpolation: str) -> dict[int, float]:
        counts = np.bincount(self.truth_class, minlength=len(self.classes))
        keys, (aps,) = self._aps(self.by_class, self.class_of, counts, [self.matched[iou_threshold]], interpolation)
        return {self.classes[k]: ap for k, ap in zip(keys, aps)}

    def coco(self, band: str | None = None) -> CocoAPResult:
        """The COCO family, over every truth or over one size band's scope.

        A band's scope is its truths, the detections that no other band owns at
        IOU 0.5, and a re-match over the pair table masked to the pairs between
        the two; the mask keeps the table's order, so IOU ties still go to the
        lower truth.
        """
        index, matched, truth_class = self.by_class, self.matched, self.truth_class
        if band is not None:
            code = AREA_BANDS.index(band)
            owned = self.matched[0.5] >= 0
            owned[owned] = self.truth_band[self.matched[0.5][owned]] != code
            scope = (self.truth_band[self.pair_truth] == code) & ~owned[self.pair_det]
            matched = {t: self._match(scope & (self.pair_iou >= t)) for t in COCO_IOU_THRESHOLDS}
            index, truth_class = index[~owned[index]], truth_class[self.truth_band == code]
        counts = np.bincount(truth_class, minlength=len(self.classes))
        keys, per_class = self._aps(index, self.class_of, counts, [matched[t] for t in COCO_IOU_THRESHOLDS], "101-point")
        by_threshold = {t: _mean(aps) for t, aps in zip(COCO_IOU_THRESHOLDS, per_class)}
        ap = _mean(list(by_threshold.values())) if keys else None
        return CocoAPResult(ap, by_threshold[0.5], by_threshold[0.75], by_threshold)

    def global_ap(self, iou_threshold: float) -> float | None:
        one_key, count = np.zeros(len(self.class_of), dtype=np.intp), np.array([len(self.truth_class)])
        _, (aps,) = self._aps(self.order, one_key, count, [self.matched[iou_threshold]], "continuous")
        return _mean(aps)

    def per_image_ap(self, iou_threshold: float) -> float | None:
        counts = np.bincount(self.truth_image, minlength=len(self.images))
        _, (aps,) = self._aps(self.by_image, self.image_of, counts, [self.matched[iou_threshold]], "continuous")
        return _mean(aps)


def pr_curve(
    detections: DetectionResultSet,
    ground_truths: GroundTruthSet,
    iou_threshold: float,
    class_id: int,
) -> PRCurve:
    """Precision/recall sweep for one class across all images.

    The recall denominator is the total ground-truth count of the class;
    raises NoGroundTruthError when that count is zero (callers exclude such
    classes from any mean).  Every detection is checked, then the engine runs
    over the class's records alone: its detections, in input order, and its
    truths, in the truth order, over the same images and categories.
    """
    image_ids, class_ids, scores, centers, _ = _check_inputs(detections, ground_truths, (iou_threshold,))
    truths = [gt for gt in ground_truths._truths if gt.class_id == class_id]
    if not truths:
        raise NoGroundTruthError(f"no ground truth for class {class_id}")
    own = [i for i, c in enumerate(class_ids) if c == class_id]
    own_detections = DetectionResultSet._from_columns(
        [image_ids[i] for i in own], [class_ids[i] for i in own], scores[own], centers[own], None
    )
    own_truths = GroundTruthSet(ground_truths.images.values(), ground_truths.categories, truths)
    evaluation = _Evaluation(own_detections, own_truths, (iou_threshold,))
    # every point of the sweep, in the visit order of the class's detections
    tp = np.cumsum(evaluation.matched[iou_threshold][evaluation.order] >= 0)
    return PRCurve(tuple(zip((tp / len(truths)).tolist(), (tp / np.arange(1, len(tp) + 1)).tolist())), len(truths))


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
        # per point, its position in its sweep and the recall gained over the point before it (over 0 at the first)
        column = np.arange(len(row)) - (ends - lengths)[row]
        rise = recall - np.where(column == 0, 0.0, np.roll(recall, 1))
        # sweep k's n-th point adds its area in column n of row k; a point without a rise adds 0.0
        area = np.zeros((len(lengths), lengths.max(initial=1)))
        area[row, column] = rise * envelope
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
    """The arithmetic mean, or None for no values."""
    if not values:
        return None
    return _sum_in_order(values) / len(values)


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
    evaluation = _Evaluation(detections, ground_truths, COCO_IOU_THRESHOLDS + (iou_threshold,))
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
