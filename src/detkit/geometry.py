"""Axis-aligned boxes, overlap computation, and greedy non-maximum suppression.

Boxes are stored in center form (center_x, center_y, width, height) because the
decoder naturally produces centers; corner form is derived on demand.  All
coordinates are image pixels.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
from typing import Iterable, Sequence

import numpy as np


def _is_whole(value: float) -> bool:
    """True for a finite whole number, int or float; False for NaN and the infinities."""
    try:
        return int(value) == value
    except (OverflowError, ValueError):  # int() of an infinity, of NaN
        return False


def _positive_count(name: str, value) -> int:
    """value as an int; ValueError unless it is a positive whole number."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a positive whole number, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if not _is_whole(value):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _non_negative_count(name: str, value) -> int:
    """value as an int; ValueError unless it is a non-negative whole number."""
    if not (isinstance(value, numbers.Real) and value >= 0 and _is_whole(value)):
        raise ValueError(f"{name} must be a non-negative whole number, got {value!r}")
    return int(value)


# The types a number field is stored as given in; float first, as it is the most common.
_PLAIN_NUMBERS = (float, int)


def _store_floats(obj: object, names: Sequence[str]) -> None:
    """Store each named field that is a number but not exactly an int or a float as float(value).

    A numpy scalar field would otherwise set the precision of the arithmetic
    done on it and reach json as a type it cannot write.
    """
    for name in names:
        value = getattr(obj, name)
        if type(value) not in _PLAIN_NUMBERS and isinstance(value, numbers.Real):
            object.__setattr__(obj, name, float(value))


def _slot_setters(cls: type) -> tuple:
    """The slot setter of each field of a slotted dataclass, in field order.

    A value type built once per element (a box, a prior, a detection) is a
    frozen slotted dataclass that writes its own __init__ through these.  A
    setter call stores past the frozen __setattr__ at a fraction of the cost
    of the generated __init__'s object.__setattr__; slots keep each instance
    free of a dict, which storing through __dict__ would make.
    """
    return tuple(cls.__dict__[field.name].__set__ for field in dataclasses.fields(cls))


def _box_ok(center_x, center_y, width, height):
    """The Box rule, on four numbers or elementwise on four arrays: sizes positive, far corners finite, area in (0, inf).

    On each axis the farther edge lies |center| + half the size from 0.  The
    terms run left to right on numbers too, sizes first, so a field that is
    not a number raises the TypeError of the first term that reads it.  Run
    it on arrays under np.errstate(all="ignore").
    """
    return (
        (width > 0.0) & (height > 0.0) & (abs(center_x) + width / 2.0 < math.inf)
        & (abs(center_y) + height / 2.0 < math.inf) & (0.0 < width * height) & (width * height < math.inf)
    )


def _score_ok(score):
    """The score rule, on a number or elementwise on an array: score in [0, 1].

    The one unit-interval test: scores, IOU thresholds, probabilities, PR
    points and cell offsets all read it.
    """
    return (0.0 <= score) & (score <= 1.0)


def _check_unit(name: str, value) -> None:
    """Raise ValueError naming value unless it passes the score rule."""
    if not _score_ok(value):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _center_form(left, top, width, height):
    """(center_x, center_y, width, height) of a (left, top, width, height) box, on numbers or elementwise on arrays."""
    return left + width / 2.0, top + height / 2.0, width, height


@dataclasses.dataclass(frozen=True, init=False, slots=True)
class Box:
    """Axis-aligned rectangle in center form, obeying _box_ok: finite fields and corners, positive finite area.

    Python ints and floats are stored as given; any other number as float.
    """

    center_x: float
    center_y: float
    width: float
    height: float

    def __init__(self, center_x: float, center_y: float, width: float, height: float) -> None:
        _set_center_x(self, center_x)
        _set_center_y(self, center_y)
        _set_width(self, width)
        _set_height(self, height)
        if not (type(self.center_x) is type(self.center_y) is type(self.width) is type(self.height) is float):
            _store_floats(self, ("center_x", "center_y", "width", "height"))
        try:
            if _box_ok(self.center_x, self.center_y, self.width, self.height):
                return
        except OverflowError:  # an int field beyond the float range, which no box admits
            pass
        # The rule failed: name the first thing wrong.
        if not (self.width > 0.0):
            raise ValueError(f"box width must be positive, got {self.width!r}")
        if not (self.height > 0.0):
            raise ValueError(f"box height must be positive, got {self.height!r}")
        raise ValueError(f"box corners must be finite and area positive and finite, got {self!r}")

    @property
    def left(self) -> float:
        return self.center_x - self.width / 2.0

    @property
    def top(self) -> float:
        return self.center_y - self.height / 2.0

    @property
    def right(self) -> float:
        return self.center_x + self.width / 2.0

    @property
    def bottom(self) -> float:
        return self.center_y + self.height / 2.0

    @property
    def area(self) -> float:
        return self.width * self.height

    def corners(self) -> tuple[float, float, float, float]:
        """Return (left, top, right, bottom)."""
        return (self.left, self.top, self.right, self.bottom)

    @classmethod
    def from_corners(cls, left: float, top: float, right: float, bottom: float) -> "Box":
        return cls((left + right) / 2.0, (top + bottom) / 2.0, right - left, bottom - top)

    @classmethod
    def from_corner_size(cls, left: float, top: float, width: float, height: float) -> "Box":
        """Build from the (left, top, width, height) convention used by dataset files."""
        return cls(*_center_form(left, top, width, height))


_set_center_x, _set_center_y, _set_width, _set_height = _slot_setters(Box)


@dataclasses.dataclass(frozen=True, init=False, slots=True)
class ScoredBox:
    """A class-labelled detection: a score in [0, 1] and a non-negative whole class id, stored as int.

    The score is stored as Box stores a field.
    """

    box: Box
    score: float
    class_id: int

    def __init__(self, box: Box, score: float, class_id: int) -> None:
        _set_box(self, box)
        _set_score(self, score)
        _set_class_id(self, class_id)
        if type(self.score) not in _PLAIN_NUMBERS:
            _store_floats(self, ("score",))
        _check_unit("score", self.score)
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id!r}")
        if type(self.class_id) is not int:  # an int id is whole; 2.0 becomes 2, as a results file must hold it
            if not _is_whole(self.class_id):
                raise ValueError(f"class_id must be a whole number, got {self.class_id!r}")
            _set_class_id(self, int(self.class_id))


_set_box, _set_score, _set_class_id = _slot_setters(ScoredBox)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when they are disjoint.

    Areas are taken from the same corner values used for the intersection so
    that iou(b, b) == 1.0 exactly and the result never exceeds 1.  Where the
    union overflows, as for Box(0, 0, 1e154, 1e154) with itself, the
    intersection and both areas are halved first, by the float operations of
    _overlaps' rule for it.
    """
    a_left, a_top, a_right, a_bottom = a.corners()
    b_left, b_top, b_right, b_bottom = b.corners()
    inter_w = min(a_right, b_right) - max(a_left, b_left)
    inter_h = min(a_bottom, b_bottom) - max(a_top, b_top)
    if inter_w <= 0.0 or inter_h <= 0.0:
        return 0.0
    inter = inter_w * inter_h
    area_a = (a_right - a_left) * (a_bottom - a_top)
    area_b = (b_right - b_left) * (b_bottom - b_top)
    union = area_a + area_b - inter
    if union == math.inf:
        inter /= 2.0
        union = area_a / 2.0 + area_b / 2.0 - inter
    return inter / union


# Candidates per suppression block.  A block costs one IOU matrix with a row
# per block member, never one over all candidates; 32 rows keep it within
# cache on a 10,647-box head whose boxes share one class.
_NMS_BLOCK = 32
# [i, j] is True where block member j comes after member i.
_LATER_IN_BLOCK = np.triu(np.ones((_NMS_BLOCK, _NMS_BLOCK), dtype=bool), 1)


def _box_fields(boxes: Sequence[Box]) -> np.ndarray:
    """(center_x, center_y, width, height) rows of boxes, as float64."""
    return np.array([(b.center_x, b.center_y, b.width, b.height) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _corner_rows(fields: np.ndarray) -> np.ndarray:
    """(left, top, right, bottom, area) rows of (n, 4) center-form box fields: each box's corners as Box computes them, and iou's area of them."""
    center, half = fields[:, :2], fields[:, 2:] / 2.0
    corners = np.concatenate([center - half, center + half], axis=1)
    size = corners[:, 2:] - corners[:, :2]
    return np.column_stack([corners, size[:, 0] * size[:, 1]])


def _overlaps(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """IOUs of corner rows, in the shape rows[..., k] and cols[..., k] broadcast to.

    Given two (n, 5) arrays, the IOU of each pair; given rows[:, None] and
    cols, the matrix whose [i, j] is the iou of row box i and column box j.
    Every entry is the float iou gives, by iou's arithmetic elementwise.  A
    pair without a positive intersection reads 0.0 even where both corner
    areas are 0.0: the union is 0.0 only where the intersection is, so a floor
    of the smallest positive float on the divisor changes no other quotient.
    Where the two areas' sum overflows, the intersection and both areas are
    halved first: that is exact at such sizes, and the halved sum cannot
    overflow.  Run it under np.errstate(all="ignore").
    """
    left, top, right, bottom, area = (rows[..., k] for k in range(5))
    inter_w = np.minimum(right, cols[..., 2]) - np.maximum(left, cols[..., 0])
    inter_h = np.minimum(bottom, cols[..., 3]) - np.maximum(top, cols[..., 1])
    inter = np.maximum(inter_w, 0.0) * np.maximum(inter_h, 0.0)
    union = area + cols[..., 4] - inter
    if not union.max(initial=0.0) < math.inf:  # a NaN entry makes the maximum NaN, so no overflow is missed
        huge = union == math.inf
        inter = np.where(huge, inter / 2.0, inter)
        union = np.where(huge, area / 2.0 + cols[..., 4] / 2.0 - inter, union)
    return inter / np.maximum(union, 5e-324)


def _iou_matrix(rows: Sequence[Box], cols: Sequence[Box]) -> np.ndarray:
    """The (len(rows), len(cols)) float64 IOU matrix: [i, j] is iou(rows[i], cols[j])."""
    with np.errstate(all="ignore"):
        return _overlaps(_corner_rows(_box_fields(rows))[:, None], _corner_rows(_box_fields(cols)))


def _visit_order(scores: np.ndarray) -> np.ndarray:
    """Positions of a float64 score column by descending score, ties in input order, as an intp array.

    The one visit order of every ranking and greedy pass: a stable argsort
    of the negated scores, so equal scores (0.0 and -0.0 among them) keep
    their order.  Scores lie in [0, 1], where float64 holds every int and
    float exactly, so a column built from Python numbers ranks them as they
    compare.
    """
    return np.argsort(-scores, kind="stable")


def _codes(ids: Sequence, keys: Iterable) -> np.ndarray:
    """Each id's position in keys; every id is one of them.

    Ids are coded through a dict, so any hashable id works, ints beyond int64 too.
    """
    position = {key: code for code, key in enumerate(keys)}
    return np.fromiter(map(position.__getitem__, ids), np.intp, len(ids))


def _sum_in_order(values: Iterable[float]) -> float:
    """values added left to right from 0.0: the one sum behind every mean and loss.

    The builtin sum() of floats is compensated from Python 3.12 on and
    rounds differently, so it would make outputs depend on the interpreter.
    """
    return functools.reduce(operator.add, values, 0.0)


def _ranked(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The one pair order: positions of pairs (rows[k], cols[k]) by row, then descending value, then lower column."""
    return np.lexsort((cols, -values, rows))


def _greedy(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """The one greedy match scan: each row in turn claims the first still-free column among its candidates.

    Candidate pairs come as _ranked orders them: grouped by row, rows in visit
    order, each row's best first; every row lies in [0, size).  Returns the
    match map: an intp array of size entries, each row's claimed column or -1.
    """
    claims: dict[int, int] = {}  # claimed column -> the row that claimed it
    last = None
    for row, col in zip(rows.tolist(), cols.tolist()):
        if row != last and col not in claims:
            claims[col] = last = row
    matched = np.full(size, -1, dtype=np.intp)
    matched[list(claims.values())] = list(claims)
    return matched


def _greedy_matrix(values: np.ndarray, iou_threshold: float) -> np.ndarray:
    """The match map of _greedy over a 2-D float64 matrix's entries that reach iou_threshold and exceed -1.

    NaN never does.  Each row's column, or -1, in row order.  match runs it
    with detections as rows in visit order, prior assignment with truths as
    rows.
    """
    rows, cols = np.nonzero((values >= iou_threshold) & (values > -1.0))
    ranked = _ranked(rows, cols, values[rows, cols])
    return _greedy(rows[ranked], cols[ranked], len(values))


def _greedy_keep(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Mask of the boxes the greedy rule keeps among one key's candidates, given as corner rows in visit order.

    Survivors are taken a block at a time from the front.  One IOU matrix
    covers the block against itself and every later survivor.  Within the
    block the suppressing pairs are replayed in visit order; the block's
    kept boxes then strike the later survivors they overlap.
    """
    keep = np.zeros(len(boxes), dtype=bool)
    alive = np.arange(len(boxes))
    while alive.size:
        size = min(len(alive), _NMS_BLOCK)
        alive_boxes = boxes[alive]
        over = ~(_overlaps(alive_boxes[:size, None], alive_boxes) <= iou_threshold)
        struck = [False] * size
        pairs = np.nonzero(over[:, :size] & _LATER_IN_BLOCK[:size, :size])
        for i, j in zip(*(p.tolist() for p in pairs)):  # row-major: i is settled before it strikes
            if not struck[i]:
                struck[j] = True
        block_keep = ~np.array(struck)
        keep[alive[:size][block_keep]] = True
        alive = alive[size:][~over[block_keep, size:].any(axis=0)]
    return keep


def _suppress(keys: Sequence, scores: np.ndarray, fields: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Positions of the candidates greedy suppression keeps, in visit order: the one suppression pass.

    Candidate i has the hashable key keys[i], the float64 score scores[i],
    and the center-form box fields[i].  Candidates are visited by
    descending score, ties by position, and a candidate is kept iff its IOU
    with every already-kept candidate of the same key is <= iou_threshold.
    Each key's candidates run as one slice of _greedy_keep; a key's first
    candidate is always kept, so a key with one candidate needs no IOU.
    """
    _check_unit("iou_threshold", iou_threshold)
    order = _visit_order(scores)
    codes = _codes(keys, dict.fromkeys(keys))[order]  # each visit position's key
    keep = np.ones(len(order), dtype=bool)  # by visit position
    with np.errstate(all="ignore"):  # overflow and NaN arise silently, as with Python floats
        rows = _corner_rows(fields)[order]
        by_key = np.argsort(codes, kind="stable")  # visit positions key by key, each key's a run
        counts = np.bincount(codes)
        shared = counts > 1  # only a key of two or more candidates needs the greedy pass
        for end, count in zip(np.cumsum(counts)[shared].tolist(), counts[shared].tolist()):
            run = by_key[end - count:end]
            keep[run] = _greedy_keep(rows[run], iou_threshold)
    return order[keep]


def nms(detections: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy per-class non-maximum suppression: _suppress keyed by class_id.

    detections may be any items with a score, a class_id and a box:
    ScoredBoxes, or the Detections of a results set.  Candidates are visited
    in descending score order (ties broken by input position).  A candidate
    is kept iff its IOU with every already-kept box of the same class_id is
    <= iou_threshold.  Kept items come back in the visit order, i.e. by
    descending score: the very items given, their fields untouched.

    The greedy rule runs on numpy arrays with iou's arithmetic elementwise,
    so the kept list is the scalar rule's exactly.
    """
    scores = np.array([d.score for d in detections], dtype=np.float64)
    kept = _suppress([d.class_id for d in detections], scores, _box_fields([d.box for d in detections]), iou_threshold)
    return [detections[i] for i in kept.tolist()]
