"""Axis-aligned boxes, overlap computation, and greedy non-maximum suppression.

Boxes are stored in center form (center_x, center_y, width, height) because the
decoder naturally produces centers; corner form is derived on demand.  All
coordinates are image pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _is_whole(value: float) -> bool:
    """True for a finite whole number, int or float; False for NaN and the infinities."""
    try:
        return int(value) == value
    except (OverflowError, ValueError):  # int() of an infinity, of NaN
        return False


def _positive_count(name: str, value: float) -> int:
    """value as an int; ValueError unless it is a positive whole number."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if not _is_whole(value):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in center form: finite fields and corners, positive finite area."""

    center_x: float
    center_y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if not (self.width > 0.0):
            raise ValueError(f"box width must be positive, got {self.width!r}")
        if not (self.height > 0.0):
            raise ValueError(f"box height must be positive, got {self.height!r}")
        # On each axis the farther edge lies |center| + half the size from 0.
        far_x = abs(self.center_x) + self.width / 2.0
        far_y = abs(self.center_y) + self.height / 2.0
        if not (math.isfinite(far_x) and math.isfinite(far_y) and 0.0 < self.width * self.height < math.inf):
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
        return cls(left + width / 2.0, top + height / 2.0, width, height)


@dataclass(frozen=True)
class ScoredBox:
    """A class-labelled detection: a score in [0, 1] and a non-negative whole class id, stored as int."""

    box: Box
    score: float
    class_id: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id!r}")
        if not _is_whole(self.class_id):
            raise ValueError(f"class_id must be a whole number, got {self.class_id!r}")
        if type(self.class_id) is not int:  # 2.0 becomes 2, as a results file must hold it
            object.__setattr__(self, "class_id", int(self.class_id))


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when they are disjoint.

    Areas are taken from the same corner values used for the intersection so
    that iou(b, b) == 1.0 exactly and the result never exceeds 1, as long as
    the union stays finite: for a box whose corner area is over half the
    largest float, such as Box(0, 0, 1e154, 1e154), the union overflows and
    iou(b, b) reads 0.0.
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
    return inter / (area_a + area_b - inter)


def _check_threshold(iou_threshold: float) -> None:
    if not (0.0 <= iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold!r}")


# Candidates per suppression block.  A block costs one IOU matrix with a row
# per block member, never one over all candidates; 32 rows keep it within
# cache on a 10,647-box head whose boxes share one class.
_NMS_BLOCK = 32
# [i, j] is True where block member j comes after member i.
_LATER_IN_BLOCK = np.triu(np.ones((_NMS_BLOCK, _NMS_BLOCK), dtype=bool), 1)


def _corner_rows(boxes: Sequence[Box]) -> np.ndarray:
    """(left, top, right, bottom, area) rows: each box's corners as Box computes them, and iou's area of them."""
    fields = np.array([(b.center_x, b.center_y, b.width, b.height) for b in boxes], dtype=np.float64).reshape(-1, 4)
    center, half = fields[:, :2], fields[:, 2:] / 2.0
    corners = np.concatenate([center - half, center + half], axis=1)
    size = corners[:, 2:] - corners[:, :2]
    return np.column_stack([corners, size[:, 0] * size[:, 1]])


def _overlaps(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """IOU matrix of two arrays of corner rows: [i, j] is the iou of row box i and column box j.

    Every entry is the float iou gives, by iou's arithmetic elementwise.  A
    pair without a positive intersection reads 0.0 even where both corner
    areas are 0.0: the union is 0.0 only where the intersection is, so a
    floor of the smallest positive float on the divisor changes no other
    quotient.  Run it under np.errstate(all="ignore"); an overflowing union is inf, as in iou.
    """
    left, top, right, bottom, area = (rows[:, k, None] for k in range(5))
    inter_w = np.minimum(right, cols[:, 2]) - np.maximum(left, cols[:, 0])
    inter_h = np.minimum(bottom, cols[:, 3]) - np.maximum(top, cols[:, 1])
    inter = np.maximum(inter_w, 0.0) * np.maximum(inter_h, 0.0)
    return inter / np.maximum(area + cols[:, 4] - inter, 5e-324)


def _iou_lists(rows: Sequence[Box], cols: Sequence[Box]) -> list[list[float]]:
    """[i][j] is iou(rows[i], cols[j]), every entry from one IOU matrix."""
    with np.errstate(all="ignore"):
        return _overlaps(_corner_rows(rows), _corner_rows(cols)).tolist()


def _greedy_keep(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Mask of the boxes the greedy rule keeps among boxes of one class, given in visit order.

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
        over = ~(_overlaps(alive_boxes[:size], alive_boxes) <= iou_threshold)
        struck = [False] * size
        pairs = np.nonzero(over[:, :size] & _LATER_IN_BLOCK[:size, :size])
        for i, j in zip(*(p.tolist() for p in pairs)):  # row-major: i is settled before it strikes
            if not struck[i]:
                struck[j] = True
        block_keep = ~np.array(struck)
        keep[alive[:size][block_keep]] = True
        alive = alive[size:][~over[block_keep, size:].any(axis=0)]
    return keep


def nms(detections: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy per-class non-maximum suppression.

    Candidates are visited in descending score order (ties broken by input
    position).  A candidate is kept iff its IOU with every already-kept box of
    the same class_id is <= iou_threshold.  Kept boxes come back in the visit
    order, i.e. by descending score, with their fields untouched.

    The greedy rule runs on numpy arrays with iou's arithmetic elementwise,
    so the kept list is the scalar rule's exactly.
    """
    _check_threshold(iou_threshold)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    by_class: dict[int, list[int]] = {}
    for i in order:
        by_class.setdefault(detections[i].class_id, []).append(i)
    # A class's first candidate is always kept, so only classes of two or more need IOU.
    groups = [members for members in by_class.values() if len(members) > 1]
    if not groups:
        return [detections[i] for i in order]
    grouped = [i for members in groups for i in members]
    with np.errstate(all="ignore"):  # overflow and NaN arise silently, as with Python floats
        boxes = _corner_rows([detections[i].box for i in grouped])
        bounds = np.cumsum([0] + [len(members) for members in groups]).tolist()
        keep = np.concatenate([_greedy_keep(boxes[a:b], iou_threshold) for a, b in zip(bounds, bounds[1:])])
    survives = [True] * len(detections)
    for i, kept in zip(grouped, keep.tolist()):
        survives[i] = kept
    return [detections[i] for i in order if survives[i]]
