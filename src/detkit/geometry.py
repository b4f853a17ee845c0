"""Axis-aligned boxes, overlap computation, and greedy non-maximum suppression.

Boxes are stored in center form (center_x, center_y, width, height) because the
decoder naturally produces centers; corner form is derived on demand.  All
coordinates are image pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


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
    """A class-labelled detection with a confidence score in [0, 1]."""

    box: Box
    score: float
    class_id: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id!r}")


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when they are disjoint.

    Areas are taken from the same corner values used for the intersection so
    that iou(b, b) == 1.0 exactly and the result never exceeds 1.
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


def nms(detections: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy per-class non-maximum suppression.

    Candidates are visited in descending score order (ties broken by input
    position).  A candidate is kept iff its IOU with every already-kept box of
    the same class_id is <= iou_threshold.  Kept boxes come back in the visit
    order, i.e. by descending score, with their fields untouched.
    """
    _check_threshold(iou_threshold)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    kept: list[ScoredBox] = []
    for i in order:
        candidate = detections[i]
        if all(
            iou(candidate.box, other.box) <= iou_threshold
            for other in kept
            if other.class_id == candidate.class_id
        ):
            kept.append(candidate)
    return kept
