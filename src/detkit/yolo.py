"""Prediction-head math for grid-based single-stage detectors.

Covers the raw-to-box transform and its inverse, the coordinate and
binary-cross-entropy training gradients, the two prior/truth assignment rules,
and the flat memory layout of a prediction tensor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Box, _iou_lists, _is_whole

# Fractional cell offsets are clamped into [_OFFSET_EPS, 1 - _OFFSET_EPS] before
# the inverse sigmoid so that encoding a center sitting exactly on a cell
# boundary stays finite.
_OFFSET_EPS = 1e-7

# Probabilities are clamped into [_PROB_EPS, 1 - _PROB_EPS] inside the log terms.
_PROB_EPS = 1e-12

# Channel order within one anchor's slot of a prediction tensor.
CHANNEL_X = 0
CHANNEL_Y = 1
CHANNEL_W = 2
CHANNEL_H = 3
CHANNEL_OBJECTNESS = 4
CHANNEL_CLASS_START = 5


class CellMismatchError(ValueError):
    """The box center does not lie inside the grid cell given to encode()."""


class OutOfBoundsError(IndexError):
    """A tensor coordinate or flat offset lies outside the layout."""


def sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def inverse_sigmoid(p: float) -> float:
    if not (0.0 < p < 1.0):
        raise ValueError(f"logit is defined only on (0, 1), got {p!r}")
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class RawPrediction:
    """Pre-activation outputs for one prior at one cell.

    x and y are pre-sigmoid offsets of the box center within the cell; w and h
    are log-space scalings of the prior's size.  objectness and class_logits
    are logits; class_logits must match the head's class count when used in a
    grid context.
    """

    x: float
    y: float
    w: float
    h: float
    objectness: float = 0.0
    class_logits: tuple[float, ...] = ()


@dataclass(frozen=True)
class GridCell:
    """A cell of the prediction grid: whole, non-negative indices; stride is the cell edge in image pixels."""

    col: int
    row: int
    stride: float = 1.0

    def __post_init__(self) -> None:
        if self.col < 0 or self.row < 0:
            raise ValueError(f"cell indices must be non-negative, got ({self.col}, {self.row})")
        if not (_is_whole(self.col) and _is_whole(self.row)):
            raise ValueError(f"cell indices must be whole numbers, got ({self.col}, {self.row})")
        if not (self.stride > 0.0):
            raise ValueError(f"stride must be positive, got {self.stride!r}")
        if not (self.stride < math.inf):
            raise ValueError(f"stride must be finite, got {self.stride!r}")


@dataclass(frozen=True)
class AnchorPrior:
    """Prior box size in image pixels, positive and finite."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and self.height > 0.0):
            raise ValueError(f"prior size must be positive, got {self.width!r} x {self.height!r}")
        if not (self.width < math.inf and self.height < math.inf):
            raise ValueError(f"prior size must be finite, got {self.width!r} x {self.height!r}")

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class PlacedPrior:
    """An anchor prior anchored at a specific grid cell."""

    prior: AnchorPrior
    cell: GridCell

    def as_box(self) -> Box:
        """The prior's shape centered on its cell's center, in image pixels."""
        s = self.cell.stride
        return Box(
            (self.cell.col + 0.5) * s,
            (self.cell.row + 0.5) * s,
            self.prior.width,
            self.prior.height,
        )


@dataclass(frozen=True)
class GridSpec:
    """Shape of one detection head: an N x N grid, A priors per cell, C classes, each stored as int."""

    grid_size: int
    anchors_per_cell: int
    num_classes: int

    def __post_init__(self) -> None:
        if self.grid_size <= 0 or self.anchors_per_cell <= 0 or self.num_classes <= 0:
            raise ValueError(
                "grid_size, anchors_per_cell and num_classes must all be positive, got "
                f"{self.grid_size}/{self.anchors_per_cell}/{self.num_classes}"
            )
        if not (_is_whole(self.grid_size) and _is_whole(self.anchors_per_cell) and _is_whole(self.num_classes)):
            raise ValueError(
                "grid_size, anchors_per_cell and num_classes must all be whole numbers, got "
                f"{self.grid_size}/{self.anchors_per_cell}/{self.num_classes}"
            )
        for name in ("grid_size", "anchors_per_cell", "num_classes"):
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def channels_per_anchor(self) -> int:
        # 4 box coordinates + 1 objectness + per-class scores.
        return 5 + self.num_classes

    @property
    def cell_depth(self) -> int:
        return self.anchors_per_cell * self.channels_per_anchor

    @property
    def total_elements(self) -> int:
        return self.grid_size * self.grid_size * self.cell_depth


class AssignmentKind(enum.Enum):
    POSITIVE = "positive"
    IGNORED = "ignored"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class AssignmentLabel:
    """Training role of one prior: positive for a ground truth, ignored, or negative."""

    kind: AssignmentKind
    gt_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind is AssignmentKind.POSITIVE:
            if self.gt_index is None or self.gt_index < 0:
                raise ValueError("positive labels need a non-negative gt_index")
        elif self.gt_index is not None:
            raise ValueError(f"{self.kind.value} labels carry no gt_index")

    @classmethod
    def positive(cls, gt_index: int) -> "AssignmentLabel":
        return cls(AssignmentKind.POSITIVE, gt_index)

    @property
    def is_positive(self) -> bool:
        return self.kind is AssignmentKind.POSITIVE

    @property
    def is_ignored(self) -> bool:
        return self.kind is AssignmentKind.IGNORED

    @property
    def is_negative(self) -> bool:
        return self.kind is AssignmentKind.NEGATIVE


IGNORED = AssignmentLabel(AssignmentKind.IGNORED)
NEGATIVE = AssignmentLabel(AssignmentKind.NEGATIVE)


def decode(pred: RawPrediction, cell: GridCell, prior: AnchorPrior) -> Box:
    """Map raw coordinates to an image-space box.

    The center is the sigmoid-squashed offset added to the cell origin and
    scaled by the stride; the size is the prior scaled by the exponentiated
    raw values.  Prior sizes are already in image pixels, so only the center
    is stride-scaled.
    """
    s = cell.stride
    return Box(
        (sigmoid(pred.x) + cell.col) * s,
        (sigmoid(pred.y) + cell.row) * s,
        prior.width * math.exp(pred.w),
        prior.height * math.exp(pred.h),
    )


def encode(box: Box, cell: GridCell, prior: AnchorPrior) -> tuple[float, float, float, float]:
    """Inverse of decode: recover raw (x, y, w, h) coordinates for a box.

    The box center must lie inside the given cell; a center exactly on the
    cell border is accepted and its fractional offset clamped away from 0/1 so
    the inverse sigmoid stays finite.  Raises CellMismatchError when the
    center falls in a different cell.
    """
    frac_x = box.center_x / cell.stride - cell.col
    frac_y = box.center_y / cell.stride - cell.row
    if not (0.0 <= frac_x <= 1.0 and 0.0 <= frac_y <= 1.0):
        raise CellMismatchError(
            f"box center ({box.center_x}, {box.center_y}) lies outside cell "
            f"({cell.col}, {cell.row}) at stride {cell.stride}"
        )
    frac_x = min(max(frac_x, _OFFSET_EPS), 1.0 - _OFFSET_EPS)
    frac_y = min(max(frac_y, _OFFSET_EPS), 1.0 - _OFFSET_EPS)
    return (
        inverse_sigmoid(frac_x),
        inverse_sigmoid(frac_y),
        math.log(box.width / prior.width),
        math.log(box.height / prior.height),
    )


def coord_gradient(
    target: Sequence[float], predicted: Sequence[float]
) -> tuple[float, float, float, float]:
    """Gradient of the squared-error coordinate loss, componentwise target - predicted.

    This is the negative gradient of 0.5 * sum((target - predicted)**2) with
    respect to the predicted raw coordinates, i.e. the training signal pushed
    into each coordinate channel.
    """
    if len(target) != 4 or len(predicted) != 4:
        raise ValueError("coordinate vectors must have exactly 4 components")
    values = tuple(float(t) - float(p) for t, p in zip(target, predicted))
    if not all(math.isfinite(v) for v in values):
        raise ValueError("coordinate vectors must be finite")
    return values  # type: ignore[return-value]


def bce_loss(p: float, y: int) -> float:
    """Binary cross entropy of probability p against a 0/1 target.

    The probability inside the log is clamped at 1e-12 so a maximally wrong
    prediction yields a large finite loss; a maximally right one yields 0.
    """
    if y not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {y!r}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if y == 1:
        return -math.log(max(p, _PROB_EPS))
    return -math.log(max(1.0 - p, _PROB_EPS))


def bce_gradient_wrt_logit(logit: float, y: int) -> float:
    """d/d(logit) of bce_loss(sigmoid(logit), y), which reduces to sigmoid(logit) - y."""
    if y not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {y!r}")
    return sigmoid(logit) - y


def objectness_target(label: AssignmentLabel) -> float | None:
    """BCE target for the objectness channel, or None when the prior is ignored.

    Positive priors train toward 1.0.  (Some trainers instead use the decoded
    box's IOU with its ground truth as a soft target; that variant is not
    implemented here.)
    """
    if label.is_positive:
        return 1.0
    if label.is_negative:
        return 0.0
    return None


def prior_loss(
    pred: RawPrediction,
    label: AssignmentLabel,
    target_coords: Sequence[float] | None = None,
    class_targets: Sequence[int] | None = None,
) -> float:
    """Total loss contribution of one prior under its assignment label.

    Ignored priors contribute nothing.  Negative priors contribute only the
    objectness term (target 0).  Positive priors add the squared-error
    coordinate term and per-class BCE terms, so both targets are required.
    """
    if label.is_ignored:
        return 0.0
    obj_target = objectness_target(label)
    assert obj_target is not None
    total = bce_loss(sigmoid(pred.objectness), int(obj_target))
    if label.is_negative:
        return total
    if target_coords is None or class_targets is None:
        raise ValueError("positive priors need target_coords and class_targets")
    if len(class_targets) != len(pred.class_logits):
        raise ValueError("class_targets length must match class_logits")
    predicted = (pred.x, pred.y, pred.w, pred.h)
    # Each term sum is added left to right, as sum() added floats before
    # Python 3.12 compensated it, so the loss is the same on every Python.
    squares = 0.0
    for r in coord_gradient(target_coords, predicted):
        squares += r * r
    class_terms = 0.0
    for z, y in zip(pred.class_logits, class_targets):
        class_terms += bce_loss(sigmoid(z), y)
    total += 0.5 * squares
    total += class_terms
    return total


def assign_yolo_from_ious(
    ious: Sequence[Sequence[float]], num_ground_truths: int, ignore_threshold: float = 0.5
) -> list[AssignmentLabel]:
    """Best-prior-per-truth assignment over a precomputed IOU matrix.

    ious[i][g] is the overlap of prior i with ground truth g.  Each ground
    truth, in index order, claims the highest-IOU prior not claimed by an
    earlier ground truth (ties broken toward the lower prior index).  Of the
    remaining priors, any with IOU strictly above ignore_threshold against
    some ground truth is ignored; the rest are negatives.  A claimed prior is
    positive even when it also overlaps another truth above the threshold.

    Ground truths can outnumber priors only in degenerate inputs; the ones
    left after every prior is claimed receive no positive prior.
    """
    if not (0.0 <= ignore_threshold <= 1.0):
        raise ValueError(f"ignore_threshold must lie in [0, 1], got {ignore_threshold!r}")
    num_priors = len(ious)
    if num_priors == 0:
        raise ValueError("at least one prior is required")
    positives: dict[int, int] = {}
    for g in range(num_ground_truths):
        best_prior = None
        best_value = -1.0
        for i in range(num_priors):
            if i in positives:
                continue
            if ious[i][g] > best_value:
                best_value = ious[i][g]
                best_prior = i
        if best_prior is None:
            break
        positives[best_prior] = g
    labels: list[AssignmentLabel] = []
    for i in range(num_priors):
        if i in positives:
            labels.append(AssignmentLabel.positive(positives[i]))
        elif any(ious[i][g] > ignore_threshold for g in range(num_ground_truths)):
            labels.append(IGNORED)
        else:
            labels.append(NEGATIVE)
    return labels


def assign_yolo(
    placed_priors: Sequence[PlacedPrior],
    ground_truths: Sequence[Box],
    ignore_threshold: float = 0.5,
) -> list[AssignmentLabel]:
    """Assign one positive prior per ground truth; overlap-only suppression for the rest.

    For each ground truth the prior with maximal IOU becomes its positive
    (ties toward the lower prior index; a prior already claimed by an earlier
    truth is skipped).  Non-claimed priors overlapping any truth strictly
    above ignore_threshold are ignored, everything else is negative.  With no
    ground truths every prior is negative.
    """
    ious = _iou_lists([p.as_box() for p in placed_priors], ground_truths)
    return assign_yolo_from_ious(ious, len(ground_truths), ignore_threshold)


def assign_dual_threshold_from_ious(
    ious: Sequence[Sequence[float]],
    num_ground_truths: int,
    pos_threshold: float = 0.7,
    neg_threshold: float = 0.3,
) -> list[AssignmentLabel]:
    """Two-threshold assignment over a precomputed IOU matrix.

    Per prior, with m its maximum IOU over all ground truths: m >= pos_threshold
    makes it positive for the argmax truth (ties toward the lower truth index),
    neg_threshold <= m < pos_threshold leaves it ignored, and m < neg_threshold
    makes it negative.  Several priors may be positive for the same truth.
    """
    if not (0.0 <= neg_threshold <= pos_threshold <= 1.0):
        raise ValueError(
            f"need 0 <= neg_threshold <= pos_threshold <= 1, got {neg_threshold!r}/{pos_threshold!r}"
        )
    num_priors = len(ious)
    if num_priors == 0:
        raise ValueError("at least one prior is required")
    labels: list[AssignmentLabel] = []
    for i in range(num_priors):
        if num_ground_truths == 0:
            labels.append(NEGATIVE)
            continue
        best_gt = 0
        best_value = ious[i][0]
        for g in range(1, num_ground_truths):
            if ious[i][g] > best_value:
                best_value = ious[i][g]
                best_gt = g
        if best_value >= pos_threshold:
            labels.append(AssignmentLabel.positive(best_gt))
        elif best_value >= neg_threshold:
            labels.append(IGNORED)
        else:
            labels.append(NEGATIVE)
    return labels


def assign_dual_threshold(
    placed_priors: Sequence[PlacedPrior],
    ground_truths: Sequence[Box],
    pos_threshold: float = 0.7,
    neg_threshold: float = 0.3,
) -> list[AssignmentLabel]:
    """Assign each prior by its maximum overlap against two fixed thresholds."""
    ious = _iou_lists([p.as_box() for p in placed_priors], ground_truths)
    return assign_dual_threshold_from_ious(ious, len(ground_truths), pos_threshold, neg_threshold)


def tensor_index(spec: GridSpec, row: int, col: int, anchor: int, channel: int) -> int:
    """Flat offset of (row, col, anchor, channel) in row-major layout.

    Cells vary slowest (row-major over the grid), then the anchor slot, then
    the channel:  offset = ((row*N + col)*A + anchor)*(5 + C) + channel.
    """
    if not (0 <= row < spec.grid_size):
        raise OutOfBoundsError(f"row {row} outside grid of size {spec.grid_size}")
    if not (0 <= col < spec.grid_size):
        raise OutOfBoundsError(f"col {col} outside grid of size {spec.grid_size}")
    if not (0 <= anchor < spec.anchors_per_cell):
        raise OutOfBoundsError(f"anchor {anchor} outside {spec.anchors_per_cell} slots")
    if not (0 <= channel < spec.channels_per_anchor):
        raise OutOfBoundsError(f"channel {channel} outside {spec.channels_per_anchor} channels")
    if not (_is_whole(row) and _is_whole(col) and _is_whole(anchor) and _is_whole(channel)):
        raise OutOfBoundsError(f"position ({row}, {col}, {anchor}, {channel}) must be whole numbers")
    row, col, anchor, channel = int(row), int(col), int(anchor), int(channel)
    return ((row * spec.grid_size + col) * spec.anchors_per_cell + anchor) * spec.channels_per_anchor + channel


def tensor_unindex(spec: GridSpec, offset: int) -> tuple[int, int, int, int]:
    """Inverse of tensor_index: recover (row, col, anchor, channel) from a flat offset."""
    if not (0 <= offset < spec.total_elements):
        raise OutOfBoundsError(f"offset {offset} outside [0, {spec.total_elements})")
    if not _is_whole(offset):
        raise OutOfBoundsError(f"offset {offset} must be a whole number")
    offset = int(offset)
    offset, channel = divmod(offset, spec.channels_per_anchor)
    offset, anchor = divmod(offset, spec.anchors_per_cell)
    row, col = divmod(offset, spec.grid_size)
    return (row, col, anchor, channel)
