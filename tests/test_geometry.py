"""Box arithmetic, IOU, and greedy non-maximum suppression."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_boxes_close, boxes, canvas_boxes, finite_floats, scored_boxes
from detkit import Box, ScoredBox, geometry, iou, nms
from detkit.geometry import _NMS_BLOCK
from oracles import oracle_nms


class TestBox:
    def test_corner_properties(self):
        b = Box(center_x=25.0, center_y=40.0, width=30.0, height=40.0)
        assert b.left == 10.0
        assert b.top == 20.0
        assert b.right == 40.0
        assert b.bottom == 60.0
        assert b.area == 1200.0
        assert b.corners() == (10.0, 20.0, 40.0, 60.0)

    def test_from_corners(self):
        b = Box.from_corners(10.0, 20.0, 40.0, 60.0)
        assert b == Box(center_x=25.0, center_y=40.0, width=30.0, height=40.0)

    def test_from_corner_size(self):
        b = Box.from_corner_size(10.0, 20.0, 30.0, 40.0)
        assert b == Box(center_x=25.0, center_y=40.0, width=30.0, height=40.0)

    @pytest.mark.parametrize("width,height", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0), (1.0, -0.5)])
    def test_rejects_non_positive_sizes(self, width, height):
        with pytest.raises(ValueError):
            Box(center_x=0.0, center_y=0.0, width=width, height=height)

    def test_from_corners_rejects_inverted(self):
        with pytest.raises(ValueError):
            Box.from_corners(5.0, 0.0, 4.0, 1.0)

    @pytest.mark.parametrize(
        "fields",
        [
            (math.nan, 0.0, 1.0, 1.0),
            (math.inf, 0.0, 1.0, 1.0),
            (0.0, -math.inf, 1.0, 1.0),
            (0.0, 0.0, math.inf, 1.0),
            (0.0, math.nan, 1.0, 1.0),
            (1.5e308, 0.0, 1e308, 1.0),  # right edge overflows
            (0.0, -1.5e308, 1.0, 1e308),  # top edge overflows
            (0.0, 0.0, 1e200, 1e200),  # area overflows
            (0.0, 0.0, 1e-200, 1e-200),  # area underflows to 0, and iou would divide by it
        ],
        ids=[
            "nan-x", "inf-x", "inf-y", "inf-width", "nan-y", "right-edge", "top-edge", "area", "area-underflow"
        ],
    )
    def test_rejects_non_finite_or_overflowing(self, fields):
        with pytest.raises(ValueError, match="finite"):
            Box(*fields)

    def test_from_corner_size_rejects_overflowing_edge(self):
        with pytest.raises(ValueError, match="finite"):
            Box.from_corner_size(1e308, 0.0, 1e308, 1.0)

    @given(boxes)
    def test_corner_round_trip(self, b):
        again = Box.from_corners(*b.corners())
        assert_boxes_close(again, b, rel=8 * 2.3e-16)


class TestScoredBox:
    def test_fields(self):
        sb = ScoredBox(box=Box(0.0, 0.0, 1.0, 1.0), score=0.75, class_id=3)
        assert sb.score == 0.75
        assert sb.class_id == 3

    @pytest.mark.parametrize("score", [-0.1, 1.1, math.nan])
    def test_rejects_bad_score(self, score):
        with pytest.raises(ValueError):
            ScoredBox(box=Box(0.0, 0.0, 1.0, 1.0), score=score, class_id=0)

    def test_rejects_negative_class(self):
        with pytest.raises(ValueError, match=r"^class_id must be non-negative, got -1$"):
            ScoredBox(box=Box(0.0, 0.0, 1.0, 1.0), score=0.5, class_id=-1)

    @pytest.mark.parametrize("class_id", [1.5, math.inf, math.nan])
    def test_rejects_class_that_is_not_whole(self, class_id):
        # A class 1.5 detection would match no truth and be scored silently.
        with pytest.raises(ValueError, match=r"^class_id must be a whole number, got "):
            ScoredBox(box=Box(0.0, 0.0, 1.0, 1.0), score=0.5, class_id=class_id)

    def test_whole_valued_float_class_accepted(self):
        assert ScoredBox(box=Box(0.0, 0.0, 1.0, 1.0), score=0.5, class_id=2.0).class_id == 2

    @pytest.mark.parametrize(
        "class_id", [2, 2.0, True, np.int64(2), np.float64(2.0)], ids=["int", "float", "bool", "np.int64", "np.float64"]
    )
    def test_class_id_stored_as_int(self, class_id):
        stored = ScoredBox(box=Box(0.0, 0.0, 1.0, 1.0), score=0.5, class_id=class_id).class_id
        assert type(stored) is int and stored == class_id


class TestIou:
    def test_known_quarter_overlap(self):
        a = Box.from_corners(0.0, 0.0, 2.0, 2.0)
        b = Box.from_corners(1.0, 1.0, 3.0, 3.0)
        # intersection 1, union 4 + 4 - 1 = 7
        assert iou(a, b) == 1.0 / 7.0

    def test_contained_box(self):
        outer = Box.from_corners(0.0, 0.0, 2.0, 1.0)
        inner = Box.from_corners(0.0, 0.0, 1.0, 1.0)
        assert iou(outer, inner) == 0.5

    def test_disjoint_is_zero(self):
        a = Box(center_x=0.0, center_y=0.0, width=1.0, height=1.0)
        b = Box(center_x=10.0, center_y=0.0, width=1.0, height=1.0)
        assert iou(a, b) == 0.0

    def test_touching_edges_is_zero(self):
        a = Box.from_corners(0.0, 0.0, 1.0, 1.0)
        b = Box.from_corners(1.0, 0.0, 2.0, 1.0)
        assert iou(a, b) == 0.0

    @given(boxes)
    def test_self_iou_is_exactly_one(self, b):
        assert iou(b, b) == 1.0

    @given(canvas_boxes, canvas_boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def _chain() -> list[ScoredBox]:
    # Three unit-height boxes sliding right by 0.25 each: adjacent pairs
    # overlap at IOU 0.75/1.25 = 0.6, the outer pair at only 1/3.
    a = Box.from_corners(0.0, 0.0, 1.0, 1.0)
    b = Box.from_corners(0.25, 0.0, 1.25, 1.0)
    c = Box.from_corners(0.5, 0.0, 1.5, 1.0)
    return [
        ScoredBox(box=a, score=0.9, class_id=0),
        ScoredBox(box=b, score=0.8, class_id=0),
        ScoredBox(box=c, score=0.7, class_id=0),
    ]


class TestNms:
    def test_empty(self):
        assert nms([], iou_threshold=0.5) == []

    def test_single(self):
        dets = [ScoredBox(box=Box(0.0, 0.0, 1.0, 1.0), score=0.5, class_id=0)]
        assert nms(dets, iou_threshold=0.5) == dets

    def test_chain_keeps_first_and_third(self):
        dets = _chain()
        kept = nms(dets, iou_threshold=0.5)
        assert kept == [dets[0], dets[2]]

    def test_chain_geometry(self):
        dets = _chain()
        assert iou(dets[0].box, dets[1].box) == 0.6
        assert iou(dets[1].box, dets[2].box) == 0.6
        assert iou(dets[0].box, dets[2].box) == pytest.approx(1.0 / 3.0)

    def test_classes_do_not_suppress_each_other(self):
        box = Box(center_x=5.0, center_y=5.0, width=2.0, height=2.0)
        dets = [
            ScoredBox(box=box, score=0.9, class_id=0),
            ScoredBox(box=box, score=0.8, class_id=1),
        ]
        assert nms(dets, iou_threshold=0.5) == dets

    def test_score_tie_resolved_by_input_order(self):
        box = Box(center_x=5.0, center_y=5.0, width=2.0, height=2.0)
        first = ScoredBox(box=box, score=0.8, class_id=0)
        second = ScoredBox(box=box, score=0.8, class_id=0)
        assert nms([first, second], iou_threshold=0.5) == [first]

    def test_threshold_is_inclusive_keep(self):
        # IOU exactly at the threshold does not suppress.
        a = Box.from_corners(0.0, 0.0, 2.0, 1.0)
        b = Box.from_corners(0.0, 0.0, 1.0, 1.0)
        assert iou(a, b) == 0.5
        dets = [
            ScoredBox(box=a, score=0.9, class_id=0),
            ScoredBox(box=b, score=0.8, class_id=0),
        ]
        assert nms(dets, iou_threshold=0.5) == dets
        assert nms(dets, iou_threshold=0.49) == dets[:1]

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(ValueError):
            nms([], iou_threshold=threshold)

    @given(st.lists(scored_boxes, max_size=12), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_survivors_pairwise_separated(self, dets, threshold):
        kept = nms(dets, iou_threshold=threshold)
        for i, first in enumerate(kept):
            for second in kept[i + 1:]:
                if first.class_id == second.class_id:
                    assert iou(first.box, second.box) <= threshold

    @given(st.lists(scored_boxes, max_size=12), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_output_is_subset_sorted_by_score(self, dets, threshold):
        kept = nms(dets, iou_threshold=threshold)
        remaining = list(dets)
        for sb in kept:
            assert sb in remaining
            remaining.remove(sb)
        scores = [sb.score for sb in kept]
        assert scores == sorted(scores, reverse=True)

    @given(st.lists(scored_boxes, max_size=12), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_idempotent(self, dets, threshold):
        kept = nms(dets, iou_threshold=threshold)
        assert nms(kept, iou_threshold=threshold) == kept


# Corners on a half-unit grid and scores from a short list, so that score ties
# and IOU values exactly at a threshold (2x1 against 1x1 is 0.5) come up often.
_grid_halves = st.integers(0, 16).map(lambda v: v / 2.0)
grid_boxes = st.builds(
    lambda left, top, w, h: Box.from_corners(left, top, left + w, top + h),
    _grid_halves, _grid_halves, st.integers(1, 8).map(lambda v: v / 2.0), st.integers(1, 8).map(lambda v: v / 2.0),
)
grid_scored_boxes = st.builds(
    ScoredBox,
    box=grid_boxes,
    score=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    class_id=st.integers(min_value=0, max_value=2),
)
thresholds = st.sampled_from([0.0, 1.0 / 3.0, 0.45, 0.5, 1.0]) | st.floats(0.0, 1.0)

# A width of 1e-14 does not register at x >= 100: left == right in corner
# space, so the corner area is 0.0 although the Box's own area is positive.
_hundreds = st.integers(1, 8).map(lambda v: 100.0 * v)
_heights = st.integers(1, 8).map(lambda v: v / 2.0)
thin_boxes = st.builds(lambda left, top, h: Box.from_corner_size(left, top, 1e-14, h), _hundreds, _grid_halves, _heights)
wide_boxes = st.builds(Box.from_corner_size, _hundreds, _grid_halves, _hundreds, _heights)


def _box_or_none(*fields: float) -> Box | None:
    try:
        return Box(*fields)
    except ValueError:
        return None


def _boxes_at_scale(exponent: int) -> st.SearchStrategy[list[Box]]:
    """Boxes with centers and sizes near 10**exponent, so that they overlap; at 10**154 two areas overflow a sum."""
    scale = 10.0 ** exponent
    box = st.builds(_box_or_none, finite_floats(-scale, scale), finite_floats(-scale, scale),
                    finite_floats(scale / 100.0, scale), finite_floats(scale / 100.0, scale))
    return st.lists(box.filter(lambda b: b is not None), max_size=10)


class TestOverlapsMatchScalarIou:
    """Every entry of the IOU matrix is the float iou gives for the same pair, compared by float.hex."""

    @staticmethod
    def assert_same_as_iou(rows, cols):
        got = geometry._iou_lists(rows, cols)
        assert [[v.hex() for v in row] for row in got] == [[iou(a, b).hex() for b in cols] for a in rows]

    @given(st.lists(grid_boxes, max_size=12), st.sampled_from([0.25, 0.5, 1.0]))
    @example([Box.from_corners(0.0, 0.0, 1.0, 1.0), Box.from_corners(1.0, 0.0, 2.0, 1.0)], 1.0)
    def test_touching_identical_and_nested_boxes(self, grid, shrink):
        # Half-unit corners make touching edges common; each box also meets itself and a copy shrunk about its center.
        nested = [Box(b.center_x, b.center_y, b.width * shrink, b.height * shrink) for b in grid]
        self.assert_same_as_iou(grid + nested, grid + nested)

    @given(st.lists(canvas_boxes, max_size=12), st.lists(canvas_boxes, max_size=12))
    def test_canvas_boxes(self, rows, cols):
        self.assert_same_as_iou(rows, cols)

    @given(st.lists(boxes, max_size=12), st.lists(boxes, max_size=12))
    def test_wide_ranging_centers_and_sizes(self, rows, cols):
        self.assert_same_as_iou(rows, cols)

    @given(st.integers(-100, 154).flatmap(_boxes_at_scale))
    @example([Box(0.0, 0.0, 1e154, 1e154)])
    def test_extreme_scales(self, scaled):
        self.assert_same_as_iou(scaled, scaled)

    @given(st.lists(thin_boxes | wide_boxes, max_size=12))
    @example([Box.from_corner_size(100, 0, 1e-14, 10), Box.from_corner_size(100, 0, 1e-14, 10)])
    def test_boxes_with_zero_corner_area(self, flat):
        self.assert_same_as_iou(flat, flat)

    def test_zero_corner_area_pair_reads_zero(self):
        # Both corner areas and the intersection are 0.0; the matrix must not divide 0 by 0.
        thin = Box.from_corner_size(100, 0, 1e-14, 10)
        assert geometry._iou_lists([thin], [thin]) == [[0.0]]

    def test_overflowing_union_reads_zero_as_in_iou(self):
        big = Box(0.0, 0.0, 1e154, 1e154)
        assert iou(big, big) == 0.0
        assert geometry._iou_lists([big], [big]) == [[0.0]]

    def test_empty_sides(self):
        one = [Box(0.0, 0.0, 1.0, 1.0)]
        assert geometry._iou_lists([], one) == []
        assert geometry._iou_lists(one, []) == [[]]


def _random_candidates(seed: int, count: int, classes: int, centers: int, spread: float) -> list[ScoredBox]:
    """Boxes jittered around a few planted centers, two-decimal scores (so ties occur)."""
    rng = random.Random(seed)
    planted = [(rng.uniform(20.0, 396.0), rng.uniform(20.0, 396.0)) for _ in range(centers)]
    dets = []
    for _ in range(count):
        cx, cy = rng.choice(planted)
        box = Box(cx + rng.gauss(0.0, spread), cy + rng.gauss(0.0, spread),
                  rng.lognormvariate(3.5, 0.6), rng.lognormvariate(3.5, 0.6))
        dets.append(ScoredBox(box, round(rng.random(), 2), rng.randrange(classes)))
    return dets


class TestNmsMatchesScalarOracle:
    """nms keeps exactly the scalar greedy rule's list: same objects, same order."""

    @staticmethod
    def assert_same_kept(dets, threshold):
        kept = nms(dets, iou_threshold=threshold)
        expected = oracle_nms(dets, threshold)
        assert len(kept) == len(expected)
        assert all(got is want for got, want in zip(kept, expected))

    @given(st.lists(grid_scored_boxes, max_size=40), thresholds)
    @example(
        [ScoredBox(Box.from_corners(0.0, 0.0, 2.0, 1.0), 0.9, 0), ScoredBox(Box.from_corners(0.0, 0.0, 1.0, 1.0), 0.9, 0)],
        0.5,
    )
    @settings(max_examples=150)
    def test_grid_boxes_with_ties(self, dets, threshold):
        self.assert_same_kept(dets, threshold)

    @given(st.lists(scored_boxes, max_size=40), thresholds)
    @settings(max_examples=100)
    def test_canvas_boxes(self, dets, threshold):
        self.assert_same_kept(dets, threshold)

    @given(st.lists(st.builds(ScoredBox, box=boxes, score=st.floats(0.0, 1.0), class_id=st.integers(0, 1)), max_size=30),
           thresholds)
    @settings(max_examples=60)
    def test_wide_ranging_boxes(self, dets, threshold):
        self.assert_same_kept(dets, threshold)

    @given(st.lists(st.builds(ScoredBox, box=thin_boxes | wide_boxes, score=st.sampled_from([0.5, 1.0]),
                              class_id=st.integers(0, 1)), max_size=30), thresholds)
    @example(
        [ScoredBox(Box.from_corner_size(100.0, 0.0, 1e-14, 10.0), 0.9, 0),
         ScoredBox(Box.from_corner_size(300.0, 0.0, 1e-14, 10.0), 0.8, 0)],
        0.5,
    )
    @settings(max_examples=60)
    def test_boxes_with_zero_corner_area(self, dets, threshold):
        # Two such boxes never intersect, so their IOU is 0.0 and not 0/0.
        self.assert_same_kept(dets, threshold)

    @given(st.lists(st.builds(ScoredBox, box=grid_boxes, score=st.sampled_from([0.5, 1.0]),
                              class_id=st.integers(0, 200)), max_size=60), thresholds)
    @settings(max_examples=60)
    def test_many_classes(self, dets, threshold):
        self.assert_same_kept(dets, threshold)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 40]), thresholds)
    @settings(max_examples=50, deadline=None)
    def test_more_boxes_than_a_block(self, seed, classes, threshold):
        # With one or two classes, each outgrows a block; with 5 or 40, each fits in one.
        dets = _random_candidates(seed, count=3 * _NMS_BLOCK + 7, classes=classes, centers=4, spread=10.0)
        self.assert_same_kept(dets, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_extreme_thresholds(self, threshold):
        dets = _random_candidates(1, count=2 * _NMS_BLOCK + 3, classes=3, centers=3, spread=10.0)
        self.assert_same_kept(dets, threshold)

    def test_no_matrix_over_all_candidates(self, monkeypatch):
        shapes = []
        overlaps = geometry._overlaps

        def recording(rows, cols):
            shapes.append((len(rows), len(cols)))
            return overlaps(rows, cols)

        monkeypatch.setattr(geometry, "_overlaps", recording)
        dets = _random_candidates(2, count=4 * _NMS_BLOCK, classes=1, centers=40, spread=30.0)
        nms(dets, iou_threshold=0.45)
        assert max(rows for rows, _ in shapes) <= _NMS_BLOCK

    def test_head_sized_frame(self):
        # Shaped like one decoded 416x416 frame over the score threshold: 80
        # classes, about 2,500 candidates clustered around 35 objects.
        dets = _random_candidates(0, count=2520, classes=80, centers=35, spread=8.0)
        kept = nms(dets, iou_threshold=0.45)
        assert 0 < len(dets) - len(kept) < len(dets)
        self.assert_same_kept(dets, 0.45)
