"""Box arithmetic, IOU, and greedy non-maximum suppression."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assert_boxes_close, boxes, canvas_boxes, finite_floats, scored_boxes
from detkit import Box, Detection, DetectionResultSet, GridCell, RawPrediction, ScoredBox, dump_results, geometry, iou, nms
from detkit.geometry import _NMS_BLOCK
from oracles import corner_iou, oracle_nms


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


class TestNumericStorage:
    """Box fields and scores that are numbers of another type are stored as float; ints and floats as given."""

    @pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64], ids=["np.float32", "np.float64", "np.int64"])
    def test_numpy_fields_and_score_become_floats(self, kind):
        scored = ScoredBox(Box(kind(10), kind(20), kind(30), kind(40)), kind(1), 0)
        fields = (scored.box.center_x, scored.box.center_y, scored.box.width, scored.box.height, scored.score)
        assert [(type(v), v) for v in fields] == [(float, 10.0), (float, 20.0), (float, 30.0), (float, 40.0), (float, 1.0)]

    def test_iou_of_float32_boxes_is_the_matrix_entry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = (Box(*(np.float32(v) for v in rng.uniform([0, 0, 1, 1], [50, 50, 40, 40]))) for _ in range(2))
            value = iou(a, b)
            assert type(value) is float
            assert value == geometry._iou_matrix([a], [b]).tolist()[0][0]

    def test_dump_results_writes_numpy_fields_and_scores(self):
        scored = ScoredBox(Box(*(np.float32(v) for v in (10.3, 20.1, 30.7, 40.2))), np.float32(0.3), 1)
        written = dump_results(DetectionResultSet([(1, scored)]))
        assert '"score": 0.30000001192092896' in written
        # json cannot write a numpy integer, so dump_results turns the image id into an int
        assert dump_results(DetectionResultSet([(np.int64(1), scored)])) == written

    def test_python_ints_and_floats_stay_as_given(self):
        scored = ScoredBox(Box(1, 2.5, 3, 4.0), 1, 0)
        assert repr(scored) == "ScoredBox(box=Box(center_x=1, center_y=2.5, width=3, height=4.0), score=1, class_id=0)"

    def test_strings_are_still_rejected(self):
        with pytest.raises(TypeError):
            Box("1", 2.0, 3.0, 4.0)
        with pytest.raises(TypeError):
            ScoredBox(Box(1.0, 2.0, 3.0, 4.0), "0.5", 0)

    @pytest.mark.parametrize(
        "fields", [(0, 0, 10**400, 1), (0, 0, 1, 10**400), (10**400, 0, 1, 1), (0, -(10**400), 1, 1)],
        ids=["width", "height", "center-x", "center-y"],
    )
    def test_int_beyond_the_float_range_is_rejected_by_the_rule(self, fields):
        # Such an int has no float: the Box rule cannot read it, and no box admits it.
        with pytest.raises(ValueError, match="finite"):
            Box(*fields)


_BOX = Box(1.5, 2.0, 3.0, 4.0)
_BOX_SHOWN = "Box(center_x=1.5, center_y=2.0, width=3.0, height=4.0)"
_SCORED = ScoredBox(_BOX, 0.25, 7)
_SCORED_SHOWN = f"ScoredBox(box={_BOX_SHOWN}, score=0.25, class_id=7)"
# An instance of each frozen slotted type that writes its own __init__, and the repr the generated __repr__ gives it.
_VALUE_TYPES = {
    "Box": (_BOX, _BOX_SHOWN),
    "ScoredBox": (_SCORED, _SCORED_SHOWN),
    "Detection": (Detection(3, _SCORED, 5), f"Detection(image_id=3, scored={_SCORED_SHOWN}, index=5)"),
    "GridCell": (GridCell(4, 9, 32.0), "GridCell(col=4, row=9, stride=32.0)"),
    "RawPrediction": (
        RawPrediction(0.5, -0.5, 0.25, -0.25, 1.0, (0.125, -2.0)),
        "RawPrediction(x=0.5, y=-0.5, w=0.25, h=-0.25, objectness=1.0, class_logits=(0.125, -2.0))",
    ),
}


@pytest.mark.parametrize("value,shown", list(_VALUE_TYPES.values()), ids=list(_VALUE_TYPES))
class TestValueTypeContract:
    """The types built once per element write their fields through their slots and keep the dataclass contract."""

    def test_signature_is_the_fields(self, value, shown):
        cls = type(value)
        fields = dataclasses.fields(cls)
        params = list(inspect.signature(cls).parameters.values())
        empty = inspect.Parameter.empty
        assert [(p.name, p.kind, p.annotation) for p in params] == [
            (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, f.type) for f in fields
        ]
        assert [p.default for p in params] == [empty if f.default is dataclasses.MISSING else f.default for f in fields]
        assert cls.__match_args__ == tuple(f.name for f in fields)
        assert "__init__" in vars(cls) and not hasattr(cls, "__post_init__")
        assert cls.__slots__ == cls.__match_args__ and not hasattr(value, "__dict__")

    def test_fields_cannot_be_set_or_deleted(self, value, shown):
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, field.name)

    def test_pickle_and_deepcopy_round_trip(self, value, shown):
        copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in [*copies, copy.deepcopy(value), copy.copy(value)]:
            assert again is not value and type(again) is type(value)
            assert again == value and hash(again) == hash(value) and repr(again) == shown

    def test_repr_and_replace(self, value, shown):
        assert repr(value) == shown
        assert dataclasses.replace(value) == value


class TestValueTypeRules:
    """dataclasses.replace builds through __init__, so each type's rule runs again."""

    @pytest.mark.parametrize("value,change,message", [
        (_BOX, {"width": -1.0}, "box width must be positive, got -1.0"),
        (_BOX, {"center_x": math.inf}, "box corners must be finite and area positive and finite, got "
                                       "Box(center_x=inf, center_y=2.0, width=3.0, height=4.0)"),
        (_SCORED, {"score": 1.5}, "score must lie in [0, 1], got 1.5"),
        (_SCORED, {"class_id": 2.5}, "class_id must be a whole number, got 2.5"),
        (GridCell(4, 9, 32.0), {"stride": 0.0}, "stride must be positive, got 0.0"),
        (GridCell(4, 9, 32.0), {"row": -1}, "cell indices must be non-negative, got (4, -1)"),
    ])
    def test_replace_runs_the_rule(self, value, change, message):
        with pytest.raises(ValueError) as bad:
            dataclasses.replace(value, **change)
        assert str(bad.value) == message

    @pytest.mark.parametrize("make,read,given", [
        (lambda x: Box(x, 2.0, 3.0, 4.0), lambda made: made.center_x, 0.375),
        (lambda x: Box(1.5, 2.0, 3.0, x), lambda made: made.height, 0.375),
        (lambda x: ScoredBox(_BOX, x, 7), lambda made: made.score, 0.375),
        (lambda x: Detection(3, ScoredBox(_BOX, x, 7), 5), lambda made: made.score, 0.375),
        (lambda x: GridCell(4, 9, x), lambda made: made.stride, 0.375),
        (lambda x: GridCell(x, 9, 32.0), lambda made: made.col, 4.0),
    ], ids=["Box.center_x", "Box.height", "ScoredBox.score", "Detection.score", "GridCell.stride", "GridCell.col"])
    def test_float32_field_is_stored_as_float(self, make, read, given):
        stored = read(make(np.float32(given)))
        assert type(stored) is float and stored == given

    def test_class_id_and_indices_that_are_ints_stay_ints(self):
        assert type(ScoredBox(_BOX, 0.5, 2**70).class_id) is int
        cell = GridCell(2**70, 3)
        assert (type(cell.col), type(cell.row), type(cell.stride)) == (int, int, float)


# Values at the edges of the Box and score rules: NaN, the infinities, both zeros,
# the smallest subnormal, and far corners or areas near the float maximum.
_rule_edges = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e154, 1e308, -1e308,
    8.98846567431158e307, 1.7976931348623157e308, 0.5, 1.0, 1.0000000000000002,
])
_rule_values = _rule_edges | st.floats(-1e3, 1e3)
# A square side whose area is near the float maximum or below the smallest subnormal.
_square_sides = st.sampled_from([1e154, 1.3407807929942596e154, 1.35e154, 1e-162, 3e-162])
_bbox_rows = st.tuples(_rule_values, _rule_values, _rule_values, _rule_values) | st.builds(
    lambda left, top, side: (left, top, side, side), _rule_values, _rule_values, _square_sides
)
_bbox_columns = st.lists(_bbox_rows, max_size=12).map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 4))


def _accepted(make, *args) -> bool:
    try:
        make(*args)
    except ValueError:
        return False
    return True


class TestValueRulesOnColumns:
    """The Box rule, the score rule and the center form, run on whole columns, agree row by row with the types."""

    @given(_bbox_columns)
    @example(np.array([
        [1e308, 0.0, 1e308, 1.0], [0.0, 0.0, 1e154, 1e154], [0.0, 0.0, 1.35e154, 1.35e154],
        [-0.0, 5e-324, 5e-324, 5e-324], [0.0, 0.0, math.nan, 1.0], [-math.inf, 0.0, 1.0, 1.0],
    ]))
    def test_box_rule_and_center_form(self, bboxes):
        with np.errstate(all="ignore"):
            centers = np.column_stack(geometry._center_form(*bboxes.T))
            verdicts = geometry._box_ok(*centers.T)
        assert verdicts.shape == (len(bboxes),)
        for bbox, fields, verdict in zip(bboxes.tolist(), centers.tolist(), verdicts.tolist()):
            assert verdict == _accepted(Box.from_corner_size, *bbox) == _accepted(Box, *fields), bbox
            if verdict:
                box = Box.from_corner_size(*bbox)
                assert [v.hex() for v in (box.center_x, box.center_y, box.width, box.height)] == [v.hex() for v in fields]

    @given(hnp.arrays(np.float64, st.integers(0, 12), elements=_rule_values | st.floats(-2.0, 2.0)))
    def test_score_rule(self, scores):
        verdicts = geometry._score_ok(scores)
        assert verdicts.shape == scores.shape
        box = Box(0.0, 0.0, 1.0, 1.0)
        for score, verdict in zip(scores.tolist(), verdicts.tolist()):
            assert verdict == _accepted(ScoredBox, box, score, 0), score


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

    def test_suppresses_a_duplicate_whose_union_overflows(self):
        big = Box(0.0, 0.0, 1e154, 1e154)
        dets = [ScoredBox(box=big, score=0.9, class_id=0), ScoredBox(box=big, score=0.8, class_id=0)]
        assert nms(dets, iou_threshold=0.45) == dets[:1]

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
        got = geometry._iou_matrix(rows, cols).tolist()
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
        assert geometry._iou_matrix([thin], [thin]).tolist() == [[0.0]]

    def test_overflowing_union_halves_every_term(self):
        big = Box(0.0, 0.0, 1e154, 1e154)
        assert iou(big, big) == 1.0
        assert geometry._iou_matrix([big], [big]).tolist() == [[1.0]]

    def test_scalar_iou_builds_no_matrix(self, monkeypatch):
        # iou applies the overflow rule itself, so the differential tests above compare two computations
        def refuse(*args):
            raise AssertionError("iou built an IOU matrix")

        monkeypatch.setattr(geometry, "_overlaps", refuse)
        big, shifted = Box(0.0, 0.0, 1e154, 1e154), Box(2.5e153, 0.0, 1e154, 1e154)
        assert iou(big, big) == 1.0
        assert iou(big, shifted).hex() == corner_iou(big.corners(), shifted.corners()).hex()

    @given(_boxes_at_scale(154), st.integers(1, 700))
    @example([Box(0.0, 0.0, 1e154, 1e154), Box(2.5e153, 0.0, 1e154, 1e154)], 600)
    def test_overflowing_union_is_scale_free(self, scaled, shift):
        # Scaling every field by a power of two scales each step exactly, so only a union
        # that overflows could tell a box pair from its scaled-down copy.
        def down(b):
            return Box(*(math.ldexp(v, -shift) for v in (b.center_x, b.center_y, b.width, b.height)))
        for a, b in zip(scaled, scaled[1:] + scaled[:1]):
            assert iou(a, b).hex() == iou(down(a), down(b)).hex()

    def test_empty_sides(self):
        one = [Box(0.0, 0.0, 1.0, 1.0)]
        assert geometry._iou_matrix([], one).tolist() == []
        assert geometry._iou_matrix(one, []).tolist() == [[]]


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

    @given(_boxes_at_scale(154), thresholds)
    @settings(max_examples=60)
    def test_extreme_scales(self, scaled, threshold):
        # At 10**154 two corner areas overflow a sum, which both sides halve.
        self.assert_same_kept([ScoredBox(box, 0.5, 0) for box in scaled], threshold)

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
