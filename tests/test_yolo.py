"""Box decode/encode, loss terms, assignment rules, and tensor layout."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import under_both_sums
from detkit import (
    IGNORED,
    NEGATIVE,
    AnchorPrior,
    AssignmentKind,
    AssignmentLabel,
    Box,
    CellMismatchError,
    GridCell,
    GridSpec,
    OutOfBoundsError,
    PlacedPrior,
    RawPrediction,
    assign_dual_threshold,
    assign_dual_threshold_from_ious,
    assign_yolo,
    assign_yolo_from_ious,
    bce_gradient_wrt_logit,
    bce_loss,
    coord_gradient,
    decode,
    encode,
    fixture_path,
    inverse_sigmoid,
    iou,
    load_dimension_samples,
    objectness_target,
    prior_loss,
    sigmoid,
    split_scales,
    tensor_index,
    tensor_unindex,
)
from detkit.geometry import _greedy_matrix

LN2 = math.log(2.0)

raw_offsets = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
cell_indices = st.integers(min_value=0, max_value=40)
strides = st.sampled_from([1.0, 8.0, 16.0, 32.0, 11.5])
prior_sizes = st.floats(min_value=0.5, max_value=450.0, allow_nan=False)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        assert sigmoid(2.0) + sigmoid(-2.0) == pytest.approx(1.0)

    def test_inverse_of_half(self):
        assert inverse_sigmoid(0.5) == 0.0

    @given(st.floats(min_value=-15.0, max_value=15.0, allow_nan=False))
    def test_round_trip(self, t):
        assert inverse_sigmoid(sigmoid(t)) == pytest.approx(t, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_inverse_rejects_boundary(self, p):
        with pytest.raises(ValueError):
            inverse_sigmoid(p)


class TestDecode:
    def test_zero_offsets_center_the_cell(self):
        pred = RawPrediction(x=0.0, y=0.0, w=0.0, h=0.0)
        box = decode(pred, GridCell(col=5, row=7), AnchorPrior(116.0, 90.0))
        assert box == Box(center_x=5.5, center_y=7.5, width=116.0, height=90.0)

    def test_stride_scales_position_not_size(self):
        pred = RawPrediction(x=0.0, y=0.0, w=0.0, h=0.0)
        box = decode(pred, GridCell(col=5, row=7, stride=32.0), AnchorPrior(116.0, 90.0))
        assert box.center_x == 176.0
        assert box.center_y == 240.0
        assert box.width == 116.0
        assert box.height == 90.0

    def test_log_size_doubles_prior(self):
        pred = RawPrediction(x=0.0, y=0.0, w=LN2, h=-LN2)
        box = decode(pred, GridCell(col=0, row=0), AnchorPrior(16.0, 16.0))
        assert box.width == pytest.approx(32.0, rel=1e-12)
        assert box.height == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("w, h, shown", [
        (710.0, 0.0, "width=inf, height=90.0"),  # math.exp overflows
        (0.0, 710.0, "width=116.0, height=inf"),
        (1e308, 1e308, "width=inf, height=inf"),
        (709.0, 0.0, "width=inf, height=90.0"),  # exp is finite, the product overflows
        (math.inf, 0.0, "width=inf, height=90.0"),
    ])
    def test_a_size_past_the_float_range_breaks_the_box_rule(self, w, h, shown):
        with pytest.raises(ValueError, match=rf"^box corners must be finite .*, {shown}\)$"):
            decode(RawPrediction(0.0, 0.0, w, h), GridCell(0, 0, 32.0), AnchorPrior(116.0, 90.0))

    def test_a_size_past_the_float_range_keeps_the_decoded_center(self):
        cell, prior = GridCell(3, 5, 32.0), AnchorPrior(116.0, 90.0)
        box = decode(RawPrediction(1.0, -2.0, 0.0, 0.0), cell, prior)
        shown = f"Box(center_x={box.center_x!r}, center_y={box.center_y!r}, width=inf, height=90.0)"
        with pytest.raises(ValueError) as info:
            decode(RawPrediction(1.0, -2.0, 710.0, 0.0), cell, prior)
        assert str(info.value) == f"box corners must be finite and area positive and finite, got {shown}"

    @given(raw_offsets, raw_offsets, cell_indices, cell_indices, strides)
    def test_center_stays_inside_cell(self, tx, ty, col, row, stride):
        pred = RawPrediction(x=tx, y=ty, w=0.0, h=0.0)
        box = decode(pred, GridCell(col=col, row=row, stride=stride), AnchorPrior(10.0, 10.0))
        assert col * stride < box.center_x < (col + 1) * stride
        assert row * stride < box.center_y < (row + 1) * stride


class TestEncode:
    def test_recovers_known_offsets(self):
        box = Box(center_x=5.5, center_y=7.5, width=32.0, height=16.0)
        tx, ty, tw, th = encode(box, GridCell(col=5, row=7), AnchorPrior(16.0, 16.0))
        assert tx == pytest.approx(0.0, abs=1e-12)
        assert ty == pytest.approx(0.0, abs=1e-12)
        assert tw == pytest.approx(LN2, rel=1e-12)
        assert th == pytest.approx(0.0, abs=1e-12)

    def test_center_in_other_cell_rejected(self):
        box = Box(center_x=2.5, center_y=0.5, width=1.0, height=1.0)
        with pytest.raises(CellMismatchError):
            encode(box, GridCell(col=5, row=0), AnchorPrior(1.0, 1.0))

    def test_boundary_centers_clamp_instead_of_diverging(self):
        cell = GridCell(col=3, row=2)
        prior = AnchorPrior(1.0, 1.0)
        for cx in (3.0, 4.0):  # exactly on the cell's left and right edges
            box = Box(center_x=cx, center_y=2.5, width=1.0, height=1.0)
            tx, ty, tw, th = encode(box, cell, prior)
            assert math.isfinite(tx)
            back = decode(RawPrediction(tx, ty, tw, th), cell, prior)
            assert abs(back.center_x - cx) <= 1e-6

    def test_just_past_boundary_rejected(self):
        box = Box(center_x=4.0000001, center_y=2.5, width=1.0, height=1.0)
        with pytest.raises(CellMismatchError):
            encode(box, GridCell(col=3, row=2), AnchorPrior(1.0, 1.0))

    @given(raw_offsets, raw_offsets, raw_offsets, raw_offsets,
           cell_indices, cell_indices, strides, prior_sizes, prior_sizes)
    @settings(max_examples=200)
    def test_round_trip(self, tx, ty, tw, th, col, row, stride, pw, ph):
        cell = GridCell(col=col, row=row, stride=stride)
        prior = AnchorPrior(pw, ph)
        box = decode(RawPrediction(tx, ty, tw, th), cell, prior)
        back = encode(box, cell, prior)
        for got, want in zip(back, (tx, ty, tw, th)):
            assert got == pytest.approx(want, abs=1e-9)


class TestCoordGradient:
    def test_residual(self):
        assert coord_gradient((1.0, 2.0, 3.0, 4.0), (0.0, 0.0, 0.0, 0.0)) == (1.0, 2.0, 3.0, 4.0)

    def test_zero_at_optimum(self):
        t = (0.3, -0.2, 1.5, 0.0)
        assert coord_gradient(t, t) == (0.0, 0.0, 0.0, 0.0)

    def test_sign_points_toward_target(self):
        g = coord_gradient((1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0))
        assert g == (-1.0, -1.0, -1.0, -1.0)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            coord_gradient((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            coord_gradient((1.0, 2.0, 3.0, math.inf), (0.0, 0.0, 0.0, 0.0))

    def test_matches_finite_difference_of_half_sse(self):
        target = (0.4, -1.2, 0.7, 2.0)
        pred = (0.1, 0.3, -0.5, 1.0)
        h = 1e-6

        def loss(p):
            return 0.5 * sum((t - v) ** 2 for t, v in zip(target, p))

        grad = coord_gradient(target, pred)
        for i in range(4):
            up = list(pred)
            down = list(pred)
            up[i] += h
            down[i] -= h
            fd = (loss(up) - loss(down)) / (2 * h)
            # gradient is of the loss wrt the prediction: d/dp 0.5(t-p)^2 = p-t
            assert -grad[i] == pytest.approx(fd, abs=1e-6)


class TestBce:
    def test_half_probability_gives_ln2(self):
        assert bce_loss(0.5, 1) == pytest.approx(LN2, rel=1e-15)
        assert bce_loss(0.5, 0) == pytest.approx(LN2, rel=1e-15)

    def test_exactly_right_is_zero(self):
        assert bce_loss(1.0, 1) == 0.0
        assert bce_loss(0.0, 0) == 0.0

    def test_exactly_wrong_is_large_but_finite(self):
        worst = -math.log(1e-12)
        assert bce_loss(0.0, 1) == pytest.approx(worst)
        assert bce_loss(1.0, 0) == pytest.approx(worst)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bce_loss(1.5, 1)
        with pytest.raises(ValueError):
            bce_loss(0.5, 2)

    def test_gradient_rejects_a_target_other_than_0_or_1(self):
        with pytest.raises(ValueError, match=r"^target must be 0 or 1, got 2$"):
            bce_gradient_wrt_logit(0.0, 2)

    def test_gradient_at_zero_logit(self):
        assert bce_gradient_wrt_logit(0.0, 1) == -0.5
        assert bce_gradient_wrt_logit(0.0, 0) == 0.5

    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), st.integers(0, 1))
    def test_gradient_matches_finite_difference(self, logit, y):
        h = 1e-6
        fd = (bce_loss(sigmoid(logit + h), y) - bce_loss(sigmoid(logit - h), y)) / (2 * h)
        assert bce_gradient_wrt_logit(logit, y) == pytest.approx(fd, abs=1e-5)


class TestAssignmentLabel:
    def test_positive_carries_truth_index(self):
        lab = AssignmentLabel.positive(3)
        assert lab.is_positive and lab.gt_index == 3
        assert not lab.is_ignored and not lab.is_negative

    def test_singletons(self):
        assert IGNORED.is_ignored and IGNORED.gt_index is None
        assert NEGATIVE.is_negative and NEGATIVE.gt_index is None

    def test_positive_requires_index(self):
        with pytest.raises(ValueError):
            AssignmentLabel.positive(-1)

    @pytest.mark.parametrize("kind", [AssignmentKind.IGNORED, AssignmentKind.NEGATIVE])
    def test_only_positive_labels_carry_an_index(self, kind):
        with pytest.raises(ValueError, match=rf"^{kind.value} labels carry no gt_index$"):
            AssignmentLabel(kind, 0)

    def test_objectness_targets(self):
        assert objectness_target(AssignmentLabel.positive(0)) == 1.0
        assert objectness_target(NEGATIVE) == 0.0
        assert objectness_target(IGNORED) is None


class TestAssignYolo:
    def test_runner_up_above_threshold_is_ignored(self):
        labels = assign_yolo_from_ious([[0.9], [0.6]], num_ground_truths=1)
        assert labels == [AssignmentLabel.positive(0), IGNORED]

    def test_runner_up_below_threshold_is_negative(self):
        labels = assign_yolo_from_ious([[0.9], [0.4]], num_ground_truths=1)
        assert labels == [AssignmentLabel.positive(0), NEGATIVE]

    def test_threshold_is_strict(self):
        labels = assign_yolo_from_ious([[0.9], [0.5]], num_ground_truths=1)
        assert labels[1] == NEGATIVE

    def test_best_iou_tie_prefers_lower_prior_index(self):
        labels = assign_yolo_from_ious([[0.7], [0.7]], num_ground_truths=1)
        assert labels == [AssignmentLabel.positive(0), IGNORED]

    def test_claimed_prior_goes_to_earlier_truth(self):
        # Both truths prefer prior 0; truth 1 must settle for prior 1 even
        # though that overlap is weak.
        labels = assign_yolo_from_ious([[0.9, 0.8], [0.7, 0.2]], num_ground_truths=2)
        assert labels == [AssignmentLabel.positive(0), AssignmentLabel.positive(1)]

    def test_positive_outranks_ignored(self):
        labels = assign_yolo_from_ious([[0.9, 0.9]], num_ground_truths=2)
        assert labels[0] == AssignmentLabel.positive(0)

    def test_no_truths_means_all_negative(self):
        labels = assign_yolo_from_ious([[], []], num_ground_truths=0)
        assert labels == [NEGATIVE, NEGATIVE]

    def test_more_truths_than_priors(self):
        labels = assign_yolo_from_ious([[0.9, 0.95]], num_ground_truths=2)
        assert labels == [AssignmentLabel.positive(0)]

    def test_requires_a_prior(self):
        with pytest.raises(ValueError):
            assign_yolo_from_ious([], num_ground_truths=1)

    def test_rejects_an_ignore_threshold_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"^ignore_threshold must lie in \[0, 1\], got 1\.5$"):
            assign_yolo_from_ious([[0.2]], 1, ignore_threshold=1.5)

    def test_geometric_labels(self):
        cell = GridCell(col=0, row=0, stride=16.0)
        priors = [
            PlacedPrior(AnchorPrior(4.0, 4.0), cell),  # matches the truth exactly
            PlacedPrior(AnchorPrior(4.0, 6.0), cell),  # IOU 2/3: overlaps, not best
            PlacedPrior(AnchorPrior(4.0, 8.0), cell),  # IOU exactly 0.5: negative
        ]
        truth = Box(center_x=8.0, center_y=8.0, width=4.0, height=4.0)
        labels = assign_yolo(priors, [truth])
        assert labels == [AssignmentLabel.positive(0), IGNORED, NEGATIVE]

    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 0.2, 0.4, 0.55, 0.7, 0.9]), min_size=2, max_size=2),
            min_size=2,
            max_size=6,
        )
    )
    def test_every_truth_claims_exactly_one_prior(self, ious):
        labels = assign_yolo_from_ious(ious, num_ground_truths=2)
        claimed = [lab.gt_index for lab in labels if lab.is_positive]
        assert sorted(claimed) == [0, 1]


class TestAssignDualThreshold:
    def test_band_examples(self):
        assert assign_dual_threshold_from_ious([[0.8]], 1) == [AssignmentLabel.positive(0)]
        assert assign_dual_threshold_from_ious([[0.5]], 1) == [IGNORED]
        assert assign_dual_threshold_from_ious([[0.2]], 1) == [NEGATIVE]

    def test_boundaries_are_inclusive_upward(self):
        assert assign_dual_threshold_from_ious([[0.7]], 1) == [AssignmentLabel.positive(0)]
        assert assign_dual_threshold_from_ious([[0.3]], 1) == [IGNORED]
        assert assign_dual_threshold_from_ious([[0.29]], 1) == [NEGATIVE]

    def test_argmax_tie_prefers_lower_truth_index(self):
        assert assign_dual_threshold_from_ious([[0.8, 0.8]], 2) == [AssignmentLabel.positive(0)]

    def test_argmax_picks_strict_maximum(self):
        assert assign_dual_threshold_from_ious([[0.75, 0.9]], 2) == [AssignmentLabel.positive(1)]

    def test_one_truth_may_take_many_priors(self):
        labels = assign_dual_threshold_from_ious([[0.9], [0.8]], 1)
        assert labels == [AssignmentLabel.positive(0), AssignmentLabel.positive(0)]

    def test_equal_thresholds_remove_the_ignore_band(self):
        labels = assign_dual_threshold_from_ious(
            [[0.5], [0.49]], 1, pos_threshold=0.5, neg_threshold=0.5
        )
        assert labels == [AssignmentLabel.positive(0), NEGATIVE]

    def test_rejects_crossed_thresholds(self):
        with pytest.raises(ValueError):
            assign_dual_threshold_from_ious([[0.5]], 1, pos_threshold=0.3, neg_threshold=0.7)

    def test_no_truths_means_all_negative(self):
        assert assign_dual_threshold_from_ious([[], []], 0) == [NEGATIVE, NEGATIVE]

    def test_geometric_wrapper_agrees(self):
        cell = GridCell(col=0, row=0, stride=16.0)
        priors = [PlacedPrior(AnchorPrior(4.0, 4.0), cell)]
        truth = Box(center_x=8.0, center_y=8.0, width=4.0, height=4.0)
        assert assign_dual_threshold(priors, [truth]) == [AssignmentLabel.positive(0)]

    @given(
        st.lists(
            st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        ).filter(lambda m: len({len(row) for row in m}) == 1)
    )
    @settings(max_examples=80)
    def test_labels_follow_row_maxima(self, ious):
        n = len(ious[0])
        labels = assign_dual_threshold_from_ious(ious, n)
        for row, lab in zip(ious, labels):
            m = max(row)
            if m >= 0.7:
                assert lab.is_positive and row[lab.gt_index] == m
            elif m >= 0.3:
                assert lab.is_ignored
            else:
                assert lab.is_negative


@pytest.mark.parametrize("assign", [assign_yolo, assign_dual_threshold])
def test_geometric_wrappers_require_a_prior(assign):
    truth = Box(center_x=8.0, center_y=8.0, width=4.0, height=4.0)
    with pytest.raises(ValueError, match="at least one prior"):
        assign([], [truth])


@pytest.mark.parametrize("assign", [assign_yolo_from_ious, assign_dual_threshold_from_ious])
@pytest.mark.parametrize("count, message", [
    (1, r"^prior 0 has 2 IOUs, but num_ground_truths is 1$"),  # truth 1 was silently ignored
    (3, r"^prior 0 has 2 IOUs, but num_ground_truths is 3$"),  # a bare IndexError
    # -1 labelled every prior negative, or took max() of nothing
    (-1, r"^num_ground_truths must be a non-negative whole number, got -1$"),
    (1.5, r"^num_ground_truths must be a non-negative whole number, got 1\.5$"),
    (None, r"^num_ground_truths must be a non-negative whole number, got None$"),
], ids=["too-few", "too-many", "negative", "fractional", "none"])
def test_truth_count_must_be_every_rows_length(assign, count, message):
    with pytest.raises(ValueError, match=message):
        assign([[0.6, 0.2], [0.1, 0.7]], count)


@pytest.mark.parametrize("assign", [assign_yolo_from_ious, assign_dual_threshold_from_ious])
def test_truth_count_is_checked_on_every_row(assign):
    with pytest.raises(ValueError, match=r"^prior 1 has 1 IOUs, but num_ground_truths is 2$"):
        assign([[0.6, 0.2], [0.1]], 2)
    assert assign([[0.6, 0.2], [0.1, 0.7]], 2.0) == assign([[0.6, 0.2], [0.1, 0.7]], 2)


# IOU matrix entries: ties, NaN, the infinities and values of -1 or less come up often
iou_entries = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -2.0, -1.0, 0.0, 0.3, 0.5, 0.7, 1.0]),
    st.floats(),
)


@st.composite
def iou_matrices(draw):
    """(ious, num_ground_truths): 1-6 priors, rows of one width 0-6, and that many truths.

    So truths may outnumber priors, and there may be none.
    """
    width = draw(st.integers(0, 6))
    ious = draw(st.lists(st.lists(iou_entries, min_size=width, max_size=width), min_size=1, max_size=6))
    return ious, width


class TestGreedyMatrixMatchesOracle:
    """The ranked-pair scan over a matrix's entries gives the nested loop's columns, on any matrix and threshold."""

    @given(iou_matrices(), st.sampled_from([-math.inf, 0.0, 0.5, 1.0]))
    @example(([[0.7, 0.7, math.nan], [0.7, 0.7, 0.7], [0.0, -0.0, math.inf]], 3), 0.5)
    @example(([[-0.0, 0.0], [0.0, -0.0]], 2), 0.0)
    @example(([[-1.0, -2.0, -math.inf], [math.nan, -1.0, -0.5]], 3), -math.inf)
    @settings(max_examples=400)
    def test_same_columns_as_the_nested_loop(self, matrix, iou_threshold):
        rows, width = matrix
        values = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        assert _greedy_matrix(values, iou_threshold).tolist() == [-1 if c is None else c for c in oracles.oracle_greedy(rows, iou_threshold)]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_sides(self, shape):
        assert _greedy_matrix(np.zeros(shape), 0.5).tolist() == [-1] * shape[0]


class TestAssignmentMatchesOracles:
    """Both rules give the labels of the hand-written loops in oracles, on any matrix."""

    @given(iou_matrices(), st.sampled_from([0.0, 0.5, 1.0]))
    @example(([[math.nan, 0.9], [0.2, 0.6]], 2), 0.5)
    @settings(max_examples=400)
    def test_yolo_labels(self, matrix, ignore_threshold):
        ious, n = matrix
        want = oracles.oracle_assign_yolo_from_ious(ious, n, ignore_threshold)
        assert assign_yolo_from_ious(ious, n, ignore_threshold) == want

    @given(iou_matrices(), st.sampled_from([(0.0, 0.0), (0.3, 0.7), (0.5, 0.5), (1.0, 1.0)]))
    @example(([[0.8, math.nan]], 2), (0.3, 0.7))
    @settings(max_examples=400)
    def test_dual_threshold_labels(self, matrix, thresholds):
        ious, n = matrix
        neg, pos = thresholds
        want = oracles.oracle_assign_dual_threshold_from_ious(ious, n, pos, neg)
        assert assign_dual_threshold_from_ious(ious, n, pos, neg) == want

    def test_a_truth_that_claims_nothing_ends_the_claims(self):
        # truth 0 has no IOU above -1, so truth 1 claims no prior although prior 1 is free
        labels = assign_yolo_from_ious([[math.nan, 0.9], [-1.0, 0.6]], num_ground_truths=2)
        assert labels == [IGNORED, IGNORED]

    @pytest.mark.parametrize("assign, entry", [
        pytest.param(assign, entry, id=prefix + name)
        for assign, prefix in ((assign_yolo_from_ious, ""), (assign_dual_threshold_from_ious, "dual-"))
        for entry, name in (("0.9", "0.9"), (None, "None"), (Fraction(4, 5), "Fraction"), (2**70, "2**70"))
    ])
    def test_a_non_number_iou_is_rejected(self, assign, entry):
        # Each entry sits where it would be claimed or labelled positive, so no later comparison reads it.
        # A Fraction and an int beyond int64 compare like numbers, but neither casts safely to float64.
        with pytest.raises(TypeError):
            assign([[entry]], num_ground_truths=1)

    def test_nan_never_replaces_the_first_maximum(self):
        assert assign_dual_threshold_from_ious([[0.8, math.nan]], 2) == [AssignmentLabel.positive(0)]
        assert assign_dual_threshold_from_ious([[math.nan, 0.8]], 2) == [NEGATIVE]


def yolov3_heads() -> list[PlacedPrior]:
    """The shipped reference priors dealt by split_scales onto the 52/26/13 grids of a 416 input: 10,647 placed priors."""
    samples = load_dimension_samples(fixture_path("coco_anchors.txt"))
    groups = split_scales([AnchorPrior(s.width, s.height) for s in samples], num_scales=3)
    return [
        PlacedPrior(prior, GridCell(col, row, 416 / grid))
        for grid, group in zip((52, 26, 13), groups)
        for row in range(grid)
        for col in range(grid)
        for prior in group
    ]


class TestAssignmentAtYoloV3Scale:
    """A full 416 head: both rules give their oracles' labels, and an array gives what its nested lists give."""

    @pytest.fixture(scope="class")
    def scene(self):
        placed = yolov3_heads()
        rng = random.Random(19)
        # four truths on a prior box exactly (two on one box, so they compete for it), six drawn around the priors
        truths = [placed[i].as_box() for i in (5, 5, 8500, 10_646)]
        for _ in range(6):
            prior = rng.choice(placed).prior
            size = prior.width * rng.uniform(0.7, 1.4), prior.height * rng.uniform(0.7, 1.4)
            truths.append(Box(rng.uniform(0, 416), rng.uniform(0, 416), *size))
        ious = [[iou(p.as_box(), t) for t in truths] for p in placed]
        return placed, truths, ious

    def test_the_head_holds_10647_priors(self, scene):
        placed, _, _ = scene
        assert len(placed) == 13 * 13 * 3 + 26 * 26 * 3 + 52 * 52 * 3 == 10_647

    def test_yolo_labels(self, scene):
        placed, truths, ious = scene
        labels = assign_yolo(placed, truths)
        assert labels == oracles.oracle_assign_yolo_from_ious(ious, len(truths))
        assert sum(lab.is_positive for lab in labels) == 10 and any(lab.is_ignored for lab in labels)

    def test_dual_threshold_labels(self, scene):
        placed, truths, ious = scene
        labels = assign_dual_threshold(placed, truths)
        assert labels == oracles.oracle_assign_dual_threshold_from_ious(ious, len(truths))
        assert {lab.kind for lab in labels} == set(AssignmentKind)

    @pytest.mark.parametrize("assign", [assign_yolo_from_ious, assign_dual_threshold_from_ious])
    def test_an_array_and_its_lists_give_the_same_labels(self, scene, assign):
        _, truths, ious = scene
        array = np.array(ious)
        assert assign(array, len(truths)) == assign(array.tolist(), len(truths))

    @pytest.mark.parametrize("assign", [assign_yolo, assign_dual_threshold])
    def test_prior_boxes_decode_one_shared_zero_offset(self, scene, monkeypatch, assign):
        placed, truths, _ = scene
        made = []
        init = RawPrediction.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RawPrediction, "__init__", counting)
        assign(placed, truths)
        assert made == []


class TestPlacedPrior:
    @given(cell_indices, cell_indices, strides, prior_sizes, prior_sizes)
    def test_box_centers_the_prior_on_its_cell(self, col, row, stride, width, height):
        box = PlacedPrior(AnchorPrior(width, height), GridCell(col, row, stride)).as_box()
        want = ((col + 0.5) * stride, (row + 0.5) * stride, width, height)
        assert [v.hex() for v in (box.center_x, box.center_y, box.width, box.height)] == [v.hex() for v in want]


class TestPriorLoss:
    def test_ignored_contributes_nothing(self):
        pred = RawPrediction(1.0, -2.0, 0.5, 0.5, objectness=3.0, class_logits=(1.0, -1.0))
        assert prior_loss(pred, IGNORED) == 0.0

    def test_negative_is_objectness_only(self):
        pred = RawPrediction(1.0, 1.0, 1.0, 1.0, objectness=0.0)
        assert prior_loss(pred, NEGATIVE) == pytest.approx(LN2)

    def test_positive_sums_all_terms(self):
        pred = RawPrediction(0.0, 0.0, 0.0, 0.0, objectness=0.0, class_logits=(0.0,))
        loss = prior_loss(
            pred,
            AssignmentLabel.positive(0),
            target_coords=(1.0, 0.0, 0.0, 0.0),
            class_targets=(1,),
        )
        # objectness ln2 + 0.5 * 1^2 + class ln2
        assert loss == pytest.approx(2 * LN2 + 0.5)

    def test_positive_requires_targets(self):
        pred = RawPrediction(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            prior_loss(pred, AssignmentLabel.positive(0))

    def test_class_target_arity_checked(self):
        pred = RawPrediction(0.0, 0.0, 0.0, 0.0, class_logits=(0.0, 0.0))
        with pytest.raises(ValueError):
            prior_loss(
                pred,
                AssignmentLabel.positive(0),
                target_coords=(0.0, 0.0, 0.0, 0.0),
                class_targets=(1,),
            )

    def test_loss_is_the_same_under_a_compensated_sum(self, monkeypatch):
        # Python 3.12 made sum() of floats compensated; the loss must not depend on it.
        rng = random.Random(0)
        cases = [
            (
                RawPrediction(*(rng.gauss(0.0, 1.0) for _ in range(4)), objectness=rng.gauss(0.0, 2.0),
                              class_logits=tuple(rng.gauss(0.0, 3.0) for _ in range(classes))),
                tuple(rng.gauss(0.0, 1.0) for _ in range(4)),
                tuple(rng.randint(0, 1) for _ in range(classes)),
            )
            for classes in [80] * 20 + [0] * 20  # without class terms the coordinate sum's last bit reaches the total
        ]
        plain, compensated = under_both_sums(
            monkeypatch,
            lambda: [prior_loss(pred, AssignmentLabel.positive(0), coords, cls).hex() for pred, coords, cls in cases],
        )
        assert compensated == plain


class TestNumericStorage:
    """Cell and prior fields that are numbers of another type are stored as float, as Box's are; ints and floats as given."""

    def test_float32_stride_decodes_in_float64(self):
        pred = RawPrediction(0.3, -0.2, 0.1, 0.2)
        box = decode(pred, GridCell(3, 4, np.float32(32)), AnchorPrior(116.0, 90.0))
        assert box.center_x == 114.38216053797309  # 114.38216400146484 when the center is computed in float32
        assert box == decode(pred, GridCell(3, 4, 32.0), AnchorPrior(116.0, 90.0))

    def test_float32_prior_decodes_in_float64(self):
        box = decode(RawPrediction(0.0, 0.0, 0.1, 0.0), GridCell(0, 0), AnchorPrior(np.float32(116), np.float32(90)))
        assert box.width == 128.19982649677513  # 128.1998291015625 in float32

    def test_center_past_a_float32_stride_is_a_cell_mismatch(self):
        # in float32, 1e308 / 8 overflowed with a RuntimeWarning instead
        message = r"^box center \(1e\+308, 5\) lies outside cell \(0, 0\) at stride 8\.0$"
        with pytest.raises(CellMismatchError, match=message):
            encode(Box(1e308, 5, 2, 2), GridCell(0, 0, np.float32(8)), AnchorPrior(4, 4))

    @pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64], ids=["np.float32", "np.float64", "np.int64"])
    def test_numpy_fields_become_floats(self, kind):
        cell, prior = GridCell(kind(3), kind(4), kind(8)), AnchorPrior(kind(10), kind(13))
        fields = (cell.col, cell.row, cell.stride, prior.width, prior.height)
        assert [(type(v), v) for v in fields] == [(float, 3.0), (float, 4.0), (float, 8.0), (float, 10.0), (float, 13.0)]

    def test_python_ints_and_floats_stay_as_given(self):
        cell, prior = GridCell(3, 4, 8), AnchorPrior(10, 13.5)
        assert [type(v) for v in (cell.col, cell.row, cell.stride, prior.width, prior.height)] == [int, int, int, int, float]


class TestValueRules:
    @pytest.mark.parametrize("col, row", [(1.5, 0), (0, 2.5), (math.inf, 0), (0, math.nan)])
    def test_cell_indices_must_be_whole(self, col, row):
        with pytest.raises(ValueError, match=r"^cell indices must be whole numbers, got \("):
            GridCell(col, row)

    def test_negative_cell_index_message_unchanged(self):
        with pytest.raises(ValueError, match=r"^cell indices must be non-negative, got \(-1, 0\)$"):
            GridCell(-1, 0)

    def test_whole_valued_float_indices_accepted(self):
        assert GridCell(2.0, 3.0, 8.0) == GridCell(2, 3, 8.0)

    def test_stride_must_be_finite(self):
        with pytest.raises(ValueError, match=r"^stride must be finite, got inf$"):
            GridCell(0, 0, math.inf)
        with pytest.raises(ValueError, match=r"^stride must be positive, got 0\.0$"):
            GridCell(0, 0, 0.0)

    def test_infinite_stride_no_longer_encodes(self):
        with pytest.raises(ValueError):
            encode(Box(10, 10, 5, 5), GridCell(0, 0, math.inf), AnchorPrior(4, 4))

    @pytest.mark.parametrize("width, height", [(math.inf, 4.0), (4.0, math.inf)])
    def test_prior_size_must_be_finite(self, width, height):
        with pytest.raises(ValueError, match=r"^prior size must be finite, got "):
            AnchorPrior(width, height)

    @pytest.mark.parametrize("width, height", [(0.0, 4.0), (4.0, -1.0), (math.nan, 4.0)])
    def test_prior_size_positive_message_unchanged(self, width, height):
        with pytest.raises(ValueError, match=rf"^prior size must be positive, got {width!r} x {height!r}$"):
            AnchorPrior(width, height)


class TestTensorLayout:
    def test_depths(self):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        assert spec.channels_per_anchor == 85
        assert spec.cell_depth == 255
        assert spec.total_elements == 43095

    def test_known_offset(self):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        assert tensor_index(spec, row=1, col=2, anchor=1, channel=7) == 3917

    def test_unindex_inverts_known_offset(self):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        assert tensor_unindex(spec, 3917) == (1, 2, 1, 7)

    def test_first_and_last(self):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        assert tensor_index(spec, 0, 0, 0, 0) == 0
        assert tensor_index(spec, 12, 12, 2, 84) == spec.total_elements - 1

    @pytest.mark.parametrize(
        "row,col,anchor,channel",
        [(13, 0, 0, 0), (0, 13, 0, 0), (0, 0, 3, 0), (0, 0, 0, 85), (-1, 0, 0, 0)],
    )
    def test_out_of_bounds(self, row, col, anchor, channel):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        with pytest.raises(OutOfBoundsError):
            tensor_index(spec, row, col, anchor, channel)

    def test_unindex_rejects_bad_offset(self):
        spec = GridSpec(grid_size=2, anchors_per_cell=1, num_classes=1)
        with pytest.raises(OutOfBoundsError):
            tensor_unindex(spec, spec.total_elements)
        with pytest.raises(OutOfBoundsError):
            tensor_unindex(spec, -1)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 9))
    def test_round_trip(self, row, col, anchor, channel):
        spec = GridSpec(grid_size=4, anchors_per_cell=3, num_classes=5)
        offset = tensor_index(spec, row, col, anchor, channel)
        assert tensor_unindex(spec, offset) == (row, col, anchor, channel)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(grid_size=0, anchors_per_cell=3, num_classes=80)

    @pytest.mark.parametrize("sizes", [(13.5, 3, 80), (math.inf, 3, 80), (13, math.nan, 80), (13, 3, 80.5)])
    def test_spec_sizes_must_be_whole(self, sizes):
        message = r"^grid_size, anchors_per_cell and num_classes must all be whole numbers, got "
        with pytest.raises(ValueError, match=message):
            GridSpec(*sizes)

    @pytest.mark.parametrize("sizes, shown", [((0, 3, 80), "0/3/80"), ((13, -1.5, 80), "13/-1.5/80")])
    def test_spec_positive_message_unchanged(self, sizes, shown):
        message = rf"^grid_size, anchors_per_cell and num_classes must all be positive, got {shown}$"
        with pytest.raises(ValueError, match=message):
            GridSpec(*sizes)

    @pytest.mark.parametrize("sizes, shown", [((13.5, 3, 80), "13.5/3/80"), ((13, math.nan, 80), "13/nan/80")])
    def test_spec_whole_message_unchanged(self, sizes, shown):
        message = rf"^grid_size, anchors_per_cell and num_classes must all be whole numbers, got {shown}$"
        with pytest.raises(ValueError, match=message):
            GridSpec(*sizes)

    def test_spec_whole_valued_floats_stored_as_int(self):
        spec = GridSpec(13.0, 3.0, 80.0)
        assert spec == GridSpec(13, 3, 80)
        sizes = (spec.grid_size, spec.anchors_per_cell, spec.num_classes, spec.total_elements)
        assert all(type(v) is int for v in sizes)

    @pytest.mark.parametrize("position", [(1.5, 2, 0, 0), (1, 2.5, 0, 0), (1, 2, 0.5, 0), (1, 2, 0, 7.25)])
    def test_position_must_be_whole(self, position):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        with pytest.raises(OutOfBoundsError, match=r"^position \(.*\) must be whole numbers$"):
            tensor_index(spec, *position)

    @pytest.mark.parametrize("row, shown", [(-1.5, "-1.5"), (13.5, "13.5"), (math.nan, "nan"), (math.inf, "inf")])
    def test_position_range_message_unchanged(self, row, shown):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        with pytest.raises(OutOfBoundsError, match=rf"^row {shown} outside grid of size 13$"):
            tensor_index(spec, row, 0, 0, 0)

    def test_offset_must_be_whole(self):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        with pytest.raises(OutOfBoundsError, match=r"^offset 10\.5 must be a whole number$"):
            tensor_unindex(spec, 10.5)
        with pytest.raises(OutOfBoundsError, match=r"^offset nan outside \[0, 43095\)$"):
            tensor_unindex(spec, math.nan)

    def test_whole_valued_float_positions_read_as_int(self):
        spec = GridSpec(grid_size=13, anchors_per_cell=3, num_classes=80)
        offset = tensor_index(spec, 1.0, 2.0, 1.0, 7.0)
        assert offset == 3917 and type(offset) is int
        position = tensor_unindex(spec, 3917.0)
        assert position == (1, 2, 1, 7) and all(type(v) is int for v in position)
