"""Matching, PR curves, the AP family, and the evaluation report."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import under_both_sums
from detkit import (
    AREA_BANDS,
    COCO_IOU_THRESHOLDS,
    INTERPOLATION_MODES,
    Box,
    DetectionResultSet,
    GroundTruth,
    GroundTruthSet,
    ImageInfo,
    NoGroundTruthError,
    PRCurve,
    ScoredBox,
    UnknownImageError,
    ap_by_area,
    area_band,
    average_precision,
    coco_ap,
    demo_map_pathology,
    evaluate,
    global_ap,
    map_voc,
    match,
    pathology_fixture,
    per_class_ap,
    per_image_ap,
    pr_curve,
)
from detkit import metrics


def _truths(entries, categories=None, size=100):
    images = sorted({img for img, _, _ in entries}) or [1]
    cats = categories or sorted({cls for _, cls, _ in entries}) or [1]
    return GroundTruthSet(
        images=[ImageInfo(i, size, size) for i in images],
        categories=cats,
        ground_truths=[
            GroundTruth(img, cls, Box.from_corners(*corners)) for img, cls, corners in entries
        ],
    )


def _dets(entries):
    return DetectionResultSet(
        (img, ScoredBox(box=Box.from_corners(*corners), score=score, class_id=cls))
        for img, cls, score, corners in entries
    )


def _simple_pair():
    # one class, two disjoint truths; sweep is TP, FP, TP
    truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 1, (50, 50, 60, 60))])
    dets = _dets([
        (1, 1, 0.9, (0, 0, 10, 10)),
        (1, 1, 0.8, (80, 80, 90, 90)),
        (1, 1, 0.7, (50, 50, 60, 60)),
    ])
    return dets, truths


class TestMatch:
    def test_prefers_higher_iou_truth(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 1, (0, 0, 20, 10))])
        dets = _dets([(1, 1, 0.9, (0, 0, 12, 10))])
        table = match(dets, truths, 0.5, class_id=1, image_id=1)
        assert table.detection_matches == (0,)  # IOU 5/6 beats 0.6

    def test_iou_tie_takes_lower_truth_index(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 1, (0, 0, 10, 10))])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10))])
        table = match(dets, truths, 0.5, class_id=1, image_id=1)
        assert table.detection_matches == (0,)
        assert table.gt_matches == (0, None)

    def test_threshold_is_inclusive(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        dets = _dets([(1, 1, 0.9, (0, 0, 20, 10))])  # IOU exactly 0.5
        assert match(dets, truths, 0.5, 1, 1).detection_matches == (0,)
        assert match(dets, truths, 0.51, 1, 1).detection_matches == (None,)

    def test_matched_truth_is_consumed(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        dets = _dets([
            (1, 1, 0.9, (0, 0, 10, 10)),
            (1, 1, 0.8, (0, 0, 10, 10)),
        ])
        table = match(dets, truths, 0.5, 1, 1)
        assert table.detection_matches == (0, None)

    def test_score_tie_goes_to_earlier_input(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        dets = _dets([
            (1, 1, 0.8, (0, 0, 10, 10)),
            (1, 1, 0.8, (0, 0, 10, 10)),
        ])
        table = match(dets, truths, 0.5, 1, 1)
        assert table.detections[0].index == 0
        assert table.detection_matches == (0, None)

    def test_other_classes_invisible(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 2, (0, 0, 10, 10))])
        dets = _dets([(1, 2, 0.9, (0, 0, 10, 10))])
        table = match(dets, truths, 0.5, class_id=2, image_id=1)
        assert table.detection_matches == (0,)
        assert len(table.gt_matches) == 1

    def test_unknown_image(self):
        _, truths = _simple_pair()
        with pytest.raises(UnknownImageError):
            match(_dets([]), truths, 0.5, 1, image_id=99)

    def test_undeclared_class_id_rejected(self):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError, match=r"^unknown category 7$"):
            match(dets, truths, 0.5, class_id=7, image_id=1)

    def test_every_detection_checked_after_the_threshold(self):
        # Neither stray detection is in the (image 1, class 1) group asked about.
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        stray_class = _dets([(1, 1, 0.9, (0, 0, 10, 10)), (1, 7, 0.95, (20, 20, 30, 30))])
        stray_image = _dets([(1, 1, 0.9, (0, 0, 10, 10)), (2, 1, 0.95, (20, 20, 30, 30))])
        with pytest.raises(ValueError, match=r"^detection references unknown category 7$"):
            match(stray_class, truths, 0.5, class_id=1, image_id=1)
        with pytest.raises(UnknownImageError):
            match(stray_image, truths, 0.5, class_id=1, image_id=1)
        with pytest.raises(ValueError, match=r"^iou_threshold must lie in \[0, 1\], got 1.5$"):
            match(stray_image, truths, 1.5, class_id=1, image_id=1)

    def test_injective_both_ways(self):
        for seed in range(25):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            for img in scenario.images:
                for cls in scenario.classes:
                    table = match(dets, truths, 0.5, cls, img)
                    hits = [m for m in table.detection_matches if m is not None]
                    assert len(hits) == len(set(hits))
                    back = [m for m in table.gt_matches if m is not None]
                    assert len(back) == len(set(back))
                    assert len(hits) == len(back)


class TestPRCurve:
    def test_every_sweep_constructs(self):
        for seed in range(200):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            for cls in oracles.oracle_classes_with_truth(scenario):
                for threshold in (0.0, 0.5, 0.95):
                    curve = pr_curve(dets, truths, threshold, cls)
                    assert PRCurve(curve.points, curve.num_gt) == curve

    @pytest.mark.parametrize("points, message", [
        # recall falls: scored 0.71 continuous and 0.4752 101-point, where the oracle gives 0.62 and 0.6238
        (((0.5, 1.0), (0.2, 0.5), (0.9, 0.3)), r"^point 1 \(0\.2, 0\.5\): recall falls below the 0\.5 before it$"),
        (((0.5, -1.0),), r"^point 0 \(0\.5, -1\.0\): recall and precision must lie in \[0, 1\]$"),  # scored -0.5
        (((math.nan, 1.0),), r"^point 0 \(nan, 1\.0\): recall and precision must lie in \[0, 1\]$"),  # 1.0 by 101-point
        (((0.5, 1.0), (1.5, 0.5)), r"^point 1 \(1\.5, 0\.5\): "),
        (((0.5, 1.0), (1.0, math.nan)), r"^point 1 \(1\.0, nan\): "),
    ], ids=["recall-falls", "negative-precision", "nan-recall", "recall-above-one", "nan-precision"])
    def test_malformed_points_raise(self, points, message):
        with pytest.raises(ValueError, match=message):
            PRCurve(points, 3)

    def test_sweep_points(self):
        dets, truths = _simple_pair()
        curve = pr_curve(dets, truths, 0.5, class_id=1)
        assert curve.num_gt == 2
        assert curve.points == ((0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3))

    def test_requires_ground_truth(self):
        dets, truths = _simple_pair()
        with pytest.raises(NoGroundTruthError):
            pr_curve(dets, truths, 0.5, class_id=7)

    def test_score_ties_across_images_break_by_file_order(self):
        # A hit on image 2 and a miss on image 1 tie at 0.9; ranking by image id, as the
        # reference evaluator does, would put the miss first and halve the AP.
        truths = _truths([(1, 1, (0, 0, 10, 10)), (2, 1, (0, 0, 10, 10))])
        hit, miss = (2, 1, 0.9, (0, 0, 10, 10)), (1, 1, 0.9, (50, 50, 60, 60))
        assert pr_curve(_dets([hit, miss]), truths, 0.5, 1).points == ((0.5, 1.0), (0.5, 0.5))
        assert per_class_ap(_dets([hit, miss]), truths) == {1: 0.5}
        assert pr_curve(_dets([miss, hit]), truths, 0.5, 1).points == ((0.0, 0.0), (0.5, 0.5))
        assert per_class_ap(_dets([miss, hit]), truths) == {1: 0.25}

    def test_unknown_image_detected(self):
        _, truths = _simple_pair()
        stray = _dets([(1, 1, 0.9, (0, 0, 10, 10))])
        bad = DetectionResultSet(
            [(99, ScoredBox(box=Box.from_corners(0, 0, 1, 1), score=0.5, class_id=1))]
        )
        assert pr_curve(stray, truths, 0.5, 1).num_gt == 2
        with pytest.raises(UnknownImageError):
            pr_curve(bad, truths, 0.5, 1)

    def test_matches_only_the_requested_class(self, monkeypatch):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 2, (50, 50, 60, 60))])
        dets = _dets([(1, 2, 0.9, (50, 50, 60, 60)), (1, 1, 0.8, (0, 0, 10, 10)), (1, 2, 0.7, (51, 51, 61, 61))])
        built = []
        overlaps = metrics._overlaps

        def recording(rows, cols):
            built.append((rows.tolist(), cols.tolist()))
            return overlaps(rows, cols)

        monkeypatch.setattr(metrics, "_overlaps", recording)
        assert pr_curve(dets, truths, 0.5, class_id=1).points == ((1.0, 1.0),)
        # one pair: the corner row (left, top, right, bottom, area) of class 1's detection against its truth's
        assert built == [([[0.0, 0.0, 10.0, 10.0, 100.0]], [[0.0, 0.0, 10.0, 10.0, 100.0]])]

    def test_unknown_image_in_another_class_detected(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))], categories=[1, 2])
        with pytest.raises(UnknownImageError):
            pr_curve(_dets([(1, 1, 0.9, (0, 0, 10, 10)), (99, 2, 0.5, (0, 0, 1, 1))]), truths, 0.5, 1)

    def test_undeclared_category_in_another_class_rejected(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        with pytest.raises(ValueError, match=r"^detection references unknown category 7$"):
            pr_curve(_dets([(1, 1, 0.9, (0, 0, 10, 10)), (1, 7, 0.5, (0, 0, 1, 1))]), truths, 0.5, 1)

    def test_empty_detections_gives_empty_curve(self):
        _, truths = _simple_pair()
        curve = pr_curve(_dets([]), truths, 0.5, 1)
        assert curve.points == ()
        assert curve.ap == 0.0


class TestPRCurveRecords:
    def test_reads_only_the_requested_class_records(self, monkeypatch):
        # class 1: two truths and two detections; class 2: three truths and four detections
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 2, (50, 50, 60, 60)), (2, 2, (0, 0, 40, 40)),
                          (2, 1, (5, 5, 25, 25)), (2, 2, (60, 60, 99, 99))])
        dets = _dets([(1, 2, 0.9, (50, 50, 60, 60)), (1, 1, 0.8, (0, 0, 10, 10)), (2, 2, 0.7, (0, 0, 40, 40)),
                      (2, 2, 0.6, (1, 1, 40, 40)), (2, 1, 0.5, (5, 5, 24, 25)), (1, 2, 0.4, (0, 0, 5, 5))])
        banded, coded = [], []
        area_band, codes = metrics.area_band, metrics._codes

        def banding(box):
            banded.append(box)
            return area_band(box)

        def coding(ids, keys):
            coded.append(len(ids))
            return codes(ids, keys)

        monkeypatch.setattr(metrics, "area_band", banding)
        monkeypatch.setattr(metrics, "_codes", coding)
        assert pr_curve(dets, truths, 0.5, 1).points == ((0.5, 1.0), (1.0, 1.0))
        assert banded == [Box.from_corners(0, 0, 10, 10), Box.from_corners(5, 5, 25, 25)]
        assert coded and max(coded) <= 2


class TestEnvelope:
    def test_running_max_from_the_right(self):
        pts = [(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)]
        assert oracles.oracle_envelope(pts) == [(0.5, 1.0), (0.5, 2 / 3), (1.0, 2 / 3)]

    def test_non_increasing(self):
        for seed in range(20):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            for cls in oracles.oracle_classes_with_truth(scenario):
                env = oracles.oracle_envelope(pr_curve(dets, truths, 0.5, cls).points)
                values = [p for _, p in env]
                assert values == sorted(values, reverse=True)


class TestAveragePrecision:
    def test_continuous_hand_value(self):
        dets, truths = _simple_pair()
        curve = pr_curve(dets, truths, 0.5, 1)
        assert curve.ap == pytest.approx(5 / 6, rel=1e-12)

    def test_101_point_hand_value(self):
        dets, truths = _simple_pair()
        curve = pr_curve(dets, truths, 0.5, 1)
        want = (51 * 1.0 + 50 * (2 / 3)) / 101
        assert average_precision(curve, "101-point") == pytest.approx(want, rel=1e-12)

    def test_perfect_detector_scores_one(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10))])
        curve = pr_curve(dets, truths, 0.5, 1)
        assert average_precision(curve, "continuous") == 1.0
        assert average_precision(curve, "101-point") == 1.0

    def test_101_point_zero_beyond_reached_recall(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 1, (50, 50, 60, 60))])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10))])
        curve = pr_curve(dets, truths, 0.5, 1)
        assert average_precision(curve, "101-point") == pytest.approx(51 / 101)

    def test_all_false_positives_score_zero(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        dets = _dets([(1, 1, 0.9, (50, 50, 60, 60))])
        curve = pr_curve(dets, truths, 0.5, 1)
        assert average_precision(curve, "continuous") == 0.0
        assert average_precision(curve, "101-point") == 0.0

    def test_rejects_unknown_interpolation(self):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError):
            average_precision(pr_curve(dets, truths, 0.5, 1), "11-point")

    def test_modes_differ_by_at_most_grid_step(self):
        for seed in range(30):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            for cls in oracles.oracle_classes_with_truth(scenario):
                curve = pr_curve(dets, truths, 0.5, cls)
                cont = average_precision(curve, "continuous")
                grid = average_precision(curve, "101-point")
                assert abs(cont - grid) <= 1 / 101 + 1e-12


def _sweep_curve(hits, num_gt) -> PRCurve:
    """The PR curve of a sweep given as hit flags, point by point."""
    points = []
    tp = fp = 0
    for hit in hits:
        if hit:
            tp += 1
        else:
            fp += 1
        points.append((tp / num_gt, tp / (tp + fp)))
    return PRCurve(tuple(points), num_gt)


@st.composite
def sweeps(draw) -> tuple[list[bool], int]:
    """Hit flags and a truth count no smaller than the hits; 20, 25, 50 and 100 put recalls on the samples."""
    hits = draw(st.lists(st.booleans(), max_size=60))
    tp = sum(hits)
    num_gt = draw(st.one_of(st.sampled_from([20, 25, 50, 100]), st.integers(1, 40)).filter(lambda n: n >= tp))
    return hits, num_gt


@st.composite
def tied_scenarios(draw) -> oracles.Scenario:
    """Random scenarios whose scores come from four values, so that many tie."""
    scenario = oracles.random_scenario(draw(st.integers(0, 10**6)), 3, 3, 12, 25)
    n = len(scenario.dets)
    scores = draw(st.lists(st.sampled_from((0.25, 0.5, 0.75, 1.0)), min_size=n, max_size=n))
    dets = tuple((img, cls, score, corners) for (img, cls, _, corners), score in zip(scenario.dets, scores))
    return oracles.Scenario(scenario.images, scenario.classes, scenario.gts, dets)


def _left_to_right_mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


# an empty sweep, all false positives, more truths than hits, recalls on the samples k/20, k/25, k/50 and
# k/100, and thirds, whose 101 samples add up differently in pairs than left to right
PINNED_SWEEPS = [
    ([], 3),
    ([False] * 5, 2),
    ([True, False, True, False, False], 10),
    ([True, False, False, False, True, True, False, True], 20),
    ([True, True, False, True, False, False, True] * 3, 25),
    ([True, False] * 30, 50),
    ([True, False, False] * 20, 100),
    ([True, False, True, False, False, True] * 3 + [True, False, True], 11),
]


class TestArrayApMatchesScalarOracle:
    """The array AP gives the scalar loop's floats bit for bit, one curve or many keys at a time."""

    @staticmethod
    def _assert_same(curve):
        for mode in INTERPOLATION_MODES:
            assert average_precision(curve, mode).hex() == oracles.oracle_average_precision(curve, mode).hex(), mode

    @pytest.mark.parametrize("hits,num_gt", PINNED_SWEEPS)
    def test_pinned_sweeps(self, hits, num_gt):
        self._assert_same(_sweep_curve(hits, num_gt))

    @given(sweeps())
    @settings(max_examples=300, deadline=None)
    def test_public_average_precision(self, sweep):
        self._assert_same(_sweep_curve(*sweep))

    @given(st.lists(sweeps(), max_size=6))
    @settings(max_examples=150, deadline=None)
    @example(PINNED_SWEEPS)
    def test_many_sweeps_at_once(self, many):
        curves = [_sweep_curve(hits, num_gt) for hits, num_gt in many]
        points = np.array([p for curve in curves for p in curve.points], dtype=float).reshape(-1, 2)
        for mode in INTERPOLATION_MODES:
            got = metrics._ap_rows(points[:, 0], points[:, 1], [len(c.points) for c in curves], mode).tolist()
            assert [v.hex() for v in got] == [oracles.oracle_average_precision(c, mode).hex() for c in curves]

    @given(tied_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_every_view_on_tied_scores(self, scenario):
        dets, truths = oracles.to_library(scenario)
        classes = oracles.oracle_classes_with_truth(scenario)
        order = sorted(range(len(scenario.dets)), key=lambda j: (-scenario.dets[j][2], j))

        def curve(flags, keep, num_gt):
            return _sweep_curve([flags[j] for j in order if keep(scenario.dets[j])], num_gt)

        def class_ap(flags, cls, mode):
            num_gt = sum(1 for g in scenario.gts if g[1] == cls)
            return oracles.oracle_average_precision(curve(flags, lambda d: d[1] == cls, num_gt), mode)

        for threshold in (0.5, 0.75):
            flags = oracles.oracle_tp_flags(scenario, threshold)
            for mode in INTERPOLATION_MODES:
                got = per_class_ap(dets, truths, threshold, mode)
                assert {c: v.hex() for c, v in got.items()} == {c: class_ap(flags, c, mode).hex() for c in classes}
        by_threshold = coco_ap(dets, truths).by_threshold
        for threshold in COCO_IOU_THRESHOLDS:
            flags = oracles.oracle_tp_flags(scenario, threshold)
            want = _left_to_right_mean([class_ap(flags, c, "101-point") for c in classes]) if classes else None
            assert by_threshold[threshold] == want
        flags = oracles.oracle_tp_flags(scenario, 0.5)
        pooled = curve(flags, lambda d: True, len(scenario.gts)) if scenario.gts else None
        assert global_ap(dets, truths) == (oracles.oracle_average_precision(pooled) if pooled else None)
        per_image = [
            oracles.oracle_average_precision(curve(flags, lambda d: d[0] == img, n))
            for img in sorted(scenario.images)
            if (n := sum(1 for g in scenario.gts if g[0] == img))
        ]
        assert per_image_ap(dets, truths) == (_left_to_right_mean(per_image) if per_image else None)


def _sweep_inputs(counts, keys, kept, flags):
    """_aps arguments from plain lists: detection d has key keys[d], and the index holds the kept ones in key
    order, each key's in the order given.  Map m gives a detection of the index a truth where flags[m] is
    True, while its key has a truth left."""
    counts, key_of = np.array(counts, dtype=np.intp), np.array(keys, dtype=np.intp)
    index = np.array(kept, dtype=np.intp)
    index = index[np.argsort(key_of[index], kind="stable")]
    matches = []
    for hit in flags:
        matched, left = np.full(len(key_of), -1, dtype=np.intp), counts.copy()
        for d in index.tolist():
            if hit[d] and left[key_of[d]] > 0:
                left[key_of[d]] -= 1
                matched[d] = left[key_of[d]]
        matches.append(matched)
    return index, key_of, counts, matches


@st.composite
def sweep_inputs(draw):
    """Up to 6 keys of 0-4 truths each, up to 40 detections in a random order, some left out of the index
    (as a size band leaves out the detections another band owns), and 1-4 match maps of varied hit rates."""
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    keys = draw(st.lists(st.integers(0, len(counts) - 1), max_size=40))
    n = len(keys)
    left_out = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kept = [d for d in draw(st.permutations(range(n))) if not left_out[d]]
    rates = draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 1.0)), min_size=1, max_size=4))
    flags = [draw(st.lists(st.floats(0, 1, exclude_max=True).map(lambda u, r=r: u < r), min_size=n, max_size=n))
             for r in rates]
    return _sweep_inputs(counts, keys, kept, flags)


class TestHitApsMatchFullSweep:
    """The engine's APs over hits alone are the full sweep's APs, over every ranked detection, bit for bit."""

    @staticmethod
    def _assert_same(index, key_of, counts, matches):
        for mode in INTERPOLATION_MODES:
            keys, got = metrics._Evaluation._aps(index, key_of, counts, matches, mode)
            want_keys, want = oracles.oracle_sweep_aps(index, key_of, counts, matches, mode)
            assert keys == want_keys, mode
            assert [[v.hex() for v in aps] for aps in got] == [[v.hex() for v in aps] for aps in want], mode

    def test_pinned_keys(self):
        # key 0: misses before its first hit and after its last; key 1: detections but no truth, dropped;
        # key 2: all misses in the first map, hits in the second; key 3: truth but no detection
        counts, keys = [3, 0, 2, 1], [0, 0, 0, 0, 0, 1, 1, 2, 2, 2]
        flags = [[False, True, False, True, False, False, False, False, False, False],
                 [True, True, True, True, True, False, False, False, True, True]]
        case = _sweep_inputs(counts, keys, list(range(len(keys))), flags)
        keys, aps = metrics._Evaluation._aps(*case, "continuous")
        assert keys == [0, 2, 3]
        assert aps == [pytest.approx([1 / 3, 0.0, 0.0]), pytest.approx([1.0, 2 / 3, 0.0])]
        self._assert_same(*case)

    @given(sweep_inputs())
    @settings(max_examples=300, deadline=None)
    def test_random_keys(self, case):
        self._assert_same(*case)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_every_view_of_an_evaluation(self, seed):
        """The index, keys, counts and maps each view of an evaluate passes, from random scenarios."""
        dets, truths = oracles.to_library(oracles.random_scenario(seed, 3, 3, 8, 25))
        evaluation = metrics._Evaluation(dets, truths, COCO_IOU_THRESHOLDS)
        maps = [evaluation.matched[t] for t in COCO_IOU_THRESHOLDS]
        self._assert_same(evaluation.by_class, evaluation.class_of,
                          np.bincount(evaluation.truth_class, minlength=len(evaluation.classes)), maps)
        self._assert_same(evaluation.by_image, evaluation.image_of,
                          np.bincount(evaluation.truth_image, minlength=len(evaluation.images)), maps)
        self._assert_same(evaluation.order, np.zeros(len(evaluation.class_of), dtype=np.intp),
                          np.array([len(evaluation.truth_class)]), maps)

    def test_no_sweep_holds_more_points_than_there_are_truths(self, monkeypatch):
        """Every AP of an evaluate is taken over hits alone: a map's hits take distinct truths, so no _ap_rows call
        gets more points than there are truths, though the detections outnumber them."""
        dets, truths = oracles.to_library(oracles.random_scenario(7, 3, 3, 6, 60))
        assert len(dets) > 2 * truths.total_count > 0
        sizes = []
        ap_rows = metrics._ap_rows

        def counting(recall, precision, lengths, interpolation):
            sizes.append(len(recall))
            return ap_rows(recall, precision, lengths, interpolation)

        monkeypatch.setattr(metrics, "_ap_rows", counting)
        evaluate(dets, truths)
        assert sizes and max(sizes) <= truths.total_count


@st.composite
def band_scenarios(draw) -> oracles.Scenario:
    """Clusters of overlapping same-class truths whose areas straddle a band boundary."""
    images = (1, 2)
    classes = (1, 2)
    gts = []
    for _ in range(draw(st.integers(1, 3))):
        img, cls = draw(st.sampled_from(images)), draw(st.sampled_from(classes))
        side = draw(st.sampled_from((32, 96)))  # a band boundary is side^2
        left, top = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        for _ in range(draw(st.integers(1, 3))):
            dx, dy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            w, h = side + draw(st.integers(-3, 3)), side + draw(st.integers(-3, 3))
            gts.append((img, cls, (left + dx, top + dy, left + dx + w, top + dy + h)))
    dets = []
    scores = draw(st.lists(st.integers(1, 128), min_size=1, max_size=8, unique=True))
    for score in scores:
        img, cls, (left, top, right, bottom) = draw(st.sampled_from(gts))
        dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        dw = draw(st.integers(-4, 4))
        if draw(st.booleans()) and draw(st.booleans()):
            cls = draw(st.sampled_from(classes))
        dets.append((img, cls, score / 128.0, (left + dx, top + dy, right + dx + dw, bottom + dy)))
    return oracles.Scenario(images, classes, tuple(gts), tuple(dets))


class TestAgainstExactOracle:
    @given(band_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_coco_family_and_size_bands_match_rational_arithmetic(self, scenario):
        dets, truths = oracles.to_library(scenario)
        report = evaluate(dets, truths)
        want = oracles.oracle_coco_ap(scenario)
        assert abs(coco_ap(dets, truths).ap - float(want)) <= 1e-12
        assert abs(report.ap - float(want)) <= 1e-12
        for band in AREA_BANDS:
            want = oracles.oracle_ap_by_area(scenario, band)
            got = ap_by_area(dets, truths, band)
            assert got == getattr(report, f"ap_{band}")
            if want is None:
                assert got is None
            else:
                assert abs(got - float(want)) <= 1e-12, band

    def test_per_class_ap_matches_rational_arithmetic(self):
        for seed in range(40):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            for threshold in (0.3, 0.5, 0.75):
                aps = per_class_ap(dets, truths, threshold)
                for cls in oracles.oracle_classes_with_truth(scenario):
                    want = oracles.oracle_class_ap(scenario, cls, threshold)
                    assert abs(aps[cls] - float(want)) <= 1e-12, (seed, cls, threshold)

    def test_101_point_matches_rational_arithmetic(self):
        for seed in range(40):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            aps = per_class_ap(dets, truths, 0.5, "101-point")
            for cls in oracles.oracle_classes_with_truth(scenario):
                want = oracles.oracle_class_ap(scenario, cls, 0.5, "101-point")
                assert abs(aps[cls] - float(want)) <= 1e-12, (seed, cls)

    def test_threshold_zero_matches_zero_overlap(self):
        # IOU 0 reaches threshold 0, so a detection off every truth of its class still takes a free one
        for seed in range(40):
            scenario = oracles.random_scenario(seed, 3, 3, 8, 14)
            dets, truths = oracles.to_library(scenario)
            aps = per_class_ap(dets, truths, 0.0)
            for cls in oracles.oracle_classes_with_truth(scenario):
                assert abs(aps[cls] - float(oracles.oracle_class_ap(scenario, cls, 0.0))) <= 1e-12, (seed, cls)
            for got, want in (
                (global_ap(dets, truths, 0.0), oracles.oracle_global_ap(scenario, 0.0)),
                (per_image_ap(dets, truths, 0.0), oracles.oracle_per_image_ap(scenario, 0.0)),
            ):
                assert (got is None) if want is None else abs(got - float(want)) <= 1e-12, seed

    def test_map_and_pooled_variants_match(self):
        for seed in range(40):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            for got, want in (
                (map_voc(dets, truths), oracles.oracle_map_voc(scenario)),
                (global_ap(dets, truths), oracles.oracle_global_ap(scenario)),
                (per_image_ap(dets, truths), oracles.oracle_per_image_ap(scenario)),
            ):
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(float(want), abs=1e-12), seed


class TestMapVoc:
    def test_single_class(self):
        dets, truths = _simple_pair()
        assert map_voc(dets, truths) == pytest.approx(5 / 6, rel=1e-12)

    def test_class_without_detections_counts_zero(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 2, (50, 50, 60, 60))])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10))])
        assert map_voc(dets, truths) == pytest.approx(0.5)

    def test_declared_but_truthless_class_excluded(self):
        truths = _truths([(1, 1, (0, 0, 10, 10))], categories=[1, 2, 3])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10)), (1, 3, 0.99, (0, 0, 10, 10))])
        assert map_voc(dets, truths) == 1.0

    def test_none_without_any_truth(self):
        truths = GroundTruthSet(images=[ImageInfo(1, 100, 100)], categories=[1])
        assert map_voc(_dets([]), truths) is None

    def test_monotone_under_false_positive_deletion(self):
        for seed in range(20):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            classes = oracles.oracle_classes_with_truth(scenario)
            if not classes or len(scenario.dets) == 0:
                continue
            flags = oracles.oracle_tp_flags(scenario, 0.5)
            fp_positions = [j for j, hit in flags.items() if not hit]
            if not fp_positions:
                continue
            drop = fp_positions[seed % len(fp_positions)]
            before = map_voc(dets, truths)
            after = map_voc(dets.filter(lambda d: d.index != drop), truths)
            assert after >= before

    def test_invariant_under_monotone_score_transforms(self):
        for seed in range(10):
            scenario = oracles.random_scenario(seed)
            dets, truths = oracles.to_library(scenario)
            before = map_voc(dets, truths)
            for transform in (lambda s: s * s, math.sqrt, lambda s: 0.5 * s + 0.25):
                rescored = DetectionResultSet(
                    (
                        d.image_id,
                        ScoredBox(box=d.box, score=transform(d.score), class_id=d.class_id),
                    )
                    for d in dets
                )
                after = map_voc(rescored, truths)
                if before is None:
                    assert after is None
                else:
                    assert after == before


class TestCocoAp:
    def test_mean_identity(self):
        dets, truths = _simple_pair()
        result = coco_ap(dets, truths)
        assert tuple(result.by_threshold) == COCO_IOU_THRESHOLDS
        values = [result.by_threshold[t] for t in COCO_IOU_THRESHOLDS]
        assert result.ap == sum(values) / len(values)
        assert result.ap50 == result.by_threshold[0.5]
        assert result.ap75 == result.by_threshold[0.75]

    def test_half_iou_detection(self):
        truths = _truths([(1, 1, (0, 0, 1, 1))])
        dets = _dets([(1, 1, 0.9, (0, 0, 2, 1))])  # IOU exactly 0.5
        result = coco_ap(dets, truths)
        assert result.ap50 == 1.0
        assert result.ap75 == 0.0
        assert result.ap == pytest.approx(0.1, abs=1e-12)

    def test_no_max_detections_cap(self):
        # The reference COCO evaluator keeps an image's 100 best-scoring
        # detections, which would drop this image's only hit and give AP 0.
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        misses = [(1, 1, 0.9, (20 + i, 20, 30 + i, 30)) for i in range(100)]
        dets = _dets(misses + [(1, 1, 0.5, (0, 0, 10, 10))])
        assert coco_ap(dets, truths).ap == pytest.approx(1 / 101, rel=1e-12)
        assert evaluate(dets, truths).ap > 0.0

    def test_none_without_truth(self):
        truths = GroundTruthSet(images=[ImageInfo(1, 100, 100)], categories=[1])
        result = coco_ap(_dets([]), truths)
        assert result.ap is None and result.ap50 is None and result.ap75 is None


class TestAreaBands:
    def test_boundaries(self):
        assert area_band(Box(0, 0, 31, 33)) == "small"    # 1023 < 32^2
        assert area_band(Box(0, 0, 32, 32)) == "medium"   # exactly 32^2
        assert area_band(Box(0, 0, 95, 96)) == "medium"   # 9120 < 96^2
        assert area_band(Box(0, 0, 96, 96)) == "large"    # exactly 96^2
        assert AREA_BANDS == ("small", "medium", "large")

    def test_out_of_band_match_is_dropped_not_false_positive(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 1, (100, 100, 300, 300))])
        dets = _dets([
            (1, 1, 0.9, (100, 100, 300, 300)),  # owns the large truth
            (1, 1, 0.8, (0, 0, 10, 10)),        # owns the small truth
        ])
        # were the higher-scoring large detection counted as a small-band FP,
        # the small AP would halve
        assert ap_by_area(dets, truths, "small") == 1.0
        assert ap_by_area(dets, truths, "large") == 1.0
        assert ap_by_area(dets, truths, "medium") is None

    def test_owned_detection_leaves_the_band_rematch(self):
        small, medium = (50, 50, 81, 81), (49, 49, 82, 82)  # areas 31^2 and 33^2
        truths = _truths([(1, 1, small), (1, 1, medium)])
        dets = _dets([(1, 1, 0.9, medium), (1, 1, 0.8, small)])
        # the 0.9 detection owns the medium truth; were it re-matched in the
        # small band it would take the small truth (IOU 961/1089) at every
        # threshold up to 0.85, and the small AP would fall to 0.2
        assert ap_by_area(dets, truths, "small") == 1.0
        assert evaluate(dets, truths).ap_small == 1.0

    def test_band_rematch_sends_iou_ties_to_the_lower_truth(self):
        # the 0.9 detection reaches IOU 0.5 with both small truths; the small band's
        # re-match, cut to their columns, must give it the lower one, as a whole scope does
        small = [(1, 1, (5, 5, 15, 15)), (1, 1, (15, 5, 25, 15))]
        medium = (1, 1, (0, 40, 60, 100))
        tie, exact = (1, 1, 0.9, (5, 5, 25, 15)), (1, 1, 0.8, (5, 5, 15, 15))
        truths = _truths([small[0], medium, small[1]])
        dets = _dets([tie, exact, (1, 1, 0.7, medium[2])])
        want = coco_ap(_dets([tie, exact]), _truths(small)).ap
        assert ap_by_area(dets, truths, "small") == want
        # the other truth order would give the tie to the other truth, and a higher AP
        assert want < coco_ap(_dets([tie, exact]), _truths(small[::-1])).ap

    def test_unmatched_overlap_stays_false_positive(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 1, (100, 100, 300, 300))])
        dets = _dets([
            (1, 1, 0.95, (100, 100, 180, 300)),  # IOU 0.4 with the large truth
            (1, 1, 0.8, (0, 0, 10, 10)),
        ])
        assert ap_by_area(dets, truths, "small") == pytest.approx(0.5)

    def test_rejects_unknown_band(self):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError):
            ap_by_area(dets, truths, "huge")

    def test_each_truth_is_banded_once_per_evaluate(self, monkeypatch):
        # a small, a medium and a large truth on two images, each found; the five views that read bands share one decision
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 2, (0, 0, 40, 40)), (2, 1, (0, 0, 99, 99)), (2, 2, (5, 5, 25, 25))])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10)), (1, 2, 0.8, (1, 1, 40, 40)), (2, 1, 0.7, (0, 0, 98, 99)),
                      (2, 2, 0.6, (60, 60, 80, 80))])
        calls = []
        banded = metrics.area_band

        def counting(box):
            calls.append(box)
            return banded(box)

        monkeypatch.setattr(metrics, "area_band", counting)
        report = evaluate(dets, truths)
        assert None not in (report.ap_small, report.ap_medium, report.ap_large)
        assert len(calls) == truths.total_count


class TestGlobalAp:
    def test_cross_class_pooling_with_class_correct_matching(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (1, 2, (50, 50, 60, 60))])
        dets = _dets([
            (1, 2, 0.9, (50, 50, 60, 60)),
            (1, 2, 0.8, (0, 0, 10, 10)),  # sits on the class-1 truth: never matches
            (1, 1, 0.7, (0, 0, 10, 10)),
        ])
        # pooled sweep TP, FP, TP: 0.5 * 1 + 0.5 * 2/3
        assert global_ap(dets, truths) == pytest.approx(5 / 6, rel=1e-12)
        # within each class the FP ranks below full recall, so the mean is blind
        assert map_voc(dets, truths) == 1.0

    def test_none_without_truth(self):
        truths = GroundTruthSet(images=[ImageInfo(1, 100, 100)], categories=[1])
        assert global_ap(_dets([]), truths) is None

    def test_threshold_validated(self):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError):
            global_ap(dets, truths, iou_threshold=1.5)


class TestPerImageAp:
    def test_unweighted_mean_over_images(self):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (2, 1, (0, 0, 10, 10))])
        dets = _dets([
            (1, 1, 0.9, (0, 0, 10, 10)),     # image 1 perfect
            (2, 1, 0.9, (50, 50, 60, 60)),   # image 2 only a miss
        ])
        assert per_image_ap(dets, truths) == pytest.approx(0.5)

    def test_truth_free_images_skipped(self):
        truths = GroundTruthSet(
            images=[ImageInfo(1, 100, 100), ImageInfo(2, 100, 100)],
            categories=[1],
            ground_truths=[GroundTruth(1, 1, Box.from_corners(0, 0, 10, 10))],
        )
        dets = _dets([
            (1, 1, 0.9, (0, 0, 10, 10)),
            (2, 1, 0.99, (0, 0, 10, 10)),  # unjudged: image 2 has no truth
        ])
        assert per_image_ap(dets, truths) == 1.0

    def test_none_when_no_image_has_truth(self):
        truths = GroundTruthSet(images=[ImageInfo(1, 100, 100)], categories=[1])
        assert per_image_ap(_dets([]), truths) is None


def _assert_report_agrees_with_parts(dets, truths):
    report = evaluate(dets, truths)
    coco = coco_ap(dets, truths)
    assert report.voc50 == map_voc(dets, truths)
    assert report.ap == coco.ap
    assert report.ap50 == coco.ap50
    assert report.ap75 == coco.ap75
    assert report.ap_small == ap_by_area(dets, truths, "small")
    assert report.ap_medium == ap_by_area(dets, truths, "medium")
    assert report.ap_large == ap_by_area(dets, truths, "large")
    assert report.global_ap == global_ap(dets, truths)
    assert report.per_image_ap == per_image_ap(dets, truths)
    assert report.per_class_ap == per_class_ap(dets, truths)


class TestEvaluate:
    def test_report_agrees_with_parts(self):
        _assert_report_agrees_with_parts(*_simple_pair())

    @pytest.mark.parametrize(
        "view",
        [evaluate, map_voc, coco_ap, global_ap, per_image_ap, per_class_ap, lambda d, t: ap_by_area(d, t, "small")],
        ids=["evaluate", "map_voc", "coco_ap", "global_ap", "per_image_ap", "per_class_ap", "ap_by_area"],
    )
    def test_detection_of_undeclared_category_rejected(self, view):
        # Scored, it would halve global_ap and per_image_ap and drop out of the per-class mean.
        truths = _truths([(1, 1, (0, 0, 10, 10))])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10)), (1, 7, 0.95, (20, 20, 30, 30))])
        with pytest.raises(ValueError, match=r"^detection references unknown category 7$"):
            view(dets, truths)

    @given(band_scenarios())
    @settings(max_examples=80, deadline=None)
    # one small truth: the medium and large bands hold no truth and read None
    @example(oracles.Scenario((1, 2), (1, 2), ((1, 1, (0, 0, 30, 30)),), ((1, 1, 0.5, (0, 0, 30, 30)),)))
    def test_report_agrees_with_parts_on_band_scenarios(self, scenario):
        _assert_report_agrees_with_parts(*oracles.to_library(scenario))

    def test_one_iou_call_covers_exactly_the_same_group_pairs(self, monkeypatch):
        # two images, three classes: four (image, class) groups hold detections and truths, two hold detections only
        gts = [(1, 1, (0, 0, 10, 10)), (1, 1, (20, 20, 40, 40)), (1, 2, (50, 50, 60, 60)), (2, 1, (0, 0, 30, 30)),
               (2, 3, (60, 60, 90, 90))]
        dets = [(1, 1, 0.9, (0, 0, 10, 10)), (1, 1, 0.8, (21, 20, 40, 40)), (1, 1, 0.3, (70, 70, 80, 80)),
                (1, 2, 0.7, (50, 50, 61, 60)), (1, 3, 0.6, (0, 0, 10, 10)), (2, 1, 0.5, (0, 0, 30, 31)),
                (2, 1, 0.4, (5, 5, 20, 20)), (2, 2, 0.95, (0, 0, 30, 30)), (2, 3, 0.2, (60, 60, 90, 90))]
        calls = []
        overlaps = metrics._overlaps

        def recording(rows, cols):
            calls.append(sorted(zip(map(tuple, rows.tolist()), map(tuple, cols.tolist()))))
            return overlaps(rows, cols)

        def corner_row(corners):
            left, top, right, bottom = map(float, corners)
            return (left, top, right, bottom, (right - left) * (bottom - top))

        monkeypatch.setattr(metrics, "_overlaps", recording)
        evaluate(_dets(dets), _truths(gts, categories=[1, 2, 3]))
        # sum over groups of detections x truths: 3 x 2 + 1 x 1 + 2 x 1 + 1 x 1
        want = sorted((corner_row(d), corner_row(g)) for img, cls, _, d in dets for gt_img, gt_cls, g in gts
                      if (img, cls) == (gt_img, gt_cls))
        assert len(want) == 10
        assert calls == [want]

    def test_each_distinct_threshold_is_matched_once(self, monkeypatch):
        dets, truths = _simple_pair()
        calls = []
        greedy = metrics._greedy

        def counting(rows, cols, size):
            calls.append(size)
            return greedy(rows, cols, size)

        monkeypatch.setattr(metrics, "_greedy", counting)
        evaluation = metrics._Evaluation(dets, truths, (0.5, 0.5))
        assert calls == [len(dets)]
        assert list(evaluation.matched) == [0.5]

    def test_a_threshold_equal_to_a_coco_one_is_checked_too(self):
        # 0.5 + 0j equals the sweep's 0.5 but has no order; every other view rejects it too
        dets, truths = _simple_pair()
        with pytest.raises(TypeError, match=r"^'<=' not supported between instances of 'float' and 'complex'$"):
            evaluate(dets, truths, 0.5 + 0j)

    def test_sharding_changes_nothing(self):
        _, dets_a, dets_b = pathology_fixture()
        truths = pathology_fixture()[0]
        for dets in (dets_a, dets_b):
            baseline = evaluate(dets, truths, shards=1)
            assert evaluate(dets, truths, shards=3) == baseline
            assert evaluate(dets, truths, shards=8) == baseline

    def test_shards_validated(self):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError):
            evaluate(dets, truths, shards=0)

    @pytest.mark.parametrize("shards", [2.5, math.nan, math.inf])
    def test_shards_must_be_whole(self, shards):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError, match=rf"^shards must be a whole number, got {shards!r}$"):
            evaluate(dets, truths, shards=shards)

    @pytest.mark.parametrize("shards", ["2", None])
    def test_shards_must_be_a_number(self, shards):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError, match=rf"^shards must be a positive whole number, got {shards!r}$"):
            evaluate(dets, truths, shards=shards)

    def test_shards_positive_message_unchanged(self):
        dets, truths = _simple_pair()
        with pytest.raises(ValueError, match=r"^shards must be positive, got -2$"):
            evaluate(dets, truths, shards=-2)


class TestSameOnEveryPython:
    """Python 3.12 made sum() of floats compensated; no report may depend on the interpreter's sum()."""

    def test_the_stand_in_compensates(self):
        total = 0.0
        for _ in range(10):
            total += 0.1
        assert total != 1.0
        assert oracles.compensated_sum([0.1] * 10) == 1.0

    def test_reports_are_the_same_under_a_compensated_sum(self, monkeypatch):
        inputs = [oracles.to_library(oracles.random_scenario(seed)) for seed in range(100)]
        plain, compensated = under_both_sums(monkeypatch, lambda: [repr(evaluate(d, t)) for d, t in inputs])
        assert compensated == plain


class TestPathology:
    def test_fixture_shape(self):
        truths, dets_a, dets_b = pathology_fixture()
        assert truths.total_count == 3
        assert len(dets_a) == 3
        assert len(dets_b) == 9

    def test_per_class_mean_hides_the_regression(self):
        reports = demo_map_pathology()
        assert reports.detector_a.voc50 == 1.0
        assert reports.detector_b.voc50 == 1.0

    def test_pooled_metrics_expose_it(self):
        reports = demo_map_pathology()
        assert reports.detector_a.global_ap == 1.0
        assert reports.detector_a.per_image_ap == 1.0
        assert reports.detector_b.global_ap == pytest.approx(17 / 21, rel=1e-12)
        assert reports.detector_b.per_image_ap == pytest.approx(5 / 6, rel=1e-12)
        assert reports.detector_a.global_ap > reports.detector_b.global_ap
        assert reports.detector_a.per_image_ap > reports.detector_b.per_image_ap


class TestRegistryValidation:
    def test_duplicate_image(self):
        with pytest.raises(ValueError):
            GroundTruthSet(
                images=[ImageInfo(1, 10, 10), ImageInfo(1, 20, 20)], categories=[1]
            )

    def test_unknown_image_reference(self):
        with pytest.raises(ValueError):
            GroundTruthSet(
                images=[ImageInfo(1, 10, 10)],
                categories=[1],
                ground_truths=[GroundTruth(2, 1, Box(5, 5, 2, 2))],
            )

    def test_unknown_category_reference(self):
        with pytest.raises(ValueError):
            GroundTruthSet(
                images=[ImageInfo(1, 10, 10)],
                categories=[1],
                ground_truths=[GroundTruth(1, 9, Box(5, 5, 2, 2))],
            )

    def test_needs_a_category(self):
        with pytest.raises(ValueError):
            GroundTruthSet(images=[ImageInfo(1, 10, 10)], categories=[])

    def test_rejects_negative_category_id(self):
        with pytest.raises(ValueError, match="category -1"):
            GroundTruthSet(images=[ImageInfo(1, 10, 10)], categories={2: "a", -1: "b"})

    @pytest.mark.parametrize(
        "categories",
        [[1.5, 2.9], {1.5: "a"}, [math.nan], {math.nan: "a"}, ["a"], [None], {"a": "x"}],
        ids=["fractional-list", "fractional-mapping", "nan-list", "nan-mapping", "str-list", "none-list", "str-mapping"],
    )
    def test_rejects_fractional_or_nan_category_id(self, categories):
        with pytest.raises(ValueError, match="non-negative whole number"):
            GroundTruthSet(images=[ImageInfo(1, 10, 10)], categories=categories)

    @pytest.mark.parametrize("categories", [[2.0], {2.0: "a"}], ids=["list", "mapping"])
    def test_whole_valued_category_ids_become_ints(self, categories):
        registry = GroundTruthSet(images=[ImageInfo(1, 10, 10)], categories=categories)
        assert [type(c) for c in registry.categories] == [int]
        assert list(registry.categories) == [2]

    def test_list_form_names_each_category_by_its_stored_id(self):
        registry = GroundTruthSet(images=[ImageInfo(1, 10, 10)], categories=[1.0, 2])
        assert registry.categories == {1: "1", 2: "2"}


# Truth sets as (image ids, classes, truths): images declared out of id order, truths interleaved across
# images, some declared classes without a truth.
@st.composite
def truth_sets(draw):
    image_ids = draw(st.permutations(draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))))
    classes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True))
    owners = draw(st.lists(st.tuples(st.sampled_from(image_ids), st.sampled_from(classes)), max_size=25))
    truths = [GroundTruth(image, cls, Box(5.0, 5.0, 1.0 + k, 2.0)) for k, (image, cls) in enumerate(owners)]
    return image_ids, classes, truths


class TestTruthOrder:
    @given(truth_sets())
    @example(([9, 2], [3, 1], [GroundTruth(2, 1, Box(5, 5, 1, 2)), GroundTruth(9, 1, Box(5, 5, 2, 2)),
                               GroundTruth(2, 1, Box(5, 5, 3, 2))]))
    def test_counts_and_order_are_read_from_the_truths_given(self, drawn):
        image_ids, classes, truths = drawn
        registry = GroundTruthSet([ImageInfo(i, 10, 10) for i in image_ids], classes, truths)
        assert registry.total_count == len(truths)
        for cls in [*classes, max(classes) + 1]:  # the last is declared by no set
            assert registry.class_count(cls) == len([gt for gt in truths if gt.class_id == cls])
        assert registry.classes_with_truth() == tuple(sorted({gt.class_id for gt in truths}))
        # image by image in registry order, input order within an image
        assert registry._truths == tuple(gt for image in image_ids for gt in truths if gt.image_id == image)

    def test_equality_compares_each_images_truths_whatever_the_registry_order(self):
        a, b, c = (GroundTruth(image, 1, Box(5, 5, width, 2)) for image, width in ((2, 1), (9, 2), (2, 3)))
        first, second = ([ImageInfo(i, 10, 10) for i in ids] for ids in ([9, 2], [2, 9]))
        assert GroundTruthSet(first, [1], [a, b, c]) == GroundTruthSet(second, [1], [b, a, c])
        assert GroundTruthSet(first, [1], [a, b, c]) != GroundTruthSet(second, [1], [c, b, a])

    @pytest.mark.parametrize("pick", [0, 1], ids=["detections", "truths"])
    def test_a_set_is_unequal_to_anything_but_a_set(self, pick):
        made = _simple_pair()[pick]
        for other in (None, 1, made.detections if pick == 0 else made._truths):  # the last holds the set's contents
            assert not made == other
            assert made != other

    def test_the_views_never_gather_truths_per_image(self, monkeypatch):
        truths = _truths([(1, 1, (0, 0, 10, 10)), (2, 2, (5, 5, 25, 25)), (3, 1, (0, 0, 40, 40))])
        dets = _dets([(1, 1, 0.9, (0, 0, 10, 10)), (2, 2, 0.8, (5, 5, 20, 25)), (3, 2, 0.7, (0, 0, 40, 40))])
        calls = []
        gather = GroundTruthSet.for_image

        def counting(self, image_id):
            calls.append(image_id)
            return gather(self, image_id)

        monkeypatch.setattr(GroundTruthSet, "for_image", counting)
        evaluate(dets, truths)
        coco_ap(dets, truths)
        pr_curve(dets, truths, 0.5, 1)
        assert calls == []


class TestImageInfo:
    @pytest.mark.parametrize(
        "width,height",
        [(640.9, 480), (640, 479.5), (math.nan, 480), (640, math.inf), (0, 480), (640, -1)],
    )
    def test_rejects_non_whole_or_non_positive_sizes(self, width, height):
        with pytest.raises(ValueError, match="positive whole number"):
            ImageInfo(1, width, height)

    @pytest.mark.parametrize("width,height,message", [
        (None, 10, "width must be a positive whole number, got None"),
        (640, "480", "height must be a positive whole number, got 480"),
    ])
    def test_rejects_non_numbers(self, width, height, message):
        with pytest.raises(ValueError, match=rf"^image 1: {message}$"):
            ImageInfo(1, width, height)

    def test_whole_valued_float_id_becomes_int(self):
        info = ImageInfo(2.0, 100, 100)
        assert info == ImageInfo(2, 100, 100)
        assert type(info.image_id) is int

    @pytest.mark.parametrize("image_id", ["a", None, "1", 1.5, math.nan, math.inf])
    def test_rejects_an_id_that_is_not_a_whole_number(self, image_id):
        # an id of another type would break the engine's ordering of images, and a fractional one be scored silently
        with pytest.raises(ValueError, match=rf"^image {re.escape(repr(image_id))}: id must be a whole number$"):
            ImageInfo(image_id, 100, 100)

    def test_whole_valued_float_sizes_become_ints(self):
        info = ImageInfo(1, 640.0, 480.0)
        assert info == ImageInfo(1, 640, 480)
        assert type(info.width) is int and type(info.height) is int
