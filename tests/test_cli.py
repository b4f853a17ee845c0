"""Command-line interface: golden outputs, exit codes, determinism."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_cli
from detkit import Box, ScoredBox, dump_results, fixture_path, geometry, load_dataset, load_results, nms
from detkit.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_SEMANTIC_ERROR, EXIT_USAGE_ERROR

GT = str(fixture_path("pathology_gt.json"))
DETS_A = str(fixture_path("pathology_dets_a.json"))
DETS_B = str(fixture_path("pathology_dets_b.json"))
ANCHOR_BOXES = str(fixture_path("coco_anchors.txt"))
TABLE_MAP = str(fixture_path("speed_accuracy_map.tsv"))
TABLE_AP50 = str(fixture_path("speed_accuracy_ap50.tsv"))


class TestEval:
    def test_all_metrics_tsv_golden(self):
        code, out, err = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--metric", "all"])
        assert code == EXIT_OK and err == ""
        assert out == (
            "voc50\tap\tap50\tap75\tap_small\tap_medium\tap_large\tglobal_ap\tper_image_ap\n"
            "1.000000\t1.000000\t1.000000\t1.000000\tNA\tNA\t1.000000\t0.809524\t0.833333\n"
        )

    def test_all_metrics_json_golden(self):
        code, out, _ = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--format", "json"])
        assert code == EXIT_OK
        assert out == (
            '{"voc50": 1.0, "ap": 1.0, "ap50": 1.0, "ap75": 1.0, "ap_small": null, '
            '"ap_medium": null, "ap_large": 1.0, "global_ap": 0.8095238095238095, '
            '"per_image_ap": 0.8333333333333333, "per_class_ap": {"1": 1.0, "2": 1.0}}\n'
        )

    def test_metric_families(self):
        code, out, _ = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--metric", "coco"])
        assert code == EXIT_OK
        assert out == (
            "ap\tap50\tap75\tap_small\tap_medium\tap_large\n"
            "1.000000\t1.000000\t1.000000\tNA\tNA\t1.000000\n"
        )
        code, out, _ = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--metric", "global"])
        assert code == EXIT_OK and out == "global_ap\n0.809524\n"
        code, out, _ = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--metric", "per-image"])
        assert code == EXIT_OK and out == "per_image_ap\n0.833333\n"

    def test_voc50_json_has_per_class_breakdown(self):
        code, out, _ = run_cli(
            ["eval", "--gt", GT, "--dets", DETS_B, "--metric", "voc50", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"voc50": 1.0, "per_class_ap": {"1": 1.0, "2": 1.0}}

    def test_perfect_detector(self):
        code, out, _ = run_cli(["eval", "--gt", GT, "--dets", DETS_A, "--metric", "all"])
        assert code == EXIT_OK
        assert out.splitlines()[1] == (
            "1.000000\t1.000000\t1.000000\t1.000000\tNA\tNA\t1.000000\t1.000000\t1.000000"
        )

    def test_byte_identical_across_runs_and_shards(self):
        baseline = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--metric", "all"])
        for shards in ("1", "4", "8"):
            repeat = run_cli(
                ["eval", "--gt", GT, "--dets", DETS_B, "--metric", "all", "--shards", shards]
            )
            assert repeat == baseline

    def test_missing_file_is_data_error(self, tmp_path):
        code, _, err = run_cli(["eval", "--gt", str(tmp_path / "no.json"), "--dets", DETS_B])
        assert code == EXIT_DATA_ERROR
        assert err.startswith("detkit: ")

    def test_invalid_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["eval", "--gt", str(bad), "--dets", DETS_B])
        assert code == EXIT_DATA_ERROR
        assert "line 1" in err

    @pytest.mark.parametrize(
        "bbox",
        [
            "[NaN, 10, 20, 20]",
            "[10, 10, Infinity, 20]",
            "[1e308, 10, 1e308, 20]",
            "[0, 0, 1e200, 1e200]",
            "[10, 10, 1" + "0" * 400 + ", 20]",
        ],
        ids=["nan", "infinity", "edge-overflow", "area-overflow", "huge-integer"],
    )
    def test_non_finite_bbox_is_data_error(self, tmp_path, bbox):
        dets = tmp_path / "dets.json"
        dets.write_text(f'[{{"image_id": 1, "category_id": 1, "bbox": {bbox}, "score": 0.5}}]', encoding="utf-8")
        code, out, err = run_cli(["eval", "--gt", GT, "--dets", str(dets)])
        assert code == EXIT_DATA_ERROR
        assert "result #0" in err
        assert out == ""

    @pytest.mark.parametrize(
        "change,record",
        [
            ({"categories": []}, "at least one category"),
            ({"categories": [{"id": -1, "name": "a"}]}, "category -1"),
            ({"images": [{"id": 1, "width": 640.9, "height": 480}]}, "image 1: width"),
            (
                {"annotations": [{"id": 4, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1e-200, 1e-200]}]},
                "annotation 4",
            ),
        ],
        ids=["no-categories", "negative-category", "fractional-width", "area-underflow"],
    )
    def test_invalid_dataset_record_is_data_error(self, tmp_path, change, record):
        gt = tmp_path / "gt.json"
        doc = {"images": [{"id": 1, "width": 640, "height": 480}], "categories": [{"id": 1, "name": "a"}]}
        gt.write_text(json.dumps({**doc, "annotations": [], **change}), encoding="utf-8")
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([{"image_id": 1, "category_id": -1, "bbox": [0, 0, 5, 5], "score": 0.5}]))
        code, out, err = run_cli(["eval", "--gt", str(gt), "--dets", str(dets)])
        assert code == EXIT_DATA_ERROR
        assert record in err
        assert out == ""

    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, "[" + "1" * 5000 + "]"],
        ids=["deep-nesting", "over-long-integer"],
    )
    def test_undecodable_results_are_data_error(self, tmp_path, text):
        dets = tmp_path / "dets.json"
        dets.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["eval", "--gt", GT, "--dets", str(dets)])
        assert code == EXIT_DATA_ERROR
        assert "dets.json" in err

    def test_over_long_integer_message_is_for_cli_users(self, tmp_path):
        dets = tmp_path / "dets.json"
        dets.write_text('[{"image_id": ' + "1" * 5000 + "}]", encoding="utf-8")
        code, out, err = run_cli(["eval", "--gt", GT, "--dets", str(dets)])
        assert code == EXIT_DATA_ERROR and out == ""
        assert "dets.json: an integer literal is too long" in err
        assert "set_int_max_str_digits" not in err

    def test_iou_zero_matches_the_exact_oracle(self, tmp_path):
        # at --iou 0 a detection with zero IOU still takes a free truth of its class
        for seed in range(15):
            scenario = oracles.random_scenario(seed, 3, 3, 8, 14)
            gt, dets = tmp_path / f"gt{seed}.json", tmp_path / f"dets{seed}.json"
            gt.write_text(json.dumps({
                "images": [{"id": i, "width": 200, "height": 200} for i in scenario.images],
                "categories": [{"id": c, "name": f"class{c}"} for c in scenario.classes],
                "annotations": [
                    {"id": n + 1, "image_id": img, "category_id": cls, "bbox": [l, t, r - l, b - t]}
                    for n, (img, cls, (l, t, r, b)) in enumerate(scenario.gts)
                ],
            }), encoding="utf-8")
            dets.write_text(json.dumps([
                {"image_id": img, "category_id": cls, "bbox": [l, t, r - l, b - t], "score": score}
                for img, cls, score, (l, t, r, b) in scenario.dets
            ]), encoding="utf-8")
            code, out, _ = run_cli(["eval", "--gt", str(gt), "--dets", str(dets), "--iou", "0", "--format", "json"])
            assert code == EXIT_OK
            report = json.loads(out)
            for name, want in (
                ("global_ap", oracles.oracle_global_ap(scenario, 0.0)),
                ("per_image_ap", oracles.oracle_per_image_ap(scenario, 0.0)),
            ):
                got = report[name]
                assert (got is None) if want is None else abs(got - float(want)) <= 1e-12, (seed, name)

    def test_bad_iou_is_semantic_error(self):
        code, _, err = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--iou", "1.5"])
        assert code == EXIT_SEMANTIC_ERROR
        assert "detkit:" in err

    def test_bad_shards_is_semantic_error(self):
        code, _, _ = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--shards", "0"])
        assert code == EXIT_SEMANTIC_ERROR

    def test_unknown_metric_is_usage_error(self):
        code, _, err = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--metric", "bogus"])
        assert code == EXIT_USAGE_ERROR
        assert "usage" in err

    def test_missing_required_flag_is_usage_error(self):
        code, _, _ = run_cli(["eval", "--gt", GT])
        assert code == EXIT_USAGE_ERROR


class TestAnchors:
    def test_reference_boxes_golden(self):
        code, out, _ = run_cli(
            ["anchors", "--boxes", ANCHOR_BOXES, "--k", "9", "--scales", "3"]
        )
        assert code == EXIT_OK
        assert out == (
            "10 13\n16 30\n33 23\n"
            "\n"
            "30 61\n62 45\n59 119\n"
            "\n"
            "116 90\n156 198\n373 326\n"
        )

    def test_deterministic_for_seed(self):
        args = ["anchors", "--boxes", ANCHOR_BOXES, "--k", "3", "--scales", "1", "--seed", "5"]
        assert run_cli(args) == run_cli(args)

    def test_euclidean_distance_accepted(self):
        code, out, _ = run_cli(
            ["anchors", "--boxes", ANCHOR_BOXES, "--k", "3", "--scales", "3",
             "--distance", "euclidean"]
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 5  # 3 rows + 2 separators

    def test_negative_seed_is_named(self):
        code, out, err = run_cli(["anchors", "--boxes", ANCHOR_BOXES, "--k", "3", "--scales", "1", "--seed", "-1"])
        assert (code, out) == (EXIT_SEMANTIC_ERROR, "")
        assert err == "detkit: seed must be a non-negative whole number, got -1\n"

    def test_indivisible_k_is_semantic_error(self):
        code, _, err = run_cli(["anchors", "--boxes", ANCHOR_BOXES, "--k", "7", "--scales", "3"])
        assert code == EXIT_SEMANTIC_ERROR
        assert "--k 7" in err

    def test_too_few_samples_is_data_error(self):
        code, _, _ = run_cli(["anchors", "--boxes", ANCHOR_BOXES, "--k", "10", "--scales", "1"])
        assert code == EXIT_DATA_ERROR

    def test_malformed_boxes_file_is_data_error(self, tmp_path):
        bad = tmp_path / "dims.txt"
        bad.write_text("10 13\noops\n", encoding="utf-8")
        code, _, err = run_cli(["anchors", "--boxes", str(bad), "--k", "1", "--scales", "1"])
        assert code == EXIT_DATA_ERROR
        assert "line 2" in err

    @pytest.mark.parametrize("scales", ["0", "-3"])
    def test_non_positive_scales_is_semantic_error(self, scales):
        code, _, err = run_cli(["anchors", "--boxes", ANCHOR_BOXES, "--k", "9", "--scales", scales])
        assert code == EXIT_SEMANTIC_ERROR
        assert f"--scales {scales}" in err

    @pytest.mark.parametrize("text,k,distinct", [
        ("", 2, 0),
        ("# only a comment\n\n  # another\n", 2, 0),
        ("10 10\n" * 1000 + "10 10\n20 20\n30 30\n40 40\n", 5, 4),
    ], ids=["empty", "comments-only", "duplicates-first"])
    def test_too_few_distinct_samples_message_alone_on_stderr(self, tmp_path, text, k, distinct):
        boxes = tmp_path / "dims.txt"
        boxes.write_text(text, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "detkit.cli", "anchors", "--boxes", str(boxes), "--k", str(k), "--scales", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_DATA_ERROR
        assert result.stdout == ""
        assert result.stderr == f"detkit: {k} clusters requested but only {distinct} distinct samples given\n"

    @pytest.mark.parametrize("lines", ["1e200 1e200\n2e200 1e200\n", "1e-200 1e-200\n2e-200 1e-200\n"])
    def test_size_whose_area_leaves_the_float_range_is_named(self, tmp_path, lines):
        # these once reached k-means: overflow warnings then "Probabilities contain NaN", or NaN distances
        bad = tmp_path / "s.txt"
        bad.write_text(lines, encoding="utf-8")
        code, out, err = run_cli(["anchors", "--boxes", str(bad), "--k", "2", "--scales", "1"])
        width, height = (float(v) for v in lines.split()[:2])
        assert (code, out) == (EXIT_DATA_ERROR, "")
        assert err == f"detkit: {bad}: line 1: sample area must be positive and finite, got {width!r} x {height!r}\n"

    def test_euclidean_sizes_whose_squares_leave_the_float_range_cluster(self, tmp_path):
        # k-means++ once squared the distances here: inf weights, an invalid divide, "Probabilities contain NaN"
        boxes = tmp_path / "spread.txt"
        boxes.write_text("1e200 1e-200\n1 1\n2 2\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "detkit.cli", "anchors", "--boxes", str(boxes), "--k", "2", "--scales", "1",
             "--distance", "euclidean"],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        assert result.stdout == "1e+200 1e-200\n1.5 1.5\n"

    @pytest.mark.parametrize("line", ["nan 5", "5 inf"])
    def test_non_finite_size_is_data_error(self, tmp_path, line):
        bad = tmp_path / "dims.txt"
        bad.write_text(f"10 13\n{line}\n", encoding="utf-8")
        code, _, err = run_cli(["anchors", "--boxes", str(bad), "--k", "1", "--scales", "1"])
        assert code == EXIT_DATA_ERROR
        assert "line 2" in err


class TestLayout:
    def test_sizes_golden(self):
        code, out, _ = run_cli(["layout", "--grid", "13", "--anchors", "3", "--classes", "80"])
        assert code == EXIT_OK
        assert out == "depth\t255\ntotal\t43095\n"

    def test_offset_golden(self):
        code, out, _ = run_cli(
            ["layout", "--grid", "13", "--anchors", "3", "--classes", "80", "--at", "1,2,1,7"]
        )
        assert code == EXIT_OK
        assert out == "3917\n"

    def test_out_of_range_position_is_semantic_error(self):
        code, _, err = run_cli(
            ["layout", "--grid", "13", "--anchors", "3", "--classes", "80", "--at", "13,0,0,0"]
        )
        assert code == EXIT_SEMANTIC_ERROR
        assert "row 13" in err

    def test_malformed_position_is_usage_error(self):
        code, _, _ = run_cli(
            ["layout", "--grid", "13", "--anchors", "3", "--classes", "80", "--at", "1,2"]
        )
        assert code == EXIT_USAGE_ERROR

    def test_non_integer_position_is_usage_error(self):
        code, _, err = run_cli(
            ["layout", "--grid", "13", "--anchors", "3", "--classes", "80", "--at", "1,2,x,4"]
        )
        assert code == EXIT_USAGE_ERROR
        assert "argument --at: invalid literal for int() with base 10: 'x'" in err

    def test_non_positive_grid_is_semantic_error(self):
        code, _, _ = run_cli(["layout", "--grid", "0", "--anchors", "3", "--classes", "80"])
        assert code == EXIT_SEMANTIC_ERROR


class TestNms:
    @pytest.fixture()
    def chain_files(self, tmp_path):
        gt = tmp_path / "gt.json"
        gt.write_text(
            json.dumps(
                {
                    "images": [{"id": 1, "width": 10, "height": 10}],
                    "categories": [{"id": 1, "name": "thing"}],
                    "annotations": [],
                }
            ),
            encoding="utf-8",
        )
        dets = tmp_path / "dets.json"
        dets.write_text(
            json.dumps(
                [
                    {"image_id": 1, "category_id": 1, "bbox": [0.0, 0.0, 1.0, 1.0], "score": 0.9},
                    {"image_id": 1, "category_id": 1, "bbox": [0.25, 0.0, 1.0, 1.0], "score": 0.8},
                    {"image_id": 1, "category_id": 1, "bbox": [0.5, 0.0, 1.0, 1.0], "score": 0.7},
                ]
            ),
            encoding="utf-8",
        )
        return str(gt), str(dets)

    def test_chain_suppression(self, chain_files):
        gt, dets = chain_files
        code, out, _ = run_cli(["nms", "--gt", gt, "--dets", dets, "--iou", "0.5"])
        assert code == EXIT_OK
        kept = json.loads(out)
        assert [k["score"] for k in kept] == [0.9, 0.7]
        assert [k["bbox"][0] for k in kept] == [0.0, 0.5]

    def test_loose_threshold_keeps_everything(self, chain_files):
        gt, dets = chain_files
        code, out, _ = run_cli(["nms", "--gt", gt, "--dets", dets, "--iou", "0.6"])
        assert code == EXIT_OK
        assert [k["score"] for k in json.loads(out)] == [0.9, 0.8, 0.7]

    def test_output_reloads_as_results(self, chain_files):
        gt, dets = chain_files
        _, out, _ = run_cli(["nms", "--gt", gt, "--dets", dets])
        for record in json.loads(out):
            assert set(record) == {"image_id", "category_id", "bbox", "score"}

    def test_survivors_keep_the_files_numbers(self, tmp_path):
        # 540.43 + 227.63 / 2 - 227.63 / 2 is 540.4299999999998: no survivor goes through its center
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"images": [{"id": 1, "width": 800, "height": 600}],
                                  "categories": [{"id": 1, "name": "thing"}], "annotations": []}), encoding="utf-8")
        dets = tmp_path / "dets.json"
        dets.write_text('[{"image_id": 1, "category_id": 1, "bbox": [540.43, 10.0, 227.63, 50.5], "score": 0.9}]',
                        encoding="utf-8")
        code, out, err = run_cli(["nms", "--gt", str(gt), "--dets", str(dets)])
        assert (code, err) == (EXIT_OK, "")
        assert out == '[{"image_id": 1, "category_id": 1, "bbox": [540.43, 10.0, 227.63, 50.5], "score": 0.9}]\n'

    def test_survivors_are_their_records_as_read(self, tmp_path):
        # ints become floats as the loader reads them, keys the loader does not read are dropped
        rng = random.Random(0)
        records = []
        for i in range(300):
            bbox = [round(rng.uniform(0, 640), 2), round(rng.uniform(0, 480), 2),
                    round(rng.uniform(1, 300), 2), round(rng.uniform(1, 300), 2)]
            records.append({"score": rng.choice([0.5, 1, rng.random()]), "bbox": bbox if i % 7 else [3, 4, 5, 6],
                            "category_id": rng.randint(1, 2), "image_id": rng.randint(1, 3), "id": i})
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"images": [{"id": i, "width": 800, "height": 600} for i in (1, 2, 3)],
                                  "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
                                  "annotations": []}), encoding="utf-8")
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps(records), encoding="utf-8")
        code, out, _ = run_cli(["nms", "--gt", str(gt), "--dets", str(dets), "--iou", "0.3"])
        assert code == EXIT_OK
        kept = json.loads(out)
        read = [{"image_id": r["image_id"], "category_id": r["category_id"],
                 "bbox": [float(v) for v in r["bbox"]], "score": float(r["score"])} for r in records]
        assert 0 < len(kept) < len(records)
        assert all(record in read for record in kept)
        assert all(type(v) is float for record in kept for v in [*record["bbox"], record["score"]])

    def test_bad_threshold_is_semantic_error(self, chain_files):
        gt, dets = chain_files
        code, _, _ = run_cli(["nms", "--gt", gt, "--dets", dets, "--iou", "2.0"])
        assert code == EXIT_SEMANTIC_ERROR

    @pytest.mark.parametrize("command", ["nms", "eval"])
    def test_bad_threshold_is_semantic_error_without_images(self, tmp_path, command):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"images": [], "categories": [{"id": 1, "name": "thing"}], "annotations": []}),
                      encoding="utf-8")
        dets = tmp_path / "dets.json"
        dets.write_text("[]", encoding="utf-8")
        code, out, err = run_cli([command, "--gt", str(gt), "--dets", str(dets), "--iou", "7"])
        assert (code, out) == (EXIT_SEMANTIC_ERROR, "")
        assert err == "detkit: iou_threshold must lie in [0, 1], got 7.0\n"


# How a results file may spell a number in [lo, hi]: an int, two decimals, an exponent, or a float's repr.
def _spelled(lo: int, hi: int) -> st.SearchStrategy[str]:
    hundredths = st.integers(lo * 100, hi * 100)
    return st.one_of(
        st.integers(lo, hi).map(str),
        hundredths.map(lambda v: f"{v // 100}.{v % 100:02d}"),
        hundredths.map(lambda v: f"{v}e-2"),
        hundredths.map(lambda v: f"{v / 1000!r}E1"),
        st.floats(lo, hi).map(repr),
    )


_scores = st.sampled_from(["0", "1", "0.5", "1.0", "0e0", "5E-1"]) | _spelled(0, 1)
_records = st.builds(
    '{{"image_id": {}, "category_id": {}, "bbox": [{}, {}, {}, {}], "score": {}{}}}'.format,
    st.sampled_from([1, 2, 3]),
    st.sampled_from([0, 1, 2]),
    _spelled(0, 60), _spelled(0, 60), _spelled(1, 60), _spelled(1, 60),
    _scores,
    st.sampled_from(["", ', "id": 7', ', "area": 1.5e2', ', "segmentation": [[1, 2]]']),
)
# Registry order is not id order, and image 4 has no detections.
_REGISTRY_DOC = {"images": [{"id": i, "width": 640, "height": 480} for i in (2, 4, 1, 3)],
                 "categories": [{"id": c, "name": f"c{c}"} for c in (0, 1, 2)], "annotations": []}


class TestResultsWriterFuzz:
    """dump_results of a loaded set and detkit nms write each record as the loader read it."""

    @given(records=st.lists(_records, max_size=30),
           threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0))
    @example(records=['{"image_id": 1, "category_id": 1, "bbox": [540.43, 10.0, 227.63, 50.5], "score": 0.9}'],
             threshold=0.5)
    @settings(max_examples=100, deadline=None)
    def test_records_are_written_as_read(self, records, threshold):
        text = "[" + ", ".join(records) + "]"
        as_read = [{"image_id": r["image_id"], "category_id": r["category_id"],
                    "bbox": [float(v) for v in r["bbox"]], "score": float(r["score"])} for r in json.loads(text)]
        with tempfile.TemporaryDirectory() as tmp:
            gt, dets = Path(tmp) / "gt.json", Path(tmp) / "dets.json"
            gt.write_text(json.dumps(_REGISTRY_DOC), encoding="utf-8")
            dets.write_text(text, encoding="utf-8")
            truths = load_dataset(gt)
            detections = load_results(dets, truths)
            assert dump_results(detections) == json.dumps(as_read)
            expected = []
            for image_id in truths.image_ids:
                candidates = detections.for_image(image_id)
                kept, want = nms(candidates, threshold), oracles.oracle_nms(candidates, threshold)
                assert len(kept) == len(want) and all(got is det for got, det in zip(kept, want))
                expected.extend(as_read[det.index] for det in want)
            code, out, err = run_cli(["nms", "--gt", str(gt), "--dets", str(dets), "--iou", repr(threshold)])
        assert (code, err) == (EXIT_OK, "")
        assert out == json.dumps(expected) + "\n"


def _write_nms_files(tmp_path: Path, image_ids, class_ids, records) -> tuple[str, str]:
    """A dataset registering image_ids and class_ids in the order given, and a results file of records."""
    gt, dets = tmp_path / "gt.json", tmp_path / "dets.json"
    gt.write_text(json.dumps({"images": [{"id": i, "width": 640, "height": 480} for i in image_ids],
                              "categories": [{"id": c, "name": f"c{c}"} for c in class_ids], "annotations": []}),
                  encoding="utf-8")
    dets.write_text(json.dumps(records), encoding="utf-8")
    return str(gt), str(dets)


def _random_records(seed: int, image_ids, class_ids, per_image: int) -> list[dict]:
    """per_image records on each image, boxes on a small canvas so that same-class boxes overlap, two-decimal scores."""
    rng = random.Random(seed)
    return [{"image_id": image_id, "category_id": rng.choice(class_ids),
             "bbox": [round(rng.uniform(0, 40), 2), round(rng.uniform(0, 40), 2),
                      round(rng.uniform(20, 60), 2), round(rng.uniform(20, 60), 2)],
             "score": round(rng.random(), 2)}
            for image_id in image_ids for _ in range(per_image)]


def _nms_as_read(gt: str, dets: str, threshold: float) -> str:
    """What detkit nms prints: per image in registry order, oracle_nms's survivors, each record as the loader read it."""
    truths = load_dataset(gt)
    detections = load_results(dets, truths)
    as_read = json.loads(dump_results(detections))
    kept = [det for image_id in truths.image_ids for det in oracles.oracle_nms(detections.for_image(image_id), threshold)]
    return json.dumps([as_read[det.index] for det in kept]) + "\n"


class TestNmsOneKeyedPass:
    """detkit nms suppresses by (image, class) key in one pass over the loaded columns."""

    def test_builds_no_scored_box(self, tmp_path, monkeypatch):
        image_ids, class_ids = [5, 1, 9, 3, 7, 2], [0, 1, 2, 3]
        records = _random_records(0, image_ids, class_ids, per_image=12)
        gt, dets = _write_nms_files(tmp_path, image_ids, class_ids, records)
        built = []
        init = ScoredBox.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScoredBox, "__init__", counting)
        code, out, err = run_cli(["nms", "--gt", gt, "--dets", dets, "--iou", "0.45"])
        assert (code, err, built) == (EXIT_OK, "", [])
        monkeypatch.undo()
        assert out == _nms_as_read(gt, dets, 0.45)
        assert 0 < len(json.loads(out)) < len(records)

    def test_ids_beyond_int64(self, tmp_path):
        # Registry order is not id order; image 2**70 and category 2**65 fit no numpy integer type.
        image_ids, class_ids = [3, 2**70, 1], [2**65, 0, 7]
        records = _random_records(1, image_ids, class_ids, per_image=15)
        gt, dets = _write_nms_files(tmp_path, image_ids, class_ids, records)
        code, out, err = run_cli(["nms", "--gt", gt, "--dets", dets, "--iou", "0.3"])
        assert (code, err) == (EXIT_OK, "")
        assert out == _nms_as_read(gt, dets, 0.3)
        assert {record["image_id"] for record in json.loads(out)} == set(image_ids)
        candidates = [ScoredBox(Box.from_corner_size(*r["bbox"]), r["score"], r["category_id"]) for r in records]
        kept, want = nms(candidates, 0.3), oracles.oracle_nms(candidates, 0.3)
        assert len(kept) == len(want) and all(got is det for got, det in zip(kept, want))
        assert 2**65 in {scored.class_id for scored in kept}

    def test_lone_candidates_run_no_greedy_pass(self, tmp_path, monkeypatch):
        # Each _greedy_keep call costs tens of microseconds of numpy calls, so a key with one candidate makes none.
        image_ids, class_ids = list(range(2000, 0, -1)), list(range(10))
        records = _random_records(2, image_ids, class_ids, per_image=3)
        gt, dets = _write_nms_files(tmp_path, image_ids, class_ids, records)
        sizes = []
        greedy_keep = geometry._greedy_keep

        def counting(boxes, iou_threshold):
            sizes.append(len(boxes))
            return greedy_keep(boxes, iou_threshold)

        monkeypatch.setattr(geometry, "_greedy_keep", counting)
        code, _, _ = run_cli(["nms", "--gt", gt, "--dets", dets, "--iou", "0.5"])
        groups: dict[tuple[int, int], int] = {}
        for record in records:
            key = (record["image_id"], record["category_id"])
            groups[key] = groups.get(key, 0) + 1
        assert code == EXIT_OK
        assert sorted(sizes) == sorted(size for size in groups.values() if size > 1)
        assert 0 < len(sizes) < len(groups)


class TestPlotdata:
    def test_reemits_rows_byte_identically(self):
        code, out, _ = run_cli(["plotdata", "--table", TABLE_AP50])
        assert code == EXIT_OK
        assert out == "YOLOv3-608\t51\t57.9\nRetinaNet-101-800\t198\t57.5\n"
        code, out, _ = run_cli(["plotdata", "--table", TABLE_MAP])
        assert code == EXIT_OK
        assert out == "YOLOv3-320\t22\t28.2\n"

    def test_rows_sorted_by_time(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text(
            "method\ttime_ms\tmetric\nslow\t198\t57.5\nfast\t51\t57.9\n", encoding="utf-8"
        )
        code, out, _ = run_cli(["plotdata", "--table", str(table)])
        assert code == EXIT_OK
        assert out == "fast\t51\t57.9\nslow\t198\t57.5\n"

    def test_axis_selection(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("method\ttime_ms\tmetric\nx\t10\t50\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["plotdata", "--table", str(table), "--x", "metric", "--y", "time_ms"]
        )
        assert code == EXIT_OK
        assert out == "x\t50\t10\n"

    def test_empty_table_gives_empty_output(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("method\ttime_ms\tmetric\n", encoding="utf-8")
        code, out, _ = run_cli(["plotdata", "--table", str(table)])
        assert code == EXIT_OK and out == ""

    def test_infinite_time_is_data_error(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("method\ttime_ms\tmetric\nx\tinf\t50\n", encoding="utf-8")
        code, out, err = run_cli(["plotdata", "--table", str(table)])
        assert code == EXIT_DATA_ERROR
        assert "line 2" in err
        assert out == ""

    def test_bad_header_is_data_error(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("a\tb\tc\n", encoding="utf-8")
        code, _, _ = run_cli(["plotdata", "--table", str(table)])
        assert code == EXIT_DATA_ERROR


class TestDemo:
    def test_map_pathology_golden(self):
        code, out, _ = run_cli(["demo", "map-pathology"])
        assert code == EXIT_OK
        assert out == (
            "metric\tdetector_a\tdetector_b\n"
            "voc50\t1.000000\t1.000000\n"
            "global_ap\t1.000000\t0.809524\n"
            "per_image_ap\t1.000000\t0.833333\n"
            "both detectors tie on the per-class mean at IOU 0.5, but detector_b's spurious "
            "boxes outrank another class's true detections, so the pooled and per-image APs drop\n"
        )

    def test_unknown_topic_is_usage_error(self):
        code, _, _ = run_cli(["demo", "speed-table"])
        assert code == EXIT_USAGE_ERROR


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--gt", "{bad}", "--dets", DETS_B],
            ["eval", "--gt", GT, "--dets", "{bad}"],
            ["nms", "--gt", GT, "--dets", "{bad}"],
            ["anchors", "--boxes", "{bad}", "--k", "1", "--scales", "1"],
            ["plotdata", "--table", "{bad}"],
        ],
        ids=["eval-gt", "eval-dets", "nms-dets", "anchors-boxes", "plotdata-table"],
    )
    def test_is_data_error_naming_the_file(self, tmp_path, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\u00e9 10 13\n".encode("latin-1"))
        code, out, err = run_cli([str(bad) if arg == "{bad}" else arg for arg in argv])
        assert code == EXIT_DATA_ERROR
        assert f"{bad}: byte 3: not valid UTF-8" in err
        assert out == ""


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        code, _, _ = run_cli([])
        assert code == EXIT_USAGE_ERROR

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_cli(["eval", "--gt", GT, "--dets", DETS_B, "--frobnicate"])
        assert code == EXIT_USAGE_ERROR

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "detkit.cli", "layout", "--grid", "13",
             "--anchors", "3", "--classes", "80"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "depth\t255\ntotal\t43095\n"

    @pytest.mark.parametrize("unbuffered, argv", [
        pytest.param(unbuffered, argv, id=mode + suffix)
        for argv, suffix in ((["demo", "map-pathology"], ""), (["--help"], "-help"), (["eval", "--help"], "-eval-help"))
        for unbuffered, mode in (("1", "unbuffered"), ("", "buffered"))
    ])
    def test_a_closed_pipe_is_not_a_data_error(self, unbuffered, argv):
        # A buffered stdout meets the closed pipe at its last flush, an unbuffered one at the first print.
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the command writes
        try:
            result = subprocess.run(
                [sys.executable, "-m", "detkit.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")

    def test_help_exits_cleanly(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "eval" in out and "anchors" in out


# --- CLI fuzz ---------------------------------------------------------------------

# The shipped fixtures, the data directory itself and a missing file.
_FILES = [GT, DETS_A, DETS_B, ANCHOR_BOXES, TABLE_MAP, TABLE_AP50, str(fixture_path("")), "no-such-file"]
_NUMBERS = ["0", "-1", "1", "2", "3", "7", "9", "13", "0.5", "1.5", "nan", "inf", "-inf", "x", ""]
_VALUES = {
    "--gt": _FILES, "--dets": _FILES, "--boxes": _FILES, "--table": _FILES,
    "--metric": ["voc50", "coco", "global", "per-image", "all", "map"],
    "--format": ["tsv", "json", "xml"],
    "--distance": ["iou", "euclidean", "l1"],
    "--x": ["time_ms", "metric", "method"], "--y": ["time_ms", "metric", "method"],
    "--at": ["1,2,1,7", "13,0,0,0", "0,0,3,0", "0,0,0,85", "-1,0,0,0", "1,2", "a,b,c,d"],
}
# Per command: how many leading flags are required (always given), then every flag.
_FLAGS = {
    "eval": (2, ["--gt", "--dets", "--metric", "--iou", "--format", "--shards"]),
    "nms": (2, ["--gt", "--dets", "--iou", "--format"]),
    "anchors": (3, ["--boxes", "--k", "--scales", "--iters", "--seed", "--distance"]),
    "layout": (3, ["--grid", "--anchors", "--classes", "--at"]),
    "plotdata": (1, ["--table", "--x", "--y"]),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, flags = _FLAGS[command]
    chosen = flags[:required] + draw(st.lists(st.sampled_from(flags + ["--bogus"]), max_size=3))
    argv = [command]
    for flag in chosen:
        argv += [flag, draw(st.sampled_from(_VALUES.get(flag, _NUMBERS)))]
    return argv


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argv=_argvs())
    def test_every_argv_exits_with_a_documented_code(self, argv):
        code, _, err = run_cli(argv)  # an uncaught exception fails the test
        assert code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_USAGE_ERROR, EXIT_SEMANTIC_ERROR)
        assert "Traceback" not in err
