"""File formats: datasets, results, dimension samples, speed tables."""

from __future__ import annotations

import gc
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_boxes_close, run_cli
from detkit import (
    Box,
    DetectionResultSet,
    DimensionSamples,
    GroundTruthSet,
    ImageInfo,
    ParseError,
    ScoredBox,
    ValidationError,
    ap_by_area,
    coco_ap,
    dataio,
    dump_results,
    evaluate,
    fixture_path,
    load_dataset,
    load_dimension_samples,
    load_results,
    load_speed_table,
    metrics,
    pathology_fixture,
    pr_curve,
    results_document,
    write_results,
)
from oracles import oracle_load_dimension_samples


def _minimal_doc(**overrides):
    doc = {
        "images": [{"id": 1, "width": 100, "height": 100}],
        "categories": [{"id": 1, "name": "thing"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 20, 30, 40]}
        ],
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadDataset:
    def test_minimal_document(self, tmp_path):
        truths = load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        assert truths.image_ids == (1,)
        assert truths.categories == {1: "thing"}
        (gt,) = truths.for_image(1)
        assert gt.class_id == 1
        # corner-form bbox becomes a center-form box
        assert gt.box == Box(center_x=25.0, center_y=40.0, width=30.0, height=40.0)

    def test_matches_programmatic_fixture(self):
        truths = load_dataset(fixture_path("pathology_gt.json"))
        assert truths == pathology_fixture()[0]

    def test_malformed_json_names_location(self, tmp_path):
        path = _write(tmp_path, "bad.json", '{"images": [,]}')
        with pytest.raises(ParseError, match=r"line 1 column"):
            load_dataset(path)

    def test_missing_section(self, tmp_path):
        doc = _minimal_doc()
        del doc["categories"]
        with pytest.raises(ParseError, match="categories"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_duplicate_image_id(self, tmp_path):
        doc = _minimal_doc(images=[
            {"id": 1, "width": 10, "height": 10},
            {"id": 1, "width": 20, "height": 20},
        ])
        with pytest.raises(ValidationError, match="duplicate image id 1"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_dangling_image_reference(self, tmp_path):
        doc = _minimal_doc()
        doc["annotations"][0]["image_id"] = 7
        with pytest.raises(ValidationError, match="annotation 1: unknown image 7"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_dangling_category_reference(self, tmp_path):
        doc = _minimal_doc()
        doc["annotations"][0]["category_id"] = 9
        with pytest.raises(ValidationError, match="annotation 1: unknown category 9"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_non_positive_bbox(self, tmp_path):
        doc = _minimal_doc()
        doc["annotations"][0]["bbox"] = [10, 20, 0, 40]
        with pytest.raises(ValidationError, match="positive"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_crowd_regions_rejected(self, tmp_path):
        doc = _minimal_doc()
        doc["annotations"][0]["iscrowd"] = 1
        with pytest.raises(ValidationError, match="crowd regions unsupported"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_iscrowd_zero_accepted(self, tmp_path):
        doc = _minimal_doc()
        doc["annotations"][0]["iscrowd"] = 0
        truths = load_dataset(_write(tmp_path, "gt.json", doc))
        assert truths.total_count == 1

    def test_boolean_id_rejected(self, tmp_path):
        doc = _minimal_doc(images=[{"id": True, "width": 10, "height": 10}])
        with pytest.raises(ValidationError, match="image id"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.json")

    def test_whole_valued_float_size_loads_as_int(self, tmp_path):
        doc = _minimal_doc(images=[{"id": 1, "width": 640.0, "height": 480}])
        info = load_dataset(_write(tmp_path, "gt.json", doc)).images[1]
        assert (info.width, info.height) == (640, 480)
        assert type(info.width) is int

    def test_int_size_past_2_to_the_53_loads_exactly(self, tmp_path):
        # as a float, 2**53 + 1 would round to 2**53
        doc = _minimal_doc(images=[{"id": 1, "width": 2**53 + 1, "height": 480}])
        info = load_dataset(_write(tmp_path, "gt.json", doc)).images[1]
        assert (info.width, info.height) == (2**53 + 1, 480)

    @pytest.mark.parametrize("width", [640.9, float("nan"), 10**400])
    def test_size_must_be_a_positive_whole_number(self, tmp_path, width):
        doc = _minimal_doc(images=[{"id": 1, "width": width, "height": 480}])
        with pytest.raises(ValidationError, match="image 1: width must be a positive whole number"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_empty_category_list_rejected(self, tmp_path):
        doc = _minimal_doc(categories=[], annotations=[])
        with pytest.raises(ValidationError, match="gt.json: at least one category"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    @pytest.mark.parametrize("section,entries,message", [
        ("images", [{"id": 1, "width": 100, "height": 100}, 5], "image #1: image entries must be objects"),
        ("images", [{"id": 1, "width": 100, "height": 100}, {"id": True, "width": 1, "height": 1}],
         "image #1: image id must be an integer, got True"),
        ("categories", [{"id": 1, "name": "thing"}, {"id": 2, "name": 3}], "category 2: name must be a string"),
        ("annotations", [{"id": k, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]} for k in range(4)] + ["x"],
         "annotation #4: annotation entries must be objects"),
        ("categories", [{"id": 1, "name": "a"}, {"id": 1, "name": "b"}], "duplicate category id 1"),
        ("annotations", [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]}] * 2,
         "duplicate annotation id 1"),
    ], ids=["non-object-image", "bool-image-id", "category-name", "non-object-annotation",
            "duplicate-category-id", "duplicate-annotation-id"])
    def test_a_bad_entry_is_named_with_the_file(self, tmp_path, section, entries, message):
        # an entry is named by its position in its section until its id is read, then by its id
        doc = _minimal_doc(**{section: entries})
        with pytest.raises(ValidationError, match=rf"gt\.json: {re.escape(message)}$"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_negative_category_id_named(self, tmp_path):
        doc = _minimal_doc(categories=[{"id": 1, "name": "a"}, {"id": -1, "name": "b"}])
        with pytest.raises(ValidationError, match="category -1"):
            load_dataset(_write(tmp_path, "gt.json", doc))

    def test_annotation_area_field_is_ignored(self, tmp_path):
        doc = _minimal_doc()
        doc["annotations"][0]["area"] = 100000.0  # would make the 30 x 40 box large
        truths = load_dataset(_write(tmp_path, "gt.json", doc))
        dets = DetectionResultSet([(1, ScoredBox(truths.for_image(1)[0].box, 0.5, 1))])
        assert ap_by_area(dets, truths, "medium") == 1.0
        assert ap_by_area(dets, truths, "large") is None

    def test_non_utf8_file_names_the_byte(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_bytes(b'{"images": [], "\xff": 1}')
        with pytest.raises(ParseError, match="gt.json: byte 16"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, '{"images": [{"id": ' + "1" * 5000 + "}]}"],
        ids=["deep-nesting", "over-long-integer"],
    )
    def test_undecodable_json_is_parse_error(self, tmp_path, text):
        with pytest.raises(ParseError, match="gt.json"):
            load_dataset(_write(tmp_path, "gt.json", text))


class TestLoadResults:
    def test_fixture_files_match_programmatic_sets(self):
        truths, dets_a, dets_b = pathology_fixture()
        assert load_results(fixture_path("pathology_dets_a.json"), truths) == dets_a
        assert load_results(fixture_path("pathology_dets_b.json"), truths) == dets_b

    def test_file_order_becomes_input_order(self, tmp_path):
        truths = load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        doc = [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5},
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 6, 6], "score": 0.5},
        ]
        dets = load_results(_write(tmp_path, "res.json", doc), truths)
        assert [d.index for d in dets] == [0, 1]
        assert [d.box.width for d in dets] == [5.0, 6.0]

    def test_top_level_must_be_list(self, tmp_path):
        truths = load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        with pytest.raises(ParseError, match="list"):
            load_results(_write(tmp_path, "res.json", {}), truths)

    def test_score_out_of_range_names_record(self, tmp_path):
        truths = load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        doc = [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5},
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 1.5},
        ]
        with pytest.raises(ValidationError, match=r"result #1: score"):
            load_results(_write(tmp_path, "res.json", doc), truths)

    def test_unknown_image_named(self, tmp_path):
        truths = load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        doc = [{"image_id": 3, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}]
        with pytest.raises(ValidationError, match=r"result #0: unknown image 3"):
            load_results(_write(tmp_path, "res.json", doc), truths)

    def test_unknown_category_named(self, tmp_path):
        truths = load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        doc = [{"image_id": 1, "category_id": 4, "bbox": [0, 0, 5, 5], "score": 0.5}]
        with pytest.raises(ValidationError, match=r"result #0: unknown category 4"):
            load_results(_write(tmp_path, "res.json", doc), truths)

    def test_error_names_the_file_first(self, tmp_path):
        truths = load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        doc = [{"image_id": 999, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}]
        path = _write(tmp_path, "bad_dets.json", doc)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: result #0: unknown image 999$"):
            load_results(path, truths)


class TestJsonParseGc:
    """Documents are parsed with the cyclic GC paused, and its state is restored however the parse ends."""

    @pytest.fixture
    def gc_during_parse(self, monkeypatch):
        """A list that gains gc.isenabled() at each json.loads call."""
        seen = []
        loads = json.loads

        def recording(text):
            seen.append(gc.isenabled())
            return loads(text)

        monkeypatch.setattr(dataio.json, "loads", recording)
        return seen

    @pytest.fixture
    def gc_on(self):
        """The GC on for the test, and as it was after it."""
        was = gc.isenabled()
        gc.enable()
        yield
        if not was:
            gc.disable()

    def test_paused_while_parsing_and_restored_after(self, tmp_path, gc_on, gc_during_parse):
        load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        assert gc_during_parse == [False]
        assert gc.isenabled()

    def test_restored_after_a_parse_error(self, tmp_path, gc_on, gc_during_parse):
        with pytest.raises(ParseError):
            load_dataset(_write(tmp_path, "gt.json", "{not json"))
        assert gc_during_parse == [False]
        assert gc.isenabled()

    def test_left_off_when_it_was_off(self, tmp_path, gc_on, gc_during_parse):
        gc.disable()
        load_dataset(_write(tmp_path, "gt.json", _minimal_doc()))
        with pytest.raises(ParseError):
            load_dataset(_write(tmp_path, "bad.json", "[1,"))
        assert gc_during_parse == [False, False]
        assert not gc.isenabled()


class TestResultsRoundTrip:
    def test_document_uses_corner_form(self):
        dets = DetectionResultSet(
            [(1, ScoredBox(box=Box(25.0, 40.0, 30.0, 40.0), score=0.5, class_id=2))]
        )
        (record,) = results_document(dets)
        assert record == {
            "image_id": 1,
            "category_id": 2,
            "bbox": [10.0, 20.0, 30.0, 40.0],
            "score": 0.5,
        }

    def test_write_then_load_round_trips(self, tmp_path):
        truths, _, dets_b = pathology_fixture()
        path = tmp_path / "results.json"
        write_results(dets_b, path)
        again = load_results(path, truths)
        assert len(again) == len(dets_b)
        for got, want in zip(again, dets_b):
            assert got.image_id == want.image_id
            assert got.class_id == want.class_id
            assert got.score == want.score
            assert_boxes_close(got.box, want.box, rel=8 * 2.3e-16)

    @pytest.mark.parametrize("class_id", [2.0, np.int64(2), np.float64(2.0)], ids=["float", "np.int64", "np.float64"])
    def test_whole_valued_class_id_written_as_int_loads_back(self, tmp_path, class_id):
        truths = pathology_fixture()[0]
        box = truths.for_image(1)[0].box
        path = tmp_path / "results.json"
        write_results(DetectionResultSet([(1, ScoredBox(box, 0.5, class_id))]), path)
        assert '"category_id": 2,' in path.read_text(encoding="utf-8")
        (again,) = load_results(path, truths)
        assert type(again.class_id) is int and again.class_id == 2

    def test_dump_keeps_full_precision(self):
        score = 0.8095238095238095
        dets = DetectionResultSet(
            [(1, ScoredBox(box=Box(1.0, 1.0, 2.0, 2.0), score=score, class_id=1))]
        )
        assert repr(score) in dump_results(dets)


class TestDimensionSamples:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("# header\n\n10 13\n 16\t30 \n", encoding="utf-8")
        samples = load_dimension_samples(path)
        assert [(s.width, s.height) for s in samples] == [(10.0, 13.0), (16.0, 30.0)]

    def test_reference_fixture_loads(self):
        samples = load_dimension_samples(fixture_path("coco_anchors.txt"))
        assert len(samples) == 9
        assert (samples[0].width, samples[0].height) == (10.0, 13.0)
        assert (samples[-1].width, samples[-1].height) == (373.0, 326.0)

    def test_malformed_line_is_numbered(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("10 13\n16 30 44\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_dimension_samples(path)

    def test_non_numeric_is_numbered(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("ten thirteen\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_dimension_samples(path)

    def test_non_positive_rejected(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("10 0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="positive"):
            load_dimension_samples(path)

    @pytest.mark.parametrize("line", ["1e200 1e200", "1e-200 1e-200", "1e300 1e300"])
    def test_area_outside_the_float_range_is_numbered(self, tmp_path, line):
        path = tmp_path / "dims.txt"
        path.write_text(f"10 13\n{line}\n", encoding="utf-8")
        width, height = (float(v) for v in line.split())
        message = f"{path}: line 2: sample area must be positive and finite, got {width!r} x {height!r}"
        with pytest.raises(ParseError) as err:
            load_dimension_samples(path)
        assert str(err.value) == message

    def test_returns_an_array_backed_set(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("10 13\n16 30\n", encoding="utf-8")
        samples = load_dimension_samples(path)
        assert isinstance(samples, DimensionSamples)
        assert samples.sizes.tolist() == [[10.0, 13.0], [16.0, 30.0]]

    @pytest.mark.parametrize("text", [
        "# header\n10 13\n 16\t30 \n",
        "\n".join(f"{w}.25 {w + 1}.5" for w in range(1, 500)) + "\n",
    ])
    def test_well_formed_files_never_walk_line_by_line(self, tmp_path, monkeypatch, text):
        def walk(path, lines):
            raise AssertionError("took the line walk")

        path = tmp_path / "dims.txt"
        path.write_text(text, encoding="utf-8")
        expected = oracle_load_dimension_samples(path)
        monkeypatch.setattr(dataio, "_walk_dimension_lines", walk)
        assert np.array_equal(load_dimension_samples(path).sizes, expected)

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "  \n\t\n", "#a\n\n  # b\n"])
    def test_no_samples_is_an_empty_set_without_warnings(self, tmp_path, text):
        path = tmp_path / "dims.txt"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = load_dimension_samples(path)
        assert len(samples) == 0 and samples.sizes.shape == (0, 2)


_positive_tokens = st.one_of(
    st.floats(min_value=0.01, max_value=1e4).map(lambda v: f"{v:.2f}"),
    st.floats(min_value=5e-324, max_value=1e308).map(repr),
    st.integers(1, 10**6).map(str),
)
_wild_tokens = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from([
        "1_0", "1__0", "_1", "\u0661\u0662", "\u0661.\u0665", "\uff11\uff12", "\u00b2", "0x10", "1,5",
        "nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity", "infinity", "1e999", "-0", "0", "0.0",
        "5e-324", "1e-310", "2.2250738585072014e-308", "1.", ".5", "+4", "1E5", "1d0",
        "#", "#c", "1#", "2#c", "abc", "\x00",
    ]),
)
_gaps = st.sampled_from([" ", "\t", "  ", "\xa0", "\u2003", "\x1f"])
_edges = st.sampled_from(["", "", " ", "\t", "\xa0"])


def _lines(tokens, gaps=_gaps):
    return st.builds(lambda lead, parts, gap, tail: lead + gap.join(parts) + tail, _edges, tokens, gaps, _edges)


_good_lines = _lines(st.lists(_positive_tokens, min_size=2, max_size=2))
_any_tokens = st.one_of(_positive_tokens, _wild_tokens)
_wild_lines = _lines(
    st.one_of(st.lists(_any_tokens, min_size=2, max_size=2), st.lists(_any_tokens, max_size=4)),
    _gaps | st.just(" \x0c "),
)
_comment_lines = st.sampled_from(["# header", "#", "  # c", "#1 2", "\t#\t3 4", "", " ", "1 2 # c", "1 2 #"])
_line_ends = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"])
# Mostly well-formed files, which numpy's reader takes, with a wild line now and then.
_size_files = st.lists(
    st.tuples(st.one_of(_good_lines, _good_lines, _good_lines, _comment_lines, _wild_lines), _line_ends),
    max_size=8,
).map(lambda lines: "".join(line + end for line, end in lines))


def _load_outcome(load, path):
    try:
        return "ok", load(path)
    except ParseError as err:
        return "error", str(err)


class TestDimensionSamplesMatchLineWalk:
    """load_dimension_samples returns the per-line loader's array, or raises its exact ParseError."""

    @given(_size_files)
    @example("# header\n10 13\n")
    @example("10 13 # c\n")
    @example("")
    @example(" \n\t\n\xa0\n")
    @example("10 13\r\n16 30\r\n")
    @example("10\x0c13\n")
    @example("10\xa013\n")
    @example("1_0 13\n")
    @example("\u0661\u0662 13\n")
    @example("10 13\nnan 1\n")
    @example("inf 1\n")
    @example("10 13\n0 1\n")
    @example("-1 2\n")
    @example("5e-324 1e-310\n")
    @example("1 2 3\n")
    @example("1\n")
    @settings(max_examples=300, deadline=None)
    def test_same_array_or_same_message(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sizes.txt"
            path.write_bytes(text.encode("utf-8"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got_kind, got = _load_outcome(lambda p: load_dimension_samples(p).sizes, path)
            want_kind, want = _load_outcome(oracle_load_dimension_samples, path)
        assert got_kind == want_kind, (got, want)
        if got_kind == "error":
            assert got == want
        else:
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape and got.shape[1:] == (2,)
            assert got.tobytes() == want.tobytes()


# Every line break of str.splitlines; a file read as text breaks lines only at the first three.
_SPLITLINES_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_EDGE_LINES = [
    "10 13", "16.5 30", " 7\t9 ", "", "  ", "\t", "\ufeff10 13", "# c", "  #1 2", "1 2 3", "1_0 2", "nan 1",
    "2 inf", "0x10 2", "-1 2", "8\x1f9", "\x1f",
]


class TestDimensionSamplesMatchWalkOnLineBreaks:
    """load_dimension_samples returns the walk's array, or raises its exact ParseError, whatever breaks the lines."""

    @staticmethod
    def _check(tmp_path, text):
        path = tmp_path / "sizes.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _load_outcome(lambda p: load_dimension_samples(p).sizes.tobytes(), path)
        want = _load_outcome(lambda p: dataio._walk_dimension_lines(p, text.splitlines()).tobytes(), path)
        assert got == want, repr(text)

    @pytest.mark.parametrize("brk", _SPLITLINES_BREAKS, ids=repr)
    def test_each_break(self, tmp_path, brk):
        # Read as one line, "16<break>30" is one size; the walk reads two lines and rejects the first.
        for text in (f"16{brk}30", f"10 13{brk}16 30", f"10 13{brk}{brk}16\t30{brk}#c{brk}"):
            for end in ("", brk):
                self._check(tmp_path, text + end)

    @given(st.lists(st.tuples(st.sampled_from(_EDGE_LINES), st.sampled_from(_SPLITLINES_BREAKS)), max_size=6),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mixed_lines_and_breaks(self, lines, final_break):
        text = "".join(line + brk for line, brk in lines)
        if lines and not final_break:
            text = text[:-len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as tmp:
            self._check(Path(tmp), text)

    @pytest.mark.parametrize("name,text,as_path", [
        ("sizes.txt", "10 13\r\n16 30\r7 9\n", True),
        ("sizes", "10 13\n16 30", True),
        ("sizes.txt", "# c\n10 13\n", False),
        ("sizes.txt", "10 13\x8516 30\n", False),
        ("sizes.txt.gz", "10 13\n", False),
        ("sizes.TXT.xz", "10 13\n", False),
    ])
    def test_numpy_reads_a_plain_file_by_its_path(self, tmp_path, monkeypatch, name, text, as_path):
        seen = []

        def loadtxt(data, **kwargs):
            seen.append(data)
            return real(data, **kwargs)

        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        path = tmp_path / name
        path.write_text(text, encoding="utf-8", newline="")
        load_dimension_samples(path)
        assert [isinstance(data, str) for data in seen] == [as_path]


class TestSpeedTable:
    def test_fixture_values(self):
        table = load_speed_table(fixture_path("speed_accuracy_map.tsv"))
        assert table.columns == ("method", "time_ms", "metric")
        (row,) = table.rows
        assert row.method == "YOLOv3-320"
        assert row.time_ms == 22.0
        assert row.metric == 28.2
        assert row.cells == ("YOLOv3-320", "22", "28.2")

    def test_second_fixture(self):
        table = load_speed_table(fixture_path("speed_accuracy_ap50.tsv"))
        by_method = {row.method: row for row in table.rows}
        assert by_method["YOLOv3-608"].time_ms == 51.0
        assert by_method["YOLOv3-608"].metric == 57.9
        assert by_method["RetinaNet-101-800"].time_ms == 198.0
        assert by_method["RetinaNet-101-800"].metric == 57.5

    def test_header_checked(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("name\ttime\tvalue\nx\t1\t2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            load_speed_table(path)

    def test_cell_arity_checked(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("method\ttime_ms\tmetric\nx\t1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_speed_table(path)

    def test_time_must_be_positive(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("method\ttime_ms\tmetric\nx\t0\t50\n", encoding="utf-8")
        with pytest.raises(ParseError, match="positive"):
            load_speed_table(path)

    def test_metric_range_checked(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("method\ttime_ms\tmetric\nx\t10\t101\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"\[0, 100\]"):
            load_speed_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            load_speed_table(path)


class TestFixturePaths:
    @pytest.mark.parametrize(
        "name",
        [
            "coco_anchors.txt",
            "speed_accuracy_map.tsv",
            "speed_accuracy_ap50.tsv",
            "pathology_gt.json",
            "pathology_dets_a.json",
            "pathology_dets_b.json",
        ],
    )
    def test_shipped_files_exist(self, name):
        assert fixture_path(name).is_file()


# --- loader fuzz ------------------------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=-2, max_value=700),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.sampled_from([0.5, 640.0, 640.9, 1e308]),
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Mostly valid values, with the edge cases a loader must reject or normalise.
_sizes = st.integers(min_value=1, max_value=700) | st.sampled_from([640.0, 640.9, 0.5, -1])
_bboxes = st.lists(_sizes, min_size=4, max_size=4)


def _slots(doc):
    """Every (container, key) pair of a JSON document."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            slots.append((node, key))
            stack.append(value)
    return slots


def _mutate(draw, doc):
    """doc with up to three values replaced or deleted, or now and then any JSON value."""
    if draw(st.integers(min_value=0, max_value=9)) == 5:  # not 0, which hypothesis favours
        return draw(_json)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_numbers | _json)
    return doc


@st.composite
def _documents(draw):
    """A dataset document and a results document whose ids agree before mutation."""
    ids = st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=2, unique=True)
    image_ids, category_ids = draw(ids), draw(ids)
    dataset = {
        "images": [{"id": i, "width": draw(_sizes), "height": draw(_sizes)} for i in image_ids],
        "categories": [{"id": c, "name": draw(st.text(max_size=2))} for c in category_ids],
        "annotations": [
            {
                "id": n,
                "image_id": draw(st.sampled_from(image_ids)),
                "category_id": draw(st.sampled_from(category_ids)),
                "bbox": draw(_bboxes),
            }
            for n in range(draw(st.integers(min_value=0, max_value=2)))
        ],
    }
    results = [
        {
            "image_id": draw(st.sampled_from(image_ids)),
            "category_id": draw(st.sampled_from(category_ids)),
            "bbox": draw(_bboxes),
            "score": draw(st.floats(min_value=0.0, max_value=1.0)),
        }
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    return _mutate(draw, dataset), _mutate(draw, results)


def _assert_finite_box(box):
    assert all(math.isfinite(v) for v in (*box.corners(), box.area)) and box.width > 0 and box.height > 0


_REGISTRY = GroundTruthSet([ImageInfo(i, 640, 480) for i in (1, 2, 3)], [0, 1, 2])
# Values at the edge of a rule, by type or by size: json reads true and false as bools, and writes NaN and Infinity.
_edge_values = st.sampled_from(
    [True, False, None, "1", 10**400, -(10**400), 2**64, math.nan, math.inf, -math.inf, 1e308, 1e200, -0.0, 5e-324]
)
_coordinates = st.integers(-5, 700) | st.floats(-1e3, 1e3) | st.sampled_from([0, 0.5, 1e155, 1e200, 10**300]) | _edge_values
_sizes_ok = st.integers(1, 700) | st.floats(1e-3, 1e3) | st.sampled_from([1e-150, 1e150, 2**53 + 1])


def _record(**fields):
    record = {"image_id": 1, "category_id": 1, "bbox": [10, 20, 30.5, 40], "score": 0.5}
    record.update(fields)
    return record


def _records(sizes, scores):
    """Records of registered ids, with bbox sizes and scores drawn from sizes and scores."""
    corner = st.integers(-5, 700) | st.floats(-1e3, 1e3)
    return st.builds(
        lambda image_id, category_id, left, top, width, height, score: _record(
            image_id=image_id, category_id=category_id, bbox=[left, top, width, height], score=score
        ),
        st.sampled_from([1, 2, 3]), st.sampled_from([0, 1, 2]), corner, corner, sizes, sizes, scores,
    )


_valid_records = _records(_sizes_ok, st.floats(0.0, 1.0) | st.sampled_from([0, 1, 5e-324]))
# Numbers a rule refuses only at the extremes: an int beyond the float range, an area that overflows.
_extreme_records = _records(
    st.sampled_from([7, 1e100, 1e155, 1e200, 1e308, 10**400, math.inf, math.nan, 0, -1]),
    st.floats(0.0, 1.0) | st.sampled_from([10**400, -(10**400), 1.5, -0.5, math.nan, math.inf]),
)
_wild_values = (
    st.integers(-1, 4) | _edge_values | st.lists(_coordinates, max_size=5) | st.lists(_coordinates, min_size=4, max_size=4)
)


def _broken(record, key, value):
    """record with key deleted where value is None, else set to value."""
    record = dict(record)
    if value is None:
        del record[key]
    else:
        record[key] = value
    return record


_broken_records = st.builds(
    _broken, _valid_records, st.sampled_from(["image_id", "category_id", "bbox", "score"]), _wild_values
)
# Valid records, some with an extreme number.
_record_lists = st.lists(st.one_of(_valid_records, _valid_records, _valid_records, _extreme_records), max_size=4)
# An entry with a field broken or missing, or that is not an object.
_bad_entries = _broken_records | _edge_values


def _walk_outcome(load):
    try:
        return "ok", load()
    except (ParseError, ValidationError) as err:
        return "error", err


def _hex_fields(dets):
    """Every field of every detection, floats spelled exactly (-0.0 apart from 0.0), with its type."""
    return [
        (d.index, d.image_id, d.class_id, type(d.score), d.score.hex(),
         *((type(v), v.hex()) for v in (d.box.center_x, d.box.center_y, d.box.width, d.box.height)))
        for d in dets
    ]


class TestLoaderFuzz:
    """Any JSON document loads as a valid set or raises ParseError/ValidationError."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=100, deadline=None)
    @given(documents=_documents())
    def test_documents_load_valid_or_are_rejected(self, workdir, documents):
        dataset, results = documents
        gt_path, dets_path = _write(workdir, "gt.json", dataset), _write(workdir, "dets.json", results)
        try:
            truths = load_dataset(gt_path)
        except (ParseError, ValidationError):
            return
        assert isinstance(truths, GroundTruthSet)
        assert truths.categories and min(truths.categories) >= 0
        widths = {entry["id"]: (entry["width"], entry["height"]) for entry in dataset["images"]}
        for image_id, info in truths.images.items():
            assert type(info.width) is int and type(info.height) is int
            assert (info.width, info.height) == widths[image_id]
            for gt in truths.for_image(image_id):
                _assert_finite_box(gt.box)
        try:
            dets = load_results(dets_path, truths)
        except (ParseError, ValidationError):
            return
        assert isinstance(dets, DetectionResultSet)
        for det in dets:
            assert det.image_id in truths.images and det.class_id in truths.categories
            assert 0.0 <= det.score <= 1.0
            _assert_finite_box(det.box)

    @given(records=_record_lists, bad=_bad_entries, at=st.integers(0, 4))
    @example(records=[], bad=_record(image_id=True), at=0)
    @example(records=[], bad=_record(category_id=False), at=0)
    @example(records=[], bad=_record(score=True), at=0)
    @example(records=[], bad=_record(bbox=[0, 0, True, 5]), at=0)
    @example(records=[], bad=_record(bbox=[0, 0, 10**400, 5]), at=0)
    @example(records=[], bad=_record(score=-10**400), at=0)
    @example(records=[], bad=_record(bbox=[0, 0, 1e200, 1e200]), at=0)
    @example(records=[], bad=_record(bbox=[1e308, 0, 1e308, 5]), at=0)
    @example(records=[], bad=_record(bbox=[0, 0, math.nan, 5]), at=0)
    @example(records=[], bad=_record(score=math.nan), at=0)
    @example(records=[_record()], bad=7, at=1)
    @example(records=[], bad=_record(image_id=9), at=0)
    @example(records=[], bad=_record(bbox=[0, 0, 5]), at=0)
    @example(records=[], bad={"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]}, at=0)
    @example(records=[], bad=_record(bbox=[-0.0, 1e-310, 5e-324, 10**300]), at=0)
    @settings(max_examples=300, deadline=None)
    def test_columns_match_the_record_walk(self, records, bad, at):
        """_results_set gives the walk's set, field for field, or raises the walk's exception and message.

        Checked on the records, then with the bad entry put in among them.
        """
        for doc in (records, records[:at] + [bad] + records[at:]):
            doc = json.loads(json.dumps(doc))  # as a file holds it: NaN and Infinity included
            got_kind, got = _walk_outcome(lambda: dataio._results_set("dets.json", doc, _REGISTRY))
            want_kind, want = _walk_outcome(lambda: dataio._walk_results(doc, _REGISTRY))
            assert got_kind == want_kind, (got, want)
            if got_kind == "ok":
                assert got == want
                assert _hex_fields(got) == _hex_fields(want)
            else:
                assert (type(got), str(got)) == (type(want), str(want))


class TestColumnarResults:
    """A loaded set holds columns and builds Detection objects only when asked; evaluation asks for none."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        """A list that gains an entry for each Detection constructed while the test runs."""
        made = []
        init = metrics.Detection.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(metrics.Detection, "__init__", counting)
        return made

    def test_evaluation_of_a_loaded_set_builds_no_detection(self, constructed):
        truths = pathology_fixture()[0]
        dets = load_results(fixture_path("pathology_dets_b.json"), truths)
        evaluate(dets, truths)
        coco_ap(dets, truths)
        for class_id in truths.classes_with_truth():
            pr_curve(dets, truths, 0.5, class_id)
        assert constructed == []
        assert len(dets.detections) == len(dets) > 0  # asked for, they are built
        assert len(constructed) == len(dets)

    def test_detkit_eval_builds_no_detection(self, constructed):
        code, out, _ = run_cli(["eval", "--gt", str(fixture_path("pathology_gt.json")),
                                "--dets", str(fixture_path("pathology_dets_b.json")), "--metric", "all"])
        assert code == 0 and out
        assert constructed == []

    @pytest.mark.parametrize("name", ["pathology_dets_a.json", "pathology_dets_b.json"])
    def test_objects_built_on_demand_match_the_walk(self, name):
        truths = pathology_fixture()[0]
        doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
        columnar = dataio._results_set(name, doc, truths)
        walked = dataio._walk_results(doc, truths)
        assert columnar._detections is None
        assert _hex_fields(columnar) == _hex_fields(walked)
        assert columnar == walked

    @given(records=_record_lists)
    @settings(max_examples=100, deadline=None)
    def test_views_of_a_loaded_set_match_the_walk(self, records):
        doc = json.loads(json.dumps(records))
        try:
            walked = dataio._walk_results(doc, _REGISTRY)
        except ValidationError:
            return
        for image_id in (1, 2, 3, 4):
            columnar = dataio._results_set("dets.json", doc, _REGISTRY)
            assert [_hex_fields([d]) for d in columnar.for_image(image_id)] == [
                _hex_fields([d]) for d in walked.for_image(image_id)
            ]
        assert len(dataio._results_set("dets.json", doc, _REGISTRY)) == len(walked)
        keep = lambda d: d.score > 0.5  # noqa: E731
        assert _hex_fields(columnar.filter(keep)) == _hex_fields(walked.filter(keep))
        assert _hex_fields(list(columnar)) == _hex_fields(walked.detections)

    def test_library_built_set_keeps_its_fields(self):
        scored = ScoredBox(Box.from_corner_size(1.0, 2.0, 30, 40), 1, 2)
        dets = DetectionResultSet([(1, scored)])
        assert dets.detections[0].scored is scored
        assert dump_results(dets) == '[{"image_id": 1, "category_id": 2, "bbox": [1.0, 2.0, 30, 40], "score": 1}]'
