"""The order rules every output rests on, each stated once in geometry, and the one results writer.

_visit_order is the one visit order of every ranking and greedy pass: a
float64 score column ranked by descending score, ties in input order.
_ranked is the one pair order, in which every greedy match scan reads its
candidates: by row, then descending value, then lower column.  _sum_in_order
is the one sum behind every mean and loss: left to right, as sum() added
floats before Python 3.12 compensated it.  dataio.results_document is the one
code that writes a results record.  The guard below reads the package source,
so a second copy of any of them cannot come back unnoticed: a score sort is
one that reads an object's .score or a score column by name.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import detkit
import oracles
from conftest import finite_floats
from detkit.geometry import _ranked, _sum_in_order, _visit_order

SOURCES = sorted(Path(detkit.__file__).parent.glob("*.py"))

# The one place a sort may read a score: (module, enclosing function).
VISIT_ORDER_SITE = ("geometry", "_visit_order")

SORTS = ("sorted", "sort", "argsort", "lexsort")

# The one place a pair order is stated: the one lexsort in the package.
PAIR_ORDER_SITE = ("geometry", "_ranked")

# The keys of a results record, and the one function that may build a dict holding them all.
RECORD_KEYS = {"image_id", "category_id", "bbox", "score"}
RECORD_WRITER_SITE = ("dataio", "results_document")


def _reads_score(node: ast.AST) -> bool:
    """True where node reads an object's .score, or a score column by its name: scores or columns.scores."""
    return any(
        isinstance(n, ast.Attribute) and n.attr in ("score", "scores") or isinstance(n, ast.Name) and n.id == "scores"
        for n in ast.walk(node)
    )


class _OrderRuleFinder(ast.NodeVisitor):
    """Collects builtin sum() calls, sorts whose arguments or key read a score, lexsorts, and dicts with every results-record key.

    A dict counts whether it is a display or a dict() call with keywords.
    Sorts, lexsorts and dicts are collected with their enclosing function.
    """

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.sums: list[tuple[str, int]] = []
        self.score_sorts: list[tuple[str, str | None, int]] = []
        self.lexsorts: list[tuple[str, str | None, int]] = []
        self.records: list[tuple[str, str | None, int]] = []

    def _site(self, node: ast.AST) -> tuple[str, str | None, int]:
        return self.module, self.scope[-1] if self.scope else None, node.lineno

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if isinstance(func, ast.Name) and name == "sum":
            self.sums.append((self.module, node.lineno))
        if name in SORTS and any(_reads_score(arg) for arg in [*node.args, *(kw.value for kw in node.keywords)]):
            self.score_sorts.append(self._site(node))
        if name == "lexsort":
            self.lexsorts.append(self._site(node))
        if isinstance(func, ast.Name) and name == "dict" and RECORD_KEYS <= {kw.arg for kw in node.keywords}:
            self.records.append(self._site(node))
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        if RECORD_KEYS <= {key.value for key in node.keys if isinstance(key, ast.Constant)}:
            self.records.append(self._site(node))
        self.generic_visit(node)


def _find(source: str, module: str) -> _OrderRuleFinder:
    finder = _OrderRuleFinder(module)
    finder.visit(ast.parse(source))
    return finder


class TestOneCopyOfEachRule:
    def test_no_builtin_sum_in_the_package(self):
        found = [hit for path in SOURCES for hit in _find(path.read_text(encoding="utf-8"), path.stem).sums]
        assert found == []

    def test_only_the_visit_order_sorts_by_score(self):
        found = [hit for path in SOURCES for hit in _find(path.read_text(encoding="utf-8"), path.stem).score_sorts]
        assert [(module, scope) for module, scope, _ in found] == [VISIT_ORDER_SITE]

    def test_only_the_pair_order_lexsorts(self):
        found = [hit for path in SOURCES for hit in _find(path.read_text(encoding="utf-8"), path.stem).lexsorts]
        assert [(module, scope) for module, scope, _ in found] == [PAIR_ORDER_SITE]

    def test_the_guard_sees_both_kinds_of_copy(self):
        # The two score sorts and the hand sum the rules replaced, as they would read if put back,
        # and a copy of the visit order over a score column.
        finder = _find(
            "def _sweep_order(detections):\n"
            "    return sorted(detections, key=lambda d: (-d.score, d.index))\n"
            "def nms(detections):\n"
            "    return sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))\n"
            "def _mean(values):\n"
            "    return sum(values) / len(values)\n"
            "def _sweep(columns):\n"
            "    return np.argsort(-columns.scores, kind='stable')\n",
            "metrics",
        )
        assert finder.score_sorts == [("metrics", "_sweep_order", 2), ("metrics", "nms", 4), ("metrics", "_sweep", 8)]
        assert finder.sums == [("metrics", 6)]

    def test_only_results_document_writes_a_record(self):
        found = [hit for path in SOURCES for hit in _find(path.read_text(encoding="utf-8"), path.stem).records]
        assert found and {(module, scope) for module, scope, _ in found} == {RECORD_WRITER_SITE}

    def test_the_guard_sees_a_second_writer(self):
        # The second writer the one writer replaced, and one spelled as a dict() call.
        finder = _find(
            "def _record_as_read(entry):\n"
            "    return {\n"
            "        'image_id': entry['image_id'], 'category_id': entry['category_id'],\n"
            "        'bbox': [float(v) for v in entry['bbox']], 'score': float(entry['score']),\n"
            "    }\n"
            "def _survivor(det, bbox):\n"
            "    return dict(image_id=det.image_id, category_id=det.class_id, bbox=bbox, score=det.score, id=7)\n"
            "TEMPLATE = {'image_id': 0, 'category_id': 0, 'bbox': []}\n",
            "cli",
        )
        assert finder.records == [("cli", "_record_as_read", 2), ("cli", "_survivor", 7)]


# Scores that compare equal in several spellings (0, 0.0 and -0.0; 1 and 1.0), subnormals, and any in [0, 1].
tied_scores = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5]) | st.floats(0.0, 1.0)


class TestVisitOrder:
    @given(st.lists(tied_scores, max_size=80))
    @example([0.5] * 40 + [0, -0.0, 0.0, 1, 1.0] * 8)
    def test_is_descending_score_then_input_position(self, scores):
        assert _visit_order(np.array(scores, dtype=np.float64)).tolist() == sorted(
            range(len(scores)), key=lambda i: (-scores[i], i)
        )


# Pair values with ties across spellings (0.0 and -0.0), the infinities, and any finite float.
pair_values = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.5, 1.0]) | st.floats(allow_nan=False)


class TestRanked:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), pair_values), max_size=60))
    @example([(1, 2, 0.0), (1, 0, -0.0), (0, 3, math.inf), (1, 1, -0.0), (0, 0, -math.inf), (1, 0, 0.0)])
    @example([(2, 1, 0.5)] * 3 + [(0, 1, 0.5)] * 2)
    def test_is_row_then_descending_value_then_column(self, pairs):
        rows, cols, values = ([pair[k] for pair in pairs] for k in range(3))
        got = _ranked(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(values, dtype=np.float64))
        assert got.tolist() == sorted(range(len(pairs)), key=lambda i: (rows[i], -values[i], cols[i]))


class TestSumInOrder:
    @given(st.lists(finite_floats(-1e300, 1e300), max_size=60))
    def test_is_the_left_to_right_loop(self, values):
        total = 0.0
        for value in values:
            total += value
        assert _sum_in_order(values).hex() == total.hex()
        assert _sum_in_order(iter(values)).hex() == total.hex()

    def test_is_not_the_compensated_sum(self):
        values = [0.1] * 10
        assert _sum_in_order(values) == 0.9999999999999999
        assert oracles.compensated_sum(values) == 1.0
