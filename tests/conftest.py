"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import builtins
import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import strategies as st

import oracles
from detkit.cli import main
from detkit.geometry import Box, ScoredBox


def finite_floats(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# Centers roam widely, sizes stay positive and well away from underflow.
boxes = st.builds(
    Box,
    center_x=finite_floats(-1e4, 1e4),
    center_y=finite_floats(-1e4, 1e4),
    width=finite_floats(1e-2, 1e3),
    height=finite_floats(1e-2, 1e3),
)

# Boxes confined to a 100x100 canvas so random pairs actually overlap.
canvas_boxes = st.builds(
    Box,
    center_x=finite_floats(5.0, 95.0),
    center_y=finite_floats(5.0, 95.0),
    width=finite_floats(2.0, 60.0),
    height=finite_floats(2.0, 60.0),
)

scored_boxes = st.builds(
    ScoredBox,
    box=canvas_boxes,
    score=finite_floats(0.0, 1.0),
    class_id=st.integers(min_value=0, max_value=2),
)


def assert_boxes_close(a: Box, b: Box, rel: float = 1e-9) -> None:
    scale = max(
        1.0,
        abs(a.center_x), abs(a.center_y), a.width, a.height,
        abs(b.center_x), abs(b.center_y), b.width, b.height,
    )
    for got, want in zip(
        (a.center_x, a.center_y, a.width, a.height),
        (b.center_x, b.center_y, b.width, b.height),
    ):
        assert math.isfinite(got)
        assert abs(got - want) <= rel * scale, (a, b)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in process, capturing exit code, stdout, and stderr."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits instead of returning
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


def left_to_right_sum(values, start=0):
    """sum() as Python added floats before 3.12: left to right, uncompensated."""
    total = start
    for value in values:
        total = total + value
    return total


def under_both_sums(monkeypatch, compute):
    """compute() with builtins.sum adding left to right, then with it compensated as from Python 3.12.

    An output that reads the builtin sum anywhere differs between the two on
    enough inputs, whatever the interpreter's own sum does.
    """
    results = []
    for stand_in in (left_to_right_sum, oracles.compensated_sum):
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", stand_in)
            results.append(compute())
    return results
