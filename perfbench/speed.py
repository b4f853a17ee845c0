"""Fixed reference tasks that measure how fast the machine runs right now.

On a shared host the CPU speed a process gets swings by 1.5x or more, in
phases lasting from seconds to minutes, so two runs of the same code can
differ by more than any useful bound.  The benchmark therefore runs this
task between operations and scales each operation's wall time by
``REFERENCE_S / calibration time``, using the mean of the passes just before
and just after it.  The result is the operation's time at the speed at which
one calibration pass takes ``REFERENCE_S``, which is about the quiet speed of
the 2-vCPU Xeon (2.1 GHz) the benchmark was built on.

The calibration task mixes the two kinds of work detkit does, interpreted
Python over small tuples, dicts and strings (as in evaluation, NMS, decoding
and parsing) and numpy array passes (as in anchor k-means), in about equal
shares of time.  Import time slows by more than that task when the machine
is busy, so the import probes behind setup_s are scaled by a reference import
instead: a fresh interpreter importing a fixed set of standard-library
modules, which does the same kind of work (finding, reading and unmarshalling
files, running module bodies).

Neither task touches detkit, and neither may change: they are the yardsticks
by which times of different commits are compared.
"""

from __future__ import annotations

import random
import subprocess
import sys
from time import perf_counter

import numpy as np

# Time of one calibration pass on a quiet reference machine, in seconds.
REFERENCE_S = 0.045
# Time of the reference import on the same machine, in seconds.
IMPORT_REFERENCE_S = 0.06
IMPORT_TASK = (
    "import time; t = time.perf_counter(); "
    "import asyncio, csv, decimal, email.mime.multipart, fractions, http.client, logging.handlers, "
    "statistics, tarfile, unittest, urllib.request, xml.dom.minidom, zipfile; "
    "print(time.perf_counter() - t)"
)

_rng = random.Random(20180408)
_BOXES = [
    (_rng.uniform(0, 500), _rng.uniform(0, 400), _rng.uniform(5, 100), _rng.uniform(5, 100))
    for _ in range(400)
]
_SIZES = np.random.default_rng(20180408).random((20_000, 2)) * 100.0 + 1.0
_BLOCK = 2_000
_CENTROIDS = np.random.default_rng(1804).random((9, 2)) * 100.0 + 1.0


def _python_work() -> float:
    groups: dict[int, list[tuple[float, float, float, float]]] = {}
    for i, (x, y, w, h) in enumerate(_BOXES):
        groups.setdefault(i % 17, []).append((x, y, x + w, y + h))
    best = 0.0
    for boxes in groups.values():
        for a in boxes:
            for b in boxes:
                iw = min(a[2], b[2]) - max(a[0], b[0])
                ih = min(a[3], b[3]) - max(a[1], b[1])
                if iw > 0 and ih > 0:
                    inter = iw * ih
                    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
                    best = max(best, inter / union)
    text = "".join(f"{b[0]:.2f} {b[1]:.2f}\n" for b in sorted(_BOXES, key=lambda b: b[2] * b[3]))
    return best + len(text)


def _numpy_work() -> float:
    # Blocks of _BLOCK rows keep every temporary small, so that the task
    # leaves the process's peak memory, which peak_rss_mb reports, alone.
    total = 0
    for _ in range(3):
        for first in range(0, len(_SIZES), _BLOCK):
            sizes = _SIZES[first:first + _BLOCK]
            inter = np.minimum(sizes[:, None, 0], _CENTROIDS[None, :, 0]) * np.minimum(
                sizes[:, None, 1], _CENTROIDS[None, :, 1]
            )
            iou = inter / (sizes.prod(axis=1)[:, None] + _CENTROIDS.prod(axis=1)[None, :] - inter)
            total += int(iou.argmax(axis=1).sum())
    return float(total)


def calibration_pass() -> float:
    """Run the calibration task once; return its wall time in seconds."""
    start = perf_counter()
    for _ in range(2):
        _python_work()
        _python_work()
        _numpy_work()
    return perf_counter() - start


def timed_child(code: str, *args: str) -> float:
    """Run ``python -c code args`` in a fresh interpreter; return the seconds it prints."""
    child = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip())


def import_reference_pass() -> float:
    """Run the reference import once; return its time in seconds."""
    return timed_child(IMPORT_TASK)
