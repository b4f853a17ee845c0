"""The scripts under scripts/, run as a user runs them: by path, from outside the repository."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

PATHOLOGY_TSV = (
    "metric\tdetector_a\tdetector_b\n"
    "voc50\t1.000000\t1.000000\n"
    "ap\t1.000000\t1.000000\n"
    "ap50\t1.000000\t1.000000\n"
    "ap75\t1.000000\t1.000000\n"
    "ap_small\tNA\tNA\n"
    "ap_medium\tNA\tNA\n"
    "ap_large\t1.000000\t1.000000\n"
    "global_ap\t1.000000\t0.809524\n"
    "per_image_ap\t1.000000\t0.833333\n"
    "ap50[person]\t1.000000\t1.000000\n"
    "ap50[dog]\t1.000000\t1.000000\n"
)

PATHOLOGY_JSON = (
    "{\n"
    '  "detector_a": {\n'
    '    "voc50": 1.0,\n'
    '    "ap": 1.0,\n'
    '    "ap50": 1.0,\n'
    '    "ap75": 1.0,\n'
    '    "ap_small": null,\n'
    '    "ap_medium": null,\n'
    '    "ap_large": 1.0,\n'
    '    "global_ap": 1.0,\n'
    '    "per_image_ap": 1.0,\n'
    '    "per_class_ap": {\n'
    '      "1": 1.0,\n'
    '      "2": 1.0\n'
    "    }\n"
    "  },\n"
    '  "detector_b": {\n'
    '    "voc50": 1.0,\n'
    '    "ap": 1.0,\n'
    '    "ap50": 1.0,\n'
    '    "ap75": 1.0,\n'
    '    "ap_small": null,\n'
    '    "ap_medium": null,\n'
    '    "ap_large": 1.0,\n'
    '    "global_ap": 0.8095238095238095,\n'
    '    "per_image_ap": 0.8333333333333333,\n'
    '    "per_class_ap": {\n'
    '      "1": 1.0,\n'
    '      "2": 1.0\n'
    "    }\n"
    "  }\n"
    "}\n"
)

# Every public metric view over tests/oracles.py's random scenarios, seeds 0-299.  Views that agree bit for bit
# on every interpreter and numpy version print this digest; a change that moves any last bit does not.
VIEW_DIGEST_0_299 = "c6f0f444be7d79dca597ea0d20b2558e61f4dbba3432424c8c9704d0c7ae30af"


@pytest.mark.parametrize("fmt, want", [("tsv", PATHOLOGY_TSV), ("json", PATHOLOGY_JSON)])
def test_pathology_report_golden(tmp_path, fmt, want):
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "pathology_report.py"), "--format", fmt],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == want


def _run(tmp_path, script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path, capture_output=True, text=True, check=False,
    )


def test_view_digest_is_pinned(tmp_path):
    run = _run(tmp_path, "view_digest.py", "--seeds", "0-299")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"{VIEW_DIGEST_0_299}  300 scenarios\n"


def test_view_digest_reads_a_seed_list(tmp_path):
    spelled = [_run(tmp_path, "view_digest.py", "--seeds", seeds).stdout for seeds in ("0-2,5", "0,1,2,5", "0-3")]
    assert spelled[0] == spelled[1] != spelled[2]
    assert spelled[0].endswith("  4 scenarios\n")
