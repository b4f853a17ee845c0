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


@pytest.mark.parametrize("fmt, want", [("tsv", PATHOLOGY_TSV), ("json", PATHOLOGY_JSON)])
def test_pathology_report_golden(tmp_path, fmt, want):
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "pathology_report.py"), "--format", fmt],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == want
