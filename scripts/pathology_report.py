#!/usr/bin/env python3
"""Side-by-side metric report for the two built-in pathology detectors.

Detector A emits three confident, correct boxes.  Detector B keeps every true
box but adds low-scoring spurious ones whose scores still beat another class's
true detections.  The per-class mean cannot tell the two apart; the pooled
rankings can.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from detkit import evaluate, pathology_fixture

FIELDS = (
    "voc50", "ap", "ap50", "ap75",
    "ap_small", "ap_medium", "ap_large",
    "global_ap", "per_image_ap",
)


def fmt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    args = parser.parse_args()

    truths, dets_a, dets_b = pathology_fixture()
    reports = {"detector_a": evaluate(dets_a, truths), "detector_b": evaluate(dets_b, truths)}

    if args.format == "json":
        doc = {
            name: {
                **{field: getattr(report, field) for field in FIELDS},
                "per_class_ap": {str(c): ap for c, ap in sorted(report.per_class_ap.items())},
            }
            for name, report in reports.items()
        }
        print(json.dumps(doc, indent=2))
        return 0

    print("metric\tdetector_a\tdetector_b")
    for field in FIELDS:
        a = fmt(getattr(reports["detector_a"], field))
        b = fmt(getattr(reports["detector_b"], field))
        print(f"{field}\t{a}\t{b}")
    names = dict(truths.categories)
    for c in sorted(truths.classes_with_truth()):
        a = fmt(reports["detector_a"].per_class_ap[c])
        b = fmt(reports["detector_b"].per_class_ap[c])
        print(f"ap50[{names[c]}]\t{a}\t{b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
