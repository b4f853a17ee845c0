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
from detkit.cli import _METRIC_FIELDS, _report_document, _side_by_side


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    args = parser.parse_args()

    truths, dets_a, dets_b = pathology_fixture()
    a, b = evaluate(dets_a, truths), evaluate(dets_b, truths)

    if args.format == "json":
        doc = {"detector_a": _report_document(a, "all"), "detector_b": _report_document(b, "all")}
        print(json.dumps(doc, indent=2))
        return 0

    rows = [(field, getattr(a, field), getattr(b, field)) for field in _METRIC_FIELDS["all"]]
    for c in truths.classes_with_truth():
        rows.append((f"ap50[{truths.categories[c]}]", a.per_class_ap[c], b.per_class_ap[c]))
    print(_side_by_side(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
