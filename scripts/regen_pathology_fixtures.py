#!/usr/bin/env python3
"""Rewrite the shipped pathology JSON fixtures from the programmatic definition.

The data files under src/detkit/data/ must stay loadable into sets equal to
pathology_fixture()'s output; running this after editing the fixture keeps
them in sync.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from detkit import pathology_fixture, results_document


def dataset_document(truths) -> dict:
    images = [
        {"id": info.image_id, "width": info.width, "height": info.height}
        for info in truths.images.values()
    ]
    categories = [{"id": c, "name": name} for c, name in sorted(truths.categories.items())]
    annotations = []
    next_id = 1
    for image_id in truths.image_ids:
        for gt in truths.for_image(image_id):
            box = gt.box
            annotations.append({
                "id": next_id,
                "image_id": gt.image_id,
                "category_id": gt.class_id,
                "bbox": [box.left, box.top, box.width, box.height],
            })
            next_id += 1
    return {"images": images, "annotations": annotations, "categories": categories}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(ROOT / "src" / "detkit" / "data"), help="target directory")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truths, dets_a, dets_b = pathology_fixture()

    targets = {
        "pathology_gt.json": dataset_document(truths),
        "pathology_dets_a.json": results_document(dets_a),
        "pathology_dets_b.json": results_document(dets_b),
    }
    for name, doc in targets.items():
        path = out / name
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
