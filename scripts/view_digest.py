#!/usr/bin/env python3
"""Print one SHA-256 over the repr of every public metric view on seeded random scenarios.

For each seed, builds tests/oracles.py's random_scenario and records the repr
of: evaluate at IOU 0.5 and 0.3, coco_ap, ap_by_area for each size band,
global_ap and per_image_ap at IOU 0, 0.5 and 0.7, per_class_ap at IOU 0.5 in
both interpolation modes, pr_curve at IOU 0.5 for every declared class, and
match at IOU 0.5 for every (image, class).  A view that raises a documented
error records its type and message instead.  Two source trees whose views agree
bit for bit print the same digest.

    python scripts/view_digest.py --seeds 0-1999

It imports detkit from this tree's src, and runs from any directory.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # tests/oracles.py
from check_reference_digests import parse_seeds
from detkit import (
    AREA_BANDS, INTERPOLATION_MODES, ap_by_area, coco_ap, evaluate, global_ap, match, per_class_ap, per_image_ap,
    pr_curve,
)


def _outcome(view, *args) -> str:
    try:
        return repr(view(*args))
    except (KeyError, ValueError) as err:  # the library's documented errors; any other stops the run
        return f"{type(err).__name__}: {err}"


def views(seed: int) -> list[str]:
    """The repr of every public view on one seeded scenario, in a fixed order."""
    scenario = oracles.random_scenario(seed)
    dets, truths = oracles.to_library(scenario)
    out = [_outcome(evaluate, dets, truths, t) for t in (0.5, 0.3)]
    out.append(_outcome(coco_ap, dets, truths))
    out.extend(_outcome(ap_by_area, dets, truths, band) for band in AREA_BANDS)
    for t in (0.0, 0.5, 0.7):
        out.extend((_outcome(global_ap, dets, truths, t), _outcome(per_image_ap, dets, truths, t)))
    out.extend(_outcome(per_class_ap, dets, truths, 0.5, mode) for mode in INTERPOLATION_MODES)
    out.extend(_outcome(pr_curve, dets, truths, 0.5, c) for c in scenario.classes)
    out.extend(_outcome(match, dets, truths, 0.5, c, i) for i in scenario.images for c in scenario.classes)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-1999"), help="default: 0-1999")
    args = parser.parse_args()
    digest = hashlib.sha256()
    for seed in args.seeds:
        for text in views(seed):
            digest.update(text.encode() + b"\n")
    print(f"{digest.hexdigest()}  {len(args.seeds)} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
