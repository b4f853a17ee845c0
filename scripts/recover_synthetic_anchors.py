#!/usr/bin/env python3
"""Plant well-separated size clusters, refit them, and report recovery error.

Example:
    python scripts/recover_synthetic_anchors.py --clusters 3 --per-cluster 500 --jitter 0.05
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from detkit import DimensionSamples, kmeans_anchors


def planted_centers(k: int, rng: np.random.Generator) -> list[tuple[float, float]]:
    # geometric spacing keeps every pair of clusters far apart in IOU
    sizes = np.geomspace(16.0, 360.0, k)
    return [(float(s), float(s * rng.uniform(0.6, 1.6))) for s in sizes]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--per-cluster", type=int, default=500)
    parser.add_argument("--jitter", type=float, default=0.05, help="relative size noise")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--distance", choices=("iou", "euclidean"), default="iou")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    centers = planted_centers(args.clusters, rng)
    # One (width, height) jitter pair per sample, cluster after cluster.
    jitter = rng.uniform(-args.jitter, args.jitter, (args.clusters, args.per_cluster, 2))
    sizes = (np.array(centers)[:, None, :] * (1.0 + jitter)).reshape(-1, 2)

    result = kmeans_anchors(DimensionSamples(sizes), k=args.clusters, seed=args.seed, distance=args.distance)
    fitted = sorted(((c.width, c.height) for c in result.centroids), key=lambda c: c[0] * c[1])
    planted = sorted(centers, key=lambda c: c[0] * c[1])

    print(f"objective {result.objective:.6f} after {len(result.objective_history)} recorded steps")
    print("planted_w\tplanted_h\tfitted_w\tfitted_h\trel_err")
    worst = 0.0
    for (pw, ph), (fw, fh) in zip(planted, fitted):
        err = max(abs(fw - pw) / pw, abs(fh - ph) / ph)
        worst = max(worst, err)
        print(f"{pw:.1f}\t{ph:.1f}\t{fw:.1f}\t{fh:.1f}\t{err:.4f}")
    print(f"worst relative error {worst:.4f}")
    return 0 if worst < 5 * args.jitter else 1


if __name__ == "__main__":
    sys.exit(main())
