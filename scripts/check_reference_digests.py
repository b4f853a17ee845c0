#!/usr/bin/env python3
"""Check benchmark outputs against the digests recorded in perfbench/reference.json.

For every chosen workload and seed, prepares the seeded inputs, runs one
operation in this process, and compares the SHA-256 of its output with the
recorded digest.  Prints one line per (workload, seed) that differs or has no
recorded digest, and exits 1 if there is any; otherwise exits 0.

    python scripts/check_reference_digests.py --workload coco-sparse --seeds 0-199
    python scripts/check_reference_digests.py --seeds 0-9,150

It uses perfbench's own workloads and digest, and runs from any directory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # perfbench/run.py


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list such as "0-199" or "0-9,150"; ranges include both ends."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES, action="append",
                        help="a workload to check (repeatable); default: every workload")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-199"), help="default: 0-199")
    args = parser.parse_args()

    run.import_detkit()
    from workloads import WORKLOADS

    mismatched = 0
    for name in args.workload or run.WORKLOAD_NAMES:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                got = run.digest(WORKLOADS[name].prepare(seed, Path(workdir)).run())
            want = run.expected_digest(name, seed)
            if got != want:
                mismatched += 1
                print(f"{name} seed {seed}: output {got} != reference {want}")
        print(f"{name}: {len(args.seeds)} seeds checked", flush=True)
    if mismatched:
        print(f"{mismatched} mismatching (workload, seed) pairs")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
