"""Record the reference output digest of every workload for a range of seeds.

    python3 perfbench/record.py --seeds 0-99 --jobs 2

For each (workload, seed) it runs one operation and stores the SHA-256 of its
output (eval JSON stdout, anchors stdout, the dumped post-processing results)
in perfbench/reference.json, which run.py checks every operation against.
Record at a commit whose outputs are trusted; later rewrites of the program
must reproduce these bytes.  Changing a generator in workloads.py changes the
inputs, so the digests must then be recorded again.

Before a seed's coco-sparse digest is stored, the same generator at a
reduced size (REDUCED, 4 images) is scored by the CLI and by the
exact-rational oracle in tests/oracles.py, and voc50, global_ap and
per_image_ap must agree to 1e-12, so the digests are more than
self-consistent.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import run

run.import_detkit()
sys.path.insert(0, str(run.ROOT / "tests"))

import oracles  # noqa: E402
import workloads  # noqa: E402

REDUCED = replace(workloads.COCO_SPARSE, images=4)
TOLERANCE = 1e-12


def oracle_check(seed: int, workdir: Path) -> None:
    """Score a reduced coco-sparse instance with the CLI and the oracle; raise if they disagree."""
    dataset, results = workloads.eval_documents(REDUCED, seed)
    scenario = oracles.Scenario(
        images=tuple(image["id"] for image in dataset["images"]),
        classes=tuple(category["id"] for category in dataset["categories"]),
        gts=tuple(
            (ann["image_id"], ann["category_id"], _corners(ann["bbox"])) for ann in dataset["annotations"]
        ),
        dets=tuple(
            (rec["image_id"], rec["category_id"], rec["score"], _corners(rec["bbox"])) for rec in results
        ),
    )
    gt_path, dets_path = workdir / "reduced-gt.json", workdir / "reduced-dets.json"
    gt_path.write_text(json.dumps(dataset), encoding="utf-8")
    dets_path.write_text(json.dumps(results), encoding="utf-8")
    report = json.loads(workloads.cli_output(
        ["eval", "--gt", str(gt_path), "--dets", str(dets_path), "--metric", "all", "--format", "json"]
    ))
    expected = {
        "voc50": oracles.oracle_map_voc(scenario),
        "global_ap": oracles.oracle_global_ap(scenario),
        "per_image_ap": oracles.oracle_per_image_ap(scenario),
    }
    for field, exact in expected.items():
        if abs(report[field] - float(exact)) > TOLERANCE:
            raise AssertionError(f"seed {seed}: {field} {report[field]!r} != oracle {float(exact)!r}")


def _corners(bbox: list[int]) -> tuple[int, int, int, int]:
    left, top, width, height = bbox
    return (left, top, left + width, top + height)


def record_one(workload: str, seed: int) -> str:
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        if workload == "coco-sparse":
            oracle_check(seed, workdir)
        return run.digest(workloads.WORKLOADS[workload].prepare(seed, workdir).run())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-99"), help="inclusive range, e.g. 0-99")
    parser.add_argument("--jobs", type=int, default=1, help=f"worker processes, at most {os.cpu_count()}")
    args = parser.parse_args()
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        parser.error(f"--jobs must lie in [1, {os.cpu_count()}]")

    tasks = [(w, s) for w in workloads.WORKLOADS for s in args.seeds]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=context) as pool:
        futures = [pool.submit(record_one, w, s) for w, s in tasks]
        digests = [future.result() for future in futures]
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8")) if run.REFERENCE.is_file() else {}
    for (workload, seed), value in zip(tasks, digests):
        reference.setdefault(workload, {})[str(seed)] = value
    for workload in reference:
        reference[workload] = dict(sorted(reference[workload].items(), key=lambda item: int(item[0])))
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(tasks)} digests for seeds {args.seeds.start}-{args.seeds.stop - 1} into {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
