"""detkit benchmark: seeded workloads through the public entry points.

One workload, one run (the last stdout line is the
JSON result):

    python3 perfbench/run.py --workload coco-sparse --seed 1 --seconds 20 --trace 0

Every workload, each in a fresh interpreter, untraced and then traced, with
a summary table (and the same as JSON with --out):

    python3 perfbench/run.py --all --seed 0 --seconds 20

Proof that the output check bites (a wrong reference fails every operation):

    python3 perfbench/run.py --self-check

The load is a closed loop with one caller: each operation starts when the
previous one returns.  Input generation is not timed.  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced operations and reports the per-layer metrics of the fastest traced
operation, plus the tracing overhead: median traced over median untraced
operation time.

Times are taken at reference speed.  On the shared 2-vCPU machine the
benchmark was built on, CPU speed swings by 1.5x or more in phases lasting
from seconds to minutes, and neither the median nor the fastest operation of
a run held still from run to run.  So a fixed calibration task (speed.py)
runs between operations and between setup probes, and each wall time is
scaled by the reference time of that task over the mean of its passes just
before and just after.  The import probes behind setup_s are scaled the same
way by a reference import of standard-library modules.  op_s is the median
of the scaled operation times and setup_s the median of the scaled import
times.  The raw wall times are printed for information.

Run from the root of a detkit source tree: the package is imported from
./src, and temporary files go under ./.perfbench-work.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("coco-sparse", "yolo-postprocess", "anchors-fit")

SETUP_PROBES = 15
MIN_OPS = 3  # per timed series, even when one operation outlasts the run
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import detkit.cli; print(time.perf_counter() - t)"
)
END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Timed:
    """A wall time and the times of the reference task run just before and after it."""

    wall: float
    before: float
    after: float
    reference_s: float = speed.REFERENCE_S  # the reference task's time at reference speed

    @property
    def scaled(self) -> float:
        """The wall time at reference speed."""
        return self.wall * self.reference_s / ((self.before + self.after) / 2)


def import_detkit() -> None:
    """Import detkit from this tree's src, and refuse to run without it."""
    if not (SRC / "detkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no detkit sources under {SRC}; run from a detkit source tree")
    sys.path.insert(0, str(SRC))
    import detkit

    if Path(detkit.__file__).resolve().parent != SRC / "detkit":
        sys.exit(f"perfbench: imported detkit from {detkit.__file__}, not from {SRC}")


def setup_probe() -> float:
    """Import time of detkit.cli in a fresh interpreter."""
    return speed.timed_child(IMPORT_PROBE, str(SRC))


def expected_digest(workload: str, seed: int) -> str | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_workload(name: str, seed: int, seconds: float, traced: bool, wrong_reference: bool) -> dict:
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        prepared = workload.prepare(seed, workdir)
        reference = "0" * 64 if wrong_reference else expected_digest(name, seed)
        print(f"{name} seed {seed} inputs: " + ", ".join(f"{k}={v}" for k, v in prepared.counts.items()))
        if reference is None:
            print(f"{name} seed {seed}: no recorded reference digest; checking that every operation agrees")

        tracer = tracing.Tracer() if traced else None
        setup: list[Timed] = []
        plain: list[Timed] = []
        traced_ops: list[Timed] = []
        first = None
        attempted = failed = 0

        def enough() -> bool:
            return len(plain) >= MIN_OPS and (not traced or len(traced_ops) >= MIN_OPS)

        def probe_setup() -> None:
            nonlocal imported
            probe = setup_probe()
            after = speed.import_reference_pass()
            setup.append(Timed(probe, imported, after, speed.IMPORT_REFERENCE_S))
            imported = after

        imported = 0.0 if traced else speed.import_reference_pass()
        speed.calibration_pass()  # warm-up
        calibrated = speed.calibration_pass()
        start = perf_counter()
        while perf_counter() - start < seconds or not enough():
            # Setup probes are spread over the run, so that their median is
            # not the machine's speed during one second of it.
            due = 0 if traced else SETUP_PROBES * min(1.0, (perf_counter() - start) / seconds)
            if len(setup) < due:
                while len(setup) < due:
                    probe_setup()
                calibrated = speed.calibration_pass()
            trace_this = traced and len(traced_ops) < len(plain)
            if trace_this:
                tracer.install()
            gc.collect()
            attempted += 1
            began = perf_counter()
            try:
                output = prepared.run()
            except Exception:
                traceback.print_exc()
                output = None
            elapsed = perf_counter() - began
            if trace_this:
                tracer.uninstall()
                tracer.end_op()
            after = speed.calibration_pass()
            (traced_ops if trace_this else plain).append(Timed(elapsed, calibrated, after))
            calibrated = after
            out_digest = None if output is None else digest(output)
            first = first or out_digest
            if out_digest is None or out_digest != (reference or first):
                failed += 1
                print(f"{name} seed {seed}: operation {attempted} output {out_digest} != reference {reference or first}")
        while not traced and len(setup) < SETUP_PROBES:
            probe_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result: dict = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    op_s = statistics.median(op.scaled for op in plain)
    if not traced:
        values = {
            "setup_s": statistics.median(probe.scaled for probe in setup),
            "op_s": op_s,
            "items_per_s": prepared.items / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        wall = [op.wall for op in plain]
        imports = (f"median of {len(setup)} probes at reference speed; wall time median "
                   f"{statistics.median(probe.wall for probe in setup):.4f} s")
        ops = (f"median of {len(plain)} ops at reference speed; wall time median "
               f"{statistics.median(wall):.4f} s, fastest {min(wall):.4f} s, "
               f"p90 {statistics.quantiles(wall, n=10)[-1]:.4f} s")
        for key, value in values.items():
            note = {"setup_s": f"  ({imports})", "op_s": f"  ({ops})", "items_per_s": f"  ({workload.item})"}.get(key, "")
            print(f"{name} {key} = {value:.6g} {units[key]}{note}")
        print(f"{name} fail_ratio = {failed / attempted:.6g} failed/attempted")
        result["metrics"] = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
        return result

    fastest = min(range(len(traced_ops)), key=lambda i: traced_ops[i].wall)
    values = tracer.op_metrics(fastest, prepared.counts)
    values["trace.overhead_ratio"] = statistics.median(op.scaled for op in traced_ops) / op_s
    tracer.write(WORK / "traces" / f"{name}-seed{seed}.jsonl")
    print(f"{name} traced ops {len(traced_ops)}, untraced ops {len(plain)}, at reference speed median traced "
          f"{values['trace.overhead_ratio'] * op_s:.4f} s / untraced {op_s:.4f} s")
    print(f"{name} spans of the fastest traced operation: calls, total s, self s")
    for span_name, row in sorted(tracer.span_summary(fastest).items()):
        print(f"  {span_name:32s} {row['calls']:8.0f} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    units = dict(tracing.LAYER_METRICS)
    for key, _ in tracing.LAYER_METRICS:
        print(f"{name} {key} = {values[key]:.6g} {units[key]}")
    result["metrics"] = {key: {"value": values[key], "unit": unit} for key, unit in tracing.LAYER_METRICS}
    return result


def _child(workload: str, seed: int, seconds: int, trace: int, extra: tuple[str, ...] = ()) -> dict:
    """Run one workload in a fresh interpreter; echo its report and return its result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: int, out: Path | None) -> int:
    import numpy

    runs = {}
    for workload in WORKLOAD_NAMES:
        runs[workload] = {"untraced": _child(workload, seed, seconds, 0), "traced": _child(workload, seed, seconds, 1)}
    print(f"\n{'workload':18s} {'setup_s':>9s} {'op_s':>9s} {'items_per_s':>12s} {'peak_rss_mb':>12s} "
          f"{'fail_ratio':>11s} {'overhead':>9s}")
    for workload, pair in runs.items():
        m = pair["untraced"]["metrics"]
        fail_ratio = pair["untraced"]["failed"] / pair["untraced"]["attempted"]
        overhead = pair["traced"]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"{workload:18s} {m['setup_s']['value']:9.4f} {m['op_s']['value']:9.4f} "
              f"{m['items_per_s']['value']:12.1f} {m['peak_rss_mb']['value']:12.1f} {fail_ratio:11.4f} {overhead:9.3f}")
    if out is not None:
        env = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seed": seed,
            "seconds": seconds,
        }
        out.write_text(json.dumps({"environment": env, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for pair in runs.values() for r in pair.values()) else 1


def self_check() -> int:
    """A wrong reference digest must fail every operation of every workload."""
    ok = True
    for workload in WORKLOAD_NAMES:
        result = _child(workload, 0, 1, 0, ("--wrong-reference",))
        fail_ratio = result["failed"] / result["attempted"]
        print(f"self-check {workload}: fail_ratio = {fail_ratio} with a wrong reference")
        ok = ok and fail_ratio == 1.0 and not result["correct"]
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    mode.add_argument("--self-check", action="store_true", help="a wrong reference must fail every operation")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --all: write the results here as JSON")
    parser.add_argument("--wrong-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_detkit()
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.self_check:
        return self_check()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.wrong_reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
