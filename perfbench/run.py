#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <run-artifacts|pinch-scan|sweep>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The workload runs in a fresh worker
process (perfbench/worker.py). With --trace 0 the run prints the
end-to-end metrics of BENCHMARK.json; with --trace 1 it prints the
per-layer metrics from spans recorded at module boundaries, and keeps
the spans of one traced pass in .perfbench_work/. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the host scale and the
unscaled times are printed on the lines before it.

Set-up time is measured from the start of a fresh interpreter to the
moment the worker is ready to time its first job; it is taken in
SETUP_RUNS fresh processes (the measuring worker included), each scaled
to the reference host speed like every time (see probe.py), and the
median is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5
# A worker that has not finished this long after its measuring time is killed.
WORKER_GRACE_S = 120.0


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, work: Path, setup_only: bool) -> tuple[float, subprocess.Popen]:
    """Start a worker; return (seconds until it is ready, the process)."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise WorkerFailed(f"worker did not get ready (exit code {proc.wait(timeout=WORKER_GRACE_S)})")
    except BaseException:
        stop(proc)
        raise
    return ready, proc


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args, work: Path) -> tuple[dict, list[tuple[float, float]]]:
    """Run the workload; return its result and (set-up s, host scale) pairs."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            ready, proc = start_worker(args, work, setup_only=True)
            try:
                out, _ = proc.communicate(timeout=WORKER_GRACE_S)
            finally:
                stop(proc)
            if proc.returncode != 0 or not out.startswith("scale "):
                raise WorkerFailed("set-up worker failed")
            setups.append((ready, float(out.split()[1])))
    ready, proc = start_worker(args, work, setup_only=False)
    try:
        out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setups.append((ready, result["scale"]))
    return result, setups


def report(args, result: dict, setups: list[tuple[float, float]]) -> dict:
    """Print the human-readable report; return the final JSON record."""
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(ready * scale for ready, scale in setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise WorkerFailed(f"worker did not report {', '.join(missing)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  mix: {json.dumps(result['mix'])}")
    count = f"{result['jobs']} jobs per pass, each timed as the mean of its repeats; {result['samples']} timed runs"
    if args.trace:
        count += f" in {result['passes']} untraced and {result['passes']} traced passes"
        print(f"  spans of the first traced pass: {result['spans']}")
    print(f"  samples: {count}; set-up runs: {len(setups)}")
    if not args.trace:
        raw = dict(result["raw"], setup_s=statistics.median(ready for ready, _ in setups))
        print(f"  host scale {result['scale']:.4g}; unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    print("  accuracy over the first pass: " + ", ".join(f"{k} {v:.4g}" for k, v in result["accuracy"].items()))
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed"
          f" (base {result['attempted']}); correct: {result['correct']}")
    for check, n in result["failures"].items():
        print(f"    failed check {check}: {n}")
    for name in units:
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("run-artifacts", "pinch-scan", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    for needed in (ROOT / "src" / "curveflow" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a curveflow checkout", file=sys.stderr)
            return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, setups = measure(args, work)
        record = report(args, result, setups)
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
