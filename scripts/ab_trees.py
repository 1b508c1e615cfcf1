#!/usr/bin/env python3
"""A/B timing of two curveflow checkouts in one process.

Loads ``TREE_A/src/curveflow`` and ``TREE_B/src/curveflow`` as two
packages of distinct names, builds one workload's seeded job list with
``perfbench.inputs`` (the same jobs ``perfbench/run.py`` times, from this
checkout's ``perfbench``), and runs every job once per tree in each pass,
the two trees in a random order per job. Both trees thus see the same
host at nearly the same moment, which a pair of ``perfbench/run.py``
runs minutes apart does not give on a shared host. It prints, per tree,
the Harrell-Davis p50 and p90 of the per-job mean times and the
integrations per second, as ``perfbench.worker`` computes them, and the
ratio B/A of each: below 1 for the times and above 1 for the rate means
B is faster. On the sweep workload it also prints the p50 of each job
kind alone, ``job_ms_p50[flows]`` and ``job_ms_p50[scale]``: the flows
jobs set the workload's p50 and the scale jobs its p90. Nothing is scaled by the host probe, and outputs are not
checked; run ``perfbench/run.py`` for those. Running a tree against
itself gives the A/A spread.

With ``--probe`` the benchmark's host probe (``perfbench.probe.Prober``,
one thread, in a process of its own) runs before every timed job, as
``perfbench/run.py`` runs it, so that each job starts as cold as it does
there; the probe's times scale nothing. Without it the jobs run back to
back and a job's fixed per-run work weighs less. Calibration, on the
change that stepped the pinch model on the length law's exponential sum
(5ed0056 against its parent 9f79abc, pinch-scan, seed 1, 30 passes):
``--probe`` read job_ms_p50 B/A 0.928 twice, next to 0.921, the median
ratio of that change's ten alternating ``perfbench/run.py`` pairs;
without it the A/B read 0.892 and 0.908, a larger gain.

Usage:
    python scripts/ab_trees.py TREE_A TREE_B --workload pinch-scan [--seed 1]
        [--passes 40] [--jobs K] [--order-seed 0] [--probe]
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402
from perfbench.probe import Prober  # noqa: E402
from perfbench.worker import hd_quantile  # noqa: E402


def load_tree(tree: Path, name: str):
    """The package ``tree/src/curveflow``, imported as ``name``."""
    init = tree / "src" / "curveflow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One tree's runner of the job list: ``run(i)`` times job i in ms."""

    def __init__(self, package, jobs: list):
        self.jobs = jobs
        self.cli = importlib.import_module(f"{package.__name__}.cli")
        self.integrate = importlib.import_module(f"{package.__name__}.integrate").integrate
        self.h_equals_l = package.PowerSum(terms=((1.0, 1.0, 0.0),))
        self.controls = package.IntegratorControls(t_max=inputs.PINCH_T_MAX, sample_interval=inputs.SAMPLE_INTERVAL)
        self.specs = {
            i: package.SupportSpectrum(mean=job.curve.mean, cos_coeffs=job.curve.cos, sin_coeffs=job.curve.sin)
            for i, job in enumerate(jobs)
            if isinstance(job, inputs.PinchJob)
        }

    def run(self, i: int) -> float:
        job = self.jobs[i]
        if isinstance(job, inputs.PinchJob):
            start = time.perf_counter()
            self.integrate(self.specs[i], self.h_equals_l, self.controls)
            return (time.perf_counter() - start) * 1e3
        shutil.rmtree(job.out, ignore_errors=True)
        argv = ["run", "--config", str(job.config), "--out", str(job.out)]
        if isinstance(job, inputs.SweepJob):
            argv = ["sweep", "--config", str(job.config), "--axis", job.axis, "--out", str(job.out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            self.cli.main(argv)
            return (time.perf_counter() - start) * 1e3


def operations(job) -> int:
    """Integrations in one job: a sweep's rows, else one."""
    return len(job.rows) if isinstance(job, inputs.SweepJob) else 1


def summary(times: list[list[float]], ops: int) -> dict:
    job_ms = [statistics.fmean(t) for t in times]
    return {
        "job_ms_p50": hd_quantile(job_ms, 0.5),
        "job_ms_p90": hd_quantile(job_ms, 0.9),
        "integrations_per_s": ops / (sum(job_ms) / 1e3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="seed of the job list (default 1)")
    parser.add_argument("--passes", type=int, default=40, help="timed passes over the jobs (default 40)")
    parser.add_argument("--jobs", type=int, help="time only the first JOBS jobs of the pass")
    parser.add_argument("--order-seed", type=int, default=0, help="seed of the A/B order (default 0)")
    parser.add_argument("--probe", action="store_true", help="run the host probe before every timed job")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")

    prober = Prober(1) if args.probe else contextlib.nullcontext()
    with tempfile.TemporaryDirectory() as work, prober as probe:
        jobs = inputs.make_jobs(args.workload, args.seed, Path(work))[: args.jobs]
        trees = ((args.tree_a, "curveflow_a"), (args.tree_b, "curveflow_b"))
        sides = [Side(load_tree(tree.resolve(), name), jobs) for tree, name in trees]
        for i in range(len(jobs)):  # warm-up, untimed
            for side in sides:
                side.run(i)
        rng = np.random.default_rng(args.order_seed)
        times = [[[] for _ in jobs] for _ in sides]
        for _ in range(args.passes):
            for i in range(len(jobs)):
                for s in rng.permutation(len(sides)).tolist():
                    if probe is not None:
                        probe()
                    times[s][i].append(sides[s].run(i))
    ops = sum(operations(job) for job in jobs)
    a, b = (summary(t, ops) for t in times)
    print(f"workload {args.workload} seed {args.seed} jobs {len(jobs)} passes {args.passes}")
    for name in a:
        print(f"{name:>18}  A {a[name]:10.4f}  B {b[name]:10.4f}  B/A {b[name] / a[name]:.4f}")
    for kind in sorted({job.kind for job in jobs if isinstance(job, inputs.SweepJob)}):
        picked = [i for i, job in enumerate(jobs) if job.kind == kind]
        p50_a, p50_b = (hd_quantile([statistics.fmean(t[i]) for i in picked], 0.5) for t in times)
        print(f"{f'job_ms_p50[{kind}]':>18}  A {p50_a:10.4f}  B {p50_b:10.4f}  B/A {p50_b / p50_a:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
