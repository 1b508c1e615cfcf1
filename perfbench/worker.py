"""One workload in one fresh process: set up, then time a closed loop.

Started by run.py as ``python3 -m perfbench.worker`` from the checkout
root. Prints ``ready`` once set-up (import, input generation, one
untimed warm-up job) is done, then one JSON line with the results. With
``--setup-only`` it prints ``scale <factor>`` from probes run right after
set-up instead, and exits. Probes run in a separate process (probe.py).

A traced run writes the spans of its first traced pass, one JSON object
a line, to ``spans-<workload>.jsonl`` next to the work directory once it
has measured, and keeps the file until the workload's next traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from . import checks, inputs  # noqa: E402
from .probe import Prober, host_scale  # noqa: E402
from .spans import Tracer, self_times, write_spans  # noqa: E402

SETUP_PROBES = 25
# Sweep rows run on an 8-thread pool, so sweep is probed on 8 threads.
PROBE_THREADS = {"run-artifacts": 1, "pinch-scan": 1, "sweep": 8}
# Error maxima are reported no lower than these floors, far below every
# tolerance, so that an exact result reads as a small gap, not 0.
LENGTH_ERR_FLOOR = 1e-12
TSTAR_ERR_FLOOR = 1e-9
THETA_ERR_FLOOR = 1e-9


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a weighted mean of the
    order statistics, with the weights of the Beta(p(n+1), (1-p)(n+1))
    distribution over the n equal slices of [0, 1]. Where a pass's job
    times have a gap near the quantile (run-artifacts' median lies between
    the N <= 12 jobs and the N = 32 ones), the plain sample quantile jumps
    across it from seed to seed; this estimate moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 1000 * n  # integration steps; a multiple of n, so slices end on steps
    mid = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    pdf = np.exp(log_pdf - log_pdf.max())
    weights = pdf.reshape(n, 1000).sum(axis=1)
    return float(weights @ x / weights.sum())


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Executes the jobs of one workload's pass and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        from curveflow import IntegratorControls, PowerSum, SupportSpectrum

        self.workload = workload
        self.jobs = inputs.make_jobs(workload, seed, work)
        self.mix = inputs.mix(workload, self.jobs)
        # importlib, not attribute access: curveflow.integrate is also a function.
        self._cli = importlib.import_module("curveflow.cli")
        self._integrate = importlib.import_module("curveflow.integrate").integrate
        self._h_equals_l = PowerSum(terms=((1.0, 1.0, 0.0),))
        self._controls = IntegratorControls(t_max=inputs.PINCH_T_MAX, sample_interval=inputs.SAMPLE_INTERVAL)
        self._specs = [
            SupportSpectrum(mean=j.curve.mean, cos_coeffs=j.curve.cos, sin_coeffs=j.curve.sin)
            for j in self.jobs
            if isinstance(j, inputs.PinchJob)
        ]

    def execute(self, index: int, tracer: Tracer | None = None):
        """Run job ``index`` of the pass. Returns (wall ms, op reports, bytes written)."""
        job = self.jobs[index]
        if isinstance(job, inputs.PinchJob):
            integrate = self._integrate if tracer is None else tracer.wrap("integrate.integrate", self._integrate)
            with (tracer.job("job.pinch", index) if tracer else contextlib.nullcontext()):
                start = time.perf_counter()
                try:
                    traj = integrate(self._specs[index], self._h_equals_l, self._controls)
                except Exception:  # a failed operation, counted below
                    traj = None
                ms = (time.perf_counter() - start) * 1e3
            if traj is None:
                rep = checks.OpReport(inputs.PINCH_FLOW, failed=["exception"])
                return ms, [rep], 0
            return ms, [checks.check_pinch(job, traj)], 0

        shutil.rmtree(job.out, ignore_errors=True)
        if isinstance(job, inputs.RunJob):
            argv, root = ["run", "--config", str(job.config), "--out", str(job.out)], "job.run"
        else:
            argv = ["sweep", "--config", str(job.config), "--axis", job.axis, "--out", str(job.out)]
            root = "job.sweep"
        captured = io.StringIO()
        with (tracer.job(root, index) if tracer else contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
                    code = self._cli.main(argv)
            except Exception:  # a failed operation, counted below
                code = None
            ms = (time.perf_counter() - start) * 1e3
        written = _bytes_under(job.out) if job.out.exists() else 0
        if isinstance(job, inputs.RunJob):
            reports = [checks.check_run(job, code, captured.getvalue())]
        else:
            reports = checks.check_sweep(job, code, captured.getvalue())
        if code is None:
            for rep in reports:
                rep.expect(False, "exception")
        return ms, reports, written


class Tally:
    """Operations attempted and failed, with failures counted per check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_check: dict[str, int] = defaultdict(int)
        self.unknown = 0

    def add(self, reports) -> None:
        for rep in reports:
            self.attempted += 1
            if rep.failed:
                self.failed += 1
                self.unknown += not rep.known_only()
                for check in rep.failed:
                    self.by_check[check] += 1

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.unknown == 0,
            "failures": dict(sorted(self.by_check.items())),
        }


def accuracy(reports) -> dict:
    """Largest reference gaps over one pass of operations."""
    tstar = [r.tstar_err for r in reports if r.tstar_err is not None]
    theta = [r.theta_err for r in reports if r.theta_err is not None]
    return {
        "length_rel_err_max": max([LENGTH_ERR_FLOOR] + [r.length_err for r in reports]),
        "tstar_abs_err_max": max([TSTAR_ERR_FLOOR] + tstar),
        "thetastar_abs_err_max": max([THETA_ERR_FLOOR] + theta),
        "thetastar_checked": len(theta),
    }


def untraced(runner: Runner, seconds: float, probe: Prober) -> dict:
    """Closed loop with one client: cycle over the pass for ``seconds``,
    and at least once, probing the host before every job. The loop ends
    at a block boundary (inputs.BLOCK_JOBS), never inside a block."""
    count = len(runner.jobs)
    block = inputs.BLOCK_JOBS[runner.workload]
    times = [[] for _ in range(count)]
    tally, first_pass, probes = Tally(), [], []
    start = time.perf_counter()
    i = 0
    while i < count or i % block or time.perf_counter() - start < seconds:
        probes.append(probe())
        ms, reports, _ = runner.execute(i % count)
        times[i % count].append(ms)
        tally.add(reports)
        if i < count:
            first_pass.extend(reports)
        i += 1
    # Read before the statistics below, which allocate arrays of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_ms = [statistics.fmean(t) for t in times]
    acc = accuracy(first_pass)
    raw = {
        "job_ms_p50": hd_quantile(job_ms, 0.5),
        "job_ms_p90": hd_quantile(job_ms, 0.9),
        "integrations_per_s": len(first_pass) / (sum(job_ms) / 1e3),
    }
    scale = host_scale(probes)
    metrics = {
        "job_ms_p50": raw["job_ms_p50"] * scale,
        "job_ms_p90": raw["job_ms_p90"] * scale,
        "integrations_per_s": raw["integrations_per_s"] / scale,
        "passed_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
        "length_err_digits": -math.log10(acc["length_rel_err_max"]),
        "tstar_err_digits": -math.log10(acc["tstar_abs_err_max"]),
    }
    return {"metrics": metrics, "raw": raw, "scale": scale, "jobs": count, "samples": i,
            "accuracy": acc, **tally.record()}


def layer_metrics(spans, bytes_written: int) -> dict:
    """Per-layer totals of one traced pass."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name[name])

    def ms(name):
        return sum(s.end - s.start for s in by_name[name]) * 1e3

    def self_ms(name):
        return sum(selfs[s.id] for s in by_name[name]) * 1e3

    integ = by_name["integrate.integrate"]
    states = sum(s.states for s in integ)
    sweep_jobs = {s.job for s in by_name["job.sweep"]}
    row_ms = [(s.end - s.start) * 1e3 for s in integ if s.job in sweep_jobs]
    sweep_wall = ms("job.sweep")
    return {
        "flows.length_rate.calls": calls("flows.length_rate"),
        "flows.length_rate.ms": ms("flows.length_rate"),
        "flows.flow_state.calls": calls("flows.flow_state"),
        "flows.flow_state.ms": ms("flows.flow_state"),
        "flows.flow_state.useful_frac": states / max(1, calls("flows.flow_state")),
        "flows.area_along_flow.calls": calls("flows.area_along_flow"),
        "heat.propagate.calls": calls("heat.propagate"),
        "heat.propagate.ms": ms("heat.propagate"),
        "heat.known_scalars.calls": calls("heat.known_scalars"),
        "heat.known_scalars.ms": ms("heat.known_scalars"),
        "integrate.integrate.calls": len(integ),
        "integrate.integrate.ms": ms("integrate.integrate"),
        "integrate.integrate.self_ms": self_ms("integrate.integrate"),
        "integrate.event_probes": calls("integrate.event_probe"),
        "integrate.states_recorded": states,
        "integrate.state_record.calls": calls("integrate.state_record"),
        "integrate.state_record.ms": ms("integrate.state_record"),
        "support.radius_extrema.calls": calls("support.radius_extrema"),
        "support.radius_extrema.ms": ms("support.radius_extrema"),
        "support.curve_position.ms": ms("support.curve_position"),
        "support.sq_curvature_integral.ms": ms("support.sq_curvature_integral"),
        "diagnostics.reports.ms": sum(
            ms(f"diagnostics.{n}") for n in ("isoperimetric", "go1", "go2", "gage")
        ),
        "diagnostics.ipd_decay_ratio.ms": ms("diagnostics.ipd_decay_ratio"),
        "diagnostics.ipr_monotone.ms": ms("diagnostics.ipr_monotone"),
        "cli.run.self_ms": self_ms("job.run"),
        "cli.bytes_written": bytes_written,
        "cli.parse_config.ms": ms("cli.parse_config"),
        "cli.load_initial.ms": ms("cli.load_initial"),
        "support.validate_convexity.calls": calls("support.validate_convexity"),
        "support.validate_convexity.ms": ms("support.validate_convexity"),
        "cli.sweep.wall_ms": sweep_wall,
        "cli.sweep.row_ms_p50": statistics.median(row_ms) if row_ms else 0.0,
        "cli.sweep.row_overlap": sum(row_ms) / sweep_wall if sweep_wall else 0.0,
    }


def traced(runner: Runner, seconds: float, spans_out: Path) -> dict:
    """Alternate untraced and traced passes over the job list for about
    ``seconds`` (at least one of each). Counts come from the first traced
    pass and repeat exactly in every pass; times are the fastest pass's.
    The first traced pass's spans are written to ``spans_out`` at the end."""
    count = len(runner.jobs)
    plain, traced_ms = [[] for _ in range(count)], [[] for _ in range(count)]
    tally, per_pass, first_pass, first_spans = Tally(), [], [], None
    start = time.perf_counter()
    pair_s = 0.0
    while not per_pass or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        for i in range(count):
            ms, reports, _ = runner.execute(i)
            plain[i].append(ms)
            tally.add(reports)
            if not per_pass:
                first_pass.extend(reports)
        tracer, written = Tracer(), 0
        with tracer.installed():
            for i in range(count):
                ms, reports, nbytes = runner.execute(i, tracer)
                traced_ms[i].append(ms)
                written += nbytes
                tally.add(reports)
        per_pass.append(layer_metrics(tracer.spans, written))
        if first_spans is None:
            first_spans = tracer.spans
        pair_s = time.perf_counter() - pair_start
    metrics = {
        name: value if isinstance(value, int) else min(p[name] for p in per_pass)
        for name, value in per_pass[0].items()
    }
    acc = accuracy(first_pass)
    metrics["integrate.thetastar_abs_err_max"] = acc["thetastar_abs_err_max"]
    metrics["integrate.thetastar_checked"] = acc["thetastar_checked"]
    metrics["trace.overhead_frac"] = float(
        np.median([statistics.fmean(t) for t in traced_ms]) / np.median([statistics.fmean(t) for t in plain])
    ) - 1.0
    write_spans(first_spans, spans_out)
    return {"metrics": metrics, "jobs": count, "samples": 2 * count * len(per_pass),
            "passes": len(per_pass), "spans": str(spans_out), "accuracy": acc, **tally.record()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.work)
    runner.execute(0)  # warm-up, not counted
    print("ready", flush=True)
    if args.setup_only:
        with Prober(PROBE_THREADS[args.workload]) as probe:
            print(f"scale {host_scale([probe() for _ in range(SETUP_PROBES)])!r}", flush=True)
        return 0
    if args.trace:
        spans_out = args.work.parent / f"spans-{args.workload}.jsonl"
        result = traced(runner, args.seconds, spans_out)
    else:
        with Prober(PROBE_THREADS[args.workload]) as probe:
            result = untraced(runner, args.seconds, probe)
    result["mix"] = runner.mix
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
