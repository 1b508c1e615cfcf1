"""Tests of the benchmark's own code: generator, references, checker, spans.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import curveflow  # noqa: E402
import curveflow.heat  # noqa: E402,F401
import curveflow.integrate  # noqa: E402,F401
from perfbench import checks, inputs, refs  # noqa: E402
from perfbench.inputs import Curve  # noqa: E402
from perfbench.probe import Prober  # noqa: E402
from perfbench.spans import Span, Tracer, covered, self_times, write_spans  # noqa: E402
from perfbench.worker import hd_quantile  # noqa: E402


def _files(work: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = inputs.make_jobs(workload, 7, tmp_path / "a")
    b = inputs.make_jobs(workload, 7, tmp_path / "b")
    c = inputs.make_jobs(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    curves = lambda jobs: [  # noqa: E731
        (r.mean, r.cos.tolist(), r.sin.tolist())
        for j in jobs
        for r in ([row for _, row in j.rows] if isinstance(j, inputs.SweepJob) else [j.curve])
    ]
    assert curves(a) == curves(b)
    assert curves(a) != curves(c)
    assert len(a) == inputs.PASS_JOBS[workload]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_block_holds_the_same_operations(tmp_path, workload):
    def ops(job):
        if isinstance(job, inputs.PinchJob):
            return [(inputs.PINCH_FLOW, job.curve.modes)]
        if isinstance(job, inputs.RunJob):
            return [job.flow.split(":")[0] if job.flow.startswith("const") else job.flow]
        return [(job.kind, f.split(":")[0] if f.startswith("const") else f) for f, _ in job.rows]

    block = inputs.BLOCK_JOBS[workload]
    for seed in (1, 2):
        jobs = inputs.make_jobs(workload, seed, tmp_path / str(seed))
        assert len(jobs) % block == 0
        kinds = {
            tuple(sorted(map(str, (op for job in jobs[i : i + block] for op in ops(job)))))
            for i in range(0, len(jobs), block)
        }
        assert len(kinds) == 1


def test_generated_curves_are_convex(tmp_path):
    jobs = inputs.make_jobs("run-artifacts", 3, tmp_path)
    for job in jobs:
        assert inputs.min_radius(job.curve) > 0.01 * job.curve.mean
    for job in inputs.make_jobs("sweep", 3, tmp_path):
        for _, curve in job.rows:
            assert inputs.min_radius(curve) > 0.01 * curve.mean


def test_mix_records_shares(tmp_path):
    mix = inputs.mix("run-artifacts", inputs.make_jobs("run-artifacts", 1, tmp_path))
    assert mix["operations_per_pass"] == inputs.PASS_JOBS["run-artifacts"]
    assert all(share == pytest.approx(1 / 6, abs=1e-4) for share in mix["flow_shares"].values())
    assert mix["ode_only_share"] == pytest.approx(1 / 3, abs=1e-4)


def test_pinch_reference_pinned_case():
    t_star, phi = refs.pinch_reference(Curve(1.0, np.array([0.0, 0.2]), np.array([0.0, 0.0])))
    assert t_star == pytest.approx(math.log(0.6) / (4.0 - 2.0 * math.pi), abs=1e-15)
    assert t_star == pytest.approx(0.223734, abs=1e-6)
    assert phi == 0.0


def test_pinch_reference_rotated_direction():
    curve = Curve(1.0, np.array([0.3, 0.2 * math.cos(2.4)]), np.array([-0.1, 0.2 * math.sin(2.4)]))
    _, phi = refs.pinch_reference(curve)
    assert refs.angle_gap(phi, 1.2) < 1e-12
    assert refs.angle_gap(1.2 + math.pi, 1.2) < 1e-12
    assert refs.angle_gap(1.2 + 0.01, 1.2) == pytest.approx(0.01)


def test_pan_yang_keeps_length():
    curve = Curve(1.3, np.array([0.1, 0.05, 0.01]), np.array([0.0, -0.02, 0.003]))
    for t in (0.0, 0.5, 3.0, 10.0):
        assert refs.length_at("pan-yang", curve, t) == 2.0 * math.pi * 1.3


@pytest.mark.parametrize(
    "flow", ["lin-tsai", "powersum:2,-1,1", "ma-cheng", "const:-1.5", "powersum:1,1,0"]
)
def test_closed_forms_solve_the_length_ode(flow):
    """RK4 on dL/dt = L - 2 pi H with A = L^2/(4 pi) + E(t) agrees with the closed form."""
    curve = Curve(1.0, np.array([0.1, 0.08, 0.02]), np.array([0.05, -0.03, 0.01]))
    n = np.arange(1, 4, dtype=float)
    p = curve.power()

    def rate(t, length):
        decay = np.exp(2.0 * (1.0 - n**2) * t)
        area = length**2 / (4 * math.pi) - (math.pi / 2) * np.sum((n**2 - 1) * decay * p)
        if flow in ("lin-tsai", "powersum:2,-1,1"):
            h = 2.0 * area / length
        elif flow == "ma-cheng":
            h = (length**2 / (2 * math.pi) + math.pi * np.sum((n**2 - 1) ** 2 * decay * p)) / length
        elif flow == "powersum:1,1,0":
            h = length
        else:
            h = float(flow.partition(":")[2])
        return length - 2.0 * math.pi * h

    t, length, dt = 0.0, 2.0 * math.pi * curve.mean, 1e-3
    for _ in range(1000):
        k1 = rate(t, length)
        k2 = rate(t + dt / 2, length + dt / 2 * k1)
        k3 = rate(t + dt / 2, length + dt / 2 * k2)
        k4 = rate(t + dt, length + dt * k3)
        length += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    assert length == pytest.approx(refs.length_at(flow, curve, t), rel=1e-10)


FRAME = {"t": 0.0, "L": 6.0, "A": 2.8, "ipd": 0.1, "ipr": 1.0, "k_min": 1.0, "k_max": 1.1,
         "theta": [0.0, 1.0, 2.0], "x": [1.0, 0.0, -1.0], "y": [0.0, 1.0, 0.0]}
SUMMARY = {"event": {"kind": "reached-horizon", "t": 1.0, "theta": None},
           "outcome": {"kind": "converges-to-circle", "center": [0.0, 0.0], "limit_length": 6.0}}


def test_checker_rejects_truncated_frames():
    text = "\n".join(json.dumps(r) for r in (FRAME, dict(FRAME, t=1.0), SUMMARY)) + "\n"
    frames, summary = checks.parse_frames(text)
    assert len(frames) == 2 and summary == SUMMARY
    with pytest.raises(checks.CheckError):
        checks.parse_frames(text[: len(text) - 20])  # cut inside the summary
    with pytest.raises(checks.CheckError):
        checks.parse_frames(text[: text.rindex("{")])  # summary line missing


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """Outputs of real ``curveflow run`` jobs: pan-yang, const:c and the
    pinching flow, each on an inline curve, keyed by the flow's name."""
    cli = importlib.import_module("curveflow.cli")
    jobs = inputs.make_jobs("run-artifacts", 1, tmp_path_factory.mktemp("run"))
    done = {}
    for job in jobs[:6]:
        if job.flow in ("lin-tsai", "ma-cheng") or job.flow.startswith("powersum:2"):
            continue
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run", "--config", str(job.config), "--out", str(job.out)])
        done[job.flow.partition(":")[0] if job.flow.startswith("const") else job.flow] = (job, code, stdout.getvalue())
    return done


def _rerun_check(run_outputs, tmp_path, flow, edit):
    """Check a copy of a run's outputs after ``edit(out_dir)``."""
    job, code, stdout = run_outputs[flow]
    out = tmp_path / "out"
    shutil.copytree(job.out, out)
    edit(out)
    return checks.check_run(dataclasses.replace(job, out=out), code, stdout)


def _drop_lines(path: Path, keep) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for i, line in enumerate(lines) if keep(i, line, len(lines))) + "\n")


def test_checker_passes_whole_run_outputs(run_outputs):
    for flow in ("pan-yang", "powersum:1,1,0"):
        job, code, stdout = run_outputs[flow]
        assert checks.check_run(job, code, stdout).failed == []
    job, code, stdout = run_outputs["const"]
    rep = checks.check_run(job, code, stdout)
    assert rep.failed == ["reports:ipd_decay_max_ratio"] and rep.known_only()


@pytest.mark.parametrize("flow", ["pan-yang", "powersum:1,1,0"])
def test_checker_rejects_thinned_timeseries(run_outputs, tmp_path, flow):
    every_other = _rerun_check(run_outputs, tmp_path / "a", flow,
                               lambda out: _drop_lines(out / "timeseries.csv", lambda i, _, n: i % 2 == 0))
    assert "timeseries_grid" in every_other.failed
    short = _rerun_check(run_outputs, tmp_path / "b", flow,
                         lambda out: _drop_lines(out / "timeseries.csv", lambda i, _, n: i < n - 1))
    assert "timeseries_grid" in short.failed


def test_checker_rejects_fewer_frames(run_outputs, tmp_path):
    rep = _rerun_check(run_outputs, tmp_path, "pan-yang",
                       lambda out: _drop_lines(out / "frames.jsonl", lambda i, _, n: i != 5))
    assert "frame_times" in rep.failed


def test_checker_rejects_missing_report_row(run_outputs, tmp_path):
    # Dropping the row that exposes a known defect must not turn it into a pass.
    rep = _rerun_check(run_outputs, tmp_path / "a", "const",
                       lambda out: _drop_lines(out / "reports.csv", lambda i, line, n: "ipd_decay" not in line))
    assert rep.failed == ["reports_rows"] and not rep.known_only()
    rep = _rerun_check(run_outputs, tmp_path / "b", "powersum:1,1,0",
                       lambda out: _drop_lines(out / "reports.csv", lambda i, line, n: "go1@initial" not in line))
    assert rep.failed == ["reports_rows"]
    # Only a pinching run may lack the final curvature-square row.
    for flow, failed in (("powersum:1,1,0", []), ("pan-yang", ["reports_rows"])):
        rep = _rerun_check(run_outputs, tmp_path / flow, flow,
                           lambda out: _drop_lines(out / "reports.csv", lambda i, line, n: "gage@final" not in line))
        assert rep.failed == failed


def test_checker_rejects_thinned_trajectory(tmp_path):
    job = inputs.make_jobs("pinch-scan", 2, tmp_path)[1]
    curve = job.curve
    spec = curveflow.SupportSpectrum(curve.mean, curve.cos, curve.sin)
    traj = curveflow.integrate(spec, curveflow.PowerSum(terms=((1.0, 1.0, 0.0),)))
    assert checks.check_pinch(job, traj).failed == []
    thinned = types.SimpleNamespace(states=traj.states[::2] + traj.states[-1:], event=traj.event, outcome=traj.outcome)
    assert checks.check_pinch(job, thinned).failed == ["sample_times"]


def test_sample_times_ok():
    grid = [k * 0.05 for k in range(5)]
    assert checks.sample_times_ok(grid + [0.23], 0.23)
    assert checks.sample_times_ok(grid + [0.23 - 1e-10], 0.23)
    assert not checks.sample_times_ok(grid + [0.23], 0.3)  # stops short of the end
    assert not checks.sample_times_ok(grid[:-1] + [0.23], 0.23)  # a sample is missing
    assert not checks.sample_times_ok(grid[:2] + grid[3:] + [0.23], 0.23)


def _sweep_job(tmp_path, flows):
    curve = Curve(1.0, np.array([0.01, 0.02]), np.array([0.0, 0.0]))
    out = tmp_path / "out"
    out.mkdir()
    return checks.SweepJob("flows", "", tuple((f, curve) for f in flows), tmp_path / "s.cfg", out)


def _row(label):
    length = repr(2.0 * math.pi)
    return f"{label},converges-to-circle,reached-horizon,5.0,5.0,{length},3.14,1.0,1.0,true,"


def test_checker_rejects_thirteen_field_sweep_row(tmp_path):
    job = _sweep_job(tmp_path, ["pan-yang", "pan-yang"])
    text = ",".join(checks.SWEEP_COLUMNS) + "\n" + _row("pan-yang") + "\n" + _row("powersum:1.0,1.0,0.0") + "\n"
    (job.out / "sweep.csv").write_text(text)
    good, bad = checks.check_sweep(job, 0, text)
    assert good.failed == []
    assert len(_row("powersum:1.0,1.0,0.0").split(",")) == 13
    assert bad.failed == ["sweep_csv_fields"]
    assert bad.length_err < 1e-15  # the rest of the row is still read


def test_known_defects_are_narrow():
    assert checks.OpReport("const:-1.0", failed=["reports:ipd_decay_max_ratio"]).known_only()
    assert not checks.OpReport("ma-cheng", failed=["reports:ipd_decay_max_ratio"]).known_only()
    assert checks.OpReport("powersum:1,1,0", failed=["sweep_csv_fields"]).known_only()
    assert not checks.OpReport("powersum:1,1,0", failed=["sweep_csv_fields", "length_ref"]).known_only()


def _span(sid, start, end, parent):
    return Span(sid, f"s{sid}", start, end, parent, 0)


def test_hd_quantile():
    # Pinned against scipy.special.betainc weights for x = 1, 4, ..., 256.
    squares = np.arange(1, 17.0) ** 2
    assert hd_quantile(squares, 0.5) == pytest.approx(75.88888889458927, rel=1e-8)
    assert hd_quantile(squares, 0.9) == pytest.approx(223.01287796307494, rel=1e-6)
    assert hd_quantile([3.0] * 48, 0.9) == pytest.approx(3.0)
    # Symmetric samples: the median estimate is their centre, in any order.
    assert hd_quantile([5.0, 1.0, 9.0, 2.0, 8.0], 0.5) == pytest.approx(5.0)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 4.0, 0),
        _span(2, 3.0, 6.0, 0),  # overlaps its sibling, as pool threads do
        _span(3, 2.0, 3.0, 1),
        _span(4, 9.0, 12.0, 0),  # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_write_spans_round_trip(tmp_path):
    spans = [_span(0, 0.0, 10.0, None), _span(1, 1.0, 4.0, 0)]
    write_spans(spans, tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert [Span(**json.loads(line)) for line in lines] == spans


@pytest.mark.parametrize("threads", [1, 8])
def test_prober_runs_out_of_process(threads):
    with Prober(threads) as probe:
        times = [probe() for _ in range(3)]
    assert all(t > 0 for t in times)


def test_tracer_restores_names_and_counts_repeat():
    module = sys.modules["curveflow.integrate"]
    original = module.flow_state
    spec = curveflow.SupportSpectrum(1.0, [0.1, 0.2], [0.0, 0.0])
    term = curveflow.PowerSum(terms=((1.0, 1.0, 0.0),))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            assert module.flow_state is not original
            with tracer.job("job.pinch", 0):
                traj = tracer.wrap("integrate.integrate", module.integrate)(spec, term)
        assert module.flow_state is original
        names = [s.name for s in tracer.spans]
        counts.append({n: names.count(n) for n in set(names)})
        root = next(s for s in tracer.spans if s.name == "job.pinch")
        integ = next(s for s in tracer.spans if s.name == "integrate.integrate")
        assert integ.parent == root.id and integ.states == len(traj.states)
        assert all(s.parent is not None for s in tracer.spans if s is not root)
    assert counts[0] == counts[1]
    assert counts[0]["flows.flow_state"] > 0 and counts[0]["integrate.event_probe"] > 0
