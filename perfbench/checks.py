"""Correctness checks of each operation's output against the references.

An operation fails when any named check fails; every failing check is
kept, so a failure is attributed to what went wrong. Two defects present
in curveflow when this benchmark was written are listed in
KNOWN_DEFECTS: their operations still count as failed, but a run whose
failures are all known defects still reports ``correct``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import refs
from .inputs import (
    FRAME_COUNT, PINCH_FLOW, RUN_T_MAX, SAMPLE_INTERVAL, SWEEP_T_MAX, Curve, PinchJob, RunJob, SweepJob,
)

# The integrator runs at rel_tol 1e-9; closed-form lengths agree to a few
# 1e-9, so 1e-7 flags a wrong length, not integration error.
LENGTH_REL_TOL = 1e-7
CENTER_TOL = 1e-10
# The README documents the curvature minimum search on a 512-point grid
# (for N <= 128): theta* is off by up to pi/512 = 6.1e-3, which delays
# t* by up to |ln cos(2 pi/512)|/(2 pi - 4) = 3.3e-5. The tolerances sit
# above those bounds; the error metrics report the actual gaps.
TSTAR_TOL = 1e-4
THETA_TOL = 1e-2
IPD_RATIO_TOL = 1e-9
# Sampled states sit at k * SAMPLE_INTERVAL; the last one sits at the
# end of the run: t_max, or the pinch bracketed to 1e-10 by bisection.
GRID_TOL = 1e-9
EVENT_TIME_TOL = 1e-9

TIMESERIES_HEADER = "t,L,A,ipd,ipr,k_min,k_max,H"
SWEEP_COLUMNS = (
    "axis", "outcome", "event", "event_t", "final_t", "final_L",
    "final_A", "final_ipr", "ipd_ratio_max", "ipr_monotone", "error",
)
FRAME_KEYS = ("t", "L", "A", "ipd", "ipr", "k_min", "k_max", "theta", "x", "y")
REPORT_NAMES = frozenset(
    [f"{name}@{state}" for name in ("isoperimetric", "go1", "go2", "gage") for state in ("initial", "final")]
    + ["ipd_decay_max_ratio", "ipr_monotone"]
)
# The curvature-square bound needs a convex curve, so a pinching run may
# leave out its row for the final state.
PINCH_MAY_LACK = "gage@final"

KNOWN_DEFECTS = {
    "reports:ipd_decay_max_ratio": (
        "const:",
        "L^2 - 4 pi A cancels at L ~ 1e5, so const flows at t_max = 10 report a ratio above 1",
    ),
    "sweep_csv_fields": (
        "powersum:",
        "powersum axis labels put unquoted commas into sweep.csv rows",
    ),
}


class CheckError(ValueError):
    """An artifact is malformed."""


@dataclass
class OpReport:
    """Checks of one operation: the failed check names and the gaps."""

    flow: str
    failed: list[str] = field(default_factory=list)
    length_err: float = 0.0
    tstar_err: float | None = None
    theta_err: float | None = None

    def expect(self, ok: bool, check: str) -> bool:
        if not ok and check not in self.failed:
            self.failed.append(check)
        return ok

    def length(self, t: float, reported: float, curve: Curve) -> None:
        ref = refs.length_at(self.flow, curve, t)
        err = abs(reported - ref) / abs(ref)
        self.length_err = max(self.length_err, err)
        self.expect(err <= LENGTH_REL_TOL, "length_ref")

    def pinch(self, curve: Curve, t_star: float, theta_star: float | None = None) -> None:
        ref_t, phi = refs.pinch_reference(curve)
        self.tstar_err = abs(t_star - ref_t)
        self.expect(self.tstar_err <= TSTAR_TOL, "tstar_ref")
        if theta_star is not None:
            self.theta_err = refs.angle_gap(theta_star, phi)
            self.expect(self.theta_err <= THETA_TOL, "thetastar_ref")

    def known_only(self) -> bool:
        """True when every failed check is a known defect for this flow."""
        return all(
            c in KNOWN_DEFECTS and self.flow.startswith(KNOWN_DEFECTS[c][0]) for c in self.failed
        )


def parse_timeseries(text: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != TIMESERIES_HEADER:
        raise CheckError("timeseries.csv header is missing or wrong")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            raise CheckError(f"timeseries.csv row has {len(fields)} fields")
        rows.append([float(v) for v in fields])
    if len(rows) < 2 or any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise CheckError("timeseries.csv times are not strictly increasing")
    return rows


def parse_frames(text: str) -> tuple[list[dict], dict]:
    """Frame records and the trailing summary of a frames.jsonl file."""
    if not text.endswith("\n"):
        raise CheckError("frames.jsonl does not end with a newline")
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        raise CheckError(f"frames.jsonl line is not JSON: {exc}") from None
    if len(records) < 3:
        raise CheckError("frames.jsonl needs at least two frames and a summary")
    *frames, summary = records
    if set(summary) != {"event", "outcome"}:
        raise CheckError("frames.jsonl has no trailing summary")
    for rec in frames:
        if not all(k in rec for k in FRAME_KEYS):
            raise CheckError("frame record lacks a field")
        if not len(rec["theta"]) == len(rec["x"]) == len(rec["y"]) >= 3:
            raise CheckError("frame curve samples are malformed")
    return frames, summary


def parse_reports(text: str) -> dict[str, bool]:
    lines = text.splitlines()
    if not lines or lines[0] != "name,lhs,rhs,slack,satisfied":
        raise CheckError("reports.csv header is missing or wrong")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5 or fields[4] not in ("true", "false"):
            raise CheckError(f"reports.csv row is malformed: {line!r}")
        if fields[0] in rows:
            raise CheckError(f"reports.csv repeats row {fields[0]!r}")
        rows[fields[0]] = fields[4] == "true"
    return rows


def sample_times_ok(times: list[float], end_t: float) -> bool:
    """True when ``times`` are every k * SAMPLE_INTERVAL before ``end_t``,
    then one time at ``end_t`` or at most EVENT_TIME_TOL before it."""
    if len(times) < 2:
        return False
    *grid, last = times
    on_grid = all(abs(t - k * SAMPLE_INTERVAL) <= GRID_TOL for k, t in enumerate(grid))
    complete = len(grid) * SAMPLE_INTERVAL >= end_t - EVENT_TIME_TOL - GRID_TOL
    return on_grid and complete and grid[-1] < last and 0.0 <= end_t - last <= EVENT_TIME_TOL


def frame_times_ok(frame_times: list[float], times: list[float]) -> bool:
    """True when the frames are min(FRAME_COUNT, states) distinct sampled
    states, the first and the last among them."""
    return (
        len(frame_times) == min(FRAME_COUNT, len(times))
        and frame_times[0] == times[0]
        and frame_times[-1] == times[-1]
        and all(b > a for a, b in zip(frame_times, frame_times[1:]))
        and set(frame_times) <= set(times)
    )


def parse_sweep(text: str) -> list[list[str]]:
    """Field lists of the data rows; rows are not required to be well formed."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(SWEEP_COLUMNS):
        raise CheckError("sweep.csv header is missing or wrong")
    return [line.split(",") for line in lines[1:]]


def check_run(job: RunJob, code: int, stdout: str) -> OpReport:
    rep = OpReport(job.flow)
    if not rep.expect(code == 0, "exit_code"):
        return rep
    pinch = refs.pinches(job.flow)
    verdict = "CurvatureSingularity" if pinch else "ConvergesToCircle"
    rep.expect(stdout.startswith(f"verdict: {verdict} "), "verdict")
    times = None
    try:
        rows = parse_timeseries((job.out / "timeseries.csv").read_text())
        for row in rows:
            rep.length(row[0], row[1], job.curve)
        times = [row[0] for row in rows]
    except (OSError, CheckError, ValueError):
        rep.expect(False, "timeseries_csv")
    try:
        frames, summary = parse_frames((job.out / "frames.jsonl").read_text())
    except (OSError, CheckError):
        rep.expect(False, "frames_jsonl")
    else:
        try:
            for rec in frames:
                rep.length(rec["t"], rec["L"], job.curve)
            end_t = _check_summary(rep, job, pinch, summary)
            if times is not None:
                rep.expect(sample_times_ok(times, end_t), "timeseries_grid")
                rep.expect(frame_times_ok([rec["t"] for rec in frames], times), "frame_times")
        except (KeyError, TypeError, ValueError):
            rep.expect(False, "frames_jsonl")
        svgs = list((job.out / "anim").glob("frame_*.svg"))
        rep.expect(len(svgs) == len(frames), "svg_frames")
        rep.expect(all(p.read_text().startswith("<svg ") for p in svgs), "svg_frames")
    try:
        reports = parse_reports((job.out / "reports.csv").read_text())
    except (OSError, CheckError):
        rep.expect(False, "reports_csv")
    else:
        names = set(reports)
        rep.expect(names == REPORT_NAMES or (pinch and names == REPORT_NAMES - {PINCH_MAY_LACK}), "reports_rows")
        for name, satisfied in reports.items():
            base = name.split("@")[0]
            if base != "ipr_monotone" or refs.ipr_guaranteed(job.flow):
                rep.expect(satisfied, f"reports:{base}")
    return rep


def _check_summary(rep: OpReport, job: RunJob, pinch: bool, summary: dict) -> float:
    """Check the outcome; return the event time."""
    outcome, end_t = summary["outcome"], float(summary["event"]["t"])
    if pinch:
        if rep.expect(outcome["kind"] == "curvature-singularity", "outcome_kind"):
            rep.expect(outcome["t_star"] == end_t, "event_time")
            rep.pinch(job.curve, outcome["t_star"], outcome["theta_star"])
    elif rep.expect(outcome["kind"] == "converges-to-circle", "outcome_kind"):
        cx, cy = outcome["center"]
        gap = max(abs(cx - job.curve.cos[0]), abs(cy - job.curve.sin[0]))
        rep.expect(gap <= CENTER_TOL, "limit_center")
        rep.expect(end_t == RUN_T_MAX, "event_time")
        rep.length(end_t, outcome["limit_length"], job.curve)
    return end_t


def check_pinch(job: PinchJob, traj) -> OpReport:
    """Check a library Trajectory of a pinch-scan job."""
    rep = OpReport(PINCH_FLOW)
    for state in traj.states:
        rep.length(state.t, state.L, job.curve)
    rep.expect(sample_times_ok([state.t for state in traj.states], traj.event.t), "sample_times")
    if rep.expect(traj.event.kind == "singularity", "outcome_kind"):
        rep.pinch(job.curve, traj.outcome.t_star, traj.outcome.theta_star)
    return rep


def check_sweep(job: SweepJob, code: int, stdout: str) -> list[OpReport]:
    """One report per expected row, in axis order."""
    reports = [OpReport(flow) for flow, _ in job.rows]
    try:
        text = (job.out / "sweep.csv").read_text() if code == 0 else ""
        rows = parse_sweep(text)
    except (OSError, CheckError):
        for rep in reports:
            rep.expect(code == 0, "exit_code")
            rep.expect(False, "sweep_csv")
        return reports
    if len(rows) != len(reports):
        for rep in reports:
            rep.expect(False, "sweep_csv_rows")
        return reports
    for rep, (flow, curve), fields in zip(reports, job.rows, rows):
        rep.expect(stdout == text, "sweep_stdout")
        rep.expect(len(fields) == len(SWEEP_COLUMNS), "sweep_csv_fields")
        if len(fields) < len(SWEEP_COLUMNS):
            continue
        # Only the axis label can carry extra commas: read the rest from the right.
        rec = dict(zip(SWEEP_COLUMNS[1:], fields[1 - len(SWEEP_COLUMNS) :]))
        if not rep.expect(rec["error"] == "", "sweep_row_error"):
            continue
        try:
            final_t, event_t = float(rec["final_t"]), float(rec["event_t"])
            rep.length(final_t, float(rec["final_L"]), curve)
            if refs.pinches(flow):
                if rep.expect(rec["outcome"] == "curvature-singularity", "outcome_kind"):
                    rep.expect(0.0 <= event_t - final_t <= EVENT_TIME_TOL, "event_time")
                    rep.pinch(curve, event_t)
            elif rep.expect(rec["outcome"] == "converges-to-circle", "outcome_kind"):
                rep.expect(event_t == final_t == SWEEP_T_MAX, "event_time")
            rep.expect(float(rec["ipd_ratio_max"]) <= 1.0 + IPD_RATIO_TOL, "ipd_ratio_max")
        except ValueError:
            rep.expect(False, "sweep_csv_number")
        if refs.ipr_guaranteed(flow):
            rep.expect(rec["ipr_monotone"] == "true", "ipr_monotone")
    return reports
