"""Inequality and limit checks evaluated at flow states and trajectories.

Every check returns an :class:`InequalityReport` whose slack is
lhs - rhs; "satisfied" allows a relative floating-point margin of
1e-9 * max(1, |lhs|, |rhs|) since the underlying inequalities are exact
but the arithmetic is not.

Spectral slack identities (d_n^2 = a_n^2 + b_n^2 of the state spectrum):

  integral (1/k) ds - (L^2 - 2*pi*A)/pi
      = pi * sum_{n>=2} (n^2-1)(n^2-2) d_n^2          (go1)
  integral (1/k) ds - (2/pi)(L^2 - 4*pi*A) - 2A
      = pi * sum_{n>=3} (n^2-1)(n^2-4) d_n^2          (go2)

go2 equality therefore holds exactly when all modes n >= 3 vanish, and
the go1 slack exceeds the go2 slack by (L^2 - 4*pi*A)/pi.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flows import FlowState
from .integrate import Trajectory, ipd_column, ipr_column
from .support import (
    ConvexityError,
    SupportSpectrum,
    evaluate_support,
    limit_circle,
    radius_extrema,  # noqa: F401  (perfbench/spans.py traces this name here)
    sq_curvature_integral,
    theta_grid,
    total_inverse_curvature,
)

INEQ_TOL = 1e-9
EQUALITY_MODE_TOL = 1e-10
IPR_MONOTONE_SLACK = 1e-10
# Points of the grid on which convergence_residual takes its sup-norm.
RESIDUAL_GRID = 1024


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool


def build_report(name: str, lhs: float, rhs: float) -> InequalityReport:
    slack = lhs - rhs
    tol = INEQ_TOL * max(1.0, abs(lhs), abs(rhs))
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, slack=slack, satisfied=slack >= -tol)


def isoperimetric(state: FlowState) -> InequalityReport:
    """L^2 >= 4*pi*A, equality exactly at circles."""
    return build_report("isoperimetric", state.L**2, 4.0 * np.pi * state.A)


def go1(state: FlowState) -> InequalityReport:
    """integral (1/k) ds >= (L^2 - 2*pi*A)/pi, equality at circles."""
    lhs = total_inverse_curvature(state.spectrum)
    rhs = (state.L**2 - 2.0 * np.pi * state.A) / np.pi
    return build_report("go1", lhs, rhs)


def go2(state: FlowState) -> tuple[InequalityReport, bool]:
    """Refined bound integral (1/k) ds >= (2/pi)(L^2 - 4*pi*A) + 2A.

    Returns the report plus the equality-case flag, which is true
    exactly when every mode n >= 3 of the spectrum vanishes, to within
    EQUALITY_MODE_TOL of the mean, so that scaling the curve keeps it.
    """
    lhs = total_inverse_curvature(state.spectrum)
    rhs = (2.0 / np.pi) * (state.L**2 - 4.0 * np.pi * state.A) + 2.0 * state.A
    spec = state.spectrum
    high = 0.0
    if spec.truncation >= 3:
        high = max(
            float(np.max(np.abs(spec.cos_coeffs[2:]))),
            float(np.max(np.abs(spec.sin_coeffs[2:]))),
        )
    return build_report("go2", lhs, rhs), high <= EQUALITY_MODE_TOL * spec.mean


def gage(state: FlowState) -> InequalityReport:
    """integral k^2 ds >= pi*L/A for convex states; rejects non-convex
    (``sq_curvature_integral`` raises ConvexityError)."""
    lhs = sq_curvature_integral(state.spectrum)
    rhs = np.pi * state.L / state.A
    return build_report("gage", lhs, rhs)


def state_reports(state: FlowState) -> list[InequalityReport]:
    """isoperimetric, go1 and go2 at one state, then gage if the state is
    strictly convex."""
    reports = [isoperimetric(state), go1(state), go2(state)[0]]
    try:
        reports.append(gage(state))
    except ConvexityError:
        pass
    return reports


def ipd_decay_ratio(traj: Trajectory) -> float:
    """max over samples of IPD(t) / (IPD(0) e^{-2t}); at most 1 for every
    flow. Circle input (IPD(0) = 0) is the exact-zero special case and
    reports 0. Reads the deficit column (``integrate.ipd_column``); ratios
    that are NaN, where e^{-2t} underflows, are skipped."""
    ipd = ipd_column(traj)
    ipd0 = ipd[0]
    if ipd0 <= 0.0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = ipd / (ipd0 * np.exp(-2.0 * (traj.t - traj.t[0])))
    return max(0.0, float(np.fmax.reduce(ratios)))


def ipr_monotone(traj: Trajectory) -> bool:
    """Sampled isoperimetric ratio non-increasing within a 1e-10 slack.

    Guaranteed for pan-yang, lin-tsai, ma-cheng and any negative
    constant; for other terms this is a report, not an assertion.
    """
    iprs = ipr_column(traj)
    return bool(np.all(iprs[1:] <= iprs[:-1] + IPR_MONOTONE_SLACK))


def convergence_residual(state: FlowState, spec0: SupportSpectrum) -> float:
    """Grid sup-norm of (deviation at t) minus the limit harmonic
    a_1 cos(theta) + b_1 sin(theta) of the initial curve."""
    thetas = theta_grid(RESIDUAL_GRID)
    a1, b1 = limit_circle(spec0)
    dev = evaluate_support(replace(state.spectrum, mean=0.0), thetas)
    limit = a1 * np.cos(thetas) + b1 * np.sin(thetas)
    return float(np.max(np.abs(dev - limit)))


def reports_to_csv(reports: list[InequalityReport]) -> str:
    lines = ["name,lhs,rhs,slack,satisfied"]
    for r in reports:
        lines.append(f"{r.name},{r.lhs!r},{r.rhs!r},{r.slack!r},{str(r.satisfied).lower()}")
    return "\n".join(lines) + "\n"
