"""Adaptive integration of the length dynamics, events and outcomes.

The length ODE dL/dt = L - 2*pi*H is solved with an embedded
Dormand-Prince 5(4) pair; each accepted step carries the standard
quartic dense-output interpolant. The right-hand side reads H from
(t, L) through mode arrays computed once per run; only at sampled
instants is the full curve state reconstituted from the propagated
initial deviation.

Termination events are threshold crossings (min radius of curvature,
length blow-up / vanish, area vanish); the analytic maximal existence
time is replaced by the first crossing of the configured thresholds,
with the thresholds recorded in the controls. One locator serves t = 0,
every accepted step and ``detect_singularity``: one bisection, to 1e-10
in time, on the earliest crossing of any threshold, with ties broken
singularity > area vanish > length vanish > length blow-up. Outcomes classify how a
finished trajectory behaved: convergence to a circle (with its limit
center), a curvature singularity, or one of the degenerate length/area
scenarios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .flows import (
    FlowState,
    HDomainError,
    NonlocalTerm,
    _area,
    _h,
    area_along_flow,
    flow_state,
    length_rate,
)
from .heat import _e_value
from .support import (
    CONVEXITY_EPS,
    TWO_PI,
    ConvexityError,
    GeometricSummary,
    SupportSpectrum,
    _grid_deviation,
    _inverse_curvature,
    _radius_table,
    curve_length,
    isoperimetric_deficit,
    isoperimetric_ratio,
    limit_circle,
    radius_extrema,
    sq_curvature_integral,
    total_inverse_curvature,
    validate_convexity,
)

EVENT_HORIZON = "reached-horizon"
EVENT_SINGULARITY = "singularity"
EVENT_LENGTH_BLOWUP = "length-blowup"
EVENT_LENGTH_VANISH = "length-vanish"
EVENT_AREA_VANISH = "area-vanish"
EVENT_H_DOMAIN_EXIT = "h-domain-exit"
EVENT_STEP_COLLAPSE = "step-collapse"

# Event location: bisection width on time.
EVENT_TIME_TOL = 1e-10
# Internal cap on the step size so threshold crossings are scanned at
# least this finely even when the controller wants huge steps.
MAX_STEP = 0.25
MIN_STEP = 1e-14
# Cap on recorded states, t_max / sample_interval, so every run is bounded.
MAX_SAMPLES = 10**6


@dataclass(frozen=True)
class IntegratorControls:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    t_max: float = 50.0
    length_blowup: float = 1e12
    length_vanish: float = 1e-12
    area_vanish: float = 1e-12
    singularity_eps: float = 1e-9
    sample_interval: float = 0.05

    def __post_init__(self):
        for field in fields(self):
            if not 0.0 < getattr(self, field.name) < np.inf:
                raise ValueError(f"{field.name} must be positive and finite")
        if self.rel_tol >= 1.0:
            raise ValueError("rel_tol must be below 1")
        if self.length_blowup <= self.length_vanish:
            raise ValueError("length_blowup must exceed length_vanish")
        if self.t_max / self.sample_interval > MAX_SAMPLES:
            raise ValueError(
                f"sample_interval too small: t_max / sample_interval exceeds {MAX_SAMPLES} states"
            )


@dataclass(frozen=True)
class TerminationEvent:
    kind: str
    t: float
    theta: float | None = None


@dataclass(frozen=True)
class ConvergesToCircle:
    center: tuple[float, float]
    limit_length: float


@dataclass(frozen=True)
class CurvatureSingularity:
    t_star: float
    theta_star: float


@dataclass(frozen=True)
class LengthBlowupRescaledCircle:
    t_max: float


@dataclass(frozen=True)
class LengthVanishesSingularityForced:
    t_max: float


@dataclass(frozen=True)
class AreaVanishesCurvatureBlowup:
    t_max: float
    limit_length: float


@dataclass(frozen=True)
class Undetermined:
    diagnostic: str


Outcome = Union[
    ConvergesToCircle,
    CurvatureSingularity,
    LengthBlowupRescaledCircle,
    LengthVanishesSingularityForced,
    AreaVanishesCurvatureBlowup,
    Undetermined,
]


@dataclass(frozen=True)
class Trajectory:
    states: tuple[FlowState, ...]
    event: TerminationEvent
    outcome: Outcome

    def __post_init__(self):
        if not self.states:
            raise ValueError("trajectory needs at least one state")
        ts = [s.t for s in self.states]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("trajectory states must be strictly increasing in time")
        if self.event.t < ts[-1] - 1e-12:
            raise ValueError("event time precedes the last recorded state")
        object.__setattr__(self, "states", tuple(self.states))


# Dormand-Prince 5(4) tableau; order-5 propagated solution, FSAL.
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
)


@dataclass(frozen=True)
class _DenseSegment:
    """Quartic interpolant of one accepted step on [t0, t0 + h]."""

    t0: float
    h: float
    r1: float
    r2: float
    r3: float
    r4: float
    r5: float

    def __call__(self, t: float) -> float:
        s = (t - self.t0) / self.h
        return self.r1 + s * (self.r2 + (1.0 - s) * (self.r3 + s * (self.r4 + (1.0 - s) * self.r5)))


def _dopri_step(f, t, y, h, k1):
    k2 = f(t + _C[0] * h, y + h * (_A21 * k1))
    k3 = f(t + _C[1] * h, y + h * (_A31 * k1 + _A32 * k2))
    k4 = f(t + _C[2] * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = f(t + _C[3] * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = f(t + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    y5 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = f(t + h, y5)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    dense = _DenseSegment(
        t0=t,
        h=h,
        r1=y,
        r2=y5 - y,
        r3=h * k1 - (y5 - y),
        r4=(y5 - y) - h * k7 - (h * k1 - (y5 - y)),
        r5=h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7),
    )
    return y5, err, k7, dense


class _Modes:
    """Mode arrays of the initial spectrum, computed once per run.

    Mode n of the deviation carries the factor exp((1 - n^2) t), so every
    scalar the length solve reads at (t, L) is a short sum over the decay
    rates 1 - n^2, the coefficients a_n, b_n and their power p_n. The
    radius of curvature on the validation grid,

        rho(theta, t) = L(t)/(2*pi) + sum (1-n^2) d_n(t) * harmonics,

    goes through the shared table of ``support._grid_deviation``, so
    ``min_radius`` is ``radius_extrema`` of the recorded state, bit for bit.
    """

    def __init__(self, spec0: SupportSpectrum):
        n = np.arange(1, spec0.truncation + 1, dtype=float)
        self.decay = 1.0 - n**2
        self._a0 = spec0.cos_coeffs
        self._b0 = spec0.sin_coeffs
        self._power = self._a0**2 + self._b0**2
        self.thetas = _radius_table(spec0.truncation)[0]

    def area(self, t: float, length: float) -> float:
        """area_along_flow(spec0, length, t), bit for bit."""
        return _area(length, _e_value(self.decay, self._power, t))

    def inverse_curvature(self, t: float, length: float) -> float:
        """total_inverse_curvature of flow_state(spec0, t, length), bit for bit."""
        factors = np.exp(self.decay * t)
        return _inverse_curvature(length / TWO_PI, self._a0 * factors, self._b0 * factors)

    def deviation(self, t: float) -> np.ndarray:
        factors = np.exp(self.decay * t)
        return _grid_deviation(self._a0 * factors, self._b0 * factors)

    def min_radius(self, t: float, length: float) -> float:
        """radius_extrema(flow_state(spec0, t, L).spectrum)[0], bit for bit."""
        return length / TWO_PI + float(np.min(self.deviation(t)))

    def argmin_theta(self, t: float) -> float:
        return float(self.thetas[int(np.argmin(self.deviation(t)))])


class _Problem:
    def __init__(self, spec0: SupportSpectrum, term: NonlocalTerm, controls: IntegratorControls):
        self.spec0 = spec0
        self.term = term
        self.controls = controls
        self.modes = _Modes(spec0)

    def rhs(self, t: float, length: float) -> float:
        # H lives on (0, inf) x (0, inf); trial stages poking L <= 0 are
        # domain exits, which the step controller treats as rejections.
        if length <= 0.0:
            raise HDomainError(f"nonpositive length {length:.3e}")
        modes = self.modes
        h_val = _h(
            self.term,
            length,
            lambda: modes.area(t, length),
            lambda: modes.inverse_curvature(t, length),
        )
        return length - TWO_PI * h_val

    def crossed(self, t: float, length: float) -> list[str]:
        """Event kinds whose thresholds are crossed at (t, L)."""
        # No FlowState here: event bisection may probe lengths at or
        # below the vanish threshold where states are unconstructible.
        c = self.controls
        values = (
            (EVENT_SINGULARITY, self.modes.min_radius(t, length) - c.singularity_eps),
            (EVENT_AREA_VANISH, area_along_flow(self.spec0, length, t) - c.area_vanish),
            (EVENT_LENGTH_VANISH, length - c.length_vanish),
            (EVENT_LENGTH_BLOWUP, c.length_blowup - length),
        )
        return [kind for kind, value in values if value <= 0.0]


# Kinds crossed at the same instant resolve to the first listed.
_EVENT_PRIORITY = (EVENT_SINGULARITY, EVENT_AREA_VANISH, EVENT_LENGTH_VANISH, EVENT_LENGTH_BLOWUP)


def _locate(
    modes: _Modes, crossed: Callable, path: Callable, t_prev: float, check_times
) -> tuple[float, TerminationEvent] | None:
    """Earliest crossing along L = path(t): (t_before, event) or None.

    ``crossed(t, L)`` lists the kinds crossed at (t, L). At the first check
    time (they follow ``t_prev``) where any is, one bisection on "nothing
    crossed yet" shrinks [previous check time, it] to EVENT_TIME_TOL; the
    event is the first kind in _EVENT_PRIORITY crossed at the upper end.
    """
    lo = t_prev
    for tc in check_times:
        fired = crossed(tc, path(tc))
        if fired:
            hi = tc
            while hi - lo > EVENT_TIME_TOL:
                mid = 0.5 * (lo + hi)
                fired_mid = crossed(mid, path(mid))
                if fired_mid:
                    hi, fired = mid, fired_mid
                else:
                    lo = mid
            kind = next(k for k in _EVENT_PRIORITY if k in fired)
            theta = modes.argmin_theta(hi) if kind == EVENT_SINGULARITY else None
            return lo, TerminationEvent(kind=kind, t=hi, theta=theta)
        lo = tc
    return None


# One row per event kind: the outcome it yields, that outcome's record
# kind and verdict text (formatted from its fields), and, for undetermined
# outcomes, the diagnostic.
_OUTCOMES = (
    (EVENT_HORIZON, ConvergesToCircle, "converges-to-circle",
     "center=({center[0]:.6g}, {center[1]:.6g}) limit_L={limit_length:.6g}", None),
    (EVENT_SINGULARITY, CurvatureSingularity, "curvature-singularity",
     "t*={t_star:.6g} theta*={theta_star:.6g}", None),
    (EVENT_LENGTH_BLOWUP, LengthBlowupRescaledCircle, "length-blowup-rescaled-circle",
     "T_max={t_max:.6g}", None),
    (EVENT_LENGTH_VANISH, LengthVanishesSingularityForced, "length-vanishes-singularity-forced",
     "T_max={t_max:.6g}", None),
    (EVENT_AREA_VANISH, AreaVanishesCurvatureBlowup, "area-vanishes-curvature-blowup",
     "T_max={t_max:.6g} limit_L={limit_length:.6g}", None),
    (EVENT_H_DOMAIN_EXIT, Undetermined, "undetermined", "({diagnostic})", "H left its domain"),
    (EVENT_STEP_COLLAPSE, Undetermined, "undetermined", "({diagnostic})", "step size collapsed"),
)
_BY_EVENT = {row[0]: row for row in _OUTCOMES}
_BY_OUTCOME = {row[1]: row for row in _OUTCOMES}


def _classify(states: tuple[FlowState, ...], event: TerminationEvent) -> Outcome:
    if event.kind not in _BY_EVENT:
        raise ValueError(f"unknown event kind {event.kind!r}")
    _, cls, _, _, diagnostic = _BY_EVENT[event.kind]
    values = {
        "center": limit_circle(states[0].spectrum),
        "limit_length": states[-1].L,
        "t_star": event.t,
        "theta_star": event.theta,
        "t_max": event.t,
        "diagnostic": f"{diagnostic} near t={event.t:.6g}",
    }
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def classify(traj: Trajectory) -> Outcome:
    """Recompute the outcome of a finished trajectory from its event."""
    return _classify(traj.states, traj.event)


def integrate(
    spec0: SupportSpectrum,
    term: NonlocalTerm,
    controls: IntegratorControls | None = None,
) -> Trajectory:
    """Run the flow from the given initial spectrum until an event.

    The initial spectrum must pass convexity validation. Sampled states
    land on multiples of ``sample_interval`` plus the final event time.
    """
    if controls is None:
        controls = IntegratorControls()
    rho0 = validate_convexity(spec0)
    if rho0 <= CONVEXITY_EPS:
        raise ConvexityError(
            f"initial curve fails convexity validation: min radius {rho0:.3e}"
        )

    problem = _Problem(spec0, term, controls)
    t = 0.0
    length = curve_length(spec0)
    states = [flow_state(spec0, t, length)]

    def finish(event: TerminationEvent) -> Trajectory:
        return Trajectory(states=tuple(states), event=event, outcome=_classify(tuple(states), event))

    found = _locate(problem.modes, problem.crossed, lambda tau: length, t, [t])
    if found is not None:
        return finish(found[1])

    k1 = length_rate(term, states[0])
    h = min(1e-3, controls.t_max)
    sample_idx = 1

    while t < controls.t_max - 1e-13:
        h = min(h, MAX_STEP, controls.t_max - t)
        domain_fail = False
        try:
            y5, err, k7, dense = _dopri_step(problem.rhs, t, length, h, k1)
        except HDomainError:
            domain_fail = True
            y5 = err = k7 = dense = None
        if domain_fail or not np.isfinite(y5):
            h *= 0.25
            if h < MIN_STEP:
                kind = EVENT_H_DOMAIN_EXIT if domain_fail else EVENT_STEP_COLLAPSE
                return finish(TerminationEvent(kind=kind, t=t))
            continue
        scale = controls.abs_tol + controls.rel_tol * max(abs(length), abs(y5))
        err_norm = abs(err) / scale
        if not err_norm <= 1.0:  # rejects NaN estimates too
            h = max(h * max(0.2, 0.9 * err_norm**-0.2), MIN_STEP * 0.5)
            if h < MIN_STEP:
                return finish(TerminationEvent(kind=EVENT_STEP_COLLAPSE, t=t))
            continue

        t1 = t + h
        if controls.t_max - t1 < 1e-13:
            t1 = controls.t_max

        # Check points: sample times inside the step, then the endpoint.
        samples = []
        while sample_idx * controls.sample_interval <= t1 - 1e-12:
            samples.append(sample_idx * controls.sample_interval)
            sample_idx += 1
        check_points = samples + [t1]
        if abs(sample_idx * controls.sample_interval - t1) <= 1e-12:
            samples.append(t1)
            sample_idx += 1

        def path(tau: float) -> float:
            return y5 if tau == t1 else dense(tau)

        found = _locate(problem.modes, problem.crossed, path, t, check_points)
        t_stop = t1 if found is None else found[0]
        states.extend(flow_state(spec0, s, path(s)) for s in samples if s <= t_stop)
        if found is not None:
            if t_stop > states[-1].t + 1e-12:
                states.append(flow_state(spec0, t_stop, dense(t_stop)))
            return finish(found[1])

        t, length, k1 = t1, y5, k7
        if err_norm == 0.0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * err_norm**-0.2))

    if states[-1].t < controls.t_max - 1e-12:
        states.append(flow_state(spec0, controls.t_max, length))
    return finish(TerminationEvent(kind=EVENT_HORIZON, t=controls.t_max))


def detect_singularity(
    spec0: SupportSpectrum,
    length_path: Callable[[float], float],
    horizon: float,
    *,
    singularity_eps: float = 1e-9,
) -> tuple[float, float] | None:
    """First time the grid-min radius of curvature drops to the threshold.

    ``length_path`` supplies L(t) on [0, horizon] (for example a solved
    or closed-form length). The minimum is taken on the validation grid
    of ``radius_extrema`` over 4096 uniform time steps, and the first
    crossing is refined by bisection; returns (t*, theta*) or None.
    """
    modes = _Modes(spec0)

    def crossed(tau: float, length: float) -> list[str]:
        pinched = modes.min_radius(tau, length) - singularity_eps <= 0.0
        return [EVENT_SINGULARITY] if pinched else []

    times = np.linspace(0.0, horizon, 4096 + 1).tolist()
    found = _locate(modes, crossed, length_path, 0.0, times)
    return None if found is None else (found[1].t, found[1].theta)


def rescaled_support(state: FlowState) -> SupportSpectrum:
    """Spectrum of the curve rescaled to length 2*pi; the mean becomes 1."""
    if state.L <= 0.0:
        raise ValueError("rescaling requires positive length")
    factor = TWO_PI / state.L
    return SupportSpectrum(
        mean=state.spectrum.mean * factor,
        cos_coeffs=state.spectrum.cos_coeffs * factor,
        sin_coeffs=state.spectrum.sin_coeffs * factor,
    )


def _json_num(x: float):
    return float(x) if np.isfinite(x) else None


def _shape(state: FlowState) -> tuple[float, float, float, float]:
    # (ipd, ipr, k_min, k_max); ipr is inf at non-positive area and the
    # curvatures are NaN unless the state is strictly convex.
    ipr = isoperimetric_ratio(state.L, state.A)
    rho_min, rho_max = radius_extrema(state.spectrum)
    if rho_min <= CONVEXITY_EPS:
        rho_min = rho_max = float("nan")
    return isoperimetric_deficit(state.spectrum), ipr, 1.0 / rho_max, 1.0 / rho_min


def state_record(state: FlowState) -> dict:
    """Scalar record of one state, used for JSONL export and the CLI."""
    ipd, ipr, k_min, k_max = _shape(state)
    return {
        "t": state.t,
        "L": state.L,
        "A": state.A,
        "ipd": ipd,
        "ipr": _json_num(ipr),
        "k_min": _json_num(k_min),
        "k_max": _json_num(k_max),
    }


def summarize(state: FlowState) -> GeometricSummary:
    """All scalar geometry of one state; curvature fields are NaN for
    non-convex spectra, the rest is still reported."""
    ipd, ipr, k_min, k_max = _shape(state)
    return GeometricSummary(
        length=state.L,
        area=state.A,
        ipd=ipd,
        ipr=ipr,
        k_min=k_min,
        k_max=k_max,
        inv_curv_integral=total_inverse_curvature(state.spectrum),
        sq_curv_integral=(
            float("nan") if np.isnan(k_max) else sq_curvature_integral(state.spectrum)
        ),
    )


def _outcome_row(outcome: Outcome) -> tuple:
    if type(outcome) not in _BY_OUTCOME:
        raise TypeError(f"not an outcome: {outcome!r}")
    return _BY_OUTCOME[type(outcome)]


def outcome_record(outcome: Outcome) -> dict:
    record = {"kind": _outcome_row(outcome)[2]}
    record.update((f.name, getattr(outcome, f.name)) for f in fields(outcome))
    return record


def describe_outcome(outcome: Outcome) -> str:
    verdict = _outcome_row(outcome)[3].format(**vars(outcome))
    return f"{type(outcome).__name__} {verdict}"


def summary_record(traj: Trajectory) -> dict:
    """The trailing summary line of trajectory and frame exports."""
    event = traj.event
    return {
        "event": {"kind": event.kind, "t": event.t, "theta": event.theta},
        "outcome": outcome_record(traj.outcome),
    }


def trajectory_lines(traj: Trajectory) -> list[str]:
    """JSONL lines: one scalar record per state plus a trailing summary."""
    lines = [json.dumps(state_record(s)) for s in traj.states]
    lines.append(json.dumps(summary_record(traj)))
    return lines


def write_trajectory_jsonl(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(trajectory_lines(traj)) + "\n")
