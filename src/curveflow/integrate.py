"""Length of the curve along the flow, events and outcomes.

Mode n of the deviation carries the exact factor exp((1 - n^2) t), so
only the length L(t) is left to find. Where a power of L makes the
length ODE dL/dt = L - 2*pi*H linear, ``flows.closed_length`` gives L(t)
in closed form and no ODE is solved: every named term and the powersums
H = alpha L + c L^p and H = alpha L + beta A/L + gamma/L.
For every other powersum the ODE is solved with an embedded
Dormand-Prince 5(4) pair; each accepted step carries the standard
quartic dense-output interpolant, and ``rel_tol``/``abs_tol`` govern
that path only. The right-hand side reads H from (t, L) through the
per-run mode arrays of ``heat._Modes``, which a run builds once: its
length law and its ``Trajectory`` read the same ones. A finished run
keeps its recorded states as columns: the times, the lengths and,
derived from both, the areas. Every other per-state quantity is a
(times x modes) product of the initial spectrum, which the column
functions below take from the same ``_Modes`` for all states at once; a
``FlowState`` is built only when ``Trajectory.states`` is indexed.

Termination events are threshold crossings (min radius of curvature,
length blow-up / vanish, area vanish, and the float range: L reaching
``support.MAX_LENGTH`` is an H domain exit); the analytic maximal existence
time is replaced by the first crossing of the configured thresholds,
with the thresholds recorded in the controls. One recorder takes L(t)
as steps: the closed form is the one step (0, t_max), the ODE solve the
point t = 0 and then its accepted steps. A step's check times are the
sample times inside it and its end, where L is evaluated once into a
column, SCAN_BLOCK_CAP check times at a time as the scan reaches them,
for its blocks and the recorded states alike. One plain loop serves
every step (``_locate_all``), over blocks of check times: the first
SCAN_CHUNK = 32 long, then the rest of each SCAN_BLOCK_CAP = 256 check
times whose L is evaluated together. The closed laws of one
``_Heat.run_all`` call share that one step and move through its blocks
together. Per block ``_Heat.flags``, one call for all of them,
bounds the curvature minimum from below by L/(2*pi) - sum |1 - n^2|
sqrt(a_n^2 + b_n^2) e^{(1-n^2)t}, O(N) per time, and sums E(t) at the
block's own times, so a ``_Heat`` keeps O(N) arrays and its grid. The
bound is exact on the pinch family and elsewhere meets the grid minimum
at rate 3 or faster, so the flags need no grid product: over a seed-1
pass of the benchmark workloads, one run where the bound did not clear
un-flagged 18 of the 3,514 check times the bound flagged.
The scalar test then runs on each path's flagged check times in order
(``_locate``);
at the first crossed one, ITP root-finding on the threshold margins
narrows the bracket from the check time before it to 1e-10 around the
earliest crossing of any threshold, in at most one probe more than
bisection, with ties broken singularity > area vanish > length vanish >
length blow-up > float range. Where the singularity is crossed first
there, the radius of curvature at the grid node of that test's minimum
is L(t)/(2*pi) + sum g_n e^{(1-n^2)t}, and on the closed path L(t) is
itself an exponential sum (``flows.ClosedLength.sum_rates``), so each
secant step on the model is one exponential over both sets of rates and
one product, with no length-law call and no grid product. Its root is
ITP's interpolation point, and the two scalar tests either side of it
close the bracket unless one contradicts the model, which is then dropped.
A trajectory derives its outcome from its event: convergence to a
circle (with its limit center), a curvature singularity, or one of the
degenerate length/area scenarios.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import InitVar, dataclass, field, fields
from typing import Callable, Union

import numpy as np

from .flows import (
    ClosedLength,
    FlowState,
    HDomainError,
    NonlocalTerm,
    _h,
    area_along_flow,  # noqa: F401  (perfbench/spans.py traces this name here)
    closed_length,
    flow_state,
    length_rate,  # noqa: F401  (perfbench/spans.py traces this name here)
)
from .heat import _area, _Modes
from .support import (
    CONVEXITY_EPS,
    MAX_LENGTH,
    TWO_PI,
    GeometricSummary,
    SupportSpectrum,
    curve_length,
    isoperimetric_deficit,
    isoperimetric_ratio,
    limit_circle,
    radius_extrema,
    require_convex,
    sq_curvature_integral,
    total_inverse_curvature,
    validate_convexity,  # noqa: F401  (perfbench/spans.py traces this name here)
)

EVENT_HORIZON = "reached-horizon"
EVENT_SINGULARITY = "singularity"
EVENT_LENGTH_BLOWUP = "length-blowup"
EVENT_LENGTH_VANISH = "length-vanish"
EVENT_AREA_VANISH = "area-vanish"
EVENT_H_DOMAIN_EXIT = "h-domain-exit"
EVENT_STEP_COLLAPSE = "step-collapse"

# Event location: width of the final bracket on time, up to an ulp or two of t.
EVENT_TIME_TOL = 1e-10
# Internal cap on the step size so threshold crossings are scanned at
# least this finely even when the controller wants huge steps.
MAX_STEP = 0.25
MIN_STEP = 1e-14
# Two times a <= b are the same instant when b - a <= TIME_RTOL * b: a share
# of t, so that it stays wider than an ulp of t however long the run.
TIME_RTOL = 1e-12
# Cap on recorded states, t_max / sample_interval, so every run is bounded.
MAX_SAMPLES = 10**6
# Check times in the event pre-scan's first block. It stays small because a
# pinch often falls within its first few check times; later blocks run to the
# end of each SCAN_BLOCK_CAP check times (see _locate_all).
SCAN_CHUNK = 32
# Largest block of the pre-scan and of the column functions: their arrays
# are (grid x SCAN_BLOCK_CAP) at most, whatever the number of check times.
SCAN_BLOCK_CAP = 256
# The pre-scan reads the curvature bound, and sums in another order than the
# scalar test, so it flags a check time once a margin is within this share of
# the margin's size; the scalar test decides. The bound lies below the grid
# minimum, and rounding differs, by less than 1e-12 of that size.
PRESCAN_SLACK = 1e-10


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The recorded states of one run, as columns, with its event and the
    outcome that event and the last length imply.

    ``t`` and ``L`` hold the time and length of each recorded state. ``A``
    is derived from them: the closed-form area L^2/(4 pi) + E(t), E computed
    SCAN_BLOCK_CAP states at a time, each value that of ``flow_state`` at
    the same (t, L) bit for bit. All three are read-only float arrays and
    pass the checks every FlowState makes, with L at most
    ``support.MAX_LENGTH``. ``states`` is a
    read-only sequence that builds the FlowState of a state with
    ``flow_state`` each time it is indexed. ``_heat``, the ``_Heat`` of the
    run where the caller holds it, lends its ``heat._Modes`` of ``spec0``,
    which saves building them again, and its grid columns of E and the
    deficit, the same values, where ``t`` is its grid itself.
    """

    spec0: SupportSpectrum
    t: np.ndarray
    L: np.ndarray
    event: TerminationEvent
    _heat: InitVar["_Heat | None"] = None
    outcome: Outcome = field(init=False)
    A: np.ndarray = field(init=False)

    def __post_init__(self, _heat: "_Heat | None"):
        if self.event.kind not in _BY_EVENT:
            raise ValueError(f"unknown event kind {self.event.kind!r}")
        shared = _heat if _heat is not None and self.t is _heat.grid else None
        t = self.t if shared is not None else np.array(self.t, dtype=float)
        length = np.array(self.L, dtype=float)
        if t.ndim != 1 or t.shape != length.shape:
            raise ValueError("t and L must be one-dimensional and of equal length")
        if not t.size:
            raise ValueError("trajectory needs at least one state")
        if (t[1:] <= t[:-1]).any():  # NaN passes, to fail as not finite below
            raise ValueError("trajectory states must be strictly increasing in time")
        if t[-1] - self.event.t > TIME_RTOL * abs(t[-1]):
            raise ValueError("event time precedes the last recorded state")
        if not (np.isfinite(t).all() and (length <= MAX_LENGTH).all()):  # NaN fails too
            raise ValueError("flow state fields must be finite")
        if t[0] < 0.0:
            raise ValueError("propagation time must be non-negative")
        if (length <= 0.0).any():
            raise ValueError("flow state requires positive length")
        modes = _Modes(self.spec0) if _heat is None else _heat.modes
        area = _area(length, _by_chunk(modes.e_value, t) if shared is None else shared.grid_column("e_value"))
        if not np.isfinite(area).all():  # a spectrum whose power overflows
            raise ValueError("flow state fields must be finite")
        for name, column in (("t", t), ("L", length), ("A", area)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_modes", modes)  # for the column functions
        object.__setattr__(self, "_shared", shared)
        object.__setattr__(self, "_ipd", None)  # the deficit column, on the first ``ipd_column``
        object.__setattr__(self, "outcome", _classify(self.spec0, float(length[-1]), self.event))

    @property
    def states(self) -> "_States":
        return _States(self)


class _States(Sequence):
    """Read-only view of a trajectory's recorded states. Indexing builds
    the state with ``flow_state`` at the recorded (t, L), whose area is the
    area column's value (slices give a tuple of states)."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = range(len(self))[index]
        traj = self._traj
        return flow_state(traj.spec0, float(traj.t[i]), float(traj.L[i]))


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _by_chunk(fn: Callable, *columns: np.ndarray) -> np.ndarray:
    """fn applied to SCAN_BLOCK_CAP states at a time, the results joined
    along their last axis, so that no (times x modes) array grows with the run."""
    count = len(columns[0])
    if count <= SCAN_BLOCK_CAP:
        return fn(*columns)
    parts = [fn(*(c[lo : lo + SCAN_BLOCK_CAP] for c in columns)) for lo in range(0, count, SCAN_BLOCK_CAP)]
    return np.concatenate(parts, axis=-1)


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


def _dopri_step(f, t, y, h, k1):
    k2 = f(t + _C[0] * h, y + h * (_A21 * k1))
    k3 = f(t + _C[1] * h, y + h * (_A31 * k1 + _A32 * k2))
    k4 = f(t + _C[2] * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = f(t + _C[3] * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = f(t + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    y5 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = f(t + h, y5)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    r2 = y5 - y
    r3 = h * k1 - r2
    r4 = r2 - h * k7 - r3
    r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)

    def dense(tau):
        """Quartic interpolant of the step on [t, t + h]."""
        s = (tau - t) / h
        return y + s * (r2 + (1.0 - s) * (r3 + s * (r4 + (1.0 - s) * r5)))

    return y5, err, k7, dense


# Kinds crossed at the same instant resolve to the first listed.
_EVENT_PRIORITY = (
    EVENT_SINGULARITY, EVENT_AREA_VANISH, EVENT_LENGTH_VANISH, EVENT_LENGTH_BLOWUP, EVENT_H_DOMAIN_EXIT
)


def _margins(limits: tuple, rho_min, area, length) -> tuple:
    """Signed distance to each threshold, in _EVENT_PRIORITY order; <= 0
    means crossed. ``limits`` is (singularity_eps, area_vanish,
    length_vanish, length_blowup); the last margin is the float range,
    L up to ``support.MAX_LENGTH``. Scalars and arrays alike."""
    eps, area_vanish, length_vanish, length_blowup = limits
    return (
        rho_min - eps, area - area_vanish, length - length_vanish, length_blowup - length, MAX_LENGTH - length
    )


def _crossed(margins: tuple) -> list[str]:
    """Event kinds whose margin is <= 0, in _EVENT_PRIORITY order."""
    return [kind for kind, margin in zip(_EVENT_PRIORITY, margins) if margin <= 0.0]


class _Heat:
    """The flow-independent half of a run: what the initial spectrum and the
    controls set, whatever H is. Building one runs the convexity gate; it
    holds the mode arrays, the thresholds and the per-mode sizes of the
    curvature bound, all O(N), and the grid of sample times. ``run_all``
    integrates a list of flows on it, and ``run`` one. The flows with a
    closed law share their check times, the grid, and move through its
    pre-scan blocks together: a block computes the mode factors, E(t) and
    the two sums of the bound at its times once, for the stacked lengths of
    the flows still running, and each flow leaves at its event. The runs
    that record the grid itself, as every closed-path run to the horizon
    does, share its ``grid_column`` of E and of the deficit, each built by
    the first that reads it: at most 24 bytes per sample time in all. A
    heat half lives for one ``integrate`` call or one ``sweep`` command.

    ``margins`` is the scalar test at one (t, L), which keeps ``node``, the
    (t, j) of its grid minimum, for ``_locate`` to read at once;
    ``flags`` marks the check times of a block where it may read a crossing,
    from ``scan`` alone; ``pinch_root`` models the singularity margin at
    one grid node. Its mode arrays are the runs' only ones, which
    ``closed_length`` and the recorded ``Trajectory`` read too, and its
    grid of sample times is shared by every heat half on equal controls
    (``_check_grid``).
    Since |a cos n theta + b sin n theta| <= sqrt(a^2 + b^2), the radius of
    curvature over every theta is at least L(t)/(2*pi) - sum |1 - n^2|
    sqrt(p_n) e^{(1-n^2)t}, an O(N) bound per time whose sum decays at rate
    3 or more. Where it is loose, a flagged time costs one scalar test.
    """

    def __init__(self, spec0: SupportSpectrum, controls: IntegratorControls):
        require_convex(spec0)
        self.spec0 = spec0
        self.controls = controls
        self.modes = modes = _Modes(spec0)
        c = controls
        self.limits = (c.singularity_eps, c.area_vanish, c.length_vanish, c.length_blowup)
        # Per mode at t = 0: the sum of |terms| of the grid sum for rho, and
        # the largest |term| over every theta.
        self._rho_size = np.abs(modes.decay) * (np.abs(spec0.cos_coeffs) + np.abs(spec0.sin_coeffs))
        self._rho_amp = np.abs(modes.decay) * np.sqrt(modes.power)
        self._e_amp = modes.decay * modes.power  # E(t) = (pi/2) sum of these times the squared factors
        self.grid = _check_grid(controls)
        self.node = (math.nan, -1)
        self._columns = {}

    def grid_column(self, name: str) -> np.ndarray:
        """``_Modes.e_value`` or ``_Modes.deficit``, by ``name``, at every
        check time, read-only: the area term and the ``ipd_column`` of a
        ``Trajectory`` that records the grid. Built on the first call."""
        column = self._columns.get(name)
        if column is None:
            column = self._columns[name] = _read_only(_by_chunk(getattr(self.modes, name), self.grid))
        return column

    def run(self, term: NonlocalTerm) -> Trajectory:
        """The flow of ``term`` until an event; see ``integrate``."""
        (result,) = self.run_all([term])
        if isinstance(result, Exception):
            raise result
        return result

    def run_all(self, terms: Sequence[NonlocalTerm]) -> list:
        """The flow of each term until an event: its ``Trajectory``, or the
        exception its run raised, which is that term's alone. The terms with
        a closed law are one step (0, t_max) on the grid, which they scan
        together (``_locate_all``); each other term runs its
        own DOPRI5 steps."""
        results, rows, laws = [None] * len(terms), [], []
        for i, term in enumerate(terms):
            try:
                law = closed_length(self.spec0, term, self.modes)
                if law is None:
                    (results[i],) = _record(self, _dopri_steps(self, term))
                else:
                    rows.append(i)
                    laws.append(law)
            except Exception as exc:  # this term's failure alone
                results[i] = exc
        if laws:
            for i, result in zip(rows, _record(self, iter([(0.0, self.controls.t_max, laws)]), len(laws))):
                results[i] = result
        return results

    def rhs(self, term: NonlocalTerm, t: float, length: float) -> float:
        """dL/dt of ``term`` at (t, L), for the ODE path."""
        # H lives on (0, inf) x (0, inf); trial stages poking L <= 0 are
        # domain exits, which the step controller treats as rejections.
        if length <= 0.0:
            raise HDomainError(f"nonpositive length {length:.3e}")
        modes = self.modes
        h_val = _h(
            term,
            length,
            lambda: modes.area(t, length),
            lambda: modes.inverse_curvature(t, length),
        )
        return length - TWO_PI * h_val

    def margins(self, t: float, length: float) -> tuple:
        """``_margins`` at (t, L), the scalar test of the event locator; it
        keeps (t, j) of its grid minimum as ``node``."""
        # No FlowState here: the locator may probe lengths at or below the
        # vanish threshold where states are unconstructible.
        modes = self.modes
        rho_min, node = modes.min_node(t, length)
        self.node = t, node
        return _margins(self.limits, rho_min, modes.area(t, length), length)

    def pinch_root(self, path: Callable, node: int, lo: float, hi: float) -> float | None:
        """The root in (lo, hi) of the singularity margin at grid node
        ``node`` along L = path(t), phi(t) = L(t)/(2*pi) + sum g_n
        e^{(1-n^2)t} - eps (``_Modes.node_weights``), or None (see
        ``_model_root``). Where ``path`` is a ``ClosedLength``, L is its
        exponential sum (``ClosedLength.sum_rates``), so phi is

            (L0/(2*pi)) (sum c_i e^{rho_i t} + near(t))^(1/r) + sum g_n e^{(1-n^2)t} - eps,

        one ``np.exp`` over the law's rates and the modes' and one product
        with their two rows of coefficients per step, plus the law's
        near-resonant terms where it has any (``ClosedLength.near``), and no
        step calls ``path``. On the ODE path each step calls ``path`` once.
        No step runs a grid product."""
        modes, eps = self.modes, self.limits[0]
        weights = modes.node_weights(node)
        if isinstance(path, ClosedLength):
            count = path.sum_rates.size
            rates = np.concatenate((path.sum_rates, modes.decay))
            rows = np.zeros((2, rates.size))
            rows[0, :count], rows[1, count:] = path.sum_coeffs, weights
            scale, root, near = path.l0 / TWO_PI, 1.0 / path.power, path.near_coeffs.size

            def phi(t: float) -> float:
                ratio, deviation = rows @ modes.exp(rates * t, t)
                if near:
                    ratio += path.near(np.asarray(t))
                return float(scale * ratio**root + deviation - eps)

        else:

            def phi(t: float) -> float:
                return float(path(t) / TWO_PI + weights @ modes.factors(t) - eps)

        # A length law that overflows, or a ratio at or below 0, may give a
        # phi that is not finite, which ends the secant steps.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _model_root(phi, lo, hi)

    def scan(self, times: np.ndarray, lengths: np.ndarray) -> tuple:
        """(bound on the min radius, its size, area, its size) at each time,
        each with the size its rounding scales with: the mean plus the sum
        of |terms| of the grid sum, and the circular part plus |E|. O(N) per
        time."""
        modes = self.modes
        factors = modes.factors(times)
        e_val = (np.pi / 2.0) * (self._e_amp @ (factors * factors))
        mean = lengths / TWO_PI
        with np.errstate(over="ignore"):  # past L ~ 1e155 the area is inf: the float range is crossed
            circle = np.pi * mean * mean
        return mean - self._rho_amp @ factors, np.abs(mean) + self._rho_size @ factors, circle + e_val, circle - e_val

    def flags(self, times: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """One flag per check time of the block: set where some margin, with
        the curvature bound for the min radius, is within PRESCAN_SLACK of its
        size. The bound lies below the grid minimum, up to rounding far below
        1e-12 of the size, so every time where a scalar margin is <= 0 is
        flagged; the scalar test decides. ``lengths`` may hold one row per
        flow (``_locate_all``), and the flags take its shape, each row's the
        same as for its lengths alone."""
        rho_min, rho_size, area, area_size = self.scan(times, lengths)
        slack = PRESCAN_SLACK * np.abs(lengths)
        margins = _margins(self.limits, rho_min, area, lengths)
        flagged = margins[0] <= PRESCAN_SLACK * rho_size
        flagged |= margins[1] <= PRESCAN_SLACK * area_size
        for margin in margins[2:]:
            flagged |= margin <= slack
        return flagged


def _model_root(phi: Callable, lo: float, hi: float) -> float | None:
    """The root of phi in (lo, hi) by secant steps from lo and hi, or None.
    The root is taken once a step moves it by at most 0.05 EVENT_TIME_TOL,
    the room ``_narrow`` leaves around it. None where phi is not positive at
    lo and <= 0 at hi, or a step leaves (lo, hi) or does not settle within
    bisection's count of steps."""
    x0, f0, x1, f1 = lo, phi(lo), hi, phi(hi)
    if not f0 > 0.0 >= f1:
        return None
    for _ in range(math.ceil(math.log2(max(hi - lo, EVENT_TIME_TOL) / EVENT_TIME_TOL))):
        if f1 == f0:
            return None
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo < x2 < hi:
            return None
        if abs(x2 - x1) <= 0.05 * EVENT_TIME_TOL:
            return x2
        x0, f0, x1, f1 = x1, f1, x2, phi(x2)
    return None


def _locate_all(heat: _Heat, t_prev: float, check_times: np.ndarray, paths: Sequence, lengths: np.ndarray) -> list:
    """Earliest crossing along each L = path(t) of ``paths`` at the check
    times that follow ``t_prev``: (t_before, L at t_before, event), None, or
    the exception its law or tests raised, which ends that path alone.

    The paths move through the check times together, in blocks: the first
    SCAN_CHUNK check times, then the rest of each SCAN_BLOCK_CAP. Where a
    block starts such a chunk, row r of ``lengths``, one row per path and
    one column per check time, takes paths[r] at the chunk's check times,
    for the paths still running; so a path that ends early evaluates at
    most one chunk past its event, and the caller reads the kept states
    from the same row. ``heat.flags`` then runs once per block, on the rows
    of the paths still running (one row alone as it is), and each of them,
    in order, runs its scalar tests on its own flagged check times
    (``_locate``). Flags are elementwise, so each row's are those of a call
    on its lengths alone."""
    results, live, lo = [None] * len(paths), list(range(len(paths))), 0
    while live and lo < len(check_times):
        stop = (lo // SCAN_BLOCK_CAP + 1) * SCAN_BLOCK_CAP if lo else SCAN_CHUNK
        if lo % SCAN_BLOCK_CAP == 0:
            chunk = slice(lo, lo + SCAN_BLOCK_CAP)
            for r in live:
                try:
                    lengths[r, chunk] = paths[r](check_times[chunk])
                except Exception as exc:  # this path's failure alone
                    results[r] = exc
            live = [r for r in live if results[r] is None]
            if not live:
                break
        rows = lengths[live, lo:stop] if len(live) > 1 else lengths[live[0], lo:stop]
        for r, flagged in zip(live, heat.flags(check_times[lo:stop], rows).reshape(len(live), -1)):
            try:
                results[r] = _locate(heat, paths[r], t_prev, check_times, lo + flagged.nonzero()[0])
            except Exception as exc:  # this path's failure alone
                results[r] = exc
        live = [r for r in live if results[r] is None]
        lo = stop
    return results


def _locate(heat: _Heat, path: Callable, t_prev: float, check_times: np.ndarray, flagged: np.ndarray):
    """Earliest crossing along L = path(t) at the check times of indices
    ``flagged`` (ascending, one block's), where the pre-scan says some kind
    may be crossed: (t_before, L at t_before, event), or None where none is.

    The check times follow ``t_prev``. The scalar test, ``heat.margins`` at
    (t, path(t)), runs on the flagged check times in order and leaves the
    grid node of its minimum in ``heat.node``. At the first where any kind
    is crossed, ``_narrow`` takes [previous check time, it] down to
    EVENT_TIME_TOL. Where the singularity is the first kind crossed there,
    ``_narrow`` takes the root of ``heat.pinch_root`` at that check time's
    node as its interpolation point. The event is the first kind crossed at
    the upper end of the bracket, and theta* the angle of the node of the
    scalar test at the event time.
    """
    known: dict[float, tuple] = {}

    def measure(t: float) -> tuple:
        # (L, margins, grid node of the minimum) at t, each computed once.
        if t not in known:
            length = path(t)
            known[t] = length, heat.margins(t, length), heat.node[1]
        return known[t]

    def probe(t: float) -> tuple:
        return measure(t)[1]

    for i in flagged.tolist():
        hi = float(check_times[i])
        fired = _crossed(probe(hi))
        if fired:
            below = t_prev if i == 0 else float(check_times[i - 1])
            root = heat.pinch_root(path, measure(hi)[2], below, hi) if fired[0] == EVENT_SINGULARITY else None
            t0, t1 = _narrow(probe, below, hi, root)
            fired = _crossed(probe(t1))
            theta = heat.modes.node_theta(measure(t1)[2]) if fired[0] == EVENT_SINGULARITY else None
            return t0, measure(t0)[0], TerminationEvent(kind=fired[0], t=t1, theta=theta)
    return None


def _narrow(probe: Callable, lo: float, hi: float, root: float | None = None) -> tuple[float, float]:
    """[lo, hi], nothing crossed at lo and something at hi, narrowed to
    EVENT_TIME_TOL on "nothing crossed yet"; ``probe(t)`` gives the margins
    at t. Each probe is an ITP step (Oliveira and Takahashi, ACM TOMS 47(1),
    2021) on the margin of the first kind crossed at the upper end: regula
    falsi, moved toward the midpoint by 0.2 (b - a)^2 / (hi - lo) and kept
    within the radius of it that bisection plus one probe allows. So a
    smooth margin converges superlinearly, and a kinked or discontinuous
    one takes at most one probe more than bisection.

    ``root``, a model's root of that margin, replaces regula falsi and its
    move toward the midpoint while no probe contradicts it: the probes are
    root - 0.45 EVENT_TIME_TOL, where the model has nothing crossed, and
    root + 0.45 EVENT_TIME_TOL, where it has the margin <= 0, the one that
    leaves the shorter bracket first. The radius still holds, so the bound
    of one probe more than bisection stands. A probe that crosses
    something below root, or leaves the margin positive above it, drops
    the model, and plain ITP goes on from the bracket it left. The margin
    at lo is read only when regula falsi needs it.
    """
    a, b = lo, hi
    kind = _EVENT_PRIORITY.index(_crossed(probe(b))[0])
    fa, fb = None, probe(b)[kind]
    width = max(b - a, EVENT_TIME_TOL)
    for left in range(math.ceil(math.log2(width / EVENT_TIME_TOL)), -1, -1):
        if b - a <= EVENT_TIME_TOL:
            break
        mid = 0.5 * (a + b)
        if root is None:
            if fa is None:
                fa = probe(a)[kind]
            point = (b * fa - a * fb) / (fa - fb)  # regula falsi; fb <= 0 < fa
            nudge = 0.2 * (b - a) ** 2 / width
        else:
            below, above = root - 0.45 * EVENT_TIME_TOL, root + 0.45 * EVENT_TIME_TOL
            # Of the model's two probes still inside, the one that leaves the shorter bracket.
            point = below if a < below and (above >= b or b - below <= above - a) else above
            nudge = 0.0
        # A probe within this radius of mid leaves a bracket at most EVENT_TIME_TOL 2^left wide.
        radius = EVENT_TIME_TOL * 2.0**left - 0.5 * (b - a)
        shift = min(max(abs(mid - point) - nudge, 0.0), radius)
        t = float(mid - math.copysign(shift, mid - point))
        if not a < t < b:  # rounding, or a margin that is not finite
            t = mid
        margins = probe(t)
        fired = _crossed(margins)
        if root is not None and (bool(fired) if t < root else margins[kind] > 0.0):
            root = None
        if not fired:
            a, fa = t, margins[kind]
        else:
            if margins[kind] > 0.0:  # another kind crossed first: follow it
                kind = _EVENT_PRIORITY.index(fired[0])
                fa = probe(a)[kind]
            b, fb = t, margins[kind]
    return a, b


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


def _classify(spec0: SupportSpectrum, final_length: float, event: TerminationEvent) -> Outcome:
    _, cls, _, _, diagnostic = _BY_EVENT[event.kind]
    values = {
        "limit_length": final_length,
        "t_star": event.t,
        "theta_star": event.theta,
        "t_max": event.t,
        "diagnostic": f"{diagnostic} near t={event.t:.6g}",
    }
    if cls is ConvergesToCircle:
        values["center"] = limit_circle(spec0)
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def integrate(
    spec0: SupportSpectrum,
    term: NonlocalTerm,
    controls: IntegratorControls | None = None,
) -> Trajectory:
    """Run the flow from the given initial spectrum until an event.

    The initial spectrum must pass ``support.require_convex``. Sampled states
    land on multiples of ``sample_interval`` plus the final event time.
    L(t) comes from ``flows.closed_length`` where the length ODE is
    linear, as the one step (0, t_max), and from the DOPRI5 steps
    otherwise. The run records (t, L) pairs only and builds no
    FlowState; see ``Trajectory``. It is the one-flow case of ``_Heat``,
    whose heat half ``cli.sweep`` shares among the flows of an axis.
    """
    if controls is None:
        controls = IntegratorControls()
    return _Heat(spec0, controls).run(term)


def _sample_times(controls: IntegratorControls) -> np.ndarray:
    """Times of the recorded states after t = 0: every k * sample_interval
    (k >= 1) not the same instant as t_max (see TIME_RTOL), then t_max."""
    k = np.arange(1, int(controls.t_max / controls.sample_interval) + 2)
    grid = k * controls.sample_interval
    return np.append(grid[grid < controls.t_max * (1.0 - TIME_RTOL)], controls.t_max)


@functools.lru_cache(maxsize=4)
def _check_grid(controls: IntegratorControls) -> np.ndarray:
    """t = 0, then ``_sample_times``: one read-only array per controls,
    which every run on them shares."""
    grid = np.concatenate(([0.0], _sample_times(controls)))
    grid.flags.writeable = False
    return grid


def _record(heat: _Heat, steps: Iterator, count: int = 1) -> list:
    """States and event of ``count`` runs along their L(t), given as steps
    (t0, t1, paths), one path per run: path(t) is its L on [t0, t1] at a
    time or an array of times, until the next step is drawn. ``steps`` may
    return an event that ends every run still going. Each run's result is
    its ``Trajectory``, or the exception that ended it alone; an exception
    that ``steps`` raises is raised.

    A step's check times are the sample times (t = 0, then
    ``_sample_times``) not yet passed and before t1's instant (TIME_RTOL),
    then t1, recorded when it is the next sample time's instant. The runs
    still going scan them together (``_locate_all``) into a length column
    each, whose values their blocks and their kept states read alike. A
    run keeps the states up to the lower end of its crossing, if any, then
    that end, if a later instant, with the L probed there. A run
    to the horizon whose kept step ends are all grid times records the grid
    itself, and its ``Trajectory`` shares the heat half's grid columns."""
    controls, grid = heat.controls, heat.grid
    times, lengths = [[] for _ in range(count)], [[] for _ in range(count)]
    ends, going, k, exact = [None] * count, list(range(count)), 0, True  # each run's event, or its exception
    while going:
        try:
            t0, t1, paths = next(steps)
        except StopIteration as stop:
            event = stop.value or TerminationEvent(kind=EVENT_HORIZON, t=controls.t_max)
            for r in going:
                ends[r] = event
            break
        j = k + int(grid[k:].searchsorted(t1 * (1.0 - TIME_RTOL), side="left"))
        on_grid = j < len(grid) and abs(grid[j] - t1) <= TIME_RTOL * t1
        exact = exact and (not on_grid or t1 == grid[j])
        check = grid[k : j + 1] if on_grid and t1 == grid[j] else np.concatenate((grid[k:j], (t1,)))
        kept, k = (check, j + 1) if on_grid else (check[:-1], j)
        columns = np.empty((len(going), check.size))
        still = []
        for r, column, found in zip(going, columns, _locate_all(heat, t0, check, [paths[r] for r in going], columns)):
            if isinstance(found, Exception):
                ends[r] = found
                continue
            size = kept.size if found is None else int(kept.searchsorted(found[0], side="right"))
            times[r] += kept[:size].tolist()
            lengths[r] += column[:size].tolist()
            if found is None:
                still.append(r)
                continue
            t_stop, length_stop, ends[r] = found
            if t_stop - times[r][-1] > TIME_RTOL * t_stop:
                times[r].append(t_stop)
                lengths[r].append(length_stop)
        going = still
    results = []
    for run_times, run_lengths, end in zip(times, lengths, ends):
        if not isinstance(end, Exception):
            shared = exact and end.kind == EVENT_HORIZON and len(run_times) == len(grid)
            try:
                end = Trajectory(heat.spec0, grid if shared else run_times, run_lengths, end, heat)
            except Exception as exc:  # this run's failure alone
                end = exc
        results.append(end)
    return results


def _dopri_steps(heat: _Heat, term: NonlocalTerm) -> Iterator:
    """The accepted DOPRI5 steps of the length ODE of ``term``, as (t0, t1,
    [path]) for ``_record``. The first is the point t = 0 itself, so that t = 0
    is checked before the first RHS call. Returns the domain-exit or
    step-collapse event when the step size collapses before t_max."""
    controls, rhs = heat.controls, functools.partial(heat.rhs, term)
    t = 0.0
    length = curve_length(heat.spec0)
    yield t, t, [lambda tau: length + 0.0 * tau]  # L(0) at a time or an array of times
    k1 = rhs(t, length)
    h = min(1e-3, controls.t_max)
    while controls.t_max - t > TIME_RTOL * controls.t_max:
        h = min(h, MAX_STEP, controls.t_max - t)
        try:
            y5, err, k7, dense = _dopri_step(rhs, t, length, h, k1)
        except HDomainError:
            y5 = None
        if y5 is None or not np.isfinite(y5):
            h *= 0.25
            if h < MIN_STEP:
                return TerminationEvent(kind=EVENT_H_DOMAIN_EXIT if y5 is None else EVENT_STEP_COLLAPSE, t=t)
            continue
        scale = controls.abs_tol + controls.rel_tol * max(abs(length), abs(y5))
        err_norm = abs(err) / scale
        if not err_norm <= 1.0:  # rejects NaN estimates too
            h *= max(0.2, 0.9 * err_norm**-0.2)
            if h < MIN_STEP:
                return TerminationEvent(kind=EVENT_STEP_COLLAPSE, t=t)
            continue

        t1 = controls.t_max if controls.t_max - (t + h) <= TIME_RTOL * controls.t_max else t + h

        def path(tau):
            if isinstance(tau, np.ndarray):
                return np.where(tau == t1, y5, dense(tau))
            return y5 if tau == t1 else dense(tau)

        yield t, t1, [path]
        t, length, k1 = t1, y5, k7
        if err_norm == 0.0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * err_norm**-0.2))


def _json_num(x: float):
    return float(x) if math.isfinite(x) else None


def _curvatures(rho_min, rho_max) -> np.ndarray:
    # (k_min, k_max) = (1/rho_max, 1/rho_min), NaN unless rho_min >
    # CONVEXITY_EPS (the state is strictly convex); for one state or a column.
    return 1.0 / np.where(np.greater(rho_min, CONVEXITY_EPS), (rho_max, rho_min), np.nan)


def _shape(state: FlowState) -> tuple[float, float, float, float]:
    # (ipd, ipr, k_min, k_max); ipr is inf at non-positive area.
    k_min, k_max = _curvatures(*radius_extrema(state.spectrum)).tolist()
    return isoperimetric_deficit(state.spectrum), isoperimetric_ratio(state.L, state.A), k_min, k_max


def ipd_column(traj: Trajectory) -> np.ndarray:
    """Isoperimetric deficit of every recorded state,
    2 pi^2 sum (n^2 - 1)((a_n f_n)^2 + (b_n f_n)^2) with f_n = e^{(1 - n^2) t},
    each value that of ``support.isoperimetric_deficit`` bit for bit. A
    read-only array, computed once per trajectory, or once per heat half
    for the runs that record its grid (``_Heat.grid_column``)."""
    if traj._ipd is None:
        shared = traj._shared
        ipd = _by_chunk(traj._modes.deficit, traj.t) if shared is None else shared.grid_column("deficit")
        object.__setattr__(traj, "_ipd", _read_only(ipd))
    return traj._ipd


def ipr_column(traj: Trajectory) -> np.ndarray:
    """Isoperimetric ratio of every recorded state; inf at non-positive area.
    Each value is ``support.isoperimetric_ratio``'s bit for bit: np.float_power
    squares with libm pow, as a float's ** does, where np.square multiplies."""
    length, area = traj.L, traj.A
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.float_power(length, 2.0) / (4.0 * np.pi * area)
    return np.where(area > 0.0, ratio, np.inf)


def _curvature_columns(traj: Trajectory) -> np.ndarray:
    # (k_min, k_max) of every recorded state from the grid extrema of the
    # radius of curvature, as in _shape; one block product per SCAN_BLOCK_CAP states.
    return _curvatures(*_by_chunk(traj._modes.radius_range, traj.t, traj.L))


def h_column(traj: Trajectory, term: NonlocalTerm) -> list[float]:
    """H of every recorded state: ``flows.evaluate_h`` of the state, bit for bit."""
    modes = traj._modes
    return [
        _h(term, L, lambda: A, lambda: modes.inverse_curvature(t, L))
        for t, L, A in zip(traj.t.tolist(), traj.L.tolist(), traj.A.tolist())
    ]


def record_rows(traj: Trajectory) -> list[dict]:
    """``state_record`` of every recorded state, built from the columns.
    k_min and k_max come from block products, so they may differ from
    state_record's in the last bits; every other field is the same."""
    k_min, k_max = _curvature_columns(traj)
    columns = {
        "t": traj.t.tolist(),
        "L": traj.L.tolist(),
        "A": traj.A.tolist(),
        "ipd": ipd_column(traj).tolist(),
        "ipr": [_json_num(v) for v in ipr_column(traj).tolist()],
        "k_min": [_json_num(v) for v in k_min.tolist()],
        "k_max": [_json_num(v) for v in k_max.tolist()],
    }
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def state_record(state: FlowState) -> dict:
    """Scalar record of one state, used for JSONL export and the CLI; see
    ``record_rows`` for the records of a whole trajectory."""
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
    """The trailing summary line of the frames export."""
    event = traj.event
    return {
        "event": {"kind": event.kind, "t": event.t, "theta": event.theta},
        "outcome": outcome_record(traj.outcome),
    }
