"""Mode propagation: the one home of the per-run mode arrays.

The deviation of the support function from its circular mean solves a
linear heat-type equation whose Fourier mode n carries the exact factor
exp((1 - n^2) t): mode 1 (translation) is invariant, every other decays.
Only this module builds the decay rates 1 - n^2 (shared per truncation),
the initial mode power p_n = a_n^2 + b_n^2 and the factors; ``flows`` and
``integrate`` read them through :class:`_Modes`. The length dynamics read

    E(t) = -(pi/2) sum (n^2 - 1) e^{2(1-n^2)t} p_n  <=  0,

minus the isoperimetric deficit over 4*pi of the propagated curve, known
from the initial data alone: A(t) = L(t)^2 / (4*pi) + E(t).
"""

from __future__ import annotations

import functools

import numpy as np

from .support import (
    TWO_PI,
    SupportSpectrum,
    _deficit,
    _grid_deviation,
    _inverse_curvature,
    _radius_table,
)


@functools.lru_cache(maxsize=8)
def _decay(truncation: int) -> np.ndarray:
    # 1 - n^2 for n = 1..truncation, shared read-only.
    n = np.arange(1, truncation + 1, dtype=float)
    decay = 1.0 - n**2
    decay.flags.writeable = False
    return decay


def _area(length, e_val):
    # Written as pi*(L/2pi)^2 + E so the circular part is exact whenever
    # L/(2*pi) is; element by element for arrays.
    mean = length / TWO_PI
    area = np.pi * mean * mean + e_val
    return float(area) if np.ndim(area) == 0 else area


class _Modes:
    """Mode arrays of an initial spectrum: every scalar the length solve
    reads at (t, L) is a short sum over the decay rates 1 - n^2, the
    coefficients a_n, b_n and their power p_n. Building one costs a cache
    lookup; ``power`` and the grid-sum sizes are computed on first use.
    The radius of curvature on the validation grid,

        rho(theta, t) = L(t)/(2*pi) + sum (1-n^2) d_n(t) * harmonics,

    goes through the shared table of ``support._grid_deviation``, so
    ``min_radius`` is ``radius_extrema`` of the recorded state, bit for bit.
    Since |a cos n theta + b sin n theta| <= sqrt(a^2 + b^2), rho over every
    theta is at least

        L(t)/(2*pi) - sum |1 - n^2| sqrt(p_n) e^{(1-n^2)t},

    an O(N) bound per time whose sum decays at rate 3 or more;
    ``scan`` reads it first and evaluates a block of times with one product
    against the grid table only where the bound does not clear the threshold.
    """

    def __init__(self, spec0: SupportSpectrum):
        self.decay = _decay(spec0.truncation)
        self._a0 = spec0.cos_coeffs
        self._b0 = spec0.sin_coeffs

    @functools.cached_property
    def power(self) -> np.ndarray:
        return self._a0**2 + self._b0**2

    @functools.cached_property
    def _rho_size(self) -> np.ndarray:
        # Sum of |terms| of the grid sum for rho, per mode, at t = 0.
        return np.abs(self.decay) * (np.abs(self._a0) + np.abs(self._b0))

    @functools.cached_property
    def _rho_amp(self) -> np.ndarray:
        # Largest |mode n term| of rho over every theta, at t = 0.
        return np.abs(self.decay) * np.sqrt(self.power)

    def factors(self, t: float) -> np.ndarray:
        """exp((1 - n^2) t) for n = 1..N."""
        return np.exp(self.decay * t)

    def spectrum(self, t: float, mean: float) -> SupportSpectrum:
        """The spectrum with mode n scaled by exp((1 - n^2) t) and the given mean."""
        if t < 0.0:
            raise ValueError("propagation time must be non-negative")
        factors = self.factors(t)
        return SupportSpectrum(
            mean=mean, cos_coeffs=self._a0 * factors, sin_coeffs=self._b0 * factors
        )

    def e_value(self, t):
        """E(t); for an array of times, one E per time."""
        # A (times x modes) array summed along each row, pairwise as for a
        # single time, so each value is the same.
        tt = np.asarray(t, dtype=float)
        decay, power = self.decay, self.power
        e_val = -(np.pi / 2.0) * np.sum(-decay * np.exp(2.0 * decay * tt[..., None]) * power, axis=-1)
        return float(e_val) if e_val.ndim == 0 else e_val

    def area(self, t, length):
        """flows.area_along_flow(spec0, length, t), bit for bit; element by
        element for arrays of times and lengths."""
        return _area(length, self.e_value(t))

    def inverse_curvature(self, t: float, length: float) -> float:
        """total_inverse_curvature of flow_state(spec0, t, length), bit for bit."""
        factors = self.factors(t)
        return _inverse_curvature(length / TWO_PI, self._a0 * factors, self._b0 * factors)

    def deviation(self, t: float) -> np.ndarray:
        factors = self.factors(t)
        return _grid_deviation(self._a0 * factors, self._b0 * factors)

    def min_radius(self, t: float, length: float) -> float:
        """radius_extrema(flow_state(spec0, t, L).spectrum)[0], bit for bit."""
        return length / TWO_PI + float(np.min(self.deviation(t)))

    def argmin_theta(self, t: float) -> float:
        thetas = _radius_table(len(self._a0))[0]
        return float(thetas[int(np.argmin(self.deviation(t)))])

    def deficit(self, times: np.ndarray) -> np.ndarray:
        """isoperimetric_deficit of the state at each time, bit for bit: row
        i of the (times x modes) factors is factors(times[i])."""
        factors = np.exp(np.multiply.outer(times, self.decay))
        return _deficit(self._a0 * factors, self._b0 * factors)

    def _factor_block(self, times: np.ndarray) -> np.ndarray:
        # (modes x times): column i is factors(times[i]).
        return np.exp(np.multiply.outer(self.decay, times))

    def _deviation_block(self, factors: np.ndarray) -> np.ndarray:
        # (grid x times) deviation of the radius of curvature from its mean:
        # one product for all the times.
        return _grid_deviation(self._a0[:, None] * factors, self._b0[:, None] * factors)

    def radius_range(self, times: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Rows (min, max) of the radius of curvature on the grid at each
        time. The block product sums in another order than
        ``radius_extrema``; the two differ by rounding, far below 1e-12 of
        the sizes ``scan`` gives."""
        dev = self._deviation_block(self._factor_block(times))
        return lengths / TWO_PI + np.array([dev.min(axis=0), dev.max(axis=0)])

    def scan(self, times: np.ndarray, lengths: np.ndarray, eps: float, slack: float):
        """(min radius, area) at each time, each with the size its rounding
        scales with: the mean plus the sum of |terms| of the grid sum, and
        the circular part plus |E|.

        The min radius is the grid minimum of ``radius_range``, unless the
        bound L/(2*pi) - sum |1 - n^2| sqrt(p_n) e^{(1-n^2)t} exceeds ``eps``
        by more than ``slack`` times the size at every time of the block:
        then it is that bound and the grid product is skipped. The bound
        lies below the grid minimum up to rounding far below 1e-12 of the
        size, so "min radius - eps <= s * size" reads the same on both for
        any s up to slack/2."""
        factors = self._factor_block(times)
        mean = lengths / TWO_PI
        rho_size = np.abs(mean) + self._rho_size @ factors
        rho_min = mean - self._rho_amp @ factors
        if not (rho_min - eps > slack * rho_size).all():
            rho_min = mean + self._deviation_block(factors).min(axis=0)
        e_val = (np.pi / 2.0) * ((self.decay * self.power) @ (factors * factors))
        with np.errstate(over="ignore"):  # past L ~ 1e155 the area is inf, as in area_along_flow
            circle = np.pi * mean * mean
        return rho_min, rho_size, circle + e_val, circle - e_val


def propagate(spec: SupportSpectrum, t: float) -> SupportSpectrum:
    """The deviation of ``spec`` from its circular mean at time t: a
    zero-mean spectrum with mode n scaled by exp((1 - n^2) t); t = 0 keeps
    the coefficients."""
    return _Modes(spec).spectrum(t, 0.0)


def known_scalars(spec0: SupportSpectrum, t: float) -> tuple[float, float]:
    """(D, E) at time t: the deviation mean D vanishes identically; E <= 0."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return 0.0, _Modes(spec0).e_value(t)
