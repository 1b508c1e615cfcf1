"""Mode propagation: the one home of the per-run mode arrays.

The deviation of the support function from its circular mean solves a
linear heat-type equation whose Fourier mode n carries the exact factor
exp((1 - n^2) t): mode 1 (translation) is invariant, every other decays.
The decay rates 1 - n^2 are ``support._decay``, one read-only array per
truncation that the closed forms of ``support`` weight their modes with
too, and E(t) reads n^2 - 1 and 2(1 - n^2) from ``support._deficit_rates``
beside it. Only this module builds the initial mode power p_n = a_n^2 + b_n^2
and the factors; ``flows`` and ``integrate`` read them through
:class:`_Modes`. The length dynamics read

    E(t) = -(pi/2) sum (n^2 - 1) e^{2(1-n^2)t} p_n  <=  0,

minus the isoperimetric deficit over 4*pi of the propagated curve, known
from the initial data alone: A(t) = L(t)^2 / (4*pi) + E(t). Each quantity
is one ``_Modes`` method that takes a time or an array of times; the grid
extrema of the radius of curvature come from ``support._radius_range``, and
the minimum alone, which the event locator reads, from ``support._min_radius``.
The locator's pre-scan and its bound on that minimum are ``integrate._Heat``'s.

A factor below e^EXP_CUT = e^-600 (``support.EXP_CUT``) reads exactly
0.0 (``support._decay_exp``, past ``_Modes._cut_from``), so no subnormal
coefficient reaches a product. Every radius, area and deficit keeps its
bits; only E reads 0 where every term is below the cut, and a
coefficient of ``spectrum`` reads 0.0 where its factor is.
"""

from __future__ import annotations

import math

import numpy as np

from .support import (
    EXP_CUT,
    TWO_PI,
    SupportSpectrum,
    _decay,
    _decay_exp,
    _deficit,
    _deficit_rates,
    _grid_deviation,
    _inverse_curvature,
    _min_radius,
    _radius_range,
    _radius_table,
)


def _area(length, e_val):
    # Written as pi*(L/2pi)^2 + E so the circular part is exact whenever
    # L/(2*pi) is; element by element for arrays.
    mean = length / TWO_PI
    area = np.pi * mean * mean + e_val
    # getattr, not np.ndim: np.ndim costs more than the rest on a Python float.
    return area if getattr(area, "ndim", 0) else float(area)


class _Modes:
    """Mode arrays of an initial spectrum: every scalar the length solve
    reads at (t, L) is a short sum over the decay rates 1 - n^2, the
    coefficients a_n, b_n and their power p_n. Building one costs a cache
    lookup and the power. Each quantity has one method, which takes a time
    or an array of times. The radius of curvature on the validation grid,

        rho(theta, t) = L(t)/(2*pi) + sum (1-n^2) d_n(t) * harmonics,

    has its extrema from ``support._radius_range``, so ``radius_range`` at
    one time is ``radius_extrema`` of the recorded state, bit for bit, and
    ``min_radius`` is its minimum. The methods for one time scale the
    coefficients with ``_scaled``, which skips the (modes x times) shapes.
    """

    def __init__(self, spec0: SupportSpectrum):
        self.decay = _decay(spec0.truncation)
        self._a0 = spec0.cos_coeffs
        self._b0 = spec0.sin_coeffs
        self.power = self._a0**2 + self._b0**2
        self._e_weight, self._e_rate = _deficit_rates(spec0.truncation)
        # A hair under the time at which the least rate of a mode with nonzero
        # power reaches the cut: up to it every such factor's exponent is at or
        # above the cut, and np.exp alone serves. A mode past it has power 0,
        # so |a_n|, |b_n| < 1e-161 and its coefficient times any factor below
        # the cut is 0.0 as well.
        power = self.power
        live = power.size if power.item(-1) else 1 + max(power.nonzero()[0].tolist(), default=0)
        least = self.decay.item(live - 1)
        self._cut_from = EXP_CUT / least * (1.0 - 1e-15) if least else math.inf

    def factors(self, t) -> np.ndarray:
        """exp((1 - n^2) t) for n = 1..N; (modes x times) for an array of
        ascending times. Past ``_cut_from`` a factor below the cut is 0.0."""
        x = np.multiply.outer(self.decay, t)
        return np.exp(x) if np.asarray(t).item(-1) <= self._cut_from else _decay_exp(x)

    def coeffs(self, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (a_n f_n, b_n f_n): vectors for one time, (modes x times) columns for many.
        shape = (-1,) + (1,) * (factors.ndim - 1)
        return self._a0.reshape(shape) * factors, self._b0.reshape(shape) * factors

    def _scaled(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        # coeffs(factors(t)) at one time, bit for bit: decay * t is the outer
        # product with a scalar, and there is nothing to reshape.
        x = self.decay * t
        factors = np.exp(x) if t <= self._cut_from else _decay_exp(x)
        return self._a0 * factors, self._b0 * factors

    def spectrum(self, t: float, mean: float) -> SupportSpectrum:
        """The spectrum with mode n scaled by exp((1 - n^2) t) and the given
        mean; a mode whose factor is below the cut (``support.EXP_CUT``) reads 0.0."""
        if t < 0.0:
            raise ValueError("propagation time must be non-negative")
        cos_coeffs, sin_coeffs = self._scaled(t)
        return SupportSpectrum(mean=mean, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)

    def e_value(self, t):
        """E(t); for an array of ascending times, one E per time. Terms below
        the cut are 0.0, so E reads 0 where every term is."""
        # A (times x modes) array summed along each row, pairwise as for a single
        # time, so each value is the same; add.reduce skips np.sum's wrapper call.
        # E's rates are twice the factors', so its exponents stay at or above
        # the cut up to half the factors' time.
        tt = np.asarray(t, dtype=float)
        x = self._e_rate * tt[..., None]
        squares = np.exp(x) if 2.0 * tt.item(-1) <= self._cut_from else _decay_exp(x)
        e_val = -(np.pi / 2.0) * np.add.reduce(self._e_weight * squares * self.power, axis=-1)
        return float(e_val) if e_val.ndim == 0 else e_val

    def area(self, t, length):
        """flows.area_along_flow(spec0, length, t), bit for bit; element by
        element for arrays of times and lengths."""
        return _area(length, self.e_value(t))

    def inverse_curvature(self, t: float, length: float) -> float:
        """total_inverse_curvature of flow_state(spec0, t, length), bit for bit."""
        return _inverse_curvature(length / TWO_PI, *self._scaled(t))

    def radius_range(self, t, length) -> tuple:
        """(min, max) of the radius of curvature on the grid: at one time
        ``radius_extrema`` of flow_state(spec0, t, L) bit for bit, for arrays
        of times and lengths one pair of arrays. A block product sums in
        another order than one time's; the two differ by rounding, far below
        1e-12 of the radius scale."""
        return _radius_range(length / TWO_PI, *self.coeffs(self.factors(t)))

    def min_radius(self, t: float, length: float) -> float:
        """``radius_range(t, length)[0]`` at one time, bit for bit: the scalar
        test of the event locator, which reads no maximum."""
        return float(_min_radius(length / TWO_PI, *self._scaled(t)))

    def argmin_theta(self, t: float) -> float:
        dev = _grid_deviation(*self._scaled(t))
        return float(_radius_table(len(self._a0))[0][int(np.argmin(dev))])

    def deficit(self, times: np.ndarray) -> np.ndarray:
        """isoperimetric_deficit of the state at each time, bit for bit: row
        i of the (times x modes) factors is factors(times[i])."""
        x = np.multiply.outer(times, self.decay)
        factors = np.exp(x) if times.item(-1) <= self._cut_from else _decay_exp(x)
        return _deficit(self._a0 * factors, self._b0 * factors)


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
