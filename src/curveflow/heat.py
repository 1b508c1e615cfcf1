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
the minimum alone with its grid node, which the event locator reads, from
``_Modes.min_node``. At a fixed node the radius is an exponential sum in t
(``_Modes.node_weights``), which the locator models a pinch with. Its
pre-scan and its bound on the minimum are ``integrate._Heat``'s.

A factor below e^EXP_CUT = e^-600 (``support.EXP_CUT``) reads exactly
0.0 (``_Modes.exp``: ``support._decay_exp`` past ``_Modes._cut_from``), so no subnormal
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
    ``min_node`` its minimum with the node where it lies. The methods for
    one time scale the coefficients with ``_scaled``, which skips the
    (modes x times) shapes.
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
        return self.exp(np.multiply.outer(self.decay, t), np.asarray(t).item(-1))

    def exp(self, x: np.ndarray, t: float) -> np.ndarray:
        """e^x for exponents x = rate * time with times up to t, counted in
        the factors' rates (E's rates are twice theirs, so E passes 2t):
        ``np.exp`` up to ``_cut_from``, past it ``support._decay_exp``, which
        reads an exponent below the cut as 0.0. The one home of that choice."""
        return np.exp(x) if t <= self._cut_from else _decay_exp(x)

    def _scaled(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        # (a_n f_n, b_n f_n) at one time, as ``radius_range`` scales them, bit
        # for bit: decay * t is the outer product with a scalar, and there is
        # nothing to reshape.
        factors = self.exp(self.decay * t, t)
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
        squares = self.exp(self._e_rate * tt[..., None], 2.0 * tt.item(-1))
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
        factors = self.factors(t)
        shape = (-1,) + (1,) * (factors.ndim - 1)  # (modes x times) columns for many times
        return _radius_range(length / TWO_PI, self._a0.reshape(shape) * factors, self._b0.reshape(shape) * factors)

    def min_node(self, t: float, length: float) -> tuple[float, int]:
        """(min radius, j) at one time from one grid product: the scalar test
        of the event locator, which reads no maximum, and the grid node j
        where the deviation is least. The radius is the mean added after the
        least deviation, ``radius_range(t, length)[0]`` bit for bit. Of nodes
        that tie, j is the one nearest theta = 0 either way round, the lower
        at equal distance, so that reflecting the curve (node j to M - j)
        reflects j, and with it everything read at j, bit for bit."""
        dev = _grid_deviation(*self._scaled(t))
        node = int(dev.argmin())
        least = dev.item(node)
        if dev[::-1].argmin() != len(dev) - 1 - node:  # another node ties (or a NaN)
            ties = (dev == least).nonzero()[0]
            node = int(ties[np.minimum(ties, len(dev) - ties).argmin()]) if ties.size else node
        return length / TWO_PI + least, node

    def node_theta(self, node: int) -> float:
        """The angle of grid node ``node``."""
        return float(_radius_table(len(self._a0))[0][node])

    def argmin_theta(self, t: float) -> float:
        """The angle of ``min_node``'s node at t."""
        return self.node_theta(self.min_node(t, 0.0)[1])

    def node_weights(self, node: int) -> np.ndarray:
        """g_n = (1 - n^2)(a_n cos n theta_j + b_n sin n theta_j) at grid node
        j = ``node``: the radius of curvature there is L(t)/(2*pi) + sum g_n
        e^{(1-n^2)t}, an exponential sum in t."""
        _, cos_table, sin_table = _radius_table(len(self._a0))
        return cos_table[node] * self._a0 + sin_table[node] * self._b0

    def deficit(self, times: np.ndarray) -> np.ndarray:
        """isoperimetric_deficit of the state at each time, bit for bit: row
        i of the (times x modes) factors is factors(times[i])."""
        factors = self.exp(np.multiply.outer(times, self.decay), times.item(-1))
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
