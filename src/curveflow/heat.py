"""Closed-form propagation of support-function deviations.

The deviation of the support function from its circular mean solves a
linear heat-type equation on the circle whose Fourier mode n carries the
exact factor exp((1 - n^2) t): mode 1 (translation) is invariant, every
mode n >= 2 decays. That diagonal factor is the canonical propagation
path here.

The equivalent Gaussian-convolution representation

    B(theta, t) = e^t * integral K_t(theta - xi) (u0(xi) - mean0) dxi,
    K_t(s) = exp(-s^2 / (4 t)) / (2 sqrt(pi t)),

is kept as an independent quadrature oracle (:func:`kernel_oracle`) so
the two routes can be cross-checked; it is never used by the solver.

The scalars feeding the length dynamics are known in advance from the
initial data alone: the deviation mean D(t) is identically zero, and

    E1(t) = pi*mean0^2*e^{2t}
            + (pi/2) sum (1 - n^2) e^{2(1-n^2)t} (a_n^2 + b_n^2)
    E(t)  = E1(t) - (L0^2 / 4 pi) e^{2t}  <=  0.
"""

from __future__ import annotations

import numpy as np

from .support import (
    SupportSpectrum,
    _coeff_array,
    default_validation_grid,
    evaluate_support,
    project_from_samples,
    theta_grid,
)

# Gaussian oracle quadrature: window +-KERNEL_WINDOW*sqrt(t) (tail < 1e-28)
# and 2*KERNEL_PANELS+1 Simpson nodes (measured error < 1e-13 for N <= 8).
KERNEL_WINDOW = 16.0
KERNEL_PANELS = 8192


class DeviationSpectrum(SupportSpectrum):
    """Zero-mean support spectrum: the deviation from the circular mean."""

    def __init__(self, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> None:
        super().__init__(mean=0.0, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)

    def evaluate(self, theta):
        return evaluate_support(self, theta)


def deviation_of(spec: SupportSpectrum) -> DeviationSpectrum:
    return DeviationSpectrum(cos_coeffs=spec.cos_coeffs, sin_coeffs=spec.sin_coeffs)


def with_mean(dev: DeviationSpectrum, mean: float) -> SupportSpectrum:
    return SupportSpectrum(mean=mean, cos_coeffs=dev.cos_coeffs, sin_coeffs=dev.sin_coeffs)


def mode_factors(truncation: int, t: float) -> np.ndarray:
    """exp((1 - n^2) t) for n = 1..truncation."""
    n = np.arange(1, truncation + 1, dtype=float)
    return np.exp((1.0 - n**2) * t)


def propagate(dev0: DeviationSpectrum, t: float) -> DeviationSpectrum:
    """Scale mode n by exp((1 - n^2) t); t = 0 is the identity."""
    if t < 0.0:
        raise ValueError("propagation time must be non-negative")
    factors = mode_factors(dev0.truncation, t)
    return DeviationSpectrum(
        cos_coeffs=dev0.cos_coeffs * factors,
        sin_coeffs=dev0.sin_coeffs * factors,
    )


def kernel_oracle(
    u0,
    theta: float,
    t: float,
    *,
    window: float = KERNEL_WINDOW,
    panels: int = KERNEL_PANELS,
) -> float:
    """Deviation at (theta, t) from the literal Gaussian representation.

    ``u0`` is either a callable returning support values for an array of
    angles, or uniform-grid samples (a trig interpolant of truncation
    len // 2 - 1, at most MAX_TRUNCATION, is built from them). The heat
    kernel on the line is integrated by composite Simpson over
    |xi - theta| <= window*sqrt(t); undefined at t = 0 where the kernel
    degenerates to a delta.
    """
    if t <= 0.0:
        raise ValueError("kernel quadrature requires t > 0")
    if callable(u0):
        u_eval = u0
        mean0 = float(np.mean(u_eval(theta_grid(4096))))
    else:
        samples = _coeff_array(u0, "u0 samples")
        interp = project_from_samples(samples, truncation=len(samples) // 2 - 1)
        u_eval = lambda xs: evaluate_support(interp, xs)  # noqa: E731
        mean0 = float(np.mean(samples))
    half = window * np.sqrt(t)
    s = np.linspace(-half, half, 2 * panels + 1)
    weights = np.ones_like(s)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (s[1] - s[0]) / 3.0
    kernel = np.exp(-(s**2) / (4.0 * t)) / (2.0 * np.sqrt(np.pi * t))
    return float(np.exp(t) * np.sum(weights * kernel * (np.asarray(u_eval(theta + s)) - mean0)))


def e1(spec0: SupportSpectrum, t: float) -> float:
    """The quadratic propagated-support integral driving the length ODE."""
    _, e_val = known_scalars(spec0, t)
    return float(np.pi * spec0.mean**2 * np.exp(2.0 * t) + e_val)


def known_scalars(spec0: SupportSpectrum, t: float) -> tuple[float, float]:
    """(D, E) at time t. D vanishes identically; E <= 0 always.

    E(t) equals minus the isoperimetric deficit over 4*pi at the
    propagated curve, computable from the initial data alone.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    n = np.arange(1, spec0.truncation + 1, dtype=float)
    return 0.0, _e_value(1.0 - n**2, spec0.cos_coeffs**2 + spec0.sin_coeffs**2, t)


def _e_value(decay: np.ndarray, power: np.ndarray, t):
    # E(t) = -(pi/2) sum (n^2 - 1) e^{2(1-n^2)t} p_n from decay = 1 - n^2
    # and the initial mode power p_n, precomputable once per run. For an
    # array of times, one E per time: a (times x modes) array summed along
    # each row, pairwise as for a single time, so each value is the same.
    tt = np.asarray(t, dtype=float)
    e_val = -(np.pi / 2.0) * np.sum(-decay * np.exp(2.0 * decay * tt[..., None]) * power, axis=-1)
    return float(e_val) if e_val.ndim == 0 else e_val


def deviation_sup_norm(dev0: DeviationSpectrum, t: float) -> float:
    """Sup-norm of the propagated deviation on the validation grid.

    Bounded by e^t * sum(|a_n| + |b_n|) of the initial deviation; in
    fact each surviving mode decays except the translation mode.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    moved = propagate(dev0, t)
    return float(np.max(np.abs(moved.evaluate(theta_grid(default_validation_grid(dev0.truncation))))))
