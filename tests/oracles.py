"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the package's closed forms and code
paths: support functions are evaluated by raw term-by-term summation,
geometric quantities come from dense trapezoid quadrature of their
defining integrals, propagation from the literal Gaussian convolution
integrated by composite Simpson, event times from plain bisection, and
the event pre-scan's flags from the grid minimum at every check time.
The decay factors e^{(1 - n^2) t} are plain np.exp, with no cut below
``support.EXP_CUT``, and summed as the package sums them, so that a cut
that changes no result shows as equal bits.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def grid(m):
    return TWO_PI * np.arange(m) / m


def u_series(mean, cos, sin, thetas):
    """Direct summation of the support series."""
    thetas = np.asarray(thetas, dtype=float)
    total = np.full_like(thetas, float(mean))
    for n, (a, b) in enumerate(zip(cos, sin), start=1):
        total = total + a * np.cos(n * thetas) + b * np.sin(n * thetas)
    return total


def rho_series(mean, cos, sin, thetas):
    """u'' + u by term-by-term differentiation."""
    thetas = np.asarray(thetas, dtype=float)
    total = np.full_like(thetas, float(mean))
    for n, (a, b) in enumerate(zip(cos, sin), start=1):
        total = total + (1.0 - n * n) * (a * np.cos(n * thetas) + b * np.sin(n * thetas))
    return total


def mean_quadrature(mean, cos, sin, m=4096):
    return float(np.mean(u_series(mean, cos, sin, grid(m))))


def area_quadrature(mean, cos, sin, m=2048):
    th = grid(m)
    u = u_series(mean, cos, sin, th)
    rho = rho_series(mean, cos, sin, th)
    return float(0.5 * np.mean(u * rho) * TWO_PI)


def inv_curv_quadrature(mean, cos, sin, m=2048):
    th = grid(m)
    rho = rho_series(mean, cos, sin, th)
    return float(np.mean(rho * rho) * TWO_PI)


def sq_curv_quadrature(mean, cos, sin, m=1 << 16):
    th = grid(m)
    rho = rho_series(mean, cos, sin, th)
    return float(np.mean(1.0 / rho) * TWO_PI)


def gaussian_deviation(mean, cos, sin, theta, t, panels=8192, window=16.0):
    """Literal heat-kernel convolution of the centered support function."""
    half = window * np.sqrt(t)
    s = np.linspace(-half, half, 2 * panels + 1)
    w = np.ones_like(s)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (s[1] - s[0]) / 3.0
    kern = np.exp(-(s**2) / (4.0 * t)) / (2.0 * np.sqrt(np.pi * t))
    vals = u_series(mean, cos, sin, theta + s) - mean
    return float(np.exp(t) * np.sum(w * kern * vals))


def e1_quadrature(mean, cos, sin, t, ntheta=128, panels=4096, window=16.0):
    """(1/2) integral over theta of the two Gaussian-smoothed factors."""
    half = window * np.sqrt(t)
    s = np.linspace(-half, half, 2 * panels + 1)
    w = np.ones_like(s)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (s[1] - s[0]) / 3.0
    kern = w * np.exp(-(s**2) / (4.0 * t)) / (2.0 * np.sqrt(np.pi * t))
    ths = grid(ntheta)
    angles = ths[:, None] + s[None, :]
    gu = np.exp(t) * (u_series(mean, cos, sin, angles) @ kern)
    gr = np.exp(t) * (rho_series(mean, cos, sin, angles) @ kern)
    return float(0.5 * np.mean(gu * gr) * TWO_PI)


def polygon_perimeter(vertices):
    verts = np.asarray(vertices, dtype=float)
    diffs = np.roll(verts, -1, axis=0) - verts
    return float(np.sum(np.hypot(diffs[:, 0], diffs[:, 1])))


def polyline_perimeter(points):
    diffs = np.roll(points, -1, axis=0) - points
    return float(np.sum(np.hypot(diffs[:, 0], diffs[:, 1])))


def winding_number(points, center=None):
    """Turns of the point sequence around the centroid (or given center)."""
    pts = np.asarray(points, dtype=float)
    if center is None:
        center = pts.mean(axis=0)
    rel = pts - center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    steps = np.diff(np.concatenate([ang, ang[:1]]))
    steps = (steps + np.pi) % TWO_PI - np.pi
    return float(np.sum(steps) / TWO_PI)


def random_spectrum_coeffs(rng, max_modes=8, scale=0.1, mean_range=(0.8, 1.5)):
    """Random coefficient triple (mean, cos, sin); not necessarily convex."""
    n = rng.integers(2, max_modes + 1)
    mean = rng.uniform(*mean_range)
    cos = rng.uniform(-scale, scale, n)
    sin = rng.uniform(-scale, scale, n)
    return mean, cos, sin


def random_convex_coeffs(rng, max_modes=8, mean_range=(0.8, 1.5), modes=None):
    """Random coefficients guaranteed strictly convex: mode n amplitudes
    are damped by n^4, so sum (n^2-1)(|a_n|+|b_n|) <= 0.21 * mean and the
    radius of curvature stays above 0.79 * mean. ``modes`` fixes the
    truncation, else it is drawn from 2..max_modes."""
    n = int(rng.integers(2, max_modes + 1)) if modes is None else modes
    mean = rng.uniform(*mean_range)
    damp = 0.2 * mean / np.arange(1, n + 1) ** 4
    cos = rng.uniform(-1, 1, n) * damp
    sin = rng.uniform(-1, 1, n) * damp
    return mean, cos, sin


def bisect_crossing(crossed, lo, hi, fired, tol):
    """The event bisection: halve [lo, hi] at mid = 0.5 * (lo + hi) on
    "anything crossed" until hi - lo <= tol. ``crossed(t)`` lists the
    kinds crossed at t and ``fired`` those crossed at hi; returns
    (lo, hi, kinds crossed at hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fired_mid = crossed(mid)
        if fired_mid:
            hi, fired = mid, fired_mid
        else:
            lo = mid
    return lo, hi, fired


def grid_flags(heat, times, lengths, width=None):
    """``integrate._Heat.flags`` with the grid minimum of the radius of
    curvature at every check time of the block, never the curvature bound:
    (flagged, True) for the whole block, whatever ``width``."""
    from curveflow.integrate import PRESCAN_SLACK, _margins

    _, rho_size, area, area_size = heat.scan(times, lengths)
    rho_min = heat.modes.radius_range(times, lengths)[0]
    sizes = (rho_size, area_size, *[np.abs(lengths)] * 3)
    flagged = np.zeros(len(times), dtype=bool)
    for margin, size in zip(_margins(heat.limits, rho_min, area, lengths), sizes, strict=True):
        flagged |= margin <= PRESCAN_SLACK * size
    return flagged, True


def mode_factors(truncation, times):
    """e^{(1 - n^2) t} for n = 1..N by plain np.exp: (modes x times) for
    an array of times."""
    n = np.arange(1, truncation + 1, dtype=float)
    return np.exp(np.multiply.outer(1.0 - n**2, times))


def e_value(cos, sin, times):
    """E(t) = -(pi/2) sum (n^2 - 1) e^{2(1-n^2)t} (a_n^2 + b_n^2) by plain
    np.exp, one value per time, each summed pairwise over the modes."""
    n = np.arange(1, len(cos) + 1, dtype=float)
    decay = 1.0 - n**2
    terms = -decay * np.exp(2.0 * decay * np.asarray(times, dtype=float)[..., None]) * (cos**2 + sin**2)
    return -(np.pi / 2.0) * np.add.reduce(terms, axis=-1)


def deficit(cos, sin, times):
    """L^2 - 4 pi A = 2 pi^2 sum (n^2 - 1)((a_n f_n)^2 + (b_n f_n)^2) of the
    propagated spectrum at each time, the factors f_n by plain np.exp."""
    n = np.arange(1, len(cos) + 1, dtype=float)
    factors = np.exp(np.multiply.outer(times, 1.0 - n**2))  # (times x modes), summed along rows
    power = (cos * factors) ** 2 + (sin * factors) ** 2
    return 2.0 * np.pi**2 * np.sum((n**2 - 1.0) * power, axis=-1)
