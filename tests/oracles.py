"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the package's closed forms and code
paths: support functions are evaluated by raw term-by-term summation,
geometric quantities come from dense trapezoid quadrature of their
defining integrals, propagation from the literal Gaussian convolution
integrated by composite Simpson, event times from plain bisection, and
the event pre-scan's flags from the grid minimum at every check time.
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


def random_convex_coeffs(rng, max_modes=8, mean_range=(0.8, 1.5)):
    """Random coefficients guaranteed strictly convex: mode n amplitudes
    are damped by n^4, so sum (n^2-1)(|a_n|+|b_n|) <= 0.21 * mean and the
    radius of curvature stays above 0.79 * mean."""
    n = int(rng.integers(2, max_modes + 1))
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


def grid_flags(problem, times, lengths):
    """``integrate._Problem.flags`` with the grid minimum of the radius of
    curvature at every check time, never the curvature bound."""
    from curveflow.integrate import PRESCAN_SLACK, _margins

    modes = problem.modes
    _, rho_size, area, area_size = modes.scan(times, lengths, problem.limits[0], np.inf)
    rho_min = modes.radius_range(times, lengths)[0]
    sizes = (rho_size, area_size, np.abs(lengths), np.abs(lengths))
    flagged = np.zeros(len(times), dtype=bool)
    for margin, size in zip(_margins(problem.limits, rho_min, area, lengths), sizes):
        flagged |= margin <= PRESCAN_SLACK * size
    return flagged
