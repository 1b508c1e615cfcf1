"""Convex plane curves as truncated support-function Fourier spectra.

A strictly convex closed curve is encoded by the Fourier coefficients of
its support function in the outward normal angle theta:

    u(theta) = mean + sum_{n=1}^{N} a_n cos(n theta) + b_n sin(n theta)

Everything geometric follows from u: the radius of curvature is
u'' + u, the length is 2*pi*mean, and area / curvature integrals have
closed forms in the coefficients. Quadratures, where needed, live on
uniform theta grids where the trapezoid rule is spectrally accurate.

Angles are normalized to [0, 2*pi); uniform grids use theta_j = 2*pi*j/M.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
# Largest length of a curve: at or below it L^2, the area, the integral of
# 1/k ds and the isoperimetric ratio stay below a quarter of the largest float.
MAX_LENGTH = float(0.5 * np.sqrt(np.finfo(float).max))

# Strict positivity threshold for min(u'' + u) on the validation grid.
CONVEXITY_EPS = 1e-9
# Largest truncation N; bounds every per-N array, the validation tables
# included. Polygon sources reach at most 511 on their POLYGON_GRID.
MAX_TRUNCATION = 512
# Points per frame: curve_position's default uniform grid.
FRAME_GRID = 256
# Points of the trapezoid rule in sq_curvature_integral.
SQ_CURVATURE_GRID = 2048
# Points at which spectrum_from_polygon samples a polygon's support function.
POLYGON_GRID = 1024
# Below this exponent a decay factor (under 1e-260) reads exactly 0.0
# (``_decay_exp``), ahead of the float underflow band near -708 where np.exp
# and every product with its result take slow subnormal paths. Beside the
# mean or L^2/(4 pi) that its terms are added to it weighs nothing.
EXP_CUT = -600.0


class ConvexityError(ValueError):
    """Raised when an operation requires a strictly convex spectrum."""


def _coeff_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional sequence")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SupportSpectrum:
    """Immutable truncated Fourier representation of a support function.

    ``cos_coeffs`` and ``sin_coeffs`` hold a_1..a_N and b_1..b_N; the
    truncation N must be at least 2 so that the mean, translation and
    lowest elliptic modes are all representable, and at most
    MAX_TRUNCATION. Convexity is *not* implied by construction; run
    :func:`validate_convexity`.
    """

    mean: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        cos_arr = _coeff_array(self.cos_coeffs, "cos_coeffs")
        sin_arr = _coeff_array(self.sin_coeffs, "sin_coeffs")
        if len(cos_arr) != len(sin_arr):
            raise ValueError("cos_coeffs and sin_coeffs must have equal length")
        if len(cos_arr) < 2:
            raise ValueError("truncation must be at least 2")
        if len(cos_arr) > MAX_TRUNCATION:
            raise ValueError(f"truncation must be at most {MAX_TRUNCATION}")
        if not abs(TWO_PI * self.mean) <= MAX_LENGTH:  # NaN fails too
            raise ValueError(f"mean must be finite, with length 2 pi |mean| at most {MAX_LENGTH:.4g}")
        cos_arr.flags.writeable = False
        sin_arr.flags.writeable = False
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "cos_coeffs", cos_arr)
        object.__setattr__(self, "sin_coeffs", sin_arr)

    @property
    def truncation(self) -> int:
        return len(self.cos_coeffs)

    def __eq__(self, other):
        if not isinstance(other, SupportSpectrum):
            return NotImplemented
        return (
            self.mean == other.mean
            and np.array_equal(self.cos_coeffs, other.cos_coeffs)
            and np.array_equal(self.sin_coeffs, other.sin_coeffs)
        )

    def __hash__(self):
        return hash((self.mean, self.cos_coeffs.tobytes(), self.sin_coeffs.tobytes()))


@dataclass(frozen=True)
class CurveSamples:
    """Points of a reconstructed curve on a uniform normal-angle grid."""

    thetas: np.ndarray
    points: np.ndarray  # shape (M, 2)

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        points = np.array(self.points, dtype=float)
        if thetas.ndim != 1 or points.shape != (len(thetas), 2):
            raise ValueError("thetas must be (M,) and points (M, 2)")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(points))):
            raise ValueError("curve samples contain non-finite entries")
        thetas.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class GeometricSummary:
    """Scalar geometry of one curve: lengths, areas and curvature extrema.

    ``k_min``, ``k_max`` and ``sq_curv_integral`` are NaN when the
    spectrum fails strict convexity (curvature is undefined there).
    """

    length: float
    area: float
    ipd: float
    ipr: float
    k_min: float
    k_max: float
    inv_curv_integral: float
    sq_curv_integral: float


def theta_grid(size: int) -> np.ndarray:
    """Uniform grid theta_j = 2*pi*j/size, j = 0..size-1."""
    return TWO_PI * np.arange(size) / size


@functools.lru_cache(maxsize=8)
def _decay(truncation: int) -> np.ndarray:
    # 1 - n^2 for n = 1..truncation, shared read-only: the weight of mode n
    # in the radius of curvature and its rate in the flow.
    n = np.arange(1, truncation + 1, dtype=float)
    decay = 1.0 - n**2
    decay.flags.writeable = False
    return decay


@functools.lru_cache(maxsize=8)
def _deficit_rates(truncation: int) -> tuple[np.ndarray, np.ndarray]:
    # (n^2 - 1, 2(1 - n^2)), shared read-only: the weight of p_n in the
    # isoperimetric deficit and its rate there along the flow.
    pair = (-_decay(truncation), 2.0 * _decay(truncation))
    for arr in pair:
        arr.flags.writeable = False
    return pair


def _decay_exp(x: np.ndarray) -> np.ndarray:
    """e^x for the flow's exponents x <= 0, exactly 0.0 where x < EXP_CUT.
    Callers that know no exponent can be below the cut call np.exp instead."""
    return np.exp(x, out=np.zeros(x.shape), where=x >= EXP_CUT)


def _mode_angles(theta, truncation: int) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    return np.multiply.outer(th, np.arange(1, truncation + 1))


def evaluate_support(spec: SupportSpectrum, theta):
    """u(theta) by direct series summation; accepts scalars or arrays."""
    ang = _mode_angles(theta, spec.truncation)
    vals = spec.mean + np.cos(ang) @ spec.cos_coeffs + np.sin(ang) @ spec.sin_coeffs
    return float(vals) if np.ndim(theta) == 0 else vals


def support_derivative(spec: SupportSpectrum, theta, order: int = 1):
    """d^m u / d theta^m by term-wise differentiation of the series."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order == 0:
        return evaluate_support(spec, theta)
    n = np.arange(1, spec.truncation + 1)
    ang = _mode_angles(theta, spec.truncation) + order * (np.pi / 2.0)
    scale = n.astype(float) ** order
    vals = np.cos(ang) @ (scale * spec.cos_coeffs) + np.sin(ang) @ (scale * spec.sin_coeffs)
    return float(vals) if np.ndim(theta) == 0 else vals


def radius_of_curvature(spec: SupportSpectrum, theta):
    """1/k = u'' + u; mode n is weighted by (1 - n^2), so mode 1 drops out.

    A non-positive value is the singularity signal, not an error.
    """
    w = _decay(spec.truncation)
    ang = _mode_angles(theta, spec.truncation)
    vals = spec.mean + np.cos(ang) @ (w * spec.cos_coeffs) + np.sin(ang) @ (w * spec.sin_coeffs)
    return float(vals) if np.ndim(theta) == 0 else vals


def default_validation_grid(truncation: int) -> int:
    return max(4 * truncation, 512)


@functools.lru_cache(maxsize=8)
def _radius_table(truncation: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (theta_j, (1 - n^2) cos(n theta_j), (1 - n^2) sin(n theta_j)) on the
    # validation grid; built once per truncation and shared read-only. The
    # trig runs on theta in [0, pi]: row M - j is row j with its sine part
    # negated, and the sine part at theta = pi is 0, so b_n -> -b_n mirrors
    # every grid value bit for bit.
    m = default_validation_grid(truncation)
    thetas = theta_grid(m)
    ang = np.outer(thetas[: m // 2 + 1], np.arange(1, truncation + 1, dtype=float))
    cos_half, sin_half = np.cos(ang) * _decay(truncation), np.sin(ang) * _decay(truncation)
    sin_half[-1] = 0.0
    cos_table = np.concatenate((cos_half, cos_half[-2:0:-1]))
    table = (thetas, cos_table, np.concatenate((sin_half, -sin_half[-2:0:-1])))
    for arr in table:
        arr.flags.writeable = False
    return table


def _grid_deviation(cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> np.ndarray:
    """rho - mean = sum (1 - n^2)(a_n cos n theta + b_n sin n theta) on the validation grid."""
    _, cos_table, sin_table = _radius_table(len(cos_coeffs))
    return cos_table @ cos_coeffs + sin_table @ sin_coeffs


def validate_convexity(spec: SupportSpectrum) -> float:
    """Minimum of u'' + u over the validation grid; positive means convex.

    This is the minimum over the nodes, not the exact one: the true
    minimum can fall between nodes and lie below it. Rotating an ellipse
    by 0.006 rad off the grid moves its detected pinch time under H = L
    by 3.2e-5.
    """
    return radius_extrema(spec)[0]


def _radius_range(mean, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> tuple:
    """(min, max) of the radius of curvature on the validation grid, each the
    mean added after the extremum of the deviation. Coefficient vectors give
    one pair; (modes x times) blocks, with a mean per column, give a pair of
    arrays, one value per column."""
    dev = _grid_deviation(cos_coeffs, sin_coeffs)
    return mean + np.minimum.reduce(dev, axis=0), mean + np.maximum.reduce(dev, axis=0)


def radius_extrema(spec: SupportSpectrum) -> tuple[float, float]:
    """(min, max) of the radius of curvature on the validation grid, as floats;
    the singularity event adds the mean after the same minimum of the deviation
    (``heat._Modes.min_node``), so the two agree bit for bit."""
    rho_min, rho_max = _radius_range(spec.mean, spec.cos_coeffs, spec.sin_coeffs)
    return float(rho_min), float(rho_max)


def require_convex(spec: SupportSpectrum) -> float:
    """The grid-min radius of curvature; raises ConvexityError unless it
    exceeds CONVEXITY_EPS. The one convexity gate of the package."""
    rho_min = validate_convexity(spec)
    if rho_min <= CONVEXITY_EPS:
        raise ConvexityError(f"curve fails convexity validation: min radius of curvature {rho_min:.3e}")
    return rho_min


def curve_length(spec: SupportSpectrum) -> float:
    """L = integral of u over the circle = 2*pi*mean, exactly."""
    return TWO_PI * spec.mean


def enclosed_area(spec: SupportSpectrum) -> float:
    """A = (1/2) * integral of u (u'' + u).

    Closed form pi*mean^2 - (pi/2) * sum (n^2 - 1)(a_n^2 + b_n^2);
    the translation mode n = 1 contributes nothing.
    """
    power = spec.cos_coeffs**2 + spec.sin_coeffs**2
    return float(np.pi * spec.mean**2 - (np.pi / 2.0) * np.sum(_deficit_rates(spec.truncation)[0] * power))


def isoperimetric_deficit(spec: SupportSpectrum) -> float:
    """L^2 - 4*pi*A in closed form, 2*pi^2 * sum (n^2 - 1)(a_n^2 + b_n^2).

    Exact where the difference L^2 - 4*pi*A cancels catastrophically
    (large L, near-circular curves).
    """
    return float(_deficit(spec.cos_coeffs, spec.sin_coeffs))


def _deficit(cos_coeffs: np.ndarray, sin_coeffs: np.ndarray):
    # isoperimetric_deficit along the last axis: one value per row of
    # (states x modes) coefficients, summed as for a single spectrum.
    power = cos_coeffs**2 + sin_coeffs**2
    return 2.0 * np.pi**2 * np.sum(_deficit_rates(cos_coeffs.shape[-1])[0] * power, axis=-1)


def isoperimetric_ratio(length: float, area: float) -> float:
    """L^2 / (4*pi*A) as a float, at least 1 with equality at circles;
    inf at non-positive area and where L^2 overflows."""
    try:
        return float(length) ** 2 / (4.0 * np.pi * float(area)) if area > 0.0 else float("inf")
    except OverflowError:  # a float's ** raises where NumPy's gives inf
        return float("inf")


def total_inverse_curvature(spec: SupportSpectrum) -> float:
    """integral (1/k) ds = integral (u'' + u)^2 dtheta.

    Closed form L^2/(2*pi) + pi * sum (n^2 - 1)^2 (a_n^2 + b_n^2).
    """
    return _inverse_curvature(spec.mean, spec.cos_coeffs, spec.sin_coeffs)


def _inverse_curvature(mean: float, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> float:
    # Raw-array form of total_inverse_curvature, for the length solve.
    power = cos_coeffs**2 + sin_coeffs**2
    length = TWO_PI * mean
    return float(length**2 / TWO_PI + np.pi * np.sum(_decay(len(cos_coeffs)) ** 2 * power))


def limit_circle(spec0: SupportSpectrum) -> tuple[float, float]:
    """Center of the limiting circle: the first-harmonic pair (a_1, b_1),
    invariant along the flow."""
    return float(spec0.cos_coeffs[0]), float(spec0.sin_coeffs[0])


def sq_curvature_integral(spec: SupportSpectrum) -> float:
    """integral k^2 ds = integral dtheta / (u'' + u), by trapezoid quadrature.

    No closed form exists; the uniform-grid trapezoid rule converges
    spectrally for the smooth positive integrand. Rejects non-convex input.
    The radius of curvature on the SQ_CURVATURE_GRID points is one inverse
    real FFT of M*mean and (M/2)(1 - n^2)(a_n - i b_n), zero-padded.
    """
    require_convex(spec)
    m = SQ_CURVATURE_GRID
    weighted = np.zeros(m // 2 + 1, dtype=complex)
    weighted[0] = m * spec.mean
    n = spec.truncation
    weighted[1 : n + 1] = (m / 2.0) * _decay(n) * (spec.cos_coeffs - 1j * spec.sin_coeffs)
    rho = np.fft.irfft(weighted, m)
    return float(np.mean(1.0 / rho) * TWO_PI)


@functools.lru_cache(maxsize=8)
def _frame_table(truncation: int) -> tuple[np.ndarray, ...]:
    # (theta_j, cos n theta_j, sin n theta_j, cos(n theta_j + pi/2),
    # sin(n theta_j + pi/2)) on the FRAME_GRID-point grid: the tables
    # evaluate_support and support_derivative build there, once per
    # truncation and shared read-only.
    thetas = theta_grid(FRAME_GRID)
    ang = _mode_angles(thetas, truncation)
    table = (thetas, np.cos(ang), np.sin(ang), np.cos(ang + np.pi / 2.0), np.sin(ang + np.pi / 2.0))
    for arr in table:
        arr.flags.writeable = False
    return table


def curve_position(spec: SupportSpectrum, thetas=None) -> CurveSamples:
    """Reconstruct curve points P = u*(cos, sin) + u'*(-sin, cos).

    ``thetas`` defaults to the FRAME_GRID-point uniform grid, whose
    tables are cached per truncation; the points are the same, bit for
    bit, as for ``theta_grid(FRAME_GRID)`` passed explicitly.
    """
    if thetas is None:
        th, cos_t, sin_t, dcos_t, dsin_t = _frame_table(spec.truncation)
        n = np.arange(1, spec.truncation + 1).astype(float)
        u = spec.mean + cos_t @ spec.cos_coeffs + sin_t @ spec.sin_coeffs
        du = dcos_t @ (n * spec.cos_coeffs) + dsin_t @ (n * spec.sin_coeffs)
    else:
        th = np.asarray(thetas, dtype=float)
        u = evaluate_support(spec, th)
        du = support_derivative(spec, th, order=1)
    x = u * np.cos(th) - du * np.sin(th)
    y = u * np.sin(th) + du * np.cos(th)
    return CurveSamples(thetas=th, points=np.column_stack([x, y]))


def project_from_samples(u_values, truncation: int) -> SupportSpectrum:
    """Discrete Fourier projection of support samples on a uniform grid.

    Trapezoid-rule projections are exact for band-limited input with
    highest mode <= truncation, provided M >= 2*truncation + 2.
    """
    u = _coeff_array(u_values, "u_values")
    m = len(u)
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    if m < 2 * truncation + 2:
        raise ValueError(
            f"need at least {2 * truncation + 2} samples for truncation {truncation}, got {m}"
        )
    coeffs = np.fft.rfft(u)
    mean = coeffs[0].real / m
    cos_coeffs = 2.0 * coeffs[1 : truncation + 1].real / m
    sin_coeffs = -2.0 * coeffs[1 : truncation + 1].imag / m
    return SupportSpectrum(mean=mean, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)


def spectrum_from_polygon(vertices, truncation: int = 16) -> SupportSpectrum:
    """Project the support function of a convex polygon onto a spectrum.

    The truncation of a polygon's (non-smooth) support function is
    approximate and may fail strict convexity; callers must run
    :func:`validate_convexity` before using the result geometrically.
    Vertices must be in convex position, counterclockwise.
    """
    top = POLYGON_GRID // 2 - 1  # project_from_samples needs 2 N + 2 samples
    if truncation > top:
        raise ValueError(f"truncation of a polygon source must be at most {top}, got {truncation}")
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("need at least 3 two-dimensional vertices")
    if not np.all(np.isfinite(verts)):
        raise ValueError("vertices contain non-finite entries")
    m = len(verts)
    for i in range(m):
        a, b, c = verts[i], verts[(i + 1) % m], verts[(i + 2) % m]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0.0:
            raise ConvexityError(
                "vertices are not in strictly convex counterclockwise position: "
                f"triple ({tuple(a)}, {tuple(b)}, {tuple(c)}) has cross product {cross:.3e}"
            )
    # h(theta_j) = max_i <v_i, (cos theta_j, sin theta_j)> on the uniform grid.
    th = theta_grid(POLYGON_GRID)
    return project_from_samples(np.max(verts @ np.vstack([np.cos(th), np.sin(th)]), axis=0), truncation)


def spectrum_from_dict(record: dict) -> SupportSpectrum:
    cos = [float(v) for v in record.get("cos", [])]
    sin = [float(v) for v in record.get("sin", [])]
    n = max(len(cos), len(sin), 2)
    cos += [0.0] * (n - len(cos))
    sin += [0.0] * (n - len(sin))
    return SupportSpectrum(mean=float(record["mean"]), cos_coeffs=cos, sin_coeffs=sin)
