"""Nonlocal speed terms and the induced self-contained length dynamics.

A flow moves the curve with normal speed H - 1/k, where H is a global
quantity of the evolving curve. The length then obeys the scalar ODE

    dL/dt = L - 2*pi*H(L, A),    A(t) = L(t)^2 / (4*pi) + E(t),

with E(t) known in closed form from the initial spectrum, so the right
hand side is an explicit function of (t, L) for every supported term.

Named terms:
  pan-yang   H = L / (2*pi)                 length-preserving
  lin-tsai   H = 2*A / L                    length non-decreasing
  ma-cheng   H = (1/L) * integral (1/k) ds  area-preserving
  const:c    H = c
  powersum   H = sum c_i L^{p_i} A^{q_i}    user-defined family

ma-cheng is the one variant that reads the propagated spectrum rather
than (L, A) alone; its extra integral is still a known function of time,
which keeps the ODE self-contained.

Where some power z = L^r makes that ODE linear with constant
coefficients, :func:`closed_length` solves it by hand, chosen by the
algebra of H and not by the name of the term. With alpha the summed
coefficient of L, lambda_n = 2(1 - n^2) and q_n = 2 pi^2 (n^2 - 1) p_n,
p_n = a_n^2 + b_n^2 (so that -4 pi E = sum q_n e^{lambda_n t}):

  H = alpha L + c L^p, at most one such (p, 0) term (pan-yang, const:c):
      r = 1 - p (1 with none), z' = r (1 - 2 pi alpha) z - 2 pi r c.
      H = alpha L (pan-yang, H = L) has c = 0: z/z0 = e^{kappa t}.
  H = alpha L + beta A/L + gamma/L (lin-tsai): r = 2, z' = kappa z
      + beta sum q_n e^{lambda_n t} - 4 pi gamma, kappa = 2 - 4 pi alpha - beta.
      ma-cheng is alpha = 1/(2 pi), so kappa = 0, with lambda_n q_n for beta q_n.

Every other term goes to the ODE solver in ``integrate``, H = alpha L +
b L^3 + c L A among them: its z = L^-2 has the time-varying coefficient E(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import heat
from .support import TWO_PI, SupportSpectrum, total_inverse_curvature


# Smallest normal float: no law is built from a z0 below it.
_TINY = float(np.finfo(float).tiny)
# Largest kappa t whose e^{kappa t} is finite: log of the largest float.
_LOG_MAX = math.log(np.finfo(float).max)
# A forcing rate within this gap of kappa keeps its divided difference in a
# ClosedLength: in the sum form its c_j = w_j / gap, and c_0, would carry a
# rounding of eps |w_j| / gap, up to 2.3e-14 |w_j| at this gap.
NEAR_GAP = 1e-2
_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


class HDomainError(ValueError):
    """The nonlocal term is undefined at the requested (L, A)."""


@dataclass(frozen=True)
class Constant:
    c: float

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError(f"constant must be finite, got {self.c!r}")


@dataclass(frozen=True)
class PanYang:
    pass


@dataclass(frozen=True)
class LinTsai:
    pass


@dataclass(frozen=True)
class MaCheng:
    pass


@dataclass(frozen=True)
class PowerSum:
    """H(L, A) = sum of coeff * L^p * A^q over the given terms."""

    terms: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        terms = tuple((float(c), float(p), float(q)) for c, p, q in self.terms)
        if not terms:
            raise ValueError("powersum needs at least one (coeff, p, q) term")
        for c, p, q in terms:
            if not (np.isfinite(c) and np.isfinite(p) and np.isfinite(q)):
                raise ValueError("powersum terms must be finite")
        object.__setattr__(self, "terms", terms)


NonlocalTerm = Constant | PanYang | LinTsai | MaCheng | PowerSum

_NAMED_TERMS = {"pan-yang": PanYang, "lin-tsai": LinTsai, "ma-cheng": MaCheng}


def parse_flow_term(text: str) -> NonlocalTerm:
    """Parse the config grammar:

    pan-yang | lin-tsai | ma-cheng | const:<c> | powersum:<c,p,q>[;<c,p,q>...]
    """
    tag = text.strip()
    if tag in _NAMED_TERMS:
        return _NAMED_TERMS[tag]()
    head, sep, rest = tag.partition(":")
    if head == "const" and sep:
        try:
            return Constant(c=float(rest))
        except ValueError:
            raise ValueError(f"bad constant in flow term {text!r}") from None
    if head == "powersum" and sep:
        terms = []
        for chunk in rest.split(";"):
            parts = chunk.split(",")
            if len(parts) != 3:
                raise ValueError(
                    f"powersum term {chunk!r} must be coeff,p,q (in flow term {text!r})"
                )
            try:
                terms.append(tuple(float(p) for p in parts))
            except ValueError:
                raise ValueError(f"bad number in powersum term {chunk!r}") from None
        return PowerSum(terms=tuple(terms))
    raise ValueError(f"unknown flow term {tag!r}")


def format_flow_term(term: NonlocalTerm) -> str:
    for tag, cls in _NAMED_TERMS.items():
        if isinstance(term, cls):
            return tag
    if isinstance(term, Constant):
        return f"const:{term.c!r}"
    if isinstance(term, PowerSum):
        return "powersum:" + ";".join(f"{c!r},{p!r},{q!r}" for c, p, q in term.terms)
    raise TypeError(f"not a nonlocal term: {term!r}")


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the evolving curve: time, length, spectrum and area.

    The spectrum's mean is pinned to L/(2*pi) and its deviation is the
    propagated initial deviation; A carries the closed-form area.
    """

    t: float
    L: float
    spectrum: SupportSpectrum
    A: float

    def __post_init__(self):
        if not (np.isfinite(self.t) and np.isfinite(self.L) and np.isfinite(self.A)):
            raise ValueError("flow state fields must be finite")
        if self.L <= 0.0:
            raise ValueError("flow state requires positive length")
        if abs(TWO_PI * self.spectrum.mean - self.L) > 1e-12 * max(1.0, abs(self.L)):
            raise ValueError("spectrum mean is inconsistent with the stored length")


def area_along_flow(spec0: SupportSpectrum, length: float, t: float) -> float:
    """A(t) = L^2/(4*pi) + E(t); identical to the enclosed area of the
    propagated spectrum with mean L/(2*pi)."""
    _, e_val = heat.known_scalars(spec0, t)
    return heat._area(length, e_val)


def flow_state(spec0: SupportSpectrum, t: float, length: float) -> FlowState:
    """Reconstitute the full state at (t, L) from the initial spectrum:
    mode n scaled by exp((1 - n^2) t), mean L/(2*pi)."""
    modes = heat._Modes(spec0)
    return FlowState(t=t, L=length, spectrum=modes.spectrum(t, length / TWO_PI), A=modes.area(t, length))


def _power(base: float, exponent: float) -> float:
    try:
        if base > 0.0:
            return base**exponent
        if exponent == int(exponent):
            if base == 0.0 and exponent < 0.0:
                raise HDomainError("zero base with negative exponent")
            return float(base ** int(exponent))
    except OverflowError:
        raise HDomainError(f"H overflow: {base:.3e} ** {exponent!r}") from None
    raise HDomainError(
        f"fractional power {exponent} of non-positive base {base:.3e}"
    )


def _h(term: NonlocalTerm, length: float, area, inverse_curvature) -> float:
    """H from the scalars it reads. ``area`` and ``inverse_curvature``
    (the integral of 1/k ds) are callables, so each term computes only
    what it needs."""
    if isinstance(term, Constant):
        return term.c
    if isinstance(term, PanYang):
        return length / TWO_PI
    if isinstance(term, LinTsai):
        return 2.0 * area() / length
    if isinstance(term, MaCheng):
        return inverse_curvature() / length
    if isinstance(term, PowerSum):
        # A is read only when some term uses it; A^0 would be 1.0 anyway.
        a_val = area() if any(q != 0.0 for _, _, q in term.terms) else None
        total = 0.0
        for c, p, q in term.terms:
            total += c * _power(length, p) * (_power(a_val, q) if q != 0.0 else 1.0)
        if not np.isfinite(total):
            at_area = "" if a_val is None else f", A={a_val:.3e}"
            raise HDomainError(f"H overflow at L={length:.3e}{at_area}")
        return total
    raise TypeError(f"not a nonlocal term: {term!r}")


def evaluate_h(term: NonlocalTerm, state: FlowState) -> float:
    """Value of the nonlocal speed offset H at the given state."""
    return _h(
        term, state.L, lambda: state.A, lambda: total_inverse_curvature(state.spectrum)
    )


def length_rate(term: NonlocalTerm, state: FlowState) -> float:
    """dL/dt = L - 2*pi*H at the given state."""
    return state.L - TWO_PI * evaluate_h(term, state)


@dataclass(frozen=True, eq=False)
class ClosedLength:
    """L(t) where z = L^power solves z' = kappa z + sum_j s_j e^{rate_j t}.

    Stored relative to z0 = L0^power: ``weights`` holds w_j = s_j / z0.
    Every rate is <= 0. The law is one exponential sum,

        z/z0 = sum_i sum_coeffs[i] e^{sum_rates[i] t} + near(t),

    c_j = w_j / (rate_j - kappa) at rate_j and c_0 = 1 - sum_j c_j at kappa.
    A term whose coefficient is exactly 0 is left out, so inf * 0 never
    forms where e^{kappa t} overflows (only the kappa term grows): where c_0
    is 0, as for H = 1 on the unit circle, the unstable fixed point L = 2 pi
    stays fixed. A rate within NEAR_GAP of kappa keeps its divided
    difference instead, so that its c_j ~ w_j / gap and c_0 never cancel
    (McCurdy, Ng and Parlett, Math. Comp. 43, 1984); c_0 then moves into

        near(t) = e^{top t} (c_0 e^{(kappa - top) t}
                  + sum_j w_j e^{(max(kappa, rate_j) - top) t} psi(|rate_j - kappa|, t)),
        psi(g, t) = -expm1(-g t) / g,   psi(0, t) = t,   top = max(kappa, 0),

    held as ``near_rates`` (c_0's first), ``near_coeffs`` and ``near_gaps``.

    z/z0 is 1.0 exactly at t = 0, so L(0) is L0 bit for bit. The power r
    is any real but 0. For r > 0, L = L0 sign(z) |z/z0|^(1/r): a length
    through zero shows as a negative L, which the vanish threshold sees.
    For r < 0, z reaching zero is a blow-up: L is +inf from then on. Where
    z > 0 and r is neither 1 nor 2, L = L0 exp(log(z/z0)/r), the log taken
    as log1p of z/z0 - 1 = sum_i c_i expm1(rate_i t) + near(t) - c_0 where
    |z/z0 - 1| < 1/2, so the relative error of L stays near the rounding of
    z/z0 - 1 as r nears 0, and as log(z/z0) elsewhere, which keeps the
    digits of a z/z0 far below 1. No law is built (the ODE runs) where z0
    is not a normal float or a coefficient may not be finite, as for
    H = L^400 from L0 = 2 pi.

    A law whose weights are all 0 is unforced, z/z0 = e^{kappa t}, as for
    every H = alpha L (pan-yang, H = L). A law of one term has coefficient
    1.0, and ``__call__`` takes its one exponential alone. The event
    locator's model of a pinch (``integrate._Heat.pinch_root``) reads the
    same sum.
    """

    l0: float
    power: float
    kappa: float
    rates: np.ndarray
    weights: np.ndarray
    sum_rates: np.ndarray = field(init=False, repr=False)
    sum_coeffs: np.ndarray = field(init=False, repr=False)
    near_rates: np.ndarray = field(init=False, repr=False)
    near_coeffs: np.ndarray = field(init=False, repr=False)
    near_gaps: np.ndarray = field(init=False, repr=False)
    # The rate of a law of one term, whose coefficient is 1.0; else None.
    _one: float | None = field(init=False, repr=False)

    def __post_init__(self):
        rates, coeffs, one = np.array([self.kappa]), np.array([1.0]), self.kappa
        near_rates = near_coeffs = near_gaps = _EMPTY
        if self.weights.any():
            gap = self.rates - self.kappa
            live = self.weights != 0.0
            near = live & (np.abs(gap) <= NEAR_GAP)
            far = live & ~near
            coeffs = self.weights[far] / gap[far]
            c0 = 1.0 - coeffs.sum()
            rates = self.rates[far]
            if near.any():
                top = max(self.kappa, 0.0)
                near_rates = np.concatenate(((self.kappa,), np.maximum(self.rates[near], self.kappa))) - top
                near_coeffs = np.concatenate(((c0,), self.weights[near]))
                near_gaps = np.abs(gap[near])
            else:
                rates, coeffs = np.concatenate(((self.kappa,), rates)), np.concatenate(((c0,), coeffs))
            kept = coeffs != 0.0
            rates, coeffs = rates[kept], coeffs[kept]
            one = rates.item() if rates.size == 1 and not near_coeffs.size else None
        for name, value in (
            ("sum_rates", rates), ("sum_coeffs", coeffs), ("near_rates", near_rates),
            ("near_coeffs", near_coeffs), ("near_gaps", near_gaps), ("_one", one),
        ):
            object.__setattr__(self, name, value)

    def near(self, tt: np.ndarray, excess: bool = False):
        """near(t) at a time or an array of times; with ``excess``, less its
        value c_0 at t = 0: c_0 expm1(kappa t) plus the w_j terms."""
        col = tt[..., None]
        gaps = self.near_gaps
        terms = np.exp(col * self.near_rates)
        # psi(g, t), and t where g = 0: a divisor of 1 there leaves no 0/0 to silence.
        terms[..., 1:] *= np.where(gaps > 0.0, -np.expm1(-gaps * col) / np.where(gaps > 0.0, gaps, 1.0), col)
        growth = np.exp(self.kappa * tt) if self.kappa > 0.0 else 1.0
        if excess:
            forcing = np.einsum("...j,j->...", terms[..., 1:], self.near_coeffs[1:])
            return self.near_coeffs[0] * np.expm1(self.kappa * tt) + growth * forcing
        return growth * np.einsum("...j,j->...", terms, self.near_coeffs)

    def _sum(self, tt: np.ndarray, excess: bool = False):
        # z/z0 of a law of more than one term; with excess, z/z0 - 1. einsum
        # sums each time's terms along its own row, in one order whatever the
        # array of times, where a matrix product's order depends on the array.
        terms = (np.expm1 if excess else np.exp)(tt[..., None] * self.sum_rates)
        value = np.einsum("...j,j->...", terms, self.sum_coeffs)
        if self.near_coeffs.size:
            value = value + self.near(tt, excess)
        # The coefficients sum to 1 only up to rounding; z/z0 is 1.0 at t = 0.
        return value if excess else np.where(tt == 0.0, 1.0, value)

    def _ratio(self, tt: np.ndarray):
        one = self._one
        # e^{kappa t} overflows to inf past kappa t = log(float max); a near
        # term may overflow as it scales a sum by a finite e^{kappa t}.
        if self.kappa > 0.0 and (
            self.near_coeffs.size or self.kappa * (tt.max(initial=0.0) if tt.ndim else float(tt)) > _LOG_MAX
        ):
            with np.errstate(over="ignore"):
                return self._sum(tt) if one is None else np.exp(one * tt)
        return self._sum(tt) if one is None else np.exp(one * tt)

    def __call__(self, t):
        """L at a time or an array of times; a float for a scalar time."""
        tt = np.asarray(t, dtype=float)
        if self.power == 1.0:
            length = self.l0 * self._ratio(tt)
        elif self.power == 2.0:
            ratio = self._ratio(tt)
            # np.power, not **: a float64 scalar's ** calls pow, not sqrt, at power 2.
            length = self.l0 * (np.sign(ratio) * np.power(np.abs(ratio), 0.5))
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # z/z0 - 1 summed without the 1, so that a power near 0 does not
                # magnify its rounding; log1p only near z/z0 = 1, where log loses it.
                # There z/z0 > 0, so z/z0 itself is summed only where some time is not.
                one = self._one
                excess = self._sum(tt, excess=True) if one is None else np.expm1(one * tt)
                near_one = np.abs(excess) < 0.5
                if near_one.all():
                    length = self.l0 * np.exp(np.log1p(excess) / self.power)
                else:
                    ratio = self._ratio(tt)
                    log_ratio = np.where(near_one, np.log1p(excess), np.log(ratio))
                    length = self.l0 * np.exp(log_ratio / self.power)
                    if not (ratio > 0.0).all():
                        through_zero = self.l0 * (np.sign(ratio) * np.power(np.abs(ratio), 1.0 / self.power))
                        length = np.where(ratio > 0.0, length, through_zero if self.power > 0.0 else np.inf)
        return float(length) if length.ndim == 0 else length


def _as_power_terms(term: NonlocalTerm) -> tuple[tuple[float, float, float], ...]:
    # H as (coeff, p, q) terms; ma-cheng has no such form.
    if isinstance(term, PowerSum):
        return term.terms
    if isinstance(term, Constant):
        return ((term.c, 0.0, 0.0),)
    if isinstance(term, PanYang):
        return ((1.0 / TWO_PI, 1.0, 0.0),)  # kappa = 1 - 2*pi/(2*pi) is exactly 0.0
    if isinstance(term, LinTsai):
        return ((2.0, -1.0, 1.0),)
    raise TypeError(f"no power-sum form for {term!r}")


def closed_length(
    spec0: SupportSpectrum, term: NonlocalTerm, modes: heat._Modes | None = None
) -> ClosedLength | None:
    """The closed-form L(t) of ``term`` from ``spec0``, or None where no
    power of L makes the length ODE linear (see the module docstring).
    ``modes``, the ``heat._Modes`` of ``spec0`` where the caller holds
    them, saves building them again. H = alpha L, and any law whose
    forcing is 0, is unforced: one exponential a call (``ClosedLength``).
    z0 = L0^r is taken in Python floats, and no law is built where it
    overflows, is not a normal float or has no real value, nor where a
    coefficient of the law's sum may leave the float range; a weight
    s_j / z0 can only where z0 < 1."""
    l0 = TWO_PI * spec0.mean
    spectral, coef = isinstance(term, MaCheng), {}
    for c, p, q in ((1.0 / TWO_PI, 1.0, 0.0),) if spectral else _as_power_terms(term):
        coef[p, q] = coef.get((p, q), 0.0) + c
    alpha = coef.pop((1.0, 0.0), 0.0)
    (p, q), c = next(iter(coef.items()), ((0.0, 0.0), 0.0))
    if not spectral and len(coef) <= 1 and q == 0.0:
        # z = L^r, r = 1 - p: z' = r (1 - 2 pi alpha) z - 2 pi r c.
        r = 1.0 - p
        kappa, rates, forcing = r * (1.0 - TWO_PI * alpha), np.zeros(1), np.array([-TWO_PI * r * c])
    elif coef.keys() <= {(-1.0, 1.0), (-1.0, 0.0)}:
        # z = L^2; -4 pi gamma at rate 0 only where gamma/L is, so the rest keep their bits.
        r, beta = 2.0, coef.get((-1.0, 1.0), 0.0)
        kappa = 2.0 - 2.0 * TWO_PI * alpha - beta
        modes = heat._Modes(spec0) if modes is None else modes
        rates, q_n = modes._e_rate, 2.0 * np.pi**2 * modes._e_weight * modes.power
        forcing = rates * q_n if spectral else beta * q_n
        if (-1.0, 0.0) in coef:
            rates, forcing = np.append(rates, 0.0), np.append(forcing, -2.0 * TWO_PI * coef[-1.0, 0.0])
    else:
        return None
    try:
        # libm's pow, as l0**r; it raises where l0**r overflows, divides by
        # zero or would be complex (l0 < 0 and r not an integer).
        z0 = math.pow(l0, r)
    except (OverflowError, ValueError):
        return None
    if z0 < _TINY:
        return None
    if z0 < 1.0:
        # Only a z0 below 1 can take a weight past the float range; that law is the ODE's.
        with np.errstate(over="ignore"):
            weights = forcing / z0
    else:
        weights = forcing / z0
    # Every coefficient of the sum is at most |w_j| / NEAR_GAP, and so finite.
    if abs(kappa) + float(np.abs(weights).sum()) / NEAR_GAP < math.inf:
        return ClosedLength(l0, r, kappa, rates, weights)
    return None
