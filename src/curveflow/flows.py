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
  H = alpha L + beta A/L + gamma/L (lin-tsai): r = 2, z' = kappa z
      + beta sum q_n e^{lambda_n t} - 4 pi gamma, kappa = 2 - 4 pi alpha - beta.
      ma-cheng is alpha = 1/(2 pi), so kappa = 0, with lambda_n q_n for beta q_n.

Every other term goes to the ODE solver in ``integrate``, H = alpha L +
b L^3 + c L A among them: its z = L^-2 has the time-varying coefficient E(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import heat
from .support import TWO_PI, SupportSpectrum, total_inverse_curvature


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
    spectrum = heat._Modes(spec0).spectrum(t, length / TWO_PI)
    return FlowState(t=t, L=length, spectrum=spectrum, A=area_along_flow(spec0, length, t))


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

    Stored relative to z0 = L0^power: ``weights`` holds s_j / z0. Every
    rate is <= 0. The solution is written as

        z/z0 = e^{kappa t} + sum_j w_j e^{max(kappa, rate_j) t} psi(|rate_j - kappa|, t),
        psi(g, t) = (1 - e^{-g t}) / g,   psi(0, t) = t,

    which is finite as rate_j -> kappa, cannot overflow for kappa < 0, and
    has z/z0 == 1.0 exactly at t = 0, so L(0) is L0 bit for bit. The power
    r is any real but 0. For r > 0, L = L0 sign(z) |z/z0|^(1/r): a length
    through zero shows as a negative L, which the vanish threshold sees.
    For r < 0, z reaching zero is a blow-up: L is +inf from then on. No law
    is built (the ODE runs) where z0 is not a normal float or kappa plus the
    weights is not finite, as for H = L^400 from L0 = 2 pi.
    """

    l0: float
    power: float
    kappa: float
    rates: np.ndarray
    weights: np.ndarray

    def __call__(self, t):
        """L at a time or an array of times; a float for a scalar time."""
        tt = np.asarray(t, dtype=float)
        col = tt[..., None]
        gap = np.abs(self.rates - self.kappa)
        # Pull e^{kappa t} out when kappa > 0, so growth overflows to inf, never to nan.
        top = max(self.kappa, 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            psi = np.where(gap > 0.0, -np.expm1(-gap * col) / gap, col)
            lead = np.exp((np.maximum(self.rates, self.kappa) - top) * col)
            ratio = np.exp(top * tt) * (np.exp((self.kappa - top) * tt) + (lead * psi) @ self.weights)
            if self.power == 1.0:
                length = self.l0 * ratio
            elif self.power > 0.0:
                # np.power, not **: a float64 scalar's ** calls pow, not sqrt, at power 2.
                length = self.l0 * (np.sign(ratio) * np.power(np.abs(ratio), 1.0 / self.power))
            else:
                length = np.where(ratio > 0.0, self.l0 * np.power(ratio, 1.0 / self.power), np.inf)
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


def closed_length(spec0: SupportSpectrum, term: NonlocalTerm) -> ClosedLength | None:
    """The closed-form L(t) of ``term`` from ``spec0``, or None where no
    power of L makes the length ODE linear (see the module docstring)."""
    l0 = TWO_PI * spec0.mean
    modes = heat._Modes(spec0)
    rates = 2.0 * modes.decay
    q_n = 2.0 * np.pi**2 * -modes.decay * modes.power
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
        forcing = rates * q_n if spectral else beta * q_n
        if (-1.0, 0.0) in coef:
            rates, forcing = np.append(rates, 0.0), np.append(forcing, -2.0 * TWO_PI * coef[-1.0, 0.0])
    else:
        return None
    with np.errstate(all="ignore"):
        z0 = np.float64(l0) ** r  # the same pow as l0**r, but inf rather than OverflowError
        weights = forcing / z0
    if np.finfo(float).tiny <= z0 < np.inf and abs(kappa + weights.sum()) < np.inf:
        return ClosedLength(l0, r, kappa, rates, weights)
    return None
