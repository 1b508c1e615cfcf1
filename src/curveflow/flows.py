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
    return _area(length, e_val)


def _area(length: float, e_val: float) -> float:
    # Written as pi*(L/2pi)^2 + E so the circular part is exact whenever
    # L/(2*pi) is.
    mean = length / TWO_PI
    return float(np.pi * mean * mean + e_val)


def flow_state(spec0: SupportSpectrum, t: float, length: float) -> FlowState:
    """Reconstitute the full state at (t, L) from the initial spectrum."""
    spectrum = heat.with_mean(heat.propagate(spec0, t), length / TWO_PI)
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
        a_val = area()
        total = 0.0
        for c, p, q in term.terms:
            total += c * _power(length, p) * _power(a_val, q)
        if not np.isfinite(total):
            raise HDomainError(f"H overflow at L={length:.3e}, A={a_val:.3e}")
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
