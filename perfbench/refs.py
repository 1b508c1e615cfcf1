"""References computed from the paper's formulas, independently of curveflow.

With p_n = a_n^2 + b_n^2 of the initial curve and L0 = 2*pi*mean:

    pan-yang          L = L0
    const:c           L = 2*pi*c + (L0 - 2*pi*c) e^t
    lin-tsai          L^2 = L0^2 + 2 pi^2 sum p_n (1 - e^{2(1-n^2)t})
    ma-cheng          L^2 = L0^2 - 2 pi^2 sum (n^2-1) p_n (1 - e^{2(1-n^2)t})
    powersum:1,1,0    L = L0 e^{(1-2 pi)t}                  (H = L)

``powersum:2,-1,1`` is H = 2A/L, the lin-tsai term reached by the ODE
path. For u = m + a1 cos + b1 sin + a cos 2(theta - phi) under H = L the
radius of curvature is L/(2 pi) - 3a e^{-3t} cos 2(theta - phi), so the
pinch is at t* = ln(3a/m)/(4 - 2 pi) in the directions phi and phi + pi.
"""

from __future__ import annotations

import numpy as np

from .inputs import Curve

TWO_PI = 2.0 * np.pi


def length_at(flow: str, curve: Curve, t: float) -> float:
    """Closed-form L(t) of ``curve`` under ``flow``."""
    l0 = TWO_PI * curve.mean
    if flow == "pan-yang":
        return l0
    if flow.startswith("const:"):
        c = float(flow.partition(":")[2])
        return TWO_PI * c + (l0 - TWO_PI * c) * np.exp(t)
    if flow == "powersum:1,1,0":
        return l0 * np.exp((1.0 - TWO_PI) * t)
    n = np.arange(1, curve.modes + 1, dtype=float)
    gone = -np.expm1(2.0 * (1.0 - n**2) * t)
    if flow in ("lin-tsai", "powersum:2,-1,1"):
        return float(np.sqrt(l0**2 + 2.0 * np.pi**2 * np.sum(curve.power() * gone)))
    if flow == "ma-cheng":
        return float(np.sqrt(l0**2 - 2.0 * np.pi**2 * np.sum((n**2 - 1.0) * curve.power() * gone)))
    raise ValueError(f"no closed-form length for flow {flow!r}")


def pinches(flow: str) -> bool:
    """Whether the workloads' curves under this flow end in a pinch."""
    return flow == "powersum:1,1,0"


def ipr_guaranteed(flow: str) -> bool:
    """The paper proves L^2/(4 pi A) non-increasing for these flows."""
    if flow in ("pan-yang", "lin-tsai", "ma-cheng", "powersum:2,-1,1"):
        return True
    return flow.startswith("const:") and float(flow.partition(":")[2]) < 0.0


def pinch_reference(curve: Curve) -> tuple[float, float]:
    """(t*, phi) of a pinch-family curve; modes n >= 3 must vanish."""
    if np.any(curve.cos[2:]) or np.any(curve.sin[2:]):
        raise ValueError("pinch reference needs a curve without modes n >= 3")
    amp = float(np.hypot(curve.cos[1], curve.sin[1]))
    phi = 0.5 * float(np.arctan2(curve.sin[1], curve.cos[1])) % np.pi
    return float(np.log(3.0 * amp / curve.mean) / (4.0 - TWO_PI)), phi


def angle_gap(theta: float, phi: float) -> float:
    """Angular distance from theta to the nearer of phi and phi + pi."""
    d = (theta - phi) % np.pi
    return float(min(d, np.pi - d))
