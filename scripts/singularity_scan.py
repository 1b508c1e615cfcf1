#!/usr/bin/env python3
"""Scan the second-harmonic amplitude under the expanding speed H = L and
locate the curvature pinch time for each amplitude.

For u0 = 1 + a2*cos(2 theta) the length solves L(t) = 2*pi*e^{(1-2pi)t}
while the min radius deviation decays like -3*a2*e^{-3t}, so the radius
of curvature at theta = 0, a node of the curvature grid, reaches 0 at
t0 = ln(3*a2) / (4 - 2*pi). The event fires where it reaches the
threshold eps = singularity_eps instead, at the root of
e^{(1-2pi)t} - 3*a2*e^{-3t} = eps, which a few Newton steps from t0 give.
The detected event times are compared against that root, so the gap
measures the event locator, not eps.

Usage:
    python scripts/singularity_scan.py [--amplitudes 0.05,0.1,...,0.3]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curveflow import (  # noqa: E402
    IntegratorControls,
    PowerSum,
    SupportSpectrum,
    integrate,
)

H_EQUALS_L = PowerSum(terms=((1.0, 1.0, 0.0),))
CONTROLS = IntegratorControls(t_max=10.0)


def pinch_time(a2: float, eps: float) -> float:
    """The root of e^{(1-2pi)t} - 3*a2*e^{-3t} = eps, by Newton steps from
    the eps = 0 root, which lies within 1e-7 of it."""
    t = np.log(3.0 * a2) / (4.0 - 2.0 * np.pi)
    for _ in range(4):
        mean, dip = np.exp((1.0 - 2.0 * np.pi) * t), 3.0 * a2 * np.exp(-3.0 * t)
        t -= (mean - dip - eps) / ((1.0 - 2.0 * np.pi) * mean + 3.0 * dip)
    return float(t)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--amplitudes", default="0.05,0.1,0.15,0.2,0.25,0.3")
    args = parser.parse_args()
    amplitudes = [float(a) for a in args.amplitudes.split(",")]

    print(f"{'a2':>6} {'event':>12} {'t_detected':>12} {'t_analytic':>12} {'gap':>10}")
    for a2 in amplitudes:
        spec = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, a2], sin_coeffs=[0.0, 0.0])
        traj = integrate(spec, H_EQUALS_L, CONTROLS)
        analytic = pinch_time(a2, CONTROLS.singularity_eps)
        detected = traj.event.t
        print(
            f"{a2:>6.3f} {traj.event.kind:>12} {detected:>12.6f} "
            f"{analytic:>12.6f} {abs(detected - analytic):>10.2e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
