"""Acceptance suite: one test per quantitative claim, each at its pinned
tolerance, printing one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import time

import numpy as np
import pytest

import oracles
from curveflow import (
    Constant,
    IntegratorControls,
    LinTsai,
    MaCheng,
    PanYang,
    PowerSum,
    SupportSpectrum,
    convergence_residual,
    evaluate_support,
    flow_state,
    gage,
    go1,
    go2,
    integrate,
    ipr_monotone,
    isoperimetric,
    limit_circle,
    propagate,
    radius_extrema,
)

TWO_PI = 2.0 * np.pi

ELLIPSEISH = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.2], sin_coeffs=[0.0, 0.0])
OFFCENTER = SupportSpectrum(mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[0.0, 0.0])
H_EQUALS_L = PowerSum(terms=((1.0, 1.0, 0.0),))


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return inner

    return wrap


@criterion("01 kernel-oracle equivalence")
def test_c01_kernel_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        cos = rng.uniform(-0.1, 0.1, n)
        sin = rng.uniform(-0.1, 0.1, n)
        dev = SupportSpectrum(mean=0.0, cos_coeffs=cos, sin_coeffs=sin)
        for _ in range(32):
            theta = float(rng.uniform(0.0, TWO_PI))
            t = float(rng.uniform(0.05, 3.0))
            closed = evaluate_support(propagate(dev, t), theta)
            quad = oracles.gaussian_deviation(1.0, cos, sin, theta, t)
            worst = max(worst, abs(closed - quad))
    elapsed = time.monotonic() - started
    assert worst <= 1e-8, f"worst closed-form vs quadrature gap {worst:.3e}"
    assert elapsed <= 10.0, f"oracle comparison took {elapsed:.1f}s"


@criterion("02 deficit decay bound")
def test_c02_ipd_decay_all_flows():
    terms = [PanYang(), LinTsai(), MaCheng(), Constant(c=-1.0), H_EQUALS_L]
    controls = IntegratorControls(t_max=5.0)
    for term in terms:
        traj = integrate(ELLIPSEISH, term, controls)
        first = traj.states[0]
        ipd0 = first.L**2 - 4.0 * np.pi * first.A
        for s in traj.states:
            ipd_t = s.L**2 - 4.0 * np.pi * s.A
            assert ipd_t <= ipd0 * np.exp(-2.0 * s.t) * (1.0 + 1e-6), (
                f"{term}: deficit {ipd_t:.3e} above bound at t={s.t}"
            )


@criterion("03 length preservation")
def test_c03_pan_yang_length_preservation():
    traj = integrate(ELLIPSEISH, PanYang(), IntegratorControls(t_max=10.0))
    assert traj.event.kind == "reached-horizon"
    l0 = traj.states[0].L
    half_ulp_pi = 0.5 * np.spacing(np.pi)
    for s in traj.states:
        assert abs(s.L - l0) <= 1e-9 * l0
        bound = 0.06 * np.pi * np.exp(-6.0 * s.t)
        if bound * 1e-6 >= 2.0 * half_ulp_pi:
            # the stated envelope, wherever doubles can express its slack
            assert abs(s.A - np.pi) <= bound * (1.0 + 1e-6), f"t={s.t}"
        else:
            # beyond that, |A - pi| saturates at the rounding of pi + E
            assert abs(s.A - np.pi) <= bound + 2.0 * half_ulp_pi, f"t={s.t}"


@criterion("04 area preservation")
def test_c04_ma_cheng_area_preservation():
    controls = IntegratorControls(t_max=5.0, rel_tol=1e-10, abs_tol=1e-13)
    traj = integrate(ELLIPSEISH, MaCheng(), controls)
    a0 = traj.states[0].A
    for s in traj.states:
        assert abs(s.A - a0) / a0 <= 1e-8, f"area drift {abs(s.A - a0) / a0:.3e} at t={s.t}"


@criterion("05 singularity location")
def test_c05_singularity_location():
    traj = integrate(ELLIPSEISH, H_EQUALS_L, IntegratorControls(t_max=1.0))
    assert traj.event.kind == "singularity"
    t_star = np.log(0.6) / (4.0 - TWO_PI)
    assert abs(traj.event.t - t_star) <= 1e-4
    assert min(abs(traj.event.theta - 0.0), abs(traj.event.theta - np.pi)) <= 1e-9


@criterion("06 negative speed never pinches")
def test_c06_negative_h_no_singularity():
    traj = integrate(ELLIPSEISH, Constant(c=-1.0), IntegratorControls(t_max=5.0))
    assert traj.event.kind == "reached-horizon"
    l0 = traj.states[0].L
    for s in traj.states:
        assert s.L >= l0 * np.exp(s.t) * (1.0 - 1e-9)
        assert radius_extrema(s.spectrum)[0] > 0.0


@criterion("07 convergence limit and center")
def test_c07_convergence_limit():
    traj = integrate(OFFCENTER, PanYang(), IntegratorControls(t_max=4.5))
    for s in traj.states:
        residual = convergence_residual(s, OFFCENTER)
        assert residual <= 0.2 * np.exp(-3.0 * s.t) * (1.0 + 1e-9), f"t={s.t}"
    cx, cy = limit_circle(OFFCENTER)
    assert abs(cx - 0.3) <= 1e-10 and abs(cy - 0.0) <= 1e-10
    # the reported outcome carries the same center
    assert traj.outcome.center == (cx, cy)


@criterion("08 curvature-integral inequality suite")
def test_c08_green_osher_suite():
    st_ellipse = flow_state(ELLIPSEISH, 0.0, TWO_PI)
    assert go1(st_ellipse).slack == pytest.approx(0.24 * np.pi, abs=1e-8)
    rep2, equality = go2(st_ellipse)
    assert abs(rep2.slack) <= 1e-10
    assert equality

    mode3 = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.0, 0.1], sin_coeffs=[0, 0, 0])
    rep3, equality3 = go2(flow_state(mode3, 0.0, TWO_PI))
    assert rep3.slack == pytest.approx(0.4 * np.pi, abs=1e-8)
    assert not equality3

    rng = np.random.default_rng(99)
    for _ in range(100):
        mean, cos, sin = oracles.random_convex_coeffs(rng)
        spec = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
        st_ = flow_state(spec, 0.0, TWO_PI * mean)
        assert go1(st_).slack >= -1e-9
        assert go2(st_)[0].slack >= -1e-9
        assert gage(st_).slack >= -1e-9
        assert isoperimetric(st_).slack >= -1e-9


@criterion("09 isoperimetric ratio monotone")
def test_c09_ipr_monotone():
    terms = [PanYang(), LinTsai(), MaCheng(), Constant(c=-1.0)]
    controls = IntegratorControls(t_max=5.0)
    for term in terms:
        traj = integrate(ELLIPSEISH, term, controls)
        assert ipr_monotone(traj, term), f"ratio rose under {term}"


@criterion("10 constant-speed ODE exactness")
def test_c10_constant_flow_exactness():
    for c in (0.5, -1.0):
        traj = integrate(ELLIPSEISH, Constant(c=c), IntegratorControls(t_max=8.0))
        l0 = traj.states[0].L
        for s in traj.states:
            exact = (l0 - TWO_PI * c) * np.exp(s.t) + TWO_PI * c
            assert abs(s.L - exact) / abs(exact) <= 1e-8, f"c={c}, t={s.t}"
