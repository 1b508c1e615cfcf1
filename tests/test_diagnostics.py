import numpy as np
import pytest

import oracles
from curveflow import (
    Constant,
    ConvexityError,
    IntegratorControls,
    LinTsai,
    MaCheng,
    PanYang,
    PowerSum,
    SupportSpectrum,
    build_report,
    convergence_residual,
    curve_length,
    flow_state,
    gage,
    go1,
    go2,
    integrate,
    ipd_decay_ratio,
    ipr_guaranteed_monotone,
    ipr_monotone,
    isoperimetric,
    isoperimetric_deficit,
    limit_circle,
    reports_to_csv,
    summarize,
)

TWO_PI = 2.0 * np.pi

ELLIPSEISH = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.2], sin_coeffs=[0.0, 0.0])
CIRCLE = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.0], sin_coeffs=[0.0, 0.0])
MODE3 = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.0, 0.1], sin_coeffs=[0.0, 0.0, 0.0])


def state_of(spec0, t=0.0):
    return flow_state(spec0, t, curve_length(spec0))


class TestSummarize:
    def test_circle(self):
        s = summarize(state_of(CIRCLE))
        assert s.length == pytest.approx(TWO_PI)
        assert s.area == pytest.approx(np.pi)
        assert s.ipd == pytest.approx(0.0, abs=1e-12)
        assert s.ipr == pytest.approx(1.0, abs=1e-12)
        assert s.k_min == pytest.approx(1.0) and s.k_max == pytest.approx(1.0)

    def test_ellipseish(self):
        s = summarize(state_of(ELLIPSEISH))
        assert s.ipd == pytest.approx(0.24 * np.pi**2, abs=1e-12)
        assert s.ipr == pytest.approx(1.0 / 0.94, abs=1e-12)
        assert s.k_min == pytest.approx(0.625, abs=1e-12)
        assert s.k_max == pytest.approx(2.5, abs=1e-12)
        assert s.inv_curv_integral == pytest.approx(2.36 * np.pi, abs=1e-12)
        assert s.sq_curv_integral == pytest.approx(2.5 * np.pi, rel=1e-10)

    def test_translation_invariant(self):
        moved = SupportSpectrum(mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[0.0, 0.0])
        a, b = summarize(state_of(ELLIPSEISH)), summarize(state_of(moved))
        for field in ("length", "area", "ipd", "ipr", "k_min", "k_max", "inv_curv_integral"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)

    def test_nonconvex_flags_curvature_fields(self):
        bad = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.5], sin_coeffs=[0.0, 0.0])
        s = summarize(flow_state(bad, 0.0, TWO_PI))
        assert np.isnan(s.k_min) and np.isnan(s.k_max) and np.isnan(s.sq_curv_integral)
        assert s.length == pytest.approx(TWO_PI)
        assert np.isfinite(s.area)


class TestGreenOsher:
    def test_go1_circle_equality(self):
        rep = go1(state_of(CIRCLE))
        assert rep.lhs == pytest.approx(TWO_PI)
        assert rep.rhs == pytest.approx(TWO_PI)
        assert abs(rep.slack) <= 1e-12 and rep.satisfied

    def test_go1_ellipseish_slack(self):
        rep = go1(state_of(ELLIPSEISH))
        assert rep.slack == pytest.approx(0.24 * np.pi, abs=1e-12)
        assert rep.slack == pytest.approx(0.75398, abs=1e-5)

    def test_go1_mode3_spectral_identity(self):
        # slack = pi * (n^2-1)(n^2-2) a_n^2 at n = 3
        rep = go1(state_of(MODE3))
        assert rep.slack == pytest.approx(np.pi * 8.0 * 7.0 * 0.01, abs=1e-12)

    def test_go2_second_harmonic_equality(self):
        rep, equality = go2(state_of(ELLIPSEISH))
        assert abs(rep.slack) <= 1e-10
        assert equality and rep.satisfied

    def test_go2_mode3_slack(self):
        rep, equality = go2(state_of(MODE3))
        assert rep.slack == pytest.approx(0.4 * np.pi, abs=1e-12)
        assert rep.slack == pytest.approx(1.25664, abs=1e-5)
        assert not equality

    def test_go2_circle(self):
        rep, equality = go2(state_of(CIRCLE))
        assert abs(rep.slack) <= 1e-12 and equality

    def test_slack_identities_on_random_convex_spectra(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            mean, cos, sin = oracles.random_convex_coeffs(rng)
            spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            st_ = state_of(spec0)
            lhs_quad = oracles.inv_curv_quadrature(mean, cos, sin)
            area_quad = oracles.area_quadrature(mean, cos, sin)
            length = TWO_PI * mean

            go1_quad = lhs_quad - (length**2 - 2.0 * np.pi * area_quad) / np.pi
            go2_quad = lhs_quad - (2.0 / np.pi) * (length**2 - 4.0 * np.pi * area_quad) - 2.0 * area_quad

            n = np.arange(1, len(cos) + 1, dtype=float)
            power = np.asarray(cos) ** 2 + np.asarray(sin) ** 2
            go1_spectral = np.pi * np.sum((n**2 - 1.0) * (n**2 - 2.0) * power)
            go2_spectral = np.pi * np.sum((n**2 - 1.0) * (n**2 - 4.0) * power)

            assert go1(st_).slack == pytest.approx(go1_spectral, abs=1e-8)
            assert go1(st_).slack == pytest.approx(go1_quad, abs=1e-8)
            rep2, _ = go2(st_)
            assert rep2.slack == pytest.approx(go2_spectral, abs=1e-8)
            assert rep2.slack == pytest.approx(go2_quad, abs=1e-8)

            # the refined bound improves on the plain one by the scaled deficit
            ipd = length**2 - 4.0 * np.pi * area_quad
            assert go1(st_).slack - rep2.slack == pytest.approx(ipd / np.pi, abs=1e-8)
            assert go1(st_).slack - rep2.slack >= -1e-10


class TestGage:
    def test_circle_equality(self):
        rep = gage(state_of(CIRCLE))
        assert abs(rep.slack) <= 1e-10 and rep.satisfied

    def test_ellipseish_value(self):
        rep = gage(state_of(ELLIPSEISH))
        want = 2.5 * np.pi - TWO_PI / 0.94
        assert rep.slack == pytest.approx(want, abs=1e-9)

    def test_wider_curve_larger_slack(self):
        wider = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.3], sin_coeffs=[0.0, 0.0])
        assert gage(state_of(wider)).slack > gage(state_of(ELLIPSEISH)).slack > 0.0

    def test_nonconvex_rejected(self):
        bad = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.5], sin_coeffs=[0.0, 0.0])
        with pytest.raises(ConvexityError):
            gage(flow_state(bad, 0.0, TWO_PI))


class TestIsoperimetric:
    def test_reports(self):
        rep = isoperimetric(state_of(ELLIPSEISH))
        assert rep.slack == pytest.approx(0.24 * np.pi**2, abs=1e-12)
        assert rep.satisfied
        rep = isoperimetric(state_of(CIRCLE))
        assert abs(rep.slack) <= 1e-12


class TestTrajectoryChecks:
    def test_ipd_decay_ratio_pan_yang(self):
        traj = integrate(ELLIPSEISH, PanYang(), IntegratorControls(t_max=3.0))
        assert ipd_decay_ratio(traj) <= 1.0 + 1e-12
        # the actual decay is a full four powers faster than the bound
        first = traj.states[0]
        ipd0 = first.L**2 - 4 * np.pi * first.A
        for s in traj.states[1:]:
            ipd_t = s.L**2 - 4 * np.pi * s.A
            assert ipd_t <= ipd0 * np.exp(-6.0 * s.t) * (1 + 1e-6)

    def test_ipd_decay_ratio_circle_special_case(self):
        traj = integrate(CIRCLE, PanYang(), IntegratorControls(t_max=1.0))
        assert ipd_decay_ratio(traj) == 0.0

    @pytest.mark.parametrize(
        "term", [PanYang(), LinTsai(), MaCheng(), Constant(c=-1.0)]
    )
    def test_ipr_monotone_guaranteed_flows(self, term):
        traj = integrate(ELLIPSEISH, term, IntegratorControls(t_max=4.0))
        assert ipr_guaranteed_monotone(term)
        assert ipr_monotone(traj, term)

    def test_ipr_not_guaranteed_for_growing_h(self):
        term = PowerSum(terms=((1.0, 1.0, 0.0),))
        assert not ipr_guaranteed_monotone(term)
        traj = integrate(ELLIPSEISH, term, IntegratorControls(t_max=5.0))
        assert not ipr_monotone(traj, term)  # report only: this one rises

    def test_ipr_guard_classification(self):
        assert ipr_guaranteed_monotone(Constant(c=-0.1))
        assert not ipr_guaranteed_monotone(Constant(c=0.1))
        assert not ipr_guaranteed_monotone(PowerSum(terms=((-1.0, 0.0, 0.0),)))

    def test_ipd_ratio_bounded_for_random_curves_and_flows(self):
        rng = np.random.default_rng(37)
        terms = [
            PanYang(),
            LinTsai(),
            MaCheng(),
            Constant(c=-0.5),
            Constant(c=1.2),
            PowerSum(terms=((1.0, 1.0, 0.0),)),
            PowerSum(terms=((0.5, 0.0, 0.5),)),
        ]
        for _ in range(8):
            mean, cos, sin = oracles.random_convex_coeffs(rng, max_modes=6)
            spec = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            term = terms[int(rng.integers(len(terms)))]
            traj = integrate(spec, term, IntegratorControls(t_max=3.0))
            assert ipd_decay_ratio(traj) <= 1.0 + 1e-9, f"{term} on mean={mean}"


class TestLimits:
    def test_limit_circle_cases(self):
        assert limit_circle(CIRCLE) == (0.0, 0.0)
        spec = SupportSpectrum(mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[0.0, 0.0])
        assert limit_circle(spec) == (0.3, 0.0)
        spec = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.0], sin_coeffs=[-0.1, 0.0])
        assert limit_circle(spec) == (0.0, -0.1)

    def test_limit_center_invariant_along_flow(self):
        spec = SupportSpectrum(mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[-0.1, 0.0])
        traj = integrate(spec, LinTsai(), IntegratorControls(t_max=3.0))
        for s in traj.states:
            assert limit_circle(s.spectrum) == pytest.approx((0.3, -0.1), abs=1e-12)

    def test_convergence_residual_circle(self):
        for t in (0.0, 3.0):
            st_ = flow_state(CIRCLE, t, TWO_PI)
            assert convergence_residual(st_, CIRCLE) <= 1e-15

    def test_convergence_residual_values(self):
        spec = SupportSpectrum(mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[0.0, 0.0])
        at0 = convergence_residual(flow_state(spec, 0.0, TWO_PI), spec)
        assert at0 == pytest.approx(0.2, abs=1e-14)
        at1 = convergence_residual(flow_state(spec, 1.0, TWO_PI), spec)
        assert at1 == pytest.approx(0.2 * np.exp(-3.0), abs=1e-14)
        assert at1 == pytest.approx(0.0099574, abs=1e-6)

    def test_residual_decays_at_mode_two_rate(self):
        spec = SupportSpectrum(mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[0.0, 0.0])
        traj = integrate(spec, PanYang(), IntegratorControls(t_max=4.0))
        r0 = convergence_residual(traj.states[0], spec)
        for s in traj.states:
            assert convergence_residual(s, spec) <= r0 * np.exp(-3.0 * s.t) * (1 + 1e-9)


class TestReportPlumbing:
    def test_build_report_tolerance(self):
        assert build_report("x", 1.0, 1.0 + 1e-10).satisfied
        assert not build_report("x", 1.0, 1.0 + 1e-6).satisfied

    def test_csv_format(self):
        rows = [go1(state_of(CIRCLE)), isoperimetric(state_of(CIRCLE))]
        text = reports_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "name,lhs,rhs,slack,satisfied"
        assert len(lines) == 3
        assert lines[1].startswith("go1,") and lines[1].endswith(",true")


class TestClosedFormDeficit:
    def test_matches_difference_on_moderate_curves(self):
        for spec in (ELLIPSEISH, MODE3, CIRCLE):
            state = state_of(spec)
            assert isoperimetric_deficit(spec) == pytest.approx(
                state.L**2 - 4.0 * np.pi * state.A, abs=1e-12
            )

    def test_const_minus_one_ipd_exact_at_large_length(self):
        # L grows like e^t, so L^2 - 4*pi*A cancels to noise by t = 10;
        # the closed form follows every mode's e^{2(1-n^2)t} decay.
        spec0 = SupportSpectrum(mean=1.0, cos_coeffs=[0.1, 0.2], sin_coeffs=[0.0, 0.05])
        traj = integrate(spec0, Constant(c=-1.0), IntegratorControls(t_max=10.0))
        assert traj.states[-1].L > 1e5
        n = np.arange(1, 3, dtype=float)
        power = spec0.cos_coeffs**2 + spec0.sin_coeffs**2
        for s in traj.states:
            exact = 2.0 * np.pi**2 * np.sum((n**2 - 1.0) * power * np.exp(2.0 * (1.0 - n**2) * s.t))
            assert summarize(s).ipd == pytest.approx(exact, rel=1e-12)
        assert ipd_decay_ratio(traj) <= 1.0
