import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from curveflow import (
    ConvexityError,
    SupportSpectrum,
    curve_length,
    curve_position,
    enclosed_area,
    evaluate_support,
    project_from_samples,
    radius_extrema,
    radius_of_curvature,
    spectrum_from_dict,
    spectrum_from_polygon,
    sq_curvature_integral,
    support_derivative,
    theta_grid,
    total_inverse_curvature,
    validate_convexity,
)
from curveflow.support import isoperimetric_ratio

TWO_PI = 2.0 * np.pi


def spec(mean, cos=(), sin=(), n=2):
    n = max(n, len(cos), len(sin))
    cos = list(cos) + [0.0] * (n - len(cos))
    sin = list(sin) + [0.0] * (n - len(sin))
    return SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)


CIRCLE = spec(1.0)
ELLIPSEISH = spec(1.0, cos=[0.0, 0.2])


coeff_lists = st.lists(st.floats(-0.1, 0.1), min_size=2, max_size=8)


@st.composite
def spectra(draw, scale=0.1, max_modes=8):
    n = draw(st.integers(2, max_modes))
    mean = draw(st.floats(0.5, 2.0))
    cos = draw(st.lists(st.floats(-scale, scale), min_size=n, max_size=n))
    sin = draw(st.lists(st.floats(-scale, scale), min_size=n, max_size=n))
    return SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)


class TestSupportSpectrum:
    def test_truncation_minimum(self):
        with pytest.raises(ValueError):
            SupportSpectrum(mean=1.0, cos_coeffs=[0.1], sin_coeffs=[0.0])

    def test_truncation_maximum(self):
        from curveflow.support import MAX_TRUNCATION

        zeros = np.zeros(MAX_TRUNCATION + 1)
        with pytest.raises(ValueError, match="at most"):
            SupportSpectrum(mean=1.0, cos_coeffs=zeros, sin_coeffs=zeros)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SupportSpectrum(mean=1.0, cos_coeffs=[0.1, 0.0], sin_coeffs=[0.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            SupportSpectrum(mean=np.nan, cos_coeffs=[0, 0], sin_coeffs=[0, 0])
        with pytest.raises(ValueError):
            SupportSpectrum(mean=1.0, cos_coeffs=[0, np.inf], sin_coeffs=[0, 0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_length_at_most_max_length(self, sign):
        # At the bound L^2 is a quarter of the largest float, so every report is finite.
        from curveflow.support import MAX_LENGTH

        largest = sign * MAX_LENGTH / TWO_PI
        assert spec(largest).mean == largest
        assert total_inverse_curvature(spec(largest)) == pytest.approx(MAX_LENGTH**2 / TWO_PI)
        for mean in (np.nextafter(largest, sign * np.inf), sign * np.inf, np.nan):
            with pytest.raises(ValueError, match=r"mean must be finite, with length 2 pi \|mean\| at most 6.704e\+153"):
                spec(mean)

    def test_immutable_arrays(self):
        s = spec(1.0, cos=[0.0, 0.2])
        with pytest.raises(ValueError):
            s.cos_coeffs[0] = 5.0


class TestEvaluateSupport:
    def test_circle(self):
        assert evaluate_support(CIRCLE, 1.3) == pytest.approx(1.0, abs=1e-15)

    def test_direct_value(self):
        assert evaluate_support(ELLIPSEISH, 0.0) == pytest.approx(1.2, abs=1e-15)

    def test_periodicity(self):
        for th in (0.0, 0.7, 3.9):
            assert abs(
                evaluate_support(ELLIPSEISH, th) - evaluate_support(ELLIPSEISH, th + TWO_PI)
            ) <= 1e-12

    def test_vectorized_matches_series(self):
        th = theta_grid(64)
        got = evaluate_support(ELLIPSEISH, th)
        want = oracles.u_series(1.0, [0.0, 0.2], [0.0, 0.0], th)
        assert np.allclose(got, want, atol=1e-14)


class TestRadiusOfCurvature:
    def test_circle(self):
        assert radius_of_curvature(CIRCLE, 2.2) == pytest.approx(1.0, abs=1e-15)

    def test_ellipseish_min(self):
        assert radius_of_curvature(ELLIPSEISH, 0.0) == pytest.approx(0.4, abs=1e-14)

    def test_ellipseish_max(self):
        assert radius_of_curvature(ELLIPSEISH, np.pi / 2) == pytest.approx(1.6, abs=1e-14)

    def test_negative_is_data_not_error(self):
        tight = spec(1.0, cos=[0.0, 0.5])
        assert radius_of_curvature(tight, 0.0) == pytest.approx(-0.5, abs=1e-14)


class TestValidateConvexity:
    def test_circle(self):
        assert validate_convexity(CIRCLE) == pytest.approx(1.0, abs=1e-14)

    def test_ellipseish(self):
        assert validate_convexity(ELLIPSEISH) == pytest.approx(0.4, abs=1e-14)

    def test_rejected_value(self):
        assert validate_convexity(spec(1.0, cos=[0.0, 0.5])) == pytest.approx(-0.5, abs=1e-14)

    def test_extrema(self):
        lo, hi = radius_extrema(ELLIPSEISH)
        assert lo == pytest.approx(0.4, abs=1e-14)
        assert hi == pytest.approx(1.6, abs=1e-14)

    def test_one_read_only_table_per_truncation(self):
        from curveflow.heat import _Modes
        from curveflow.support import _radius_table

        n = 7
        first = spec(1.0, cos=[0.0, 0.1], n=n)
        misses = _radius_table.cache_info().misses
        radius_extrema(first)
        table = _radius_table(n)
        radius_extrema(spec(2.0, sin=[0.3, 0.0, 0.05], n=n))
        _Modes(first).radius_range(0.5, TWO_PI)[0]
        assert _radius_table.cache_info().misses <= misses + 1
        assert all(a is b for a, b in zip(table, _radius_table(n)))
        assert len(table[0]) == 512 and table[1].shape == table[2].shape == (512, n)
        for arr in table:
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestIntegralQuantities:
    def test_length_circle(self):
        assert curve_length(CIRCLE) == pytest.approx(TWO_PI, abs=1e-15)

    def test_length_ignores_higher_modes(self):
        assert curve_length(ELLIPSEISH) == pytest.approx(TWO_PI, abs=1e-15)

    def test_length_scaled(self):
        assert curve_length(spec(4.0 / np.pi)) == pytest.approx(8.0, rel=1e-15)

    def test_area_circle(self):
        assert enclosed_area(CIRCLE) == pytest.approx(np.pi, abs=1e-15)

    def test_area_ellipseish(self):
        assert enclosed_area(ELLIPSEISH) == pytest.approx(0.94 * np.pi, abs=1e-14)

    def test_area_translation_invariant(self):
        translated = spec(1.0, cos=[0.3, 0.2])
        assert enclosed_area(translated) == pytest.approx(0.94 * np.pi, abs=1e-14)

    def test_inverse_curvature_circle(self):
        assert total_inverse_curvature(CIRCLE) == pytest.approx(TWO_PI, abs=1e-14)

    def test_inverse_curvature_ellipseish(self):
        assert total_inverse_curvature(ELLIPSEISH) == pytest.approx(2.36 * np.pi, abs=1e-13)

    def test_inverse_curvature_mode3(self):
        s = spec(1.0, sin=[0.0, 0.0, 0.1])
        assert total_inverse_curvature(s) == pytest.approx(2.64 * np.pi, abs=1e-13)

    def test_sq_curvature_circle(self):
        assert sq_curvature_integral(CIRCLE) == pytest.approx(TWO_PI, rel=1e-12)

    def test_sq_curvature_radius_two(self):
        assert sq_curvature_integral(spec(2.0)) == pytest.approx(np.pi, rel=1e-12)

    def test_sq_curvature_ellipseish(self):
        # analytic: integral dtheta/(1 - 0.6 cos 2theta) = 2*pi/sqrt(1-0.36)
        got = sq_curvature_integral(ELLIPSEISH)
        assert got == pytest.approx(2.5 * np.pi, rel=1e-10)
        assert got >= np.pi * TWO_PI / (0.94 * np.pi)  # above the curvature bound

    def test_sq_curvature_rejects_nonconvex(self):
        with pytest.raises(ConvexityError):
            sq_curvature_integral(spec(1.0, cos=[0.0, 0.5]))


class TestQuadratureAgreement:
    @settings(max_examples=40, deadline=None)
    @given(spectra(scale=0.1, max_modes=16))
    def test_area_closed_form_vs_quadrature(self, s):
        quad = oracles.area_quadrature(s.mean, s.cos_coeffs, s.sin_coeffs)
        assert abs(enclosed_area(s) - quad) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(spectra(scale=0.1, max_modes=12))
    def test_inverse_curvature_vs_quadrature(self, s):
        quad = oracles.inv_curv_quadrature(s.mean, s.cos_coeffs, s.sin_coeffs)
        assert abs(total_inverse_curvature(s) - quad) <= 1e-9

    def test_sq_curvature_vs_dense_quadrature(self):
        quad = oracles.sq_curv_quadrature(1.0, [0.0, 0.2], [0.0, 0.0])
        assert sq_curvature_integral(ELLIPSEISH) == pytest.approx(quad, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_modes=st.sampled_from([2, 8, 64, 512]))
    def test_sq_curvature_is_the_direct_sum_on_its_grid(self, seed, max_modes):
        # The inverse FFT and the term-by-term sum round differently: a few
        # ulps of each rho, here at least 0.79 of the mean.
        from curveflow.support import SQ_CURVATURE_GRID

        mean, cos, sin = oracles.random_convex_coeffs(np.random.default_rng(seed), max_modes=max_modes)
        rho = oracles.rho_series(mean, cos, sin, oracles.grid(SQ_CURVATURE_GRID))
        direct = float(np.mean(1.0 / rho) * TWO_PI)
        got = sq_curvature_integral(SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin))
        assert got == pytest.approx(direct, rel=1e-14)


class TestIsoperimetric:
    @settings(max_examples=50, deadline=None)
    @given(spectra(scale=0.05))
    def test_deficit_nonnegative_for_convex(self, s):
        if validate_convexity(s) <= 0:
            return
        ipd = curve_length(s) ** 2 - 4.0 * np.pi * enclosed_area(s)
        assert ipd >= -1e-10

    def test_equality_iff_round(self):
        # circles and translated circles have zero deficit
        for s in (CIRCLE, spec(1.0, cos=[0.3], sin=[-0.1])):
            ipd = curve_length(s) ** 2 - 4.0 * np.pi * enclosed_area(s)
            assert abs(ipd) <= 1e-10
        ipd = curve_length(ELLIPSEISH) ** 2 - 4.0 * np.pi * enclosed_area(ELLIPSEISH)
        assert ipd == pytest.approx(0.24 * np.pi**2, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(spectra(scale=0.05), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    def test_translation_invariance(self, s, da1, db1):
        cos = np.array(s.cos_coeffs)
        sin = np.array(s.sin_coeffs)
        cos[0] += da1
        sin[0] += db1
        moved = SupportSpectrum(mean=s.mean, cos_coeffs=cos, sin_coeffs=sin)
        assert enclosed_area(moved) == pytest.approx(enclosed_area(s), abs=1e-12)
        assert total_inverse_curvature(moved) == pytest.approx(
            total_inverse_curvature(s), abs=1e-12
        )
        th = theta_grid(32)
        assert np.allclose(
            radius_of_curvature(moved, th), radius_of_curvature(s, th), atol=1e-12
        )

    @pytest.mark.parametrize("length", [1e155, -1e155, np.float64(1e155)], ids=["float", "negative", "numpy"])
    def test_ratio_overflows_to_inf_without_a_warning(self, length):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = isoperimetric_ratio(length, 1.0)
        assert type(ratio) is float and ratio == np.inf

    def test_ratio_keeps_the_bits_of_the_scalar_pow(self):
        # NumPy's array x**2 is x*x, which differs from a float's ** in the last bit on some inputs.
        rng = np.random.default_rng(23)
        n = 100_000
        lengths = (rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-150.0, 150.0, n)).tolist()
        areas = (10.0 ** rng.uniform(-150.0, 150.0, n)).tolist()
        old = np.array([L**2 / (4.0 * np.pi * A) for L, A in zip(lengths, areas)])
        assert np.isfinite(old).mean() > 0.5
        for cast in (float, np.float64):
            new = np.array([isoperimetric_ratio(cast(L), cast(A)) for L, A in zip(lengths, areas)])
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


class TestCurvePosition:
    def test_circle_points(self):
        th = theta_grid(16)
        samples = curve_position(CIRCLE, th)
        assert np.allclose(samples.points, np.column_stack([np.cos(th), np.sin(th)]), atol=1e-14)

    def test_translated_circle(self):
        th = theta_grid(16)
        samples = curve_position(spec(1.0, cos=[0.3]), th)
        want = np.column_stack([np.cos(th) + 0.3, np.sin(th)])
        assert np.allclose(samples.points, want, atol=1e-14)

    def test_ellipseish_at_zero(self):
        samples = curve_position(ELLIPSEISH, np.array([0.0]))
        assert samples.points[0] == pytest.approx([1.2, 0.0], abs=1e-14)

    def test_winding_number_one(self):
        samples = curve_position(ELLIPSEISH, theta_grid(1024))
        assert oracles.winding_number(samples.points) == pytest.approx(1.0, abs=1e-6)

    def test_perimeter_converges_to_length(self):
        samples = curve_position(ELLIPSEISH, theta_grid(4096))
        perim = oracles.polyline_perimeter(samples.points)
        assert abs(perim - curve_length(ELLIPSEISH)) / curve_length(ELLIPSEISH) <= 1e-4

    def test_derivative_orders(self):
        th = theta_grid(32)
        # d/dtheta of cos(2 theta) terms, checked against the closed form
        got = support_derivative(ELLIPSEISH, th, order=1)
        assert np.allclose(got, -0.4 * np.sin(2 * th), atol=1e-14)
        got2 = support_derivative(ELLIPSEISH, th, order=2)
        assert np.allclose(got2, -0.8 * np.cos(2 * th), atol=1e-14)


    @given(spectra(max_modes=64))
    @settings(max_examples=30, deadline=None)
    def test_frame_grid_default_is_the_explicit_grid_bit_for_bit(self, sp):
        from curveflow.support import FRAME_GRID

        cached = curve_position(sp)
        explicit = curve_position(sp, theta_grid(FRAME_GRID))
        assert np.array_equal(cached.thetas, explicit.thetas)
        assert np.array_equal(cached.points, explicit.points)

    def test_one_read_only_frame_table_per_truncation(self):
        from curveflow.support import FRAME_GRID, _frame_table

        n = 9
        curve_position(spec(1.0, cos=[0.0, 0.1], n=n))
        table = _frame_table(n)
        misses = _frame_table.cache_info().misses
        curve_position(spec(2.0, sin=[0.3, 0.0, 0.05], n=n))
        assert _frame_table.cache_info().misses == misses
        assert all(a is b for a, b in zip(table, _frame_table(n)))
        assert len(table[0]) == FRAME_GRID and all(arr.shape == (FRAME_GRID, n) for arr in table[1:])
        for arr in table:
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestProjection:
    def test_constant_samples(self):
        s = project_from_samples(np.ones(64), truncation=8)
        assert s.mean == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(s.cos_coeffs)) <= 1e-14
        assert np.max(np.abs(s.sin_coeffs)) <= 1e-14

    def test_band_limited_exact(self):
        th = theta_grid(512)
        s = project_from_samples(1.0 + 0.2 * np.cos(2 * th), truncation=8)
        assert s.mean == pytest.approx(1.0, abs=1e-12)
        assert s.cos_coeffs[1] == pytest.approx(0.2, abs=1e-12)
        others = np.concatenate([s.cos_coeffs[:1], s.cos_coeffs[2:], s.sin_coeffs])
        assert np.max(np.abs(others)) <= 1e-12

    def test_square_support_mean(self):
        th = theta_grid(1024)
        samples = np.abs(np.cos(th)) + np.abs(np.sin(th))
        s = project_from_samples(samples, truncation=16)
        assert s.mean == pytest.approx(4.0 / np.pi, abs=1e-5)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="samples"):
            project_from_samples(np.ones(16), truncation=8)

    def test_non_finite_samples(self):
        bad = np.ones(64)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            project_from_samples(bad, truncation=8)

    @settings(max_examples=30, deadline=None)
    @given(spectra(scale=0.1, max_modes=8))
    def test_roundtrip_band_limited(self, s):
        values = oracles.u_series(s.mean, s.cos_coeffs, s.sin_coeffs, theta_grid(64))
        back = project_from_samples(values, truncation=s.truncation)
        assert curve_length(back) == pytest.approx(TWO_PI * s.mean, abs=1e-12)
        assert np.allclose(back.cos_coeffs, s.cos_coeffs, atol=1e-12)
        assert np.allclose(back.sin_coeffs, s.sin_coeffs, atol=1e-12)


HEXAGON = [(np.cos(np.pi * k / 3), np.sin(np.pi * k / 3)) for k in range(6)]
SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


class TestPolygon:
    def test_square_mean(self):
        s = spectrum_from_polygon(SQUARE, truncation=16)
        assert s.mean == pytest.approx(4.0 / np.pi, abs=1e-5)

    def test_hexagon_mean_is_perimeter_over_two_pi(self):
        s = spectrum_from_polygon(HEXAGON, truncation=16)
        assert s.mean == pytest.approx(3.0 / np.pi, abs=1e-5)
        assert s.mean == pytest.approx(oracles.polygon_perimeter(HEXAGON) / TWO_PI, abs=1e-5)

    def test_square_truncation_fails_convexity(self):
        s = spectrum_from_polygon(SQUARE, truncation=16)
        assert validate_convexity(s) <= 0.0

    def test_collinear_rejected(self):
        with pytest.raises(ConvexityError, match="triple"):
            spectrum_from_polygon([(0, 0), (1, 0), (2, 0), (1, 1)], truncation=8)

    def test_clockwise_rejected(self):
        with pytest.raises(ConvexityError):
            spectrum_from_polygon(list(reversed(SQUARE)), truncation=8)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            spectrum_from_polygon([(0, 0), (1, 0)], truncation=8)


class TestSerialization:
    def test_dict_pads_missing_sin(self):
        assert spectrum_from_dict({"mean": 1.0, "cos": [0.0, 0.2], "sin": [0.0, 0.0]}) == ELLIPSEISH
        s = spectrum_from_dict({"mean": 1.0, "cos": [0.0, 0.2]})
        assert s == ELLIPSEISH
