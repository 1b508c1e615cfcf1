from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from curveflow import (
    SupportSpectrum,
    enclosed_area,
    evaluate_support,
    known_scalars,
    propagate,
    support_derivative,
    theta_grid,
)
from curveflow.support import default_validation_grid

TWO_PI = 2.0 * np.pi


def dev(cos=(), sin=(), n=2):
    n = max(n, len(cos), len(sin))
    cos = list(cos) + [0.0] * (n - len(cos))
    sin = list(sin) + [0.0] * (n - len(sin))
    return SupportSpectrum(mean=0.0, cos_coeffs=cos, sin_coeffs=sin)


def e1(spec0, t):
    # The quadratic propagated-support integral driving the length ODE.
    return np.pi * spec0.mean**2 * np.exp(2.0 * t) + known_scalars(spec0, t)[1]


def deviation_sup_norm(d, t):
    # Sup-norm of the propagated deviation on the validation grid.
    grid = theta_grid(default_validation_grid(d.truncation))
    return float(np.max(np.abs(evaluate_support(propagate(d, t), grid))))


ELLIPSEISH = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.2], sin_coeffs=[0.0, 0.0])


class TestPropagate:
    def test_identity_at_zero(self):
        d = dev(cos=[0.1, -0.05], sin=[0.02, 0.3])
        assert propagate(d, 0.0) == d

    def test_mode_two_decay(self):
        moved = propagate(dev(cos=[0.0, 0.2]), 0.5)
        assert moved.cos_coeffs[1] == pytest.approx(0.2 * np.exp(-1.5), abs=1e-16)

    def test_mode_one_invariant(self):
        moved = propagate(dev(cos=[0.3, 0.0]), 7.0)
        assert moved.cos_coeffs[0] == 0.3

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(dev(cos=[0.0, 0.1]), -0.1)

    def test_factors(self):
        f = propagate(dev(cos=[1.0, 1.0, 1.0]), 0.25).cos_coeffs
        assert f == pytest.approx([1.0, np.exp(-0.75), np.exp(-2.0)], abs=1e-16)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=6),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
    )
    def test_semigroup(self, coeffs, s, t):
        d = dev(cos=coeffs, sin=list(reversed(coeffs)))
        once = propagate(d, s + t)
        twice = propagate(propagate(d, s), t)
        assert np.allclose(twice.cos_coeffs, once.cos_coeffs, atol=1e-12)
        assert np.allclose(twice.sin_coeffs, once.sin_coeffs, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=6), st.floats(0.0, 3.0))
    def test_zero_mean_preserved(self, coeffs, t):
        moved = propagate(dev(cos=coeffs, sin=coeffs), t)
        grid_integral = np.mean(evaluate_support(moved, theta_grid(512))) * TWO_PI
        assert abs(grid_integral) <= 1e-10


class TestKernelOracle:
    """The Gaussian-convolution oracle of tests/oracles.py."""

    def test_circle_is_zero(self):
        for theta, t in ((0.0, 0.1), (1.0, 0.5), (4.0, 2.0)):
            assert abs(oracles.gaussian_deviation(1.0, [0.0, 0.0], [0.0, 0.0], theta, t)) <= 1e-12

    def test_mode_two_value(self):
        got = oracles.gaussian_deviation(1.0, [0.0, 0.2], [0.0, 0.0], 0.0, 0.5)
        assert got == pytest.approx(0.0446260, abs=1e-7)
        assert got == pytest.approx(0.2 * np.exp(-1.5), abs=1e-10)

    def test_mode_one_invariance(self):
        got = oracles.gaussian_deviation(1.0, [0.3], [0.0], 0.0, 2.0)
        assert got == pytest.approx(0.3, abs=1e-9)

    def test_agrees_with_mode_decay(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            mean, cos, sin = oracles.random_spectrum_coeffs(rng, max_modes=8, scale=0.1)
            spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            for _ in range(4):
                theta = rng.uniform(0.0, TWO_PI)
                t = rng.uniform(0.05, 3.0)
                closed = evaluate_support(propagate(spec0, t), theta)
                quad = oracles.gaussian_deviation(mean, cos, sin, theta, t)
                assert abs(closed - quad) <= 1e-8


class TestKnownScalars:
    def test_circle(self):
        d_val, e_val = known_scalars(SupportSpectrum(mean=1.0, cos_coeffs=[0, 0], sin_coeffs=[0, 0]), 1.3)
        assert d_val == 0.0
        assert e_val == 0.0

    def test_ellipseish_at_zero(self):
        d_val, e_val = known_scalars(ELLIPSEISH, 0.0)
        assert d_val == 0.0
        assert e_val == pytest.approx(-0.06 * np.pi, abs=1e-14)
        # matches minus the isoperimetric deficit over 4*pi
        ipd0 = (TWO_PI) ** 2 - 4 * np.pi * enclosed_area(ELLIPSEISH)
        assert e_val == pytest.approx(-ipd0 / (4 * np.pi), abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-0.1, 0.1), min_size=2, max_size=8),
        st.floats(0.0, 4.0),
        st.floats(0.5, 2.0),
    )
    def test_e_nonpositive_and_matches_geometry(self, coeffs, t, mean_val):
        spec0 = SupportSpectrum(mean=mean_val, cos_coeffs=coeffs, sin_coeffs=coeffs)
        d_val, e_val = known_scalars(spec0, t)
        assert d_val == 0.0
        assert e_val <= 0.0
        # -4*pi*E equals L^2 - 4*pi*A for the propagated curve at any length
        length = 5.0
        moved = replace(propagate(spec0, t), mean=length / TWO_PI)
        ipd = length**2 - 4.0 * np.pi * enclosed_area(moved)
        assert -4.0 * np.pi * e_val == pytest.approx(ipd, abs=1e-9)


class TestE1:
    def test_circle(self):
        spec0 = SupportSpectrum(mean=1.0, cos_coeffs=[0, 0], sin_coeffs=[0, 0])
        assert e1(spec0, 0.7) == pytest.approx(np.pi * np.exp(1.4), rel=1e-14)

    def test_equals_initial_area_at_zero(self):
        assert e1(ELLIPSEISH, 0.0) == pytest.approx(0.94 * np.pi, abs=1e-14)
        assert e1(ELLIPSEISH, 0.0) == pytest.approx(enclosed_area(ELLIPSEISH), abs=1e-14)

    def test_closed_form_value(self):
        want = np.pi * np.e + (np.pi / 2.0) * (-3.0) * np.exp(-3.0) * 0.04
        assert e1(ELLIPSEISH, 0.5) == pytest.approx(want, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            known_scalars(ELLIPSEISH, -0.5)

    def test_matches_double_integral_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            mean, cos, sin = oracles.random_spectrum_coeffs(rng, max_modes=6, scale=0.1)
            spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            for t in (0.3, 1.1):
                quad = oracles.e1_quadrature(mean, cos, sin, t)
                assert abs(e1(spec0, t) - quad) <= 1e-7


class TestDeviationSupNorm:
    def test_zero_deviation(self):
        assert deviation_sup_norm(dev(), 2.0) == 0.0

    def test_mode_two(self):
        got = deviation_sup_norm(dev(cos=[0.0, 0.2]), 1.0)
        assert got == pytest.approx(0.2 * np.exp(-3.0), abs=1e-15)
        assert got == pytest.approx(0.009957, abs=1e-6)

    def test_large_time_leaves_translation_mode(self):
        got = deviation_sup_norm(dev(cos=[0.3, 0.2]), 40.0)
        assert got == pytest.approx(0.3, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=8), st.floats(0.0, 3.0))
    def test_exponential_bound(self, coeffs, t):
        d = dev(cos=coeffs, sin=coeffs)
        bound = np.exp(t) * float(np.sum(np.abs(d.cos_coeffs)) + np.sum(np.abs(d.sin_coeffs)))
        assert deviation_sup_norm(d, t) <= bound * (1.0 + 1e-12)

    def test_derivatives_stay_bounded(self):
        # theta-derivatives up to order 4 never exceed their initial bound
        d = dev(cos=[0.1, 0.05, 0.02], sin=[0.0, -0.04, 0.03])
        th = theta_grid(512)
        for order in range(1, 5):
            n = np.arange(1, d.truncation + 1, dtype=float)
            bound0 = float(
                np.sum(n**order * (np.abs(d.cos_coeffs) + np.abs(d.sin_coeffs)))
            )
            for t in (0.0, 0.3, 1.0, 4.0):
                moved = propagate(d, t)
                sup = float(np.max(np.abs(support_derivative(moved, th, order=order))))
                assert sup <= bound0 * (1.0 + 1e-12)


def _band_times(modes, spots):
    # For every mode n >= 2, the times at which (1 - n^2) t is each spot
    # below zero: around the cut (600), in the subnormal band (708 to 745)
    # and past it, ascending.
    rates = np.arange(2, modes + 1, dtype=float) ** 2 - 1.0
    return np.unique(np.concatenate([[0.0], np.divide.outer(spots, rates).ravel()]))


class TestDecayCut:
    """Decay factors below support.EXP_CUT read 0.0 and change no radius,
    area or deficit: each equals its plain-np.exp oracle bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=40), st.floats(0.0, 3.0))
    def test_zero_below_the_cut_and_exp_bits_above(self, rates, t):
        from curveflow.support import EXP_CUT, _decay_exp

        rates = -np.array(rates + [-EXP_CUT])  # e^-600 itself at t = 1 is kept
        x = np.multiply.outer(rates, [t, 1.0])
        got = _decay_exp(x)
        below = x < EXP_CUT
        assert np.all(got[below] == 0.0)
        assert np.array_equal(got[~below], np.exp(x[~below]))
        assert np.exp(EXP_CUT) in got[-1]

    def test_exp_alone_serves_up_to_the_guard_time(self):
        # For every truncation: at _cut_from every exponent of the factors, and
        # at half of it every exponent of E's terms, is at or above the cut; a
        # little later the least is below it.
        from curveflow.heat import _Modes
        from curveflow.support import EXP_CUT, MAX_TRUNCATION, _deficit_rates

        for modes in range(2, MAX_TRUNCATION + 1):
            m = _Modes(dev(cos=np.full(modes, 1e-3)))
            rate = _deficit_rates(modes)[1]
            assert np.all(m.decay * m._cut_from >= EXP_CUT)
            assert np.all(rate * (0.5 * m._cut_from) >= EXP_CUT)
            assert m.decay[-1] * m._cut_from * (1.0 + 1e-12) < EXP_CUT

    def test_the_guard_time_is_the_last_live_modes(self):
        # Zero-padded modes take no part: their coefficients times any factor
        # below the cut are 0.0 too, so the cut never needs to reach them.
        from curveflow.heat import _Modes

        padded = _Modes(dev(cos=np.r_[0.1, 0.2, np.zeros(62)], sin=np.r_[0.0, 0.0, 1e-3, np.zeros(61)]))
        assert padded._cut_from == _Modes(dev(cos=[0.1, 0.2, 0.0], sin=[0.0, 0.0, 1e-3]))._cut_from
        assert padded._cut_from < 600.0 / 8.0
        assert _Modes(dev(cos=[0.3, 0.0, 0.0]))._cut_from == np.inf

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([2, 16, 32, 64]),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(500.0, 800.0), min_size=1, max_size=3),
    )
    def test_modes_equal_their_plain_exp_oracles(self, modes, seed, spots):
        from curveflow.heat import _area, _Modes
        from curveflow.support import _radius_range, radius_extrema

        rng = np.random.default_rng(seed)
        mean, cos, sin = oracles.random_convex_coeffs(rng, modes=modes)
        spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
        times = _band_times(modes, [600.0, 708.0, 745.0, *spots])
        if modes == 2:
            times = np.append(times, [1e3, 3e3, 1e4])
        lengths = TWO_PI * mean * rng.uniform(0.5, 2.0, len(times))
        m = _Modes(spec0)
        factors = oracles.mode_factors(modes, times)
        e_val = oracles.e_value(cos, sin, times)
        circle = np.pi * (lengths / TWO_PI) * (lengths / TWO_PI)

        want = _radius_range(lengths / TWO_PI, cos[:, None] * factors, sin[:, None] * factors)
        got = m.radius_range(times, lengths)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(m.area(times, lengths), circle + e_val)
        assert np.array_equal(m.deficit(times), oracles.deficit(cos, sin, times))
        for i, (t, length) in enumerate(zip(times.tolist(), lengths.tolist())):
            f = factors[:, i]
            state = SupportSpectrum(mean=length / TWO_PI, cos_coeffs=cos * f, sin_coeffs=sin * f)
            assert m.radius_range(t, length) == radius_extrema(state)
            assert m.min_radius(t, length) == radius_extrema(state)[0]
            assert m.area(t, length) == _area(length, float(e_val[i])) == circle[i] + e_val[i]

    def test_public_values_below_the_cut_read_zero(self):
        # Mode 2 of the ellipse: e^{2 (1 - 4) 110} = e^-660 and e^{-3 * 210} = e^-630.
        assert known_scalars(ELLIPSEISH, 110.0)[1] == 0.0
        assert propagate(dev(cos=[0.0, 0.2]), 210.0).cos_coeffs[1] == 0.0
