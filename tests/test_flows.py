from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from curveflow import (
    Constant,
    FlowState,
    HDomainError,
    LinTsai,
    MaCheng,
    PanYang,
    PowerSum,
    SupportSpectrum,
    area_along_flow,
    curve_length,
    enclosed_area,
    evaluate_h,
    flow_state,
    format_flow_term,
    length_rate,
    parse_flow_term,
    propagate,
    total_inverse_curvature,
)

TWO_PI = 2.0 * np.pi

ELLIPSEISH = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.2], sin_coeffs=[0.0, 0.0])
CIRCLE = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.0], sin_coeffs=[0.0, 0.0])


def state_of(spec0, t=0.0, length=None):
    if length is None:
        length = curve_length(spec0)
    return flow_state(spec0, t, length)


class TestParseFlowTerm:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("pan-yang", PanYang()),
            ("lin-tsai", LinTsai()),
            ("ma-cheng", MaCheng()),
            ("const:-1", Constant(c=-1.0)),
            ("const:2.5", Constant(c=2.5)),
            ("powersum:1,1,0", PowerSum(terms=((1.0, 1.0, 0.0),))),
            (
                "powersum:1,1,0;-0.5,0,1",
                PowerSum(terms=((1.0, 1.0, 0.0), (-0.5, 0.0, 1.0))),
            ),
        ],
    )
    def test_grammar(self, text, want):
        assert parse_flow_term(text) == want

    def test_unknown_tag_named(self):
        with pytest.raises(ValueError, match="banana"):
            parse_flow_term("banana")

    def test_bad_constant(self):
        with pytest.raises(ValueError):
            parse_flow_term("const:abc")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_constant_rejected(self, value):
        with pytest.raises(ValueError, match="constant must be finite"):
            Constant(c=value)
        with pytest.raises(ValueError, match="bad constant"):
            parse_flow_term(f"const:{value}")

    def test_bad_powersum_arity(self):
        with pytest.raises(ValueError, match="coeff,p,q"):
            parse_flow_term("powersum:1,2")

    def test_empty_powersum(self):
        with pytest.raises(ValueError):
            parse_flow_term("powersum:")

    @pytest.mark.parametrize(
        "term",
        [
            PanYang(),
            LinTsai(),
            MaCheng(),
            Constant(c=-1.0),
            PowerSum(terms=((1.0, 1.0, 0.0), (2.0, -0.5, 0.25))),
        ],
    )
    def test_format_roundtrip(self, term):
        assert parse_flow_term(format_flow_term(term)) == term


class TestEvaluateH:
    def test_pan_yang(self):
        assert evaluate_h(PanYang(), state_of(ELLIPSEISH)) == pytest.approx(1.0, abs=1e-15)

    def test_lin_tsai_circle(self):
        assert evaluate_h(LinTsai(), state_of(CIRCLE)) == pytest.approx(1.0, abs=1e-15)

    def test_ma_cheng(self):
        got = evaluate_h(MaCheng(), state_of(ELLIPSEISH))
        assert got == pytest.approx(1.18, abs=1e-13)
        assert got == pytest.approx(
            total_inverse_curvature(ELLIPSEISH) / TWO_PI, abs=1e-14
        )

    def test_constant(self):
        assert evaluate_h(Constant(c=-3.5), state_of(ELLIPSEISH)) == -3.5

    def test_powersum_is_h_equals_l(self):
        st_ = state_of(ELLIPSEISH)
        assert evaluate_h(PowerSum(terms=((1.0, 1.0, 0.0),)), st_) == pytest.approx(
            st_.L, rel=1e-15
        )

    def test_powersum_mixed(self):
        st_ = state_of(ELLIPSEISH)
        term = PowerSum(terms=((2.0, 1.0, -1.0), (0.5, 0.0, 0.5)))
        want = 2.0 * st_.L / st_.A + 0.5 * np.sqrt(st_.A)
        assert evaluate_h(term, st_) == pytest.approx(want, rel=1e-14)

    def test_powersum_fractional_power_of_negative_area(self):
        # large deviation at small length makes the closed-form area negative
        st_ = flow_state(ELLIPSEISH, 0.0, 0.05)
        assert st_.A < 0.0
        with pytest.raises(HDomainError):
            evaluate_h(PowerSum(terms=((1.0, 0.0, 0.5),)), st_)

    def test_powersum_integer_power_of_negative_area_allowed(self):
        st_ = flow_state(ELLIPSEISH, 0.0, 0.05)
        got = evaluate_h(PowerSum(terms=((1.0, 0.0, 2.0),)), st_)
        assert got == pytest.approx(st_.A**2, rel=1e-13)


class TestLengthRate:
    def test_pan_yang_exactly_zero(self):
        for t in (0.0, 0.4, 2.0):
            for length in (1.0, TWO_PI, 17.3):
                assert length_rate(PanYang(), flow_state(ELLIPSEISH, t, length)) == 0.0

    def test_constant_balance(self):
        assert length_rate(Constant(c=1.0), state_of(ELLIPSEISH)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_ma_cheng_value(self):
        got = length_rate(MaCheng(), state_of(ELLIPSEISH))
        assert got == pytest.approx(-0.36 * np.pi, abs=1e-12)

    def test_lin_tsai_is_deficit_over_length(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mean, cos, sin = oracles.random_convex_coeffs(rng)
            spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            t = rng.uniform(0.0, 2.0)
            length = rng.uniform(3.0, 9.0)
            st_ = flow_state(spec0, t, length)
            ipd = st_.L**2 - 4.0 * np.pi * st_.A
            assert length_rate(LinTsai(), st_) == pytest.approx(ipd / st_.L, abs=1e-12)
            assert length_rate(LinTsai(), st_) >= -1e-12


def e_prime(spec0, t):
    """Closed-form d/dt of the known scalar E."""
    n = np.arange(1, spec0.truncation + 1, dtype=float)
    power = spec0.cos_coeffs**2 + spec0.sin_coeffs**2
    return float(np.pi * np.sum((n**2 - 1.0) ** 2 * np.exp(2.0 * (1.0 - n**2) * t) * power))


class TestAreaAlongFlow:
    def test_circle_any_time(self):
        for t in (0.0, 1.0, 5.0):
            assert area_along_flow(CIRCLE, TWO_PI, t) == pytest.approx(np.pi, abs=1e-14)

    def test_ellipseish_at_zero(self):
        assert area_along_flow(ELLIPSEISH, TWO_PI, 0.0) == pytest.approx(
            0.94 * np.pi, abs=1e-14
        )

    def test_ellipseish_decay(self):
        want = np.pi - 0.06 * np.pi * np.exp(-6.0)
        assert area_along_flow(ELLIPSEISH, TWO_PI, 1.0) == pytest.approx(want, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-0.1, 0.1), min_size=2, max_size=8),
        st.floats(3.0, 9.0),
        st.floats(0.0, 3.0),
    )
    def test_matches_enclosed_area_of_propagated_spectrum(self, coeffs, length, t):
        spec0 = SupportSpectrum(mean=1.0, cos_coeffs=coeffs, sin_coeffs=coeffs)
        moved = replace(propagate(spec0, t), mean=length / TWO_PI)
        assert area_along_flow(spec0, length, t) == pytest.approx(
            enclosed_area(moved), abs=1e-10
        )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            area_along_flow(ELLIPSEISH, TWO_PI, -1.0)


class TestConservationIdentities:
    def test_ma_cheng_preserves_area_rate(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mean, cos, sin = oracles.random_convex_coeffs(rng)
            spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            t = rng.uniform(0.0, 1.5)
            st_ = flow_state(spec0, t, TWO_PI * mean)
            rate = length_rate(MaCheng(), st_)
            dadt = (st_.L / TWO_PI) * rate + e_prime(spec0, t)
            assert abs(dadt) <= 1e-10

    def test_e_prime_matches_finite_difference(self):
        from curveflow import known_scalars

        h = 1e-6
        for t in (0.2, 1.0):
            fd = (known_scalars(ELLIPSEISH, t + h)[1] - known_scalars(ELLIPSEISH, t - h)[1]) / (2 * h)
            assert e_prime(ELLIPSEISH, t) == pytest.approx(fd, rel=1e-7)

    def test_deficit_rate_independent_of_flow_term(self):
        # d(IPD)/dt = 2 L dL/dt - 4 pi dA/dt reduces to the same value for
        # every term at a fixed state, equal to 2L^2 - 4 pi * integral(1/k)ds.
        rng = np.random.default_rng(13)
        terms = [PanYang(), LinTsai(), MaCheng(), Constant(c=-1.0), Constant(c=2.0)]
        for _ in range(8):
            mean, cos, sin = oracles.random_convex_coeffs(rng)
            spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            t = rng.uniform(0.0, 1.0)
            st_ = flow_state(spec0, t, TWO_PI * mean)
            rates = []
            for term in terms:
                lrate = length_rate(term, st_)
                darate = (st_.L / TWO_PI) * lrate + e_prime(spec0, t)
                rates.append(2.0 * st_.L * lrate - 4.0 * np.pi * darate)
            assert max(rates) - min(rates) <= 1e-10 * max(1.0, abs(rates[0]))
            geometric = 2.0 * st_.L**2 - 4.0 * np.pi * total_inverse_curvature(st_.spectrum)
            assert rates[0] == pytest.approx(geometric, rel=1e-9, abs=1e-9)


class TestFlowState:
    def test_mean_consistency_enforced(self):
        with pytest.raises(ValueError, match="mean"):
            FlowState(t=0.0, L=5.0, spectrum=ELLIPSEISH, A=1.0)

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            flow_state(ELLIPSEISH, 0.0, -1.0)

    def test_flow_state_fields(self):
        st_ = flow_state(ELLIPSEISH, 0.7, 5.0)
        assert st_.t == 0.7
        assert st_.L == 5.0
        assert st_.spectrum.mean == pytest.approx(5.0 / TWO_PI, rel=1e-15)
        assert st_.spectrum.cos_coeffs[1] == pytest.approx(0.2 * np.exp(-2.1), rel=1e-14)
        assert st_.A == pytest.approx(area_along_flow(ELLIPSEISH, 5.0, 0.7), abs=1e-15)

    @pytest.mark.parametrize("t", [0.0, 0.37, 2.5, 9.0])
    def test_spectrum_is_the_propagated_deviation_bit_for_bit(self, t):
        spec0 = SupportSpectrum(
            mean=1.3, cos_coeffs=[0.2, 0.05, -0.01, 0.004], sin_coeffs=[-0.1, 0.03, 0.02, 0.0]
        )
        length = 7.1
        want = replace(propagate(spec0, t), mean=length / TWO_PI)
        got = flow_state(spec0, t, length).spectrum
        assert got.mean == want.mean
        assert np.array_equal(got.cos_coeffs, want.cos_coeffs)
        assert np.array_equal(got.sin_coeffs, want.sin_coeffs)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            flow_state(ELLIPSEISH, -0.1, TWO_PI)


class TestAreaReads:
    """H reads A only when some powersum term has q != 0."""

    @pytest.mark.parametrize(
        "terms, reads",
        [
            (((1.0, 1.0, 0.0),), 0),
            (((0.5, 0.0, 0.0), (0.2, 1.0, -0.0)), 0),
            (((2.0, -1.0, 1.0),), 1),
            (((0.3, 0.5, 0.25), (2.0, -1.0, 1.0)), 1),
        ],
    )
    def test_area_called_only_when_used(self, terms, reads):
        from curveflow.flows import _h

        calls = []

        def area():
            calls.append(1)
            return 0.8

        term = PowerSum(terms=terms)
        value = _h(term, 5.0, area, lambda: 0.0)
        assert len(calls) == reads
        state = flow_state(ELLIPSEISH, 0.3, 5.0)
        assert evaluate_h(term, state) == sum(c * 5.0**p * state.A**q for c, p, q in term.terms)
        assert value == sum(c * 5.0**p * 0.8**q for c, p, q in term.terms)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestUnforcedLaw:
    """A law with no forcing, z/z0 = e^{kappa t}, takes one exponential and
    gives the full psi form's values bit for bit; a forced law's sum gives
    them up to rounding."""

    # (spectrum, term, sign of kappa, forced)
    LAWS = [
        (ELLIPSEISH, PowerSum(terms=((1.0, 1.0, 0.0),)), -1, False),  # H = L
        (ELLIPSEISH, PanYang(), 0, False),
        (ELLIPSEISH, parse_flow_term("powersum:0.1,1,0"), 1, False),
        (ELLIPSEISH, PowerSum(terms=((0.2, 1.0, 0.0), (0.0, 1.5, 0.0))), 1, False),  # r = -0.5
        (CIRCLE, LinTsai(), 0, False),  # r = 2: a circle has no deficit to force it
        (ELLIPSEISH, Constant(c=-1.0), 1, True),
    ]
    # 2000 and 1e5 take e^{kappa t} past the float range for kappa > 0.
    SCALARS = [0.0, 1e-3, 0.05, 0.5, 3.0, 17.25, 800.0, 2000.0, 1e5]

    @pytest.mark.parametrize("spec0, term, sign, forced", LAWS)
    def test_equals_the_psi_form_bit_for_bit(self, spec0, term, sign, forced):
        from curveflow.flows import closed_length

        law = closed_length(spec0, term)
        assert np.sign(law.kappa) == sign
        assert bool(law.weights.any()) == forced
        # Only a forced law sums more than one exponential.
        assert (law.sum_rates.size > 1) == forced
        times = np.linspace(0.0, 800.0, 257)
        if forced:
            # The sum and the psi form round differently: c_0 = 1 - sum c_j is one number.
            assert law(times) == pytest.approx(oracles.psi_form_length(law, times), rel=1e-13, abs=0.0)
        else:
            assert _bits(law(times)) == _bits(oracles.psi_form_length(law, times))
        for t in self.SCALARS:
            value = law(t)
            assert type(value) is float
            if forced:
                assert value == pytest.approx(oracles.psi_form_length(law, t), rel=1e-13, abs=0.0), t
            else:
                assert _bits(value) == _bits(oracles.psi_form_length(law, t)), t
        if sign > 0:
            assert law(1e5) in (0.0, np.inf)  # through the overflow of e^{kappa t}

    @pytest.mark.parametrize("spec0, term, sign, forced", LAWS)
    def test_sums_of_an_unforced_law_are_its_one_exponential(self, spec0, term, sign, forced):
        from curveflow.flows import closed_length

        law = closed_length(spec0, term)
        if forced:
            # const:-1: z/z0 = (1 - c) e^{kappa t} + c with c = w/(0 - kappa).
            c = law.weights[0] / (0.0 - law.kappa)
            assert law.sum_rates.tolist() == [law.kappa, 0.0]
            assert law.sum_coeffs.tolist() == [1.0 - c, c]
        else:
            assert law.sum_rates.tolist() == [law.kappa]
            assert law.sum_coeffs.tolist() == [1.0]
        assert law.near_coeffs.size == 0


class TestForcedLaw:
    """A forced law's exponential sum against the full psi form
    (``oracles.psi_form_length``), which rounds differently."""

    # Powers of L in the r = 1 - p family: r = 1, 1/2, -1/2, -1, -2 and 2.
    POWERS = [0.0, 0.5, 1.5, 2.0, 3.0, -1.0]

    def test_random_laws_agree_with_the_psi_form(self):
        from curveflow.flows import closed_length

        rng = np.random.default_rng(31)
        times = np.linspace(0.0, 10.0, 401)
        checked = 0
        for _ in range(300):
            mean, cos, sin = oracles.random_convex_coeffs(rng)
            spec0 = SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)
            alpha, p = rng.uniform(-0.3, 0.3), float(rng.choice(self.POWERS))
            term = [
                PowerSum(terms=((alpha, 1.0, 0.0), (rng.uniform(-1.0, 1.0), p, 0.0))),
                PowerSum(terms=((alpha, 1.0, 0.0), (rng.uniform(-3.0, 3.0), -1.0, 1.0), (rng.uniform(-1.0, 1.0), -1.0, 0.0))),
                MaCheng(),
                LinTsai(),
            ][rng.integers(4)]
            law = closed_length(spec0, term)
            assert law is not None and law.weights.any(), term
            want = oracles.psi_form_length(law, times)
            # Where z nears 0, L vanishes or blows up, and neither form keeps
            # its relative digits; elsewhere both are accurate to rounding.
            if not np.all((want > law.l0 / 20.0) & (want < 20.0 * law.l0)):
                continue
            checked += 1
            assert law(0.0) == law.l0
            assert law(times) == pytest.approx(want, rel=1e-13, abs=0.0), term
        assert checked >= 100

    @pytest.mark.parametrize("gap", [10.0**-k for k in range(3, 13)])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_near_resonant_laws_agree_with_the_psi_form(self, gap, side):
        # A forcing rate within gap of kappa, on either side: in the plain sum
        # c_j = w_j / gap, and c_0 = 1 - c_j would cancel to rounding of eps / gap.
        # Powers 1, 2, 1/2 and -1 take every branch of the call.
        from curveflow.flows import ClosedLength

        times = np.linspace(0.0, 10.0, 401)
        for power, kappa, rates, weights in [
            (1.0, side * gap, [0.0], [0.4]),
            (2.0, -6.0 + side * gap, [-6.0, -16.0], [0.3, -0.1]),
            (0.5, -6.0 + side * gap, [-6.0], [0.2]),
            (-1.0, side * gap, [0.0], [-0.05]),
        ]:
            law = ClosedLength(TWO_PI, power, kappa, np.array(rates), np.array(weights))
            assert law.near_gaps.tolist() == [abs(rates[0] - kappa)]
            assert law(0.0) == TWO_PI
            assert law(times) == pytest.approx(oracles.psi_form_length(law, times), rel=1e-12, abs=0.0)
            # Far past the gap's time scale: inf or finite, never inf * 0 or inf - inf.
            assert not np.isnan(law(np.array([1e3, 1e5, 1e7, 1e12]))).any()

    def test_a_law_whose_weights_overflow_runs_the_ode(self):
        # H = 1e300 on a circle of length L0 = 1e-8: the weight -2 pi c / L0
        # overflows, so no law is built, silently (a RuntimeWarning fails the
        # suite), and the ODE runs. Every stage of its first step takes L
        # below 0, so its step collapses into a domain exit at t = 0.
        import warnings

        from curveflow import IntegratorControls, integrate
        from curveflow.flows import closed_length

        tiny = SupportSpectrum(mean=1e-8 / TWO_PI, cos_coeffs=[0.0, 0.0], sin_coeffs=[0.0, 0.0])
        controls = IntegratorControls(t_max=1.0, area_vanish=1e-40, length_vanish=1e-20, singularity_eps=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert closed_length(tiny, Constant(c=1e300)) is None
            assert closed_length(tiny, Constant(c=1e290)) is not None
            traj = integrate(tiny, Constant(c=1e300), controls)
        assert (traj.event.kind, traj.event.t) == ("h-domain-exit", 0.0)


class TestGrowingLaw:
    """A law with kappa > 0: e^{kappa t} is finite up to kappa t = log(float
    max), about 709.78, and inf past it."""

    @pytest.mark.parametrize(
        "term", [Constant(c=-1.0), PowerSum(terms=((0.1, 1.0, 0.0),))], ids=["const:-1", "H=0.1L"]
    )
    def test_overflow_is_silenced_only_where_e_kappa_t_can_overflow(self, term, monkeypatch):
        import warnings

        from curveflow import flows

        law = flows.closed_length(ELLIPSEISH, term)
        assert law.kappa > 0.0 and not law.near_coeffs.size
        entered, errstate = [], np.errstate

        def counted(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        # Up to e^{kappa t} = max / 20, so that L itself stays finite.
        below = np.linspace(0.0, (flows._LOG_MAX - 3.0) / law.kappa, 97)
        past = np.array([1.001, 2.0, 100.0]) * flows._LOG_MAX / law.kappa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = law(below)
            scalars = [law(t) for t in below.tolist()]
            assert entered == []
            assert np.all(law(past) == np.inf) and law(float(past[0])) == np.inf
        assert len(entered) == 2
        # The same bits as the law's sum, time by time.
        terms = np.exp(below[:, None] * law.sum_rates)
        want = law.l0 * np.where(below == 0.0, 1.0, np.einsum("...j,j->...", terms, law.sum_coeffs))
        assert values.tobytes() == want.tobytes() == np.array(scalars).tobytes()

