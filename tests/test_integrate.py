import importlib

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from curveflow import (
    AreaVanishesCurvatureBlowup,
    Constant,
    ConvergesToCircle,
    ConvexityError,
    CurvatureSingularity,
    HDomainError,
    IntegratorControls,
    LengthBlowupRescaledCircle,
    LengthVanishesSingularityForced,
    LinTsai,
    MaCheng,
    PanYang,
    PowerSum,
    SupportSpectrum,
    TerminationEvent,
    Trajectory,
    Undetermined,
    describe_outcome,
    flow_state,
    gage,
    integrate,
    length_rate,
    state_record,
)
from curveflow.integrate import EVENT_TIME_TOL, PRESCAN_SLACK, SCAN_CHUNK
from curveflow.support import CONVEXITY_EPS, MAX_LENGTH, isoperimetric_ratio

TWO_PI = 2.0 * np.pi

ELLIPSEISH = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.2], sin_coeffs=[0.0, 0.0])
CIRCLE = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.0], sin_coeffs=[0.0, 0.0])
H_EQUALS_L = PowerSum(terms=((1.0, 1.0, 0.0),))
T_STAR = float(np.log(0.6) / (4.0 - TWO_PI))


class TestControls:
    def test_defaults_valid(self):
        c = IntegratorControls()
        assert c.rel_tol == 1e-9 and c.t_max == 50.0

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "t_max", "sample_interval"])
    def test_positivity(self, field):
        with pytest.raises(ValueError):
            IntegratorControls(**{field: 0.0})

    def test_rel_tol_below_one(self):
        with pytest.raises(ValueError):
            IntegratorControls(rel_tol=1.5)

    @pytest.mark.parametrize("field", ["t_max", "length_blowup", "sample_interval"])
    def test_finite(self, field):
        with pytest.raises(ValueError, match=field):
            IntegratorControls(**{field: float("inf")})

    def test_blowup_above_vanish(self):
        with pytest.raises(ValueError, match="length_blowup"):
            IntegratorControls(length_blowup=1e-30)

    def test_recorded_states_bounded(self):
        with pytest.raises(ValueError, match="sample_interval"):
            IntegratorControls(sample_interval=1e-300)
        IntegratorControls(t_max=1e4, sample_interval=1e-2)  # 1e6 states is allowed


class TestPanYangRuns:
    def test_circle_is_stationary(self):
        traj = integrate(CIRCLE, PanYang(), IntegratorControls(t_max=5.0))
        assert traj.event.kind == "reached-horizon"
        assert all(s.L == TWO_PI for s in traj.states)
        assert all(s.A == pytest.approx(np.pi, abs=1e-14) for s in traj.states)
        assert isinstance(traj.outcome, ConvergesToCircle)
        assert traj.outcome.center == (0.0, 0.0)

    def test_ellipseish_preserves_length_and_rounds_out(self):
        traj = integrate(ELLIPSEISH, PanYang(), IntegratorControls(t_max=10.0))
        assert all(s.L == TWO_PI for s in traj.states)  # rate is exactly zero
        for s in traj.states:
            assert s.spectrum.cos_coeffs[1] == pytest.approx(
                0.2 * np.exp(-3.0 * s.t), rel=1e-12
            )
        assert traj.states[-1].A == pytest.approx(np.pi, abs=1e-12)
        assert isinstance(traj.outcome, ConvergesToCircle)
        assert traj.outcome.center == (0.0, 0.0)
        assert traj.outcome.limit_length == pytest.approx(TWO_PI)

    def test_sampling_grid(self):
        traj = integrate(ELLIPSEISH, PanYang(), IntegratorControls(t_max=1.0))
        ts = [s.t for s in traj.states]
        assert ts == pytest.approx(np.arange(0, 21) * 0.05, abs=1e-12)


class TestExactSolutions:
    def test_constant_matches_analytic(self):
        c = 0.5
        controls = IntegratorControls(t_max=8.0)
        traj = integrate(ELLIPSEISH, Constant(c=c), controls)
        assert traj.event.kind == "reached-horizon"
        for s in traj.states:
            exact = (TWO_PI - TWO_PI * c) * np.exp(s.t) + TWO_PI * c
            assert abs(s.L - exact) / exact <= 10.0 * controls.rel_tol

    def test_negative_constant_growth_bound(self):
        traj = integrate(ELLIPSEISH, Constant(c=-1.0), IntegratorControls(t_max=5.0))
        assert traj.event.kind == "reached-horizon"
        for s in traj.states:
            assert s.L >= TWO_PI * np.exp(s.t) * (1.0 - 1e-9)
        # convexity never degrades: the deviation shrinks while L grows
        from curveflow import radius_extrema

        assert all(radius_extrema(s.spectrum)[0] > 0.0 for s in traj.states)
        # the blow-up rounds out: every mode n >= 2 is negligible against the mean
        final = integrate(ELLIPSEISH, Constant(c=-1.0), IntegratorControls(t_max=6.0)).states[-1].spectrum
        high = max(np.max(np.abs(final.cos_coeffs[1:])), np.max(np.abs(final.sin_coeffs[1:])))
        assert high / final.mean <= 1e-6

    def test_lin_tsai_matches_closed_form(self):
        traj = integrate(ELLIPSEISH, LinTsai(), IntegratorControls(t_max=5.0))
        for s in traj.states:
            l_sq = (TWO_PI) ** 2 + 2.0 * np.pi**2 * 0.04 * (1.0 - np.exp(-6.0 * s.t))
            assert s.L == pytest.approx(np.sqrt(l_sq), rel=1e-8)

    def test_ma_cheng_matches_closed_form(self):
        traj = integrate(ELLIPSEISH, MaCheng(), IntegratorControls(t_max=5.0))
        for s in traj.states:
            l_sq = (TWO_PI) ** 2 - 2.0 * np.pi**2 * 3.0 * 0.04 * (1.0 - np.exp(-6.0 * s.t))
            assert s.L == pytest.approx(np.sqrt(l_sq), rel=1e-8)


class TestSingularityRun:
    def test_event_location(self):
        traj = integrate(ELLIPSEISH, H_EQUALS_L, IntegratorControls(t_max=5.0))
        assert traj.event.kind == "singularity"
        assert traj.event.t == pytest.approx(T_STAR, abs=1e-6)
        assert traj.event.theta in (0.0, pytest.approx(np.pi))
        assert isinstance(traj.outcome, CurvatureSingularity)
        assert traj.outcome.t_star == traj.event.t

    def test_no_states_after_event(self):
        traj = integrate(ELLIPSEISH, H_EQUALS_L, IntegratorControls(t_max=5.0))
        assert all(s.t <= traj.event.t for s in traj.states)
        ts = [s.t for s in traj.states]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_curvature_diverges_into_singularity(self):
        from curveflow import radius_extrema

        traj = integrate(ELLIPSEISH, H_EQUALS_L, IntegratorControls(t_max=5.0))
        k_max = [1.0 / radius_extrema(s.spectrum)[0] for s in traj.states]
        assert all(b > a for a, b in zip(k_max, k_max[1:]))

    def test_immediate_event_at_t_zero(self):
        controls = IntegratorControls(singularity_eps=0.5)
        traj = integrate(ELLIPSEISH, PanYang(), controls)
        assert traj.event.kind == "singularity"
        assert traj.event.t == 0.0
        assert len(traj.states) == 1


class TestThresholdEvents:
    def test_length_blowup(self):
        controls = IntegratorControls(t_max=10.0, length_blowup=100.0)
        traj = integrate(ELLIPSEISH, Constant(c=-1.0), controls)
        assert traj.event.kind == "length-blowup"
        want = np.log((100.0 + TWO_PI) / (2.0 * TWO_PI))
        assert traj.event.t == pytest.approx(want, abs=1e-6)
        assert isinstance(traj.outcome, LengthBlowupRescaledCircle)

    def test_area_vanish_on_shrinking_circle(self):
        # A = L^2/(4 pi) crosses its threshold while L and the min radius
        # are still comfortably positive, so the area event wins.
        controls = IntegratorControls(t_max=10.0)
        traj = integrate(CIRCLE, H_EQUALS_L, controls)
        assert traj.event.kind == "area-vanish"
        l_at_event = np.sqrt(4.0 * np.pi * controls.area_vanish)
        want = np.log(TWO_PI / l_at_event) / (TWO_PI - 1.0)
        assert traj.event.t == pytest.approx(want, abs=1e-3)
        assert isinstance(traj.outcome, AreaVanishesCurvatureBlowup)
        assert traj.outcome.limit_length > 0.0

    def test_area_vanish_curvature_blows_up(self):
        from curveflow import radius_extrema

        traj = integrate(CIRCLE, H_EQUALS_L, IntegratorControls(t_max=10.0))
        k_max = [1.0 / radius_extrema(s.spectrum)[0] for s in traj.states[-10:]]
        assert all(b > a for a, b in zip(k_max, k_max[1:]))
        for s in traj.states[:: max(1, len(traj.states) // 8)]:
            assert gage(s).satisfied

    def test_length_vanish_with_disabled_competitors(self):
        controls = IntegratorControls(
            t_max=10.0, area_vanish=1e-30, singularity_eps=1e-16
        )
        traj = integrate(CIRCLE, H_EQUALS_L, controls)
        assert traj.event.kind == "length-vanish"
        want = np.log(TWO_PI / controls.length_vanish) / (TWO_PI - 1.0)
        assert traj.event.t == pytest.approx(want, abs=1e-3)
        assert isinstance(traj.outcome, LengthVanishesSingularityForced)

    def test_noncircle_singularity_precedes_length_vanish(self):
        # a shrinking non-circle loses convexity strictly before its
        # length can reach the vanish threshold
        traj = integrate(ELLIPSEISH, H_EQUALS_L, IntegratorControls(t_max=30.0))
        assert traj.event.kind == "singularity"

    def test_error_rejections_down_to_the_minimum_step_collapse(self, monkeypatch):
        # dL/dt jumps from 0 to 1e12 at t = 0.5: every step across the jump
        # fails the error test, however short, so the step size collapses
        # at the last accepted time, just below 0.5.
        from curveflow.integrate import MIN_STEP, _dopri_steps, _Problem

        monkeypatch.setattr(_Problem, "rhs", lambda self, t, length: 0.0 if t < 0.5 else 1e12)
        steps = _dopri_steps(_Problem(GALLERY_ELLIPSE, GENERAL_POWERSUM, IntegratorControls(t_max=2.0)))
        last = None
        with pytest.raises(StopIteration) as stop:
            while True:
                last = next(steps)[1]
        assert stop.value.value == TerminationEvent(kind="step-collapse", t=last)
        assert 0.5 - 100 * MIN_STEP < last < 0.5
        traj = integrate(GALLERY_ELLIPSE, GENERAL_POWERSUM, IntegratorControls(t_max=2.0))
        assert traj.event == TerminationEvent(kind="step-collapse", t=last)
        assert isinstance(traj.outcome, Undetermined)


class TestClassifySynthetic:
    def make(self, kind, t=1.0, theta=None):
        return Trajectory(
            spec0=ELLIPSEISH,
            t=[0.0],
            L=[TWO_PI],
            event=TerminationEvent(kind=kind, t=t, theta=theta),
        )

    def test_horizon_maps_to_circle_limit(self):
        out = self.make("reached-horizon", t=50.0).outcome
        assert isinstance(out, ConvergesToCircle)
        assert out.center == (0.0, 0.0)

    def test_singularity(self):
        out = self.make("singularity", t=0.3, theta=np.pi).outcome
        assert out == CurvatureSingularity(t_star=0.3, theta_star=np.pi)

    def test_blowup(self):
        assert self.make("length-blowup").outcome == LengthBlowupRescaledCircle(t_max=1.0)

    def test_vanish(self):
        assert self.make("length-vanish").outcome == LengthVanishesSingularityForced(
            t_max=1.0
        )

    def test_area(self):
        out = self.make("area-vanish").outcome
        assert isinstance(out, AreaVanishesCurvatureBlowup)
        assert out.t_max == 1.0
        assert out.limit_length == TWO_PI

    def test_step_collapse_and_domain_exit_undetermined(self):
        for kind in ("step-collapse", "h-domain-exit"):
            out = self.make(kind).outcome
            assert isinstance(out, Undetermined)
            assert "t=1" in out.diagnostic

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind 'pinch'"):
            self.make("pinch")

    def test_center_uses_first_harmonic(self):
        translated = SupportSpectrum(
            mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[-0.1, 0.0]
        )
        traj = Trajectory(
            spec0=translated,
            t=[0.0],
            L=[TWO_PI],
            event=TerminationEvent(kind="reached-horizon", t=2.0),
        )
        out = traj.outcome
        assert out.center == (0.3, -0.1)


class TestTrajectoryValidation:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(
                spec0=ELLIPSEISH,
                t=[0.0, 0.0],
                L=[TWO_PI, TWO_PI],
                event=TerminationEvent(kind="reached-horizon", t=1.0),
            )

    def test_rejects_event_before_states(self):
        with pytest.raises(ValueError):
            Trajectory(
                spec0=ELLIPSEISH,
                t=[1.0],
                L=[TWO_PI],
                event=TerminationEvent(kind="reached-horizon", t=0.5),
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory(
                spec0=ELLIPSEISH,
                t=[],
                L=[],
                event=TerminationEvent(kind="reached-horizon", t=0.5),
            )

    @pytest.mark.parametrize(
        "t, L, why",
        [
            ([0.0, 1.0, 0.5], [TWO_PI] * 3, "increasing"),
            ([0.0, 0.5], [TWO_PI, 0.0], "positive length"),
            ([0.0, 0.5], [TWO_PI, -1.0], "positive length"),
            ([0.0, 0.5], [TWO_PI, 1e160], "finite"),  # A = L^2/(4 pi) + E overflows
            ([0.0, np.nan], [TWO_PI, TWO_PI], "finite"),
            ([0.0, 0.5], [TWO_PI, np.inf], "finite"),
            ([-0.5, 0.5], [TWO_PI, TWO_PI], "non-negative"),
            ([0.0, 0.5], [TWO_PI], "equal length"),
            ([0.0, 0.5], [TWO_PI, np.nextafter(MAX_LENGTH, np.inf)], "finite"),
            ([0.0, 0.5], [TWO_PI, np.nan], "finite"),
        ],
    )
    def test_rejects_bad_columns(self, t, L, why):
        with pytest.raises(ValueError, match=why):
            Trajectory(
                spec0=ELLIPSEISH,
                t=t,
                L=L,
                event=TerminationEvent(kind="reached-horizon", t=2.0),
            )

    def test_rejects_an_area_that_overflows_below_max_length(self):
        # A finite coefficient whose square overflows makes E(t) = -inf at any length.
        huge = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 1e200], sin_coeffs=[0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            Trajectory(spec0=huge, t=[0.0], L=[TWO_PI], event=TerminationEvent(kind="reached-horizon", t=0.0))

    def test_columns_are_read_only_and_states_a_sequence(self):
        traj = integrate(ELLIPSEISH, LinTsai(), IntegratorControls(t_max=0.5, sample_interval=0.1))
        assert traj.t.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]
        for column in (traj.t, traj.L, traj.A):
            assert column.dtype == float and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        states = traj.states
        assert len(states) == 6
        assert states[-1] == states[5] == flow_state(ELLIPSEISH, traj.t[5], traj.L[5])
        assert [s.t for s in states] == traj.t.tolist()
        assert [s.t for s in states[1:4]] == traj.t[1:4].tolist()
        assert isinstance(states[0].t, float) and isinstance(states[0].L, float)
        with pytest.raises(IndexError):
            states[6]
        with pytest.raises(IndexError):
            states[-7]


class TestNonConvexInput:
    def test_rejected(self):
        bad = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.5], sin_coeffs=[0.0, 0.0])
        with pytest.raises(ConvexityError):
            integrate(bad, PanYang(), IntegratorControls())


class TestExport:
    def test_state_record_fields(self):
        rec = state_record(flow_state(ELLIPSEISH, 0.0, TWO_PI))
        assert rec["t"] == 0.0
        assert rec["L"] == pytest.approx(TWO_PI)
        assert rec["A"] == pytest.approx(0.94 * np.pi)
        assert rec["ipd"] == pytest.approx(0.24 * np.pi**2)
        assert rec["ipr"] == pytest.approx(1.0 / 0.94)
        assert rec["k_min"] == pytest.approx(0.625)
        assert rec["k_max"] == pytest.approx(2.5)

    def test_describe_outcomes(self):
        assert "ConvergesToCircle" in describe_outcome(
            ConvergesToCircle(center=(0.3, 0.0), limit_length=TWO_PI)
        )
        assert "t*=0.2237" in describe_outcome(
            CurvatureSingularity(t_star=0.22373, theta_star=0.0)
        )
        assert "Undetermined" in describe_outcome(Undetermined(diagnostic="why"))

    def test_classify_is_idempotent_on_real_runs(self):
        for term in (PanYang(), H_EQUALS_L):
            traj = integrate(ELLIPSEISH, term, IntegratorControls(t_max=2.0))
            rebuilt = Trajectory(spec0=traj.spec0, t=traj.t, L=traj.L, event=traj.event)
            assert rebuilt.outcome == traj.outcome


GALLERY_ELLIPSE = SupportSpectrum(mean=1.0, cos_coeffs=[0.1, 0.2], sin_coeffs=[0.0, 0.05])


GENERAL_POWERSUM = PowerSum(terms=((0.3, 0.5, 0.25), (2.0, -1.0, 1.0)))  # on the ODE path


def _count_flow_states(monkeypatch) -> list:
    """States built in curveflow.integrate, by flow_state or by FlowState."""
    module = importlib.import_module("curveflow.integrate")
    calls = []
    for name in ("flow_state", "FlowState"):
        real = getattr(module, name)

        def counting(*args, real=real, **kwargs):
            calls.append(args or kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


class TestLeanPath:
    """The length solve reads scalars only; a run records (t, L) columns and
    a full state is built only when one is indexed."""

    @pytest.mark.parametrize(
        "term", [PanYang(), LinTsai(), MaCheng(), Constant(c=-1.0), H_EQUALS_L, GENERAL_POWERSUM]
    )
    def test_flow_state_built_only_on_access(self, term, monkeypatch):
        calls = _count_flow_states(monkeypatch)
        traj = integrate(GALLERY_ELLIPSE, term, IntegratorControls(t_max=2.0))
        assert calls == []
        assert len(traj.states) == len(traj.t) >= 3
        assert traj.states[2].t == traj.t[2]
        assert len(calls) == 1
        assert traj.states[-1].L == traj.L[-1]
        assert len(calls) == 2

    @pytest.mark.parametrize("term", [PanYang(), GENERAL_POWERSUM])
    def test_states_equal_flow_state(self, term):
        from curveflow.flows import closed_length

        # pan-yang has a closed-form length; GENERAL_POWERSUM runs DOPRI5.
        assert (closed_length(GALLERY_ELLIPSE, term) is None) == (term is GENERAL_POWERSUM)
        traj = integrate(GALLERY_ELLIPSE, term, IntegratorControls(t_max=2.0))
        assert len(traj.states) >= 3
        for i, state in enumerate(traj.states):
            assert state == flow_state(traj.spec0, float(traj.t[i]), float(traj.L[i])), i

    def test_sweep_builds_no_flow_state(self, tmp_path, monkeypatch):
        from curveflow.cli import parse_config, sweep

        calls = _count_flow_states(monkeypatch)
        cfg = parse_config("flow = pan-yang\nmean = 1\ncos = 0.1, 0.2\nsin = 0, 0.05\nt_max = 2\n")
        axis = "flows:pan-yang;lin-tsai;ma-cheng;const:-1;powersum:1,1,0;powersum:0.3,0.5,0.25"
        assert sweep(cfg, axis, tmp_path, tmp_path / "out") == 0
        assert calls == []
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and all(row.endswith(",") for row in rows)  # no row failed

    def test_scalar_rhs_is_length_rate_bit_for_bit(self):
        from curveflow.integrate import _Problem

        spec0 = SupportSpectrum(
            mean=1.3, cos_coeffs=[0.2, 0.05, -0.01, 0.004], sin_coeffs=[-0.1, 0.03, 0.02, 0.0]
        )
        terms = [PanYang(), LinTsai(), MaCheng(), Constant(c=-1.0), H_EQUALS_L,
                 PowerSum(terms=((0.3, 0.5, 0.25), (2.0, -1.0, 1.0)))]
        for term in terms:
            problem = _Problem(spec0, term, IntegratorControls())
            for t, length in [(0.0, TWO_PI * 1.3), (0.37, 7.1), (2.5, 123.456), (9.0, 1e5)]:
                reference = length_rate(term, flow_state(spec0, t, length))
                assert problem.rhs(t, length) == reference

    @pytest.mark.parametrize("c", [-1.0, 0.5, 2.0])
    def test_powersum_constant_is_const_bit_for_bit(self, c):
        controls = IntegratorControls(t_max=3.0)
        a = integrate(GALLERY_ELLIPSE, PowerSum(terms=((c, 0.0, 0.0),)), controls)
        b = integrate(GALLERY_ELLIPSE, Constant(c=c), controls)
        assert [(s.t, s.L, s.A) for s in a.states] == [(s.t, s.L, s.A) for s in b.states]
        assert a.event == b.event

    def test_powersum_two_a_over_l_matches_lin_tsai(self):
        controls = IntegratorControls(t_max=5.0)
        a = integrate(GALLERY_ELLIPSE, PowerSum(terms=((2.0, -1.0, 1.0),)), controls)
        b = integrate(GALLERY_ELLIPSE, LinTsai(), controls)
        assert [s.t for s in a.states] == [s.t for s in b.states]
        for sa, sb in zip(a.states, b.states):
            assert sa.L == pytest.approx(sb.L, rel=1e-10)


def _every_check_time(times, lengths):
    """A pre-scan that flags every check time: _locate then runs the
    scalar test on each check time in turn."""
    return np.ones(len(times), dtype=bool)


def _bisection(probe, lo, hi):
    """``integrate._narrow`` as the plain bisection of ``oracles``."""
    from curveflow.integrate import EVENT_TIME_TOL, _crossed

    crossed = lambda t: _crossed(probe(t))  # noqa: E731
    return oracles.bisect_crossing(crossed, lo, hi, crossed(hi), EVENT_TIME_TOL)[:2]


def _with_bisection(run):
    """run() with ``integrate._narrow`` replaced by ``_bisection``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("curveflow.integrate"), "_narrow", _bisection)
        return run()


def _check_event(found, want, margins, path):
    """A (t0, L0, event) of ``_locate`` against ``want``, the same call's with
    the bisection: the same kind, event times within EVENT_TIME_TOL, L0 the
    length ``path(t0)``, nothing crossed at t0 and something crossed at the
    event time by the scalar test ``margins(t, path(t))``, and Python floats."""
    from curveflow.integrate import EVENT_TIME_TOL, _crossed

    (t0, length0, event), (_, _, reference) = found, want
    assert length0 == path(t0)
    assert event.kind == reference.kind
    assert abs(event.t - reference.t) <= EVENT_TIME_TOL
    assert not _crossed(margins(t0, path(t0))) and _crossed(margins(event.t, path(event.t)))
    assert type(t0) is float and type(event.t) is float


def _same_as_bisection(run) -> Trajectory:
    """run(), after checking each event ``_locate`` finds in it against the
    bisection's (see ``_check_event``), and its sample columns, all but the
    final state, against those of the same run with the bisection."""
    from curveflow.integrate import EVENT_TIME_TOL

    module = importlib.import_module("curveflow.integrate")
    real = module._locate

    def checked(modes, margins, path, *rest):
        found = real(modes, margins, path, *rest)
        if found is not None:
            _check_event(found, _with_bisection(lambda: real(modes, margins, path, *rest)), margins, path)
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_locate", checked)
        traj = run()
    reference = _with_bisection(run)
    assert traj.event.kind == reference.event.kind
    assert abs(traj.event.t - reference.event.t) <= EVENT_TIME_TOL
    assert np.array_equal(traj.t[:-1], reference.t[:-1]) and np.array_equal(traj.L[:-1], reference.L[:-1])
    return traj


def _pinch_curve(rng, n: int, ratio: float, offset: float) -> SupportSpectrum:
    """u = m + a1 cos + b1 sin + a cos 2(theta - phi), a/m = ``ratio``,
    with phi ``offset`` of the way between two nodes of the 512-point
    curvature grid."""
    mean = rng.uniform(0.5, 2.0)
    phi = (int(rng.integers(0, 256)) + offset) * TWO_PI / 512
    cos, sin = np.zeros(n), np.zeros(n)
    cos[0], sin[0] = rng.uniform(-1.0, 1.0, 2) * mean
    cos[1], sin[1] = ratio * mean * np.cos(2.0 * phi), ratio * mean * np.sin(2.0 * phi)
    return SupportSpectrum(mean=mean, cos_coeffs=cos, sin_coeffs=sin)


class TestEventLocation:
    """One locator: a scan over check times, ITP root-finding on the margins
    within the bisection's probe count plus one, priority on ties."""

    def record_probes(self, monkeypatch):
        from curveflow.integrate import _crossed, _Problem

        probes = []
        real = _Problem.margins

        def recording(self, t, length):
            margins = real(self, t, length)
            probes.append((t, _crossed(margins)))
            return margins

        monkeypatch.setattr(_Problem, "margins", recording)
        return probes

    def test_two_thresholds_at_one_check_point_take_one_bisection(self, monkeypatch):
        from curveflow.integrate import EVENT_TIME_TOL

        probes = self.record_probes(monkeypatch)
        traj = integrate(CIRCLE, H_EQUALS_L, IntegratorControls(t_max=10.0, length_vanish=3.5e-6))
        assert traj.event.kind == "area-vanish"
        # A = L^2/(4 pi) with L = 2 pi e^{(1 - 2 pi) t} reaches area_vanish = 1e-12 here.
        want = np.log(np.sqrt(4.0 * np.pi * 1e-12) / TWO_PI) / (1.0 - TWO_PI)
        assert traj.event.t == pytest.approx(want, abs=1e-9)
        first = next(i for i, (_, fired) in enumerate(probes) if fired)
        assert set(probes[first][1]) == {"area-vanish", "length-vanish"}
        # lo, the check time below hi (sample_interval 0.05), is probed with the bracket.
        hi = probes[first][0]
        lo = min(t for t, _ in probes if hi - 0.05 - 1e-12 <= t < hi)
        bisection = [t for t, _ in probes[first + 1:] if t != lo]
        assert all(lo < t < hi for t in bisection)
        # One bisection halves [lo, hi] down to the tolerance; a second
        # one for the other kind would double the probe count.
        assert len(bisection) <= np.ceil(np.log2((hi - lo) / EVENT_TIME_TOL)) + 1
        assert traj.event.t - traj.states[-1].t <= EVENT_TIME_TOL

    @pytest.mark.parametrize(
        "overrides, kind",
        [
            (dict(singularity_eps=0.5, area_vanish=10.0, length_vanish=7.0), "singularity"),
            (dict(area_vanish=10.0, length_vanish=7.0), "area-vanish"),
            (dict(area_vanish=10.0, length_blowup=1.0, length_vanish=0.5), "area-vanish"),
            (dict(length_blowup=1.0, length_vanish=0.5, singularity_eps=0.5), "singularity"),
        ],
    )
    def test_tie_at_t_zero_goes_by_priority(self, overrides, kind):
        traj = integrate(ELLIPSEISH, PanYang(), IntegratorControls(**overrides))
        assert traj.event.kind == kind
        assert traj.event.t == 0.0
        assert len(traj.states) == 1

    def test_closed_path_checks_t_zero_in_the_first_block(self, monkeypatch):
        from curveflow.integrate import _Problem, _sample_times

        blocks = []
        real = _Problem.flags

        def counting(self, times, lengths):
            blocks.append((float(times[0]), len(times)))
            return real(self, times, lengths)

        monkeypatch.setattr(_Problem, "flags", counting)
        controls = IntegratorControls(t_max=5.0)
        assert integrate(ELLIPSEISH, PanYang(), controls).event.kind == "reached-horizon"
        # 101 check times in blocks of 32, 64 and 5; a separate check at
        # t = 0 would make a block of 1 first.
        assert 1 + len(_sample_times(controls)) == 101
        assert blocks[0][0] == 0.0
        assert [size for _, size in blocks] == [SCAN_CHUNK, 2 * SCAN_CHUNK, 5]

    def test_a_margin_inside_the_slack_costs_one_scan(self, monkeypatch):
        # The circle's radius of curvature is 1, so singularity_eps = 1 - 5e-11
        # leaves a margin within PRESCAN_SLACK of its size at every check time:
        # all 201 are flagged and none is crossed. Each is tested once, in one
        # pass over blocks of 32, 64 and 105.
        from curveflow.integrate import _Problem, _sample_times

        blocks = []
        real = _Problem.flags

        def counting(self, times, lengths):
            blocks.append(len(times))
            return real(self, times, lengths)

        monkeypatch.setattr(_Problem, "flags", counting)
        controls = IntegratorControls(t_max=10.0, singularity_eps=1.0 - 5e-11)
        traj = integrate(CIRCLE, PanYang(), controls)
        assert traj.event == TerminationEvent(kind="reached-horizon", t=10.0)
        assert np.array_equal(traj.t, np.concatenate(([0.0], _sample_times(controls))))
        assert np.all(traj.L == TWO_PI)
        assert blocks == [32, 64, 105]

    def test_ode_path_checks_t_zero_before_the_first_rhs_call(self):
        # H = L^400 overflows at the initial length, so the run ends at the
        # t = 0 check only if that check comes before the RHS is evaluated.
        steep = PowerSum(terms=((1.0, 400.0, 0.0),))
        traj = integrate(ELLIPSEISH, steep, IntegratorControls(length_blowup=1.0))
        assert traj.event == TerminationEvent(kind="length-blowup", t=0.0)
        assert len(traj.states) == 1
        with pytest.raises(HDomainError, match="H overflow"):
            integrate(ELLIPSEISH, steep)

    def test_tie_inside_a_bracket_goes_by_priority(self):
        from curveflow.heat import _Modes
        from curveflow.integrate import EVENT_TIME_TOL, _locate

        def margins(t, length):
            # Area vanish, length vanish and length blow-up all cross at t = 0.3.
            return (1.0, 1.0, 1.0, 1.0) if t < 0.3 else (1.0, -1.0, -1.0, -1.0)

        found = _locate(
            _Modes(ELLIPSEISH), margins, lambda t: TWO_PI, 0.0, [0.25, 0.5, 0.75], np.full(3, TWO_PI), _every_check_time
        )
        t_before, length_before, event = found
        assert event.kind == "area-vanish" and event.theta is None and length_before == TWO_PI
        assert t_before < 0.3 <= event.t <= t_before + EVENT_TIME_TOL

    @pytest.mark.parametrize("roots", [(0.4, 0.3), (0.45, 0.26), (0.31, 0.3)])
    def test_root_finding_follows_the_kind_crossed_first(self, roots):
        # Singularity and area vanish both cross in [0.25, 0.5], area vanish first.
        from curveflow.heat import _Modes
        from curveflow.integrate import _locate

        calls = []

        def margins(t, length):
            calls.append(t)
            return (roots[0] ** 2 - t * t, roots[1] ** 2 - t * t, 1.0, 1.0)

        def locate():
            del calls[:]
            return _locate(
                _Modes(ELLIPSEISH), margins, lambda t: TWO_PI, 0.0, [0.25, 0.5], np.full(2, TWO_PI), _every_check_time
            )

        want = _with_bisection(locate)
        found = locate()
        # The bisection takes 32 probes after the first crossed check time.
        probes = len(calls) - 2
        _check_event(found, want, margins, lambda t: TWO_PI)
        assert want[2].kind == "area-vanish" and probes <= 16

    def test_nothing_crossed(self):
        from curveflow.heat import _Modes
        from curveflow.integrate import _locate

        never = lambda t, length: (1.0, 1.0, 1.0, 1.0)  # noqa: E731
        assert _locate(
            _Modes(ELLIPSEISH), never, lambda t: TWO_PI, 0.0, [0.5, 1.0], np.full(2, TWO_PI), _every_check_time
        ) is None

    def test_an_event_where_floats_lie_wider_apart_than_the_tolerance_ends(self):
        # Near t = 1e6 neighbouring floats are 1.16e-10 apart, so no bracket
        # there is EVENT_TIME_TOL wide; the locator still stops, at one ulp.
        from curveflow.heat import _Modes
        from curveflow.integrate import _locate

        calls = []

        def margins(t, length):
            calls.append(t)
            assert len(calls) <= 40, "the locator does not stop"
            return (1e6 + 0.3 - t, 1.0, 1.0, 1.0)

        times = [1e6 + 0.25, 1e6 + 0.5]
        t_before, _, event = _locate(
            _Modes(ELLIPSEISH), margins, lambda t: TWO_PI, 1e6, times, np.full(2, TWO_PI), _every_check_time
        )
        assert t_before < 1e6 + 0.3 <= event.t == t_before + np.spacing(t_before)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.sampled_from([2, 16, 64]),
        ratio=st.floats(min_value=0.05, max_value=0.3),
        offset=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_pinch_events_match_the_bisection(self, seed, n, ratio, offset):
        spec0 = _pinch_curve(np.random.default_rng(seed), n, ratio, offset)
        traj = _same_as_bisection(lambda: integrate(spec0, H_EQUALS_L, IntegratorControls(t_max=10.0)))
        assert traj.event.kind == "singularity"

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=16),
        length_vanish=st.floats(min_value=1e-3, max_value=0.3),
        area_vanish=st.floats(min_value=1e-6, max_value=0.05),
    )
    @settings(max_examples=12, deadline=None)
    def test_ode_path_threshold_events_match_the_bisection(self, seed, n, length_vanish, area_vanish):
        spec0 = _random_convex(np.random.default_rng(seed), n)
        controls = IntegratorControls(t_max=10.0, length_vanish=length_vanish, area_vanish=area_vanish)
        traj = _same_as_bisection(lambda: integrate(spec0, GENERAL_POWERSUM, controls))
        assert traj.event.kind in ("length-vanish", "area-vanish")

    def test_two_thresholds_at_one_check_point_match_the_bisection(self):
        controls = IntegratorControls(t_max=10.0, length_vanish=3.5e-6)
        traj = _same_as_bisection(lambda: integrate(CIRCLE, H_EQUALS_L, controls))
        assert traj.event.kind == "area-vanish"

    def test_pinch_family_probes(self, monkeypatch):
        probes = self.record_probes(monkeypatch)
        rng = np.random.default_rng(1)
        counts = []
        for i in range(60):
            offset = 0.5 if i % 2 == 0 else rng.uniform(0.01, 0.99)
            spec0 = _pinch_curve(rng, (2, 16, 64)[i % 3], rng.uniform(0.05, 0.3), offset)
            del probes[:]
            assert integrate(spec0, H_EQUALS_L, IntegratorControls(t_max=10.0)).event.kind == "singularity"
            counts.append(len(probes))
        # The bisection alone takes 29 probes to narrow a 0.05 bracket to 1e-10.
        assert np.median(counts) <= 16 and max(counts) <= 35

    @pytest.mark.parametrize(
        "margin",
        [
            lambda t: 1.0 if t < 0.3 else -1.0,
            lambda t: 0.3 - t if t < 0.3 else 1e-6 * (0.3 - t),
            lambda t: 0.4 - t if t < 0.3 else (-1e-3 if t < 0.31 else 1e-6 * (0.31 - t)),
            lambda t: abs(t - 0.28) + 0.01 if t < 0.3 else -1e-9 - (t - 0.3) ** 2,
            lambda t: 0.3 - t,
        ],
        ids=["jump", "kink", "kink-and-jump", "jump-after-kink", "line"],
    )
    def test_kinked_or_discontinuous_margin_costs_little_more_than_bisection(self, margin):
        from curveflow.heat import _Modes
        from curveflow.integrate import EVENT_TIME_TOL, _locate

        calls = []

        def margins(t, length):
            calls.append(t)
            return (margin(t), 1.0, 1.0, 1.0)

        def locate():
            del calls[:]
            return _locate(
                _Modes(ELLIPSEISH), margins, lambda t: TWO_PI, 0.0, [0.25, 0.5, 0.75], np.full(3, TWO_PI), _every_check_time
            )

        want = _with_bisection(locate)
        found = locate()
        after_firing = len(calls) - calls.index(0.5) - 1
        _check_event(found, want, margins, lambda t: TWO_PI)
        # At most one probe more than the bisection's halvings.
        assert after_firing <= np.ceil(np.log2(0.25 / EVENT_TIME_TOL)) + 1

    @given(
        n=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t=st.floats(min_value=0.0, max_value=5.0),
        length=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_min_radius_is_state_min_radius(self, n, seed, t, length):
        from curveflow import radius_extrema
        from curveflow.heat import _Modes

        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.01, 1.0) / np.arange(1, n + 1) ** 2
        spec0 = SupportSpectrum(
            mean=rng.uniform(0.5, 2.0),
            cos_coeffs=rng.uniform(-1.0, 1.0, n) * scale,
            sin_coeffs=rng.uniform(-1.0, 1.0, n) * scale,
        )
        state = flow_state(spec0, t, length)
        assert radius_extrema(state.spectrum)[0] == _Modes(spec0).radius_range(t, length)[0]
        assert radius_extrema(state.spectrum) == _Modes(spec0).radius_range(t, length)
        # The locator's scalar test reads the same minimum and area, bit for bit.
        from curveflow.integrate import _margins, _Problem

        controls = IntegratorControls()
        limits = (controls.singularity_eps, controls.area_vanish, controls.length_vanish, controls.length_blowup)
        want = _margins(limits, radius_extrema(state.spectrum)[0], state.A, length)
        assert _Problem(spec0, H_EQUALS_L, controls).margins(t, length) == want


def _rotated_ellipse(phi: float) -> SupportSpectrum:
    # u(theta - phi) for u = 1 + 0.2 cos(2 theta).
    return SupportSpectrum(
        mean=1.0,
        cos_coeffs=[0.0, 0.2 * np.cos(2.0 * phi)],
        sin_coeffs=[0.0, 0.2 * np.sin(2.0 * phi)],
    )


class TestSymmetries:
    """Rotating the input shifts theta* and keeps t*; translating it keeps
    the pinch and moves the limit center; reflecting it (b_n -> -b_n)
    reflects theta* and keeps everything else; restarting from a recorded
    state repeats the run from there on; scaling it, u -> lambda u, scales
    L(t) by lambda when H has degree 1."""

    CONTROLS = IntegratorControls(t_max=1.0)

    @given(k=st.integers(min_value=0, max_value=511))
    @settings(max_examples=12, deadline=None)
    def test_rotation_by_grid_step(self, k):
        phi = k * TWO_PI / 512
        base = integrate(ELLIPSEISH, H_EQUALS_L, self.CONTROLS).event
        rotated = integrate(_rotated_ellipse(phi), H_EQUALS_L, self.CONTROLS).event
        assert rotated.kind == base.kind == "singularity"
        assert abs(rotated.t - base.t) <= 1e-9
        shift = (rotated.theta - base.theta - phi) % np.pi
        assert min(shift, np.pi - shift) <= 1e-12

    @given(
        a1=st.floats(min_value=-5.0, max_value=5.0),
        b1=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_translation(self, a1, b1):
        moved = SupportSpectrum(mean=1.0, cos_coeffs=[a1, 0.2], sin_coeffs=[b1, 0.0])
        base = integrate(ELLIPSEISH, H_EQUALS_L, self.CONTROLS).event
        event = integrate(moved, H_EQUALS_L, self.CONTROLS).event
        assert event.kind == "singularity"
        assert abs(event.t - base.t) <= 1e-9
        assert event.theta == base.theta
        limit = integrate(moved, PanYang(), IntegratorControls(t_max=2.0)).outcome
        assert limit.center == (a1, b1)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=2, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_reflection(self, seed, n):
        spec0 = _random_convex(np.random.default_rng(seed), n)
        mirrored = SupportSpectrum(mean=spec0.mean, cos_coeffs=spec0.cos_coeffs, sin_coeffs=-spec0.sin_coeffs)
        controls = IntegratorControls(t_max=10.0)
        base, traj = integrate(spec0, H_EQUALS_L, controls), integrate(mirrored, H_EQUALS_L, controls)
        assert np.array_equal(traj.t, base.t) and np.array_equal(traj.L, base.L)
        assert traj.event.kind == base.event.kind and traj.event.t == base.event.t
        if base.event.theta is not None:
            # With one mode above the first the radius is pi-periodic: its two minima tie.
            period = np.pi if n == 2 else TWO_PI
            shift = (traj.event.theta + base.event.theta) % period
            assert min(shift, period - shift) <= 1e-12

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=32),
        term=st.sampled_from([
            PanYang(), LinTsai(), MaCheng(), Constant(c=-0.5),
            PowerSum(terms=((0.2, 1.5, 0.0),)),
            PowerSum(terms=((1.0, -1.0, 1.0), (-0.5, -1.0, 0.0))),
        ]),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_restart_on_the_closed_path(self, seed, n, term, k):
        self.check_restart(_random_convex(np.random.default_rng(seed), n), term, k, 1e-14)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=32),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=6, deadline=None)
    def test_restart_on_the_ode_path(self, seed, n, k):
        self.check_restart(_random_convex(np.random.default_rng(seed), n), GENERAL_POWERSUM, k, 1e-8)

    @staticmethod
    def check_restart(spec0, term, k, rel_tol):
        t_max = 3.0
        base = integrate(spec0, term, IntegratorControls(t_max=t_max))
        k = min(k, len(base.t) - 2)  # a sample time before any event
        t1, length = float(base.t[k]), float(base.L[k])
        restart = integrate(flow_state(spec0, t1, length).spectrum, term, IntegratorControls(t_max=t_max - t1))
        assert restart.event.kind == base.event.kind
        assert len(restart.t) == len(base.t) - k
        assert np.allclose(restart.t + t1, base.t[k:], rtol=0.0, atol=1e-12)
        assert np.max(np.abs(restart.L - base.L[k:]) / base.L[k:]) <= rel_tol

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=32),
        term=st.sampled_from([PanYang(), LinTsai(), MaCheng()]),
        scale=st.floats(min_value=0.3, max_value=4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_on_the_closed_path(self, seed, n, term, scale):
        self.check_scaling(_random_convex(np.random.default_rng(seed), n), term, scale, 1e-14)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=32),
        scale=st.floats(min_value=0.3, max_value=4.0),
    )
    @settings(max_examples=6, deadline=None)
    def test_scaling_on_the_ode_path(self, seed, n, scale):
        # H = 0.1 L + 0.005 L^3 / A has degree 1 and no closed form.
        term = PowerSum(terms=((0.1, 1.0, 0.0), (0.005, 3.0, -1.0)))
        self.check_scaling(_random_convex(np.random.default_rng(seed), n), term, scale, 1e-10)

    @staticmethod
    def check_scaling(spec0, term, scale, rel_tol):
        controls = IntegratorControls(t_max=4.0)
        scaled = SupportSpectrum(
            mean=scale * spec0.mean, cos_coeffs=scale * spec0.cos_coeffs, sin_coeffs=scale * spec0.sin_coeffs
        )
        base, traj = integrate(spec0, term, controls), integrate(scaled, term, controls)
        assert base.event.kind == traj.event.kind == "reached-horizon"
        assert np.array_equal(traj.t, base.t)
        assert np.max(np.abs(traj.L - scale * base.L) / (scale * base.L)) <= rel_tol


def _random_convex(rng, n: int) -> SupportSpectrum:
    from curveflow import radius_extrema

    while True:
        scale = rng.uniform(0.05, 0.4) / np.arange(1, n + 1) ** 4
        spec = SupportSpectrum(
            mean=rng.uniform(0.5, 2.0),
            cos_coeffs=rng.uniform(-1.0, 1.0, n) * scale,
            sin_coeffs=rng.uniform(-1.0, 1.0, n) * scale,
        )
        if radius_extrema(spec)[0] > 0.05:
            return spec


def _family(rng):
    """Terms of both closed-form families with random alpha, beta, c: the
    power r = 1 - p of H = alpha L + c L^p, and r = 2 with beta A/L, gamma/L
    (gamma = c of both signs) and ma-cheng; plus the near-resonant cases
    kappa ~ 0 at r = 1 and kappa ~ lambda_2 = -6 at r = 2."""
    alpha, beta, c = rng.uniform(-0.3, 0.3), rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 1.0)
    return [
        PowerSum(terms=((c, 0.0, 0.0), (alpha, 1.0, 0.0))),
        PowerSum(terms=((beta, -1.0, 1.0), (alpha, 1.0, 0.0))),
        MaCheng(),
        PowerSum(terms=((c, 0.0, 0.0), ((1.0 + 1e-9) / TWO_PI, 1.0, 0.0))),
        PowerSum(terms=((2.0, -1.0, 1.0), (6.0 / (4.0 * np.pi) * (1.0 + 1e-12), 1.0, 0.0))),
        PowerSum(terms=((0.2, 1.5, 0.0),)),
        PowerSum(terms=((0.05, 2.0, 0.0), (0.1, 1.0, 0.0))),
        PowerSum(terms=((0.3, 0.5, 0.0), (0.05, 1.0, 0.0))),
        PowerSum(terms=((alpha, 1.0, 0.0), (beta, -1.0, 1.0), (c, -1.0, 0.0))),
        PowerSum(terms=((alpha, 1.0, 0.0), (beta, -1.0, 1.0), (-c, -1.0, 0.0))),
        PowerSum(terms=((c, -1.0, 0.0),)),
    ]


class TestClosedLength:
    """The closed forms of flows.closed_length against the DOPRI5 solve."""

    # Tight ODE tolerances: the ODE is the reference here.
    CONTROLS = IntegratorControls(t_max=5.0, length_vanish=1e-3, rel_tol=1e-11, abs_tol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_ode_on_the_same_term(self, seed):
        from curveflow.flows import closed_length
        from curveflow.integrate import _dopri_steps, _Problem, _record

        rng = np.random.default_rng(seed)
        for term in _family(rng):
            spec0 = _random_convex(rng, int(rng.integers(2, 8)))
            problem = _Problem(spec0, term, self.CONTROLS)
            law = closed_length(spec0, term)
            assert law is not None
            ode = _record(problem, _dopri_steps(problem))
            closed = _record(problem, iter([(0.0, self.CONTROLS.t_max, law)]))
            assert closed.event.kind == ode.event.kind
            assert closed.event.t == pytest.approx(ode.event.t, abs=1e-8)
            at = {s.t: s.L for s in ode.states}
            common = [s for s in closed.states if s.t in at]
            assert len(common) >= len(closed.states) - 1
            for s in common:
                assert s.L == pytest.approx(at[s.t], rel=1e-8)

    def test_vanishing_length(self):
        # H = 2: L = 4 pi - 2 pi e^t reaches zero at t = ln 2.
        from curveflow.flows import closed_length
        from curveflow.integrate import _dopri_steps, _Problem, _record

        controls = IntegratorControls(
            t_max=5.0, length_vanish=1e-3, area_vanish=1e-30, singularity_eps=1e-16,
            rel_tol=1e-11, abs_tol=1e-14,
        )
        problem = _Problem(CIRCLE, Constant(c=2.0), controls)
        law = closed_length(CIRCLE, Constant(c=2.0))
        ode = _record(problem, _dopri_steps(problem))
        closed = _record(problem, iter([(0.0, controls.t_max, law)]))
        assert closed.event.kind == ode.event.kind == "length-vanish"
        want = np.log(2.0 - 1e-3 / TWO_PI)
        assert closed.event.t == pytest.approx(want, abs=1e-9)
        assert ode.event.t == pytest.approx(want, abs=1e-8)
        assert law(np.log(2.0) + 0.1) < 0.0  # a length through zero stays visible

    def test_area_overflow_is_a_domain_exit_on_both_paths(self):
        # kappa = 16 pi: L reaches the float range, MAX_LENGTH, long before the
        # blow-up threshold 1e300; past it A = L^2/(4 pi) and the ODE's H = 2A/L - 4L overflow.
        from curveflow.flows import closed_length
        from curveflow.integrate import _dopri_steps, _Problem, _record

        term = PowerSum(terms=((2.0, -1.0, 1.0), (-4.0, 1.0, 0.0)))
        controls = IntegratorControls(t_max=30.0, length_blowup=1e300, sample_interval=0.5, rel_tol=1e-6)
        problem = _Problem(ELLIPSEISH, term, controls)
        closed = _record(problem, iter([(0.0, controls.t_max, closed_length(ELLIPSEISH, term))]))
        ode = _record(problem, _dopri_steps(problem))
        assert closed.event.kind == ode.event.kind == "h-domain-exit"
        assert np.isfinite(closed.states[-1].A) and closed.states[-1].L > 1e150
        assert abs(closed.event.t - ode.event.t) <= controls.sample_interval
        # H = -1 reads no area; its run ends the same way rather than failing.
        long_run = IntegratorControls(t_max=400.0, length_blowup=1e300, sample_interval=0.5)
        assert isinstance(integrate(ELLIPSEISH, Constant(c=-1.0), long_run).outcome, Undetermined)

    def test_float_range_events_agree_on_both_paths(self):
        # The case above: both paths end where L reaches MAX_LENGTH, so their
        # events differ by the ODE's error, not by a sample interval.
        from curveflow.flows import closed_length
        from curveflow.integrate import _dopri_steps, _Problem, _record

        term = PowerSum(terms=((2.0, -1.0, 1.0), (-4.0, 1.0, 0.0)))
        controls = IntegratorControls(t_max=30.0, length_blowup=1e300, sample_interval=0.5, rel_tol=1e-6)
        problem = _Problem(ELLIPSEISH, term, controls)
        closed = _record(problem, iter([(0.0, controls.t_max, closed_length(ELLIPSEISH, term))]))
        ode = _record(problem, _dopri_steps(problem))
        assert closed.event.kind == ode.event.kind == "h-domain-exit"
        assert abs(closed.event.t - ode.event.t) <= 1e-4
        for traj in (closed, ode):
            assert 0.999 * MAX_LENGTH < traj.L[-1] < MAX_LENGTH

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="H = 1 on the unit circle: L' = L - 2 pi has an unstable fixed point at L = 2 pi. "
        "ClosedLength evaluates e^{kappa t}(1 + sum w_j psi_j), and 1 + sum w_j/(kappa - r_j) = 0 "
        "there, so e^{kappa t} multiplies rounding: L is 1e-3 off at t = 30, the run ends in a "
        "singularity at t = 37.43, and past t ~ 709 L is inf * 0 = NaN",
    )
    def test_a_circle_at_an_unstable_fixed_point_stays_there(self):
        from curveflow.integrate import _dopri_steps, _Problem, _record

        problem = _Problem(CIRCLE, Constant(c=1.0), IntegratorControls())
        ode = _record(problem, _dopri_steps(problem))
        assert ode.event.kind == "reached-horizon" and np.all(ode.L == TWO_PI)
        closed = integrate(CIRCLE, Constant(c=1.0))
        assert closed.event.kind == "reached-horizon"
        assert np.max(np.abs(closed.L - TWO_PI)) <= 1e-9

    def test_length_growth_ends_at_the_float_range(self):
        # const:-1 from the unit circle: L = 4 pi e^t - 2 pi reaches MAX_LENGTH at
        # t* = ln((MAX_LENGTH + 2 pi) / (4 pi)), long before length_blowup = 1e300.
        from curveflow.integrate import ipd_column, ipr_column, record_rows

        controls = IntegratorControls(t_max=400.0, length_blowup=1e300, sample_interval=0.5)
        traj = integrate(CIRCLE, Constant(c=-1.0), controls)
        assert traj.event.kind == "h-domain-exit"
        assert abs(traj.event.t - np.log((MAX_LENGTH + TWO_PI) / (4.0 * np.pi))) <= EVENT_TIME_TOL
        assert traj.L[-1] < MAX_LENGTH and traj.t[-1] < traj.event.t
        for column in (traj.t, traj.L, traj.A, ipd_column(traj), ipr_column(traj)):
            assert np.all(np.isfinite(column))
        assert all(None not in row.values() for row in record_rows(traj))
        assert describe_outcome(traj.outcome) == "Undetermined (H left its domain near t=351.667)"

    def test_squared_forms_go_negative(self):
        # (ii) with beta < 0 and kappa < 0 drives L^2 through zero.
        from curveflow.flows import closed_length

        law = closed_length(ELLIPSEISH, PowerSum(terms=((-3.0, -1.0, 1.0), (1.0, 1.0, 0.0))))
        assert law.power == 2 and law.kappa < 0.0
        lengths = law(np.linspace(0.0, 5.0, 51))
        assert lengths[0] == TWO_PI and lengths[-1] < 0.0

    def test_which_terms_take_the_closed_form(self):
        from curveflow.flows import closed_length

        closed = ["pan-yang", "lin-tsai", "ma-cheng", "const:-1", "powersum:1,1,0",
                  "powersum:1.2,0,0", "powersum:2,-1,1", "powersum:0.2,1.5,0",
                  "powersum:0.05,2,0;0.1,1,0", "powersum:0.3,0.5,0;0.05,1,0",
                  "powersum:0.1,1,0;2,-1,1;0.3,-1,0", "powersum:0.1,1,0;2,-1,1;-0.3,-1,0",
                  "powersum:0.3,-1,0", "powersum:0.5,1,0;-1,-1,1;2,0,0"]
        # GENERAL_POWERSUM first. No power of L makes these linear: (0,0) with
        # (-1,1), say, or the r = -2 set, whose L^-2 equation has a time-varying
        # coefficient.
        ode = ["powersum:0.3,0.5,0.25;2,-1,1", "powersum:1,0,1", "powersum:1,0,0;1,-1,1",
               "powersum:1,1,0;1,3,0;1,1,1"]
        from curveflow import parse_flow_term

        for text in closed[:-1]:
            assert closed_length(ELLIPSEISH, parse_flow_term(text)) is not None, text
        # (0,0) with (-1,1) is neither form.
        for text in ode + closed[-1:]:
            assert closed_length(ELLIPSEISH, parse_flow_term(text)) is None, text

    @pytest.mark.parametrize(
        "term, controls, kind",
        [
            ("powersum:2,0.5,0", IntegratorControls(), "area-vanish"),
            ("powersum:2,0.5,0", IntegratorControls(area_vanish=1e-30, singularity_eps=1e-16), "length-vanish"),
            ("powersum:-0.1,2,0", IntegratorControls(), "length-blowup"),
            ("powersum:-0.01,3,0", IntegratorControls(), "length-blowup"),
            pytest.param(
                "powersum:1000,-3,0", IntegratorControls(), "singularity",
                marks=pytest.mark.xfail(
                    raises=AssertionError,
                    strict=True,
                    reason="L^4 reaches 0 at t* = 0.0712714326141: the closed form ends in a "
                    "singularity there, while DOPRI5's step size collapses as L' blows up "
                    "and it ends in step-collapse at 0.0712714327462",
                ),
                id="collapse",
            ),
        ],
    )
    def test_power_laws_cross_the_thresholds_as_the_ode_does(self, term, controls, kind):
        # A circle under H = 2 L^(1/2) (r = 1/2) shrinks to a point near t = 0.445;
        # H = -0.1 L^2 and -0.01 L^3 (r = -1, -2) blow up in finite time, where
        # z = L^r reaches zero and the closed form reads L = +inf.
        from curveflow import parse_flow_term
        from curveflow.flows import closed_length
        from curveflow.integrate import _dopri_steps, _Problem, _record

        problem = _Problem(CIRCLE, parse_flow_term(term), controls)
        law = closed_length(CIRCLE, problem.term)
        assert law is not None
        closed = _record(problem, iter([(0.0, controls.t_max, law)]))
        ode = _record(problem, _dopri_steps(problem))
        assert closed.event.kind == ode.event.kind == kind
        assert closed.event.t == pytest.approx(ode.event.t, abs=1e-8)

    def test_a_length_that_collapses_in_finite_time_ends_in_a_singularity(self):
        # H = 1000 L^-3 (r = 4): z = L^4 = 2000 pi - (2000 pi - (2 pi)^4) e^{4t}
        # for the unit circle, which reaches 0 at t* below. rho = L/(2 pi),
        # A = L^2/(4 pi) and L reach their thresholds within 1e-20 of t*, far
        # below a float's spacing there: every threshold crosses inside the
        # last bracket, and the priority rule picks the singularity.
        from curveflow.flows import closed_length
        from curveflow.integrate import EVENT_TIME_TOL, _crossed, _Problem

        term = PowerSum(terms=((1000.0, -3.0, 0.0),))
        assert closed_length(CIRCLE, term) is not None
        t_star = 0.25 * np.log(2000.0 * np.pi / (2000.0 * np.pi - TWO_PI**4))
        assert t_star == pytest.approx(0.0712714326141, abs=1e-13)
        traj = integrate(CIRCLE, term)
        assert traj.event.kind == "singularity" and traj.event.theta is not None
        assert abs(traj.event.t - t_star) <= EVENT_TIME_TOL
        t_before = float(traj.t[-1])
        assert t_before < t_star <= traj.event.t <= t_before + EVENT_TIME_TOL
        problem = _Problem(CIRCLE, term, IntegratorControls())
        law = closed_length(CIRCLE, term)
        assert not _crossed(problem.margins(t_before, law(t_before)))
        assert _crossed(problem.margins(traj.event.t, law(traj.event.t)))[0] == "singularity"

    @pytest.mark.parametrize("p", [0.9999999, 1.0000001])
    def test_power_near_zero_keeps_its_accuracy(self, p):
        # H = 0.1 L^p has r = 1 - p = +-1e-7: raising z/z0 to the power 1/r
        # would magnify its rounding by 1e7 (a gap of about 2e-9 here).
        from curveflow.flows import closed_length
        from curveflow.integrate import _dopri_steps, _Problem, _record

        controls = IntegratorControls(t_max=5.0, rel_tol=1e-12, abs_tol=1e-15)
        term = PowerSum(terms=((0.1, p, 0.0),))
        problem = _Problem(GALLERY_ELLIPSE, term, controls)
        closed = _record(problem, iter([(0.0, controls.t_max, closed_length(GALLERY_ELLIPSE, term))]))
        ode = _record(problem, _dopri_steps(problem))
        assert closed.event == ode.event and np.array_equal(closed.t, ode.t)
        assert np.max(np.abs(closed.L / ode.L - 1.0)) <= 2e-12

    @pytest.mark.parametrize("alpha, c, p, t_end", [(0.3, -1e-8, 0.25, 40.0), (0.5, -1e-9, 0.5, 20.0)])
    def test_ratio_far_below_one_keeps_its_accuracy(self, alpha, c, p, t_end):
        # H = alpha L + c L^p: z = L^r (r = 1 - p) decays from z0 toward
        # s/|kappa|, many orders of magnitude down, where log1p(z/z0 - 1)
        # would lose digits (about 1e-9 and 4e-8 here).
        from curveflow.flows import closed_length

        spec0 = SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.1], sin_coeffs=[0.0, 0.0])
        law = closed_length(spec0, PowerSum(terms=((alpha, 1.0, 0.0), (c, p, 0.0))))
        r = 1.0 - p
        kappa, s = r * (1.0 - TWO_PI * alpha), -TWO_PI * r * c
        assert kappa < 0.0 < s
        # Both terms of z are positive, so this sum is accurate in float64.
        times = np.linspace(0.0, t_end, 41)
        z = TWO_PI**r * np.exp(kappa * times) + (s / kappa) * np.expm1(kappa * times)
        assert np.max(np.abs(law(times) / z ** (1.0 / r) - 1.0)) <= 1e-14

    def test_exact_at_zero_and_for_pan_yang(self):
        from curveflow.flows import closed_length

        spec0 = SupportSpectrum(mean=1.3, cos_coeffs=[0.2, 0.05, -0.01], sin_coeffs=[-0.1, 0.03, 0.02])
        for term in (PanYang(), LinTsai(), MaCheng(), Constant(c=0.7), H_EQUALS_L):
            law = closed_length(spec0, term)
            assert law(0.0) == TWO_PI * 1.3
        assert closed_length(spec0, PanYang()).kappa == 0.0
        assert set(closed_length(spec0, PanYang())(np.linspace(0.0, 50.0, 11))) == {TWO_PI * 1.3}

    # (flow, r, reaches z/z0 <= 0): one law per branch of ClosedLength.__call__.
    # The last three start from the unit circle and reach z/z0 <= 0 before
    # t = 5: L through zero near t = ln 2 (r = 1) and t = 0.445 (r = 1/2), and
    # L = +inf from the blow-up on (r = -1).
    BRANCHES = [
        ("pan-yang", 1.0, False), ("const:0.7", 1.0, False), ("powersum:1,1,0", 1.0, False),
        ("lin-tsai", 2.0, False), ("ma-cheng", 2.0, False), ("powersum:2,-1,1;0.1,-1,0", 2.0, False),
        ("powersum:0.2,1.5,0", -0.5, False),
        ("const:2", 1.0, True), ("powersum:2,0.5,0", 0.5, True), ("powersum:-0.1,2,0", -1.0, True),
    ]

    def test_scalar_and_array_forms_agree(self):
        from curveflow import parse_flow_term
        from curveflow.flows import closed_length

        times = np.linspace(0.0, 5.0, 9)
        for flow, power, through_zero in self.BRANCHES:
            law = closed_length(CIRCLE if through_zero else GALLERY_ELLIPSE, parse_flow_term(flow))
            assert law.power == power, flow
            assert isinstance(law(0.5), float), flow
            lengths = law(times)
            assert lengths == pytest.approx([law(t) for t in times], rel=1e-15), flow
            assert (not np.all((lengths > 0.0) & np.isfinite(lengths))) == through_zero, flow


# One flow per closed-form family: r = 1 (pan-yang, const, H = L), r = 2
# (lin-tsai, ma-cheng, and a gamma/L term) and r = -1/2.
CLOSED_FLOWS = ["pan-yang", "lin-tsai", "ma-cheng", "const:-1", "const:0.5", "const:2", "powersum:1,1,0",
                "powersum:0.2,1.5,0", "powersum:0.1,1,0;2,-1,1;0.3,-1,0"]


class TestPrescan:
    """The block pre-scan in _locate against a plain scalar scan (_locate
    with every check time flagged) and against the grid minimum at every
    check time (``oracles.grid_flags``)."""

    LIMITS = (1e-9, 1e-12, 1e-12, 1e12)

    def test_one_margin_per_event_kind(self):
        from curveflow.integrate import _EVENT_PRIORITY, _margins

        assert len(_margins(self.LIMITS, 1.0, 1.0, 1.0)) == len(_EVENT_PRIORITY)

    def test_float_range_alone_flags_a_check_time(self):
        # L = 1e154 crosses only the float range: the area, the radius and the
        # length thresholds are all clear there.
        from curveflow.integrate import _crossed, _Problem

        problem = _Problem(ELLIPSEISH, PanYang(), IntegratorControls(length_blowup=1e300))
        times, lengths = np.array([0.0, 0.5]), np.array([TWO_PI, 1e154])
        assert _crossed(problem.margins(0.5, 1e154)) == ["h-domain-exit"]
        assert problem.flags(times, lengths).tolist() == [False, True]
        assert oracles.grid_flags(problem, times, lengths).tolist() == [False, True]

    def test_margins_agree_between_scalar_and_array_forms(self):
        from curveflow.integrate import _margins

        rng = np.random.default_rng(3)
        rho, area, length = (rng.uniform(-1.0, 1.0, 40) for _ in range(3))
        block = _margins(self.LIMITS, rho, area, length)
        for i in range(40):
            scalar = _margins(self.LIMITS, float(rho[i]), float(area[i]), float(length[i]))
            assert scalar == tuple(float(m[i]) for m in block)

    @pytest.mark.parametrize("seed", range(8))
    def test_flags_cover_every_scalar_crossing(self, seed):
        from curveflow.flows import closed_length
        from curveflow.integrate import _crossed, _Problem

        rng = np.random.default_rng(seed)
        spec0 = _random_convex(rng, int(rng.integers(2, 64)))
        controls = IntegratorControls(t_max=5.0, singularity_eps=rng.uniform(0.01, 0.5), area_vanish=0.5)
        problem = _Problem(spec0, H_EQUALS_L, controls)
        law = closed_length(spec0, H_EQUALS_L)
        times = np.linspace(0.0, 1.5, 301)
        flags = problem.flags(times, law(times))
        scalar = np.array([bool(_crossed(problem.margins(t, law(t)))) for t in times.tolist()])
        assert scalar.any() and not scalar.all()
        assert np.all(flags[scalar])

    @pytest.mark.parametrize("seed", range(8))
    def test_same_events_as_a_scalar_scan(self, seed):
        from curveflow.flows import closed_length
        from curveflow.integrate import _locate, _Problem

        rng = np.random.default_rng(100 + seed)
        spec0 = _random_convex(rng, int(rng.integers(2, 64)))
        term = [H_EQUALS_L, Constant(c=rng.uniform(-2.0, 2.0)), LinTsai(), MaCheng()][seed % 4]
        controls = IntegratorControls(
            t_max=10.0,
            singularity_eps=rng.uniform(1e-9, 0.3),
            area_vanish=rng.uniform(1e-12, 1.0),
            length_vanish=rng.uniform(1e-12, 0.1),
            length_blowup=rng.uniform(20.0, 1e3),
        )
        problem = _Problem(spec0, term, controls)
        law = closed_length(spec0, term)
        times = np.linspace(0.0, 10.0, 1001)
        lengths = law(times)
        scalar = _locate(problem.modes, problem.margins, law, 0.0, times, lengths, _every_check_time)
        assert _locate(problem.modes, problem.margins, law, 0.0, times, lengths, problem.flags) == scalar

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=64),
        flow=st.sampled_from(CLOSED_FLOWS),
        t_max=st.floats(min_value=0.05, max_value=10.0),
        sample_interval=st.floats(min_value=0.005, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_slice_the_lengths_bit_for_bit(self, seed, n, flow, t_max, sample_interval):
        # The pre-scan's blocks read slices of L evaluated SCAN_BLOCK_CAP check
        # times at a time; the law must give each time the same bits whatever
        # the array it is evaluated in.
        from curveflow import parse_flow_term
        from curveflow.flows import closed_length
        from curveflow.integrate import SCAN_BLOCK_CAP, SCAN_CHUNK, _Lengths, _sample_times

        law = closed_length(_random_convex(np.random.default_rng(seed), n), parse_flow_term(flow))
        check = np.concatenate(([0.0], _sample_times(IntegratorControls(t_max=t_max, sample_interval=sample_interval))))
        lengths = _Lengths(law, check)
        parts, lo, size = [], 0, SCAN_CHUNK
        while lo < len(check):
            parts.append(law(check[lo : lo + size]))
            assert lengths[lo : lo + size].tobytes() == parts[-1].tobytes()
            lo, size = lo + size, min(2 * size, SCAN_BLOCK_CAP)
        assert law(check).tobytes() == np.concatenate(parts).tobytes()

    def test_a_closed_form_run_evaluates_its_law_once_at_its_check_times(self, monkeypatch):
        from curveflow.flows import ClosedLength, closed_length

        law = closed_length(GALLERY_ELLIPSE, PanYang())
        evaluate, arrays = ClosedLength.__call__, []

        def counted(closed, t):
            if np.ndim(t):
                arrays.append(len(t))
            return evaluate(closed, t)

        monkeypatch.setattr(ClosedLength, "__call__", counted)
        traj = integrate(GALLERY_ELLIPSE, PanYang(), IntegratorControls(t_max=10.0))
        # Blocks of 32, 64 and 105 check times and the kept states all read one pass.
        assert arrays == [201] and len(traj.t) == 201
        assert np.array_equal(traj.L, evaluate(law, traj.t))

    def test_peak_allocation_does_not_grow_with_check_times(self):
        import tracemalloc

        from curveflow.flows import closed_length
        from curveflow.integrate import _locate, _Problem

        rng = np.random.default_rng(7)
        spec0 = _random_convex(rng, 64)
        problem = _Problem(spec0, PanYang(), IntegratorControls())
        law = closed_length(spec0, PanYang())
        peaks = []
        for count in (2_000, 20_000):
            times = np.linspace(0.0, 1.0, count)
            lengths = law(times)
            tracemalloc.start()
            assert _locate(problem.modes, problem.margins, law, 0.0, times, lengths, problem.flags) is None
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize(
        "eps, grid_products, flagged",
        [(0.3, 0, 0), (0.5, 1, 2), (0.4 - 0.5 * PRESCAN_SLACK, 1, 1)],
        ids=["clear", "crossed", "within-the-slack"],
    )
    def test_grid_product_runs_only_where_the_bound_does_not_clear(
        self, monkeypatch, eps, grid_products, flagged
    ):
        # rho = 1 - 0.6 e^{-3t} cos 2 theta under pan-yang: the bound
        # 1 - 0.6 e^{-3t} is the minimum itself, 0.4 at t = 0 on a grid node.
        from curveflow.integrate import _Problem

        support = importlib.import_module("curveflow.support")
        calls = []
        real = support._grid_deviation
        monkeypatch.setattr(support, "_grid_deviation", lambda a, b: calls.append(a.shape) or real(a, b))
        times = np.linspace(0.0, 1.0, 32)
        lengths = np.full(32, TWO_PI)
        problem = _Problem(ELLIPSEISH, PanYang(), IntegratorControls(singularity_eps=eps))
        flags = problem.flags(times, lengths)
        assert len(calls) == grid_products
        assert np.count_nonzero(flags) == flagged
        assert np.array_equal(flags, oracles.grid_flags(problem, times, lengths))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=64),
        term=st.sampled_from(["pan-yang", "lin-tsai", "ma-cheng", "const", "H = L", "general"]),
        pinch=st.booleans(),
        eps=st.sampled_from([1e-9, 1e-3]) | st.floats(min_value=0.01, max_value=0.5),
        share=st.none() | st.floats(min_value=0.9, max_value=0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_flags_and_runs_as_the_grid_only_route(self, seed, n, term, pinch, eps, share):
        # A share of the initial grid minimum puts eps between the bound
        # and that minimum for many curves: blocks run the grid product
        # without a flag.
        from curveflow import radius_extrema
        from curveflow.integrate import _crossed, _Problem, record_rows

        rng = np.random.default_rng(seed)
        if pinch:
            spec0 = _pinch_curve(rng, n, rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.99))
        else:
            spec0 = _random_convex(rng, n)
        if share is not None:
            eps = share * radius_extrema(spec0)[0]
        term = {
            "pan-yang": PanYang(), "lin-tsai": LinTsai(), "ma-cheng": MaCheng(),
            "const": Constant(c=rng.uniform(-2.0, 1.0)), "H = L": H_EQUALS_L, "general": GENERAL_POWERSUM,
        }[term]
        controls = IntegratorControls(t_max=5.0, singularity_eps=eps)
        real = _Problem.flags

        def checked(problem, times, lengths):
            flags = real(problem, times, lengths)
            assert np.array_equal(flags, oracles.grid_flags(problem, times, lengths))
            # The locator tests only flagged check times: every crossed one must be.
            crossed = [bool(_crossed(problem.margins(t, L))) for t, L in zip(times.tolist(), lengths.tolist())]
            assert np.all(flags[crossed])
            return flags

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Problem, "flags", checked)
            traj = integrate(spec0, term, controls)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Problem, "flags", oracles.grid_flags)
            reference = integrate(spec0, term, controls)
        assert traj.event == reference.event
        for name in ("t", "L", "A"):
            assert np.array_equal(getattr(traj, name), getattr(reference, name)), name
        assert record_rows(traj) == record_rows(reference)

    @staticmethod
    def curvature_bound(spec0: SupportSpectrum, t: float) -> tuple[float, float]:
        """(the bound ``_Problem.scan`` reads at t, its size): with
        singularity_eps = -inf every block clears, so the scan returns the
        bound itself."""
        from curveflow.integrate import _Problem

        problem = _Problem(spec0, PanYang(), IntegratorControls())
        problem.limits = (-np.inf, *problem.limits[1:])
        lower, size = problem.scan(np.array([t]), np.array([TWO_PI * spec0.mean]))[:2]
        return float(lower[0]), float(size[0])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=64),
        t=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_curvature_bound_lies_below_the_minimum(self, seed, n, t):
        from curveflow import radius_extrema
        from curveflow.heat import _Modes

        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.01, 1.0) / np.arange(1, n + 1) ** 2
        spec0 = SupportSpectrum(
            mean=rng.uniform(0.5, 2.0),
            cos_coeffs=rng.uniform(-1.0, 1.0, n) * scale,
            sin_coeffs=rng.uniform(-1.0, 1.0, n) * scale,
        )
        lower, size = self.curvature_bound(spec0, t)
        spec = _Modes(spec0).spectrum(t, spec0.mean)
        fine = oracles.rho_series(spec.mean, spec.cos_coeffs, spec.sin_coeffs, oracles.grid(1 << 14))
        # Rounding of either sum stays below 1e-14 of the size here; the
        # pre-scan's skip rule leaves 2e-10 of it.
        assert lower <= float(np.min(fine)) + 1e-14 * size
        assert lower <= radius_extrema(spec)[0] + 1e-14 * size

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.sampled_from([2, 16, 64]),
        offset=st.floats(min_value=0.01, max_value=0.99),
        t=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_curvature_bound_is_exact_on_the_pinch_family(self, seed, n, offset, t):
        # u = m + a1 cos + b1 sin + a cos 2(theta - phi) has rho_min =
        # m - 3|a| e^{-3t}, at theta = phi, between nodes of the 2^14-point grid.
        from curveflow import radius_extrema
        from curveflow.heat import _Modes

        rng = np.random.default_rng(seed)
        m, ratio, a1, b1 = rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.3), *rng.uniform(-1.0, 1.0, 2)
        phi = (int(rng.integers(0, 1 << 13)) + offset) * TWO_PI / (1 << 14)
        cos, sin = np.zeros(n), np.zeros(n)
        cos[0], sin[0] = a1, b1
        cos[1], sin[1] = ratio * m * np.cos(2.0 * phi), ratio * m * np.sin(2.0 * phi)
        spec0 = SupportSpectrum(mean=m, cos_coeffs=cos, sin_coeffs=sin)
        lower, size = self.curvature_bound(spec0, t)
        assert abs(lower - (m - 3.0 * ratio * m * np.exp(-3.0 * t))) <= 1e-14 * size
        spec = _Modes(spec0).spectrum(t, m)
        fine = oracles.rho_series(spec.mean, spec.cos_coeffs, spec.sin_coeffs, oracles.grid(1 << 14))
        assert lower <= float(np.min(fine)) + 1e-14 * size
        assert lower <= radius_extrema(spec)[0] + 1e-14 * size

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=64),
        count=st.integers(min_value=1, max_value=SCAN_CHUNK),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_scan_lies_within_a_hair_of_the_scalar_test(self, seed, n, count):
        # The premise of PRESCAN_SLACK: the block sums and the scalar test's
        # sums differ by rounding far below 1e-12 of the sizes. A threshold
        # no bound clears forces the grid product.
        from curveflow.integrate import _Problem

        rng = np.random.default_rng(seed)
        spec0 = _random_convex(rng, n)
        problem = _Problem(spec0, PanYang(), IntegratorControls(singularity_eps=1e300))
        times = np.sort(rng.uniform(0.0, 5.0, count))
        lengths = TWO_PI * spec0.mean * rng.uniform(0.5, 2.0, count)
        rho_min, rho_size, area, area_size = problem.scan(times, lengths)
        for i, (t, length) in enumerate(zip(times.tolist(), lengths.tolist())):
            assert abs(rho_min[i] - problem.modes.min_radius(t, length)) <= 1e-12 * rho_size[i]
            assert abs(area[i] - problem.modes.area(t, length)) <= 1e-12 * area_size[i]


COLUMN_TERMS = [PanYang(), LinTsai(), MaCheng(), Constant(c=-1.0), Constant(c=0.5), H_EQUALS_L, GENERAL_POWERSUM]


class TestColumns:
    """Each column against the per-state route it replaces."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=64),
        term=st.sampled_from(COLUMN_TERMS),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_match_the_states(self, seed, n, term):
        from curveflow import evaluate_h, ipd_decay_ratio, isoperimetric_deficit
        from curveflow.integrate import SCAN_BLOCK_CAP, _Problem, h_column, ipd_column, ipr_column, record_rows

        spec0 = _random_convex(np.random.default_rng(seed), n)
        traj = integrate(spec0, term, IntegratorControls(t_max=2.0, sample_interval=0.007))
        assert len(traj.t) > SCAN_BLOCK_CAP or traj.event.kind != "reached-horizon"  # spans several blocks
        rows, h_values = record_rows(traj), h_column(traj, term)
        ipd, ipr = ipd_column(traj), ipr_column(traj)
        sizes = _Problem(spec0, term, IntegratorControls(singularity_eps=CONVEXITY_EPS)).scan(traj.t, traj.L)[1]
        for i, state in enumerate(traj.states):
            assert state == flow_state(spec0, float(traj.t[i]), float(traj.L[i]))
            assert state.A == traj.A[i]
            record = state_record(state)
            for key in ("t", "L", "A", "ipd", "ipr"):
                assert rows[i][key] == record[key], key
            assert ipd[i] == isoperimetric_deficit(state.spectrum)
            assert ipr[i] == isoperimetric_ratio(state.L, state.A)
            assert h_values[i] == evaluate_h(term, state)
            if (rows[i]["k_max"] is None) != (record["k_max"] is None):
                # Only where the minimum radius sits at the convexity threshold.
                rho_min = 1.0 / (rows[i]["k_max"] or record["k_max"])
                assert abs(rho_min - CONVEXITY_EPS) <= 1e-12 * sizes[i]
            elif record["k_max"] is not None:
                for key in ("k_min", "k_max"):
                    assert abs(1.0 / rows[i][key] - 1.0 / record[key]) <= 1e-12 * sizes[i]
        # The per-state loop ipd_decay_ratio replaced, as the reference.
        states = list(traj.states)
        ipd0 = isoperimetric_deficit(states[0].spectrum)
        worst = 0.0
        for s in states if ipd0 > 0.0 else []:
            ratio = isoperimetric_deficit(s.spectrum) / (ipd0 * np.exp(-2.0 * (s.t - states[0].t)))
            worst = max(worst, float(ratio))
        assert ipd_decay_ratio(traj) == worst


class TestFuzz:
    """integrate over random convex spectra up to N = 64, flows on both
    paths and random controls: a trajectory or a stated error, columns in
    order, and on the closed path an event kind that the locator's scalar
    test confirms at the event time."""

    FLOWS = ["pan-yang", "lin-tsai", "ma-cheng", "const:-1", "const:0.5", "const:2", "powersum:1,1,0",
             "powersum:0.2,1.5,0", GENERAL_POWERSUM]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=64),
        flow=st.sampled_from(FLOWS),
        t_max=st.floats(min_value=0.05, max_value=5.0),
        sample_interval=st.floats(min_value=0.02, max_value=1.0),
        singularity_eps=st.sampled_from([1e-9, 1e-3]) | st.floats(min_value=1e-6, max_value=0.5),
        area_vanish=st.sampled_from([1e-12, 1e-3, 0.1]),
        length_vanish=st.sampled_from([1e-12, 1e-3, 0.5]),
        length_blowup=st.sampled_from([1e12, 100.0, 20.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_runs_end_in_a_trajectory_or_a_stated_error(
        self, seed, n, flow, t_max, sample_interval, singularity_eps, area_vanish, length_vanish, length_blowup
    ):
        from curveflow import parse_flow_term
        from curveflow.flows import closed_length
        from curveflow.integrate import _EVENT_PRIORITY, _crossed, _Problem

        spec0 = _random_convex(np.random.default_rng(seed), n)
        term = parse_flow_term(flow) if isinstance(flow, str) else flow
        controls = IntegratorControls(
            t_max=t_max, sample_interval=sample_interval, singularity_eps=singularity_eps,
            area_vanish=area_vanish, length_vanish=length_vanish, length_blowup=length_blowup,
        )
        try:
            traj = integrate(spec0, term, controls)
        except (ConvexityError, HDomainError):
            return
        assert isinstance(traj, Trajectory)
        event = traj.event
        assert traj.t[0] == 0.0 and np.all(np.diff(traj.t) > 0.0) and traj.t[-1] <= event.t
        assert np.all(np.isfinite(traj.L)) and np.all(np.isfinite(traj.A))
        law = closed_length(spec0, term)
        if law is not None and event.kind in _EVENT_PRIORITY:
            margins = _Problem(spec0, term, controls).margins(event.t, law(event.t))
            assert _crossed(margins)[0] == event.kind


class TestSameInstant:
    """integrate.TIME_RTOL: two times a <= b are one instant when b - a is at
    most that share of b, so sample times, step ends and t_max merge the
    same way however long or short the horizon."""

    @given(
        exponent=st.floats(min_value=-14.0, max_value=12.0),
        count=st.integers(min_value=1, max_value=1998),
        exact=st.booleans(),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_path_records_zero_to_t_max_at_any_horizon(self, exponent, count, exact, fraction):
        t_max = 10.0**exponent
        if exact:
            sample_interval = t_max / count
            t_max = count * sample_interval  # a multiple of the interval, in floats
        else:
            sample_interval = t_max / (count + fraction)
        traj = integrate(CIRCLE, PanYang(), IntegratorControls(t_max=t_max, sample_interval=sample_interval))
        assert traj.t[0] == 0.0 and traj.t[-1] == t_max == traj.event.t
        assert np.all(np.diff(traj.t) > 0.0) and len(traj.t) <= 2000
        assert np.all(traj.L == TWO_PI)

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_a_step_end_within_ulps_of_a_sample_time_is_that_sample(self, ulps):
        # Near t = 2e4 an ulp of t is 3.6e-12; the last step ends on t_max,
        # itself a sample time.
        from curveflow.integrate import _Problem, _record

        controls = IntegratorControls(t_max=20000.0, sample_interval=2500.0)
        problem = _Problem(CIRCLE, PanYang(), controls)
        near = 17500.0 + ulps * float(np.spacing(17500.0))
        steps = [(0.0, 0.0), (0.0, near), (near, controls.t_max)]
        traj = _record(problem, iter([(t0, t1, lambda t: TWO_PI + 0.0 * t) for t0, t1 in steps]))
        assert traj.t.tolist() == [2500.0 * k for k in range(7)] + [near, 20000.0]
        assert traj.event == TerminationEvent(kind="reached-horizon", t=20000.0)

    def test_both_paths_record_zero_and_a_tiny_t_max(self):
        from curveflow.flows import closed_length
        from curveflow.integrate import _dopri_steps, _Problem, _record

        problem = _Problem(ELLIPSEISH, PanYang(), IntegratorControls(t_max=1e-14))
        for steps in (_dopri_steps(problem), iter([(0.0, 1e-14, closed_length(ELLIPSEISH, PanYang()))])):
            assert _record(problem, steps).t.tolist() == [0.0, 1e-14]
