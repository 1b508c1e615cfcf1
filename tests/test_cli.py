import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curveflow import (
    Constant,
    IntegratorControls,
    PanYang,
    PowerSum,
    curve_position,
    integrate,
    theta_grid,
)
from curveflow.cli import (
    ConfigError,
    InitialCurve,
    check,
    load_initial,
    main,
    parse_config,
    run,
    sweep,
)
from curveflow.support import MAX_TRUNCATION

MINIMAL = "flow = pan-yang\nmean = 1.0\ncos = 0.0, 0.2\n"


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.flow == PanYang()
        assert cfg.initial.kind == "coeffs"
        assert cfg.initial.mean == 1.0
        assert cfg.initial.cos == (0.0, 0.2)
        assert cfg.controls == IntegratorControls()
        assert cfg.frame_count == 16
        assert cfg.outputs.timeseries == "timeseries.csv"
        assert cfg.outputs.svg is None
        # An unset truncation stays unset, so cos/sin may hold more than 64 values.
        cfg = parse_config("flow = pan-yang\nmean = 1.0\ncos = " + ", ".join(["0.0"] * 70) + "\n")
        assert cfg.initial.truncation is None
        assert len(cfg.initial.cos) == 70

    def test_bracketed_lists(self):
        cfg = parse_config("flow = pan-yang\nmean = 1\ncos = [0, 0.2]\nsin = []\n")
        assert cfg.initial.cos == (0.0, 0.2)
        assert cfg.initial.sin == ()

    def test_powersum_flow(self):
        cfg = parse_config("flow = powersum:1,1,0\nmean = 1.0\n")
        assert cfg.flow == PowerSum(terms=((1.0, 1.0, 0.0),))

    def test_const_flow_and_overrides(self):
        text = (
            "flow = const:-1\nmean = 1\ncos = 0, 0.2\n"
            "t_max = 5\nrel_tol = 1e-10\nsample_interval = 0.1\nframe_count = 4\n"
            "svg = anim\n"
        )
        cfg = parse_config(text)
        assert cfg.flow == Constant(c=-1.0)
        assert cfg.controls.t_max == 5.0
        assert cfg.controls.rel_tol == 1e-10
        assert cfg.controls.sample_interval == 0.1
        assert cfg.frame_count == 4
        assert cfg.outputs.svg == "anim"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nflow = pan-yang # trailing\nmean = 1.0\n")
        assert cfg.flow == PanYang()

    def test_unknown_flow_named(self):
        with pytest.raises(ConfigError, match="banana"):
            parse_config("flow = banana\nmean = 1.0\n")

    def test_missing_flow(self):
        with pytest.raises(ConfigError, match="flow"):
            parse_config("mean = 1.0\n")

    def test_missing_initial(self):
        with pytest.raises(ConfigError, match="initial source"):
            parse_config("flow = pan-yang\n")

    def test_two_initial_sources(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("flow = pan-yang\nmean = 1.0\nsamples_file = x.csv\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*sausage"):
            parse_config("flow = pan-yang\nsausage = 7\nmean = 1\n")

    def test_bad_number_names_field_and_line(self):
        with pytest.raises(ConfigError, match="line 3.*'t_max'"):
            parse_config("flow = pan-yang\nmean = 1\nt_max = soon\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("flow = pan-yang\nflow = lin-tsai\nmean = 1\n")

    def test_frame_count_minimum(self):
        with pytest.raises(ConfigError, match="frame_count"):
            parse_config(MINIMAL + "frame_count = 1\n")

    def test_bad_controls_rejected(self):
        with pytest.raises(ConfigError, match="controls"):
            parse_config(MINIMAL + "rel_tol = -1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("flow pan-yang\n")

    def test_cos_requires_inline_mean(self):
        with pytest.raises(ConfigError, match="inline"):
            parse_config("flow = pan-yang\nsamples_file = x.csv\ncos = 0, 1\n")


class TestLoadInitial:
    def test_coeffs_inline(self):
        spec = load_initial(InitialCurve(kind="coeffs", mean=1.0, cos=(0.0, 0.2)), Path("."))
        assert spec.mean == 1.0
        assert spec.cos_coeffs[1] == 0.2

    def test_coeffs_file(self, tmp_path):
        f = tmp_path / "coeffs.csv"
        f.write_text("n,a,b\n0,1.0,0\n2,0.2,0.0\n")
        spec = load_initial(InitialCurve(kind="coeffs-file", path="coeffs.csv"), tmp_path)
        assert spec.mean == 1.0
        assert spec.cos_coeffs[1] == 0.2
        assert spec.truncation == 2

    def test_samples_file(self, tmp_path):
        th = theta_grid(256)
        values = 1.0 + 0.2 * np.cos(2 * th)
        f = tmp_path / "samples.csv"
        f.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        spec = load_initial(
            InitialCurve(kind="samples-file", path="samples.csv", truncation=8), tmp_path
        )
        assert spec.mean == pytest.approx(1.0, abs=1e-12)
        assert spec.cos_coeffs[1] == pytest.approx(0.2, abs=1e-12)

    def test_polygon_file(self, tmp_path):
        verts = [(np.cos(np.pi * k / 3), np.sin(np.pi * k / 3)) for k in range(6)]
        f = tmp_path / "poly.csv"
        f.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in verts) + "\n")
        spec = load_initial(
            InitialCurve(kind="polygon-file", path="poly.csv", truncation=16), tmp_path
        )
        assert spec.mean == pytest.approx(3.0 / np.pi, abs=1e-5)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_converging_run_artifacts(self, tmp_path, capsys):
        cfg = parse_config(
            "flow = pan-yang\nmean = 1\ncos = 0.3, 0.2\nt_max = 3\nsvg = anim\nframe_count = 6\n"
        )
        out = tmp_path / "out"
        assert run(cfg, tmp_path, out) == 0
        verdict = capsys.readouterr().out
        assert "ConvergesToCircle" in verdict
        assert "center=(0.3, 0)" in verdict

        ts = (out / "timeseries.csv").read_text().splitlines()
        assert ts[0] == "t,L,A,ipd,ipr,k_min,k_max,H"
        assert len(ts) == 62  # 61 samples on [0, 3] + header
        assert float(ts[1].split(",")[7]) == pytest.approx(1.0)  # pan-yang H

        frames = (out / "frames.jsonl").read_text().splitlines()
        assert len(frames) == 7  # 6 frames + trailing summary
        first = json.loads(frames[0])
        assert set(first) >= {"t", "L", "A", "ipd", "ipr", "k_min", "k_max", "theta", "x", "y"}
        assert len(first["x"]) == len(first["theta"]) == 256
        summary = json.loads(frames[-1])
        assert summary["outcome"]["kind"] == "converges-to-circle"
        assert summary["outcome"]["center"] == [0.3, 0.0]

        svgs = sorted((out / "anim").glob("frame_*.svg"))
        assert [p.name for p in svgs] == [f"frame_{i:05d}.svg" for i in range(6)]
        assert "<svg" in svgs[0].read_text()

        reports = (out / "reports.csv").read_text().splitlines()
        assert reports[0] == "name,lhs,rhs,slack,satisfied"
        assert all(line.endswith(",true") for line in reports[1:])

    def test_a_circle_at_an_unstable_fixed_point_converges(self, tmp_path, capsys):
        # H = 1 on the unit circle: L' = L - 2 pi holds L at 2 pi, where the
        # law's sum is the one term 1.0 e^{0 t}.
        cfg = parse_config("flow = const:1\nmean = 1\n")
        assert run(cfg, tmp_path, tmp_path / "out") == 0
        assert capsys.readouterr().out == "verdict: ConvergesToCircle center=(0, 0) limit_L=6.28319\n"

    def test_singularity_run_verdict(self, tmp_path, capsys):
        cfg = parse_config("flow = powersum:1,1,0\nmean = 1\ncos = 0, 0.2\nt_max = 5\n")
        assert run(cfg, tmp_path, tmp_path / "out") == 0
        verdict = capsys.readouterr().out
        assert "CurvatureSingularity" in verdict
        assert "t*=0.2237" in verdict

    def test_length_growing_past_the_float_range_ends_as_a_domain_exit(self, tmp_path, capsys):
        # const:-1: L grows like e^t and reaches MAX_LENGTH ~ 6.7e153 at t = 351.667,
        # long before length_blowup; every reported value stays finite.
        text = (
            "flow = const:-1\nmean = 1\ncos = 0.0, 0.1\n"
            "t_max = 400\nlength_blowup = 1e300\nsample_interval = 0.5\n"
        )
        cfg_path = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == "verdict: Undetermined (H left its domain near t=351.667)\n"
        rows = list(csv.reader(io.StringIO((tmp_path / "out" / "timeseries.csv").read_text())))
        assert len(rows) > 700 and np.all(np.isfinite(np.array(rows[1:], dtype=float)))
        argv = ["sweep", "--config", str(cfg_path), "--axis", "scale:1", "--out", str(tmp_path / "sweep")]
        assert main(argv) == 0
        header, row = csv.reader(io.StringIO((tmp_path / "sweep" / "sweep.csv").read_text()))
        assert row[header.index("event")] == "h-domain-exit" and row[header.index("error")] == ""

    def test_a_horizon_where_an_ulp_exceeds_1e_12_runs_to_t_max(self, tmp_path):
        # Past t = 16384, t_max - 1e-12 == t_max: t_max, a multiple of the
        # interval, must still be recorded once.
        text = "flow = pan-yang\nmean = 1\ncos = 0, 0.1\nt_max = 30000\nsample_interval = 10\n"
        cfg_path = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "out" / "timeseries.csv").read_text())))
        assert len(rows) == 1 + 3001 and rows[-1][0] == "30000.0"
        argv = ["sweep", "--config", str(cfg_path), "--axis", "scale:1", "--out", str(tmp_path / "sweep")]
        assert main(argv) == 0
        header, row = csv.reader(io.StringIO((tmp_path / "sweep" / "sweep.csv").read_text()))
        assert row[header.index("error")] == "" and row[header.index("final_t")] == "30000.0"

    def test_nonconvex_polygon_rejected(self, tmp_path, capsys):
        (tmp_path / "square.csv").write_text("-1,-1\n1,-1\n1,1\n-1,1\n")
        cfg = parse_config("flow = pan-yang\npolygon_file = square.csv\ntruncation = 16\n")
        assert run(cfg, tmp_path, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "fails convexity validation" in err

    def test_deterministic_outputs(self, tmp_path):
        cfg = parse_config("flow = lin-tsai\nmean = 1\ncos = 0, 0.2\nt_max = 2\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(cfg, tmp_path, a) == 0
        assert run(cfg, tmp_path, b) == 0
        for name in ("timeseries.csv", "frames.jsonl", "reports.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCheck:
    def test_check_passes_and_prints(self, tmp_path, capsys):
        cfg = parse_config(MINIMAL)
        assert check(cfg, tmp_path, tmp_path / "out") == 0
        out = capsys.readouterr().out
        assert "go1," in out and "gage," in out
        assert "go2_equality_case: true" in out
        reports = (tmp_path / "out" / "reports.csv").read_text()
        assert reports.count("true") == 4

    def test_check_rejects_nonconvex(self, tmp_path, capsys):
        cfg = parse_config("flow = pan-yang\nmean = 1\ncos = 0, 0.5\n")
        assert check(cfg, tmp_path) == 2
        assert "convexity" in capsys.readouterr().err


class TestSweep:
    def test_flow_axis(self, tmp_path, capsys):
        cfg = parse_config(MINIMAL + "t_max = 2\n")
        code = sweep(cfg, "flows:pan-yang;lin-tsai;ma-cheng", tmp_path, tmp_path / "out")
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("axis,outcome,event")
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "converges-to-circle"
            assert cells[9] == "true"  # monotone isoperimetric ratio
            assert cells[10] == ""  # no error

    def test_scale_axis_singularity_times_decrease(self, tmp_path):
        cfg = parse_config("flow = powersum:1,1,0\nmean = 1\ncos = 0, 0.2\nt_max = 5\n")
        assert sweep(cfg, "scale:0.5,1.0,1.5", tmp_path, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        times = [float(line.split(",")[3]) for line in lines]
        assert all(line.split(",")[2] == "singularity" for line in lines)
        assert times[0] > times[1] > times[2]

    def test_failed_row_recorded_and_sweep_continues(self, tmp_path):
        cfg = parse_config(MINIMAL + "t_max = 1\n")
        assert sweep(cfg, "scale:1.0,3.0", tmp_path, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        ok, bad = lines
        assert ok.split(",")[10] == ""
        assert "convexity" in bad.split(",")[10]

    def test_labels_with_commas_are_quoted(self, tmp_path, capsys):
        cfg = parse_config(MINIMAL + "t_max = 1\n")
        assert sweep(cfg, "flows:pan-yang;powersum:1,1,0", tmp_path, tmp_path / "out") == 0
        text = (tmp_path / "out" / "sweep.csv").read_text()
        assert capsys.readouterr().out == text
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [11, 11, 11]
        assert [row[0] for row in rows] == ["axis", "pan-yang", "powersum:1.0,1.0,0.0"]
        assert text.splitlines()[1].startswith("pan-yang,")  # no quotes where none are needed
        assert text.splitlines()[2].startswith('"powersum:1.0,1.0,0.0",')
        assert rows[2][2] == "singularity"

    def test_error_with_commas_written_as_is(self, tmp_path, capsys):
        cfg = parse_config(MINIMAL + "t_max = 1\n")
        assert sweep(cfg, "flows:pan-yang;powersum:1e308,1,1", tmp_path, tmp_path / "out") == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "out" / "sweep.csv").read_text())))
        assert [len(row) for row in rows] == [11, 11, 11]
        assert rows[1][10] == ""
        assert rows[2][10] == "H overflow at L=6.283e+00, A=2.953e+00"

    # A pinching ellipse converges under most flows and pinches under H = L;
    # powersum:0.3,0.5,0.25 has no closed law and runs its own DOPRI5 steps.
    SHARED_FLOWS = "pan-yang;lin-tsai;ma-cheng;const:-1;powersum:1,1,0;powersum:2,-1,1;powersum:0.3,0.5,0.25"

    @pytest.mark.parametrize(
        "curve", ["mean = 1\ncos = 0.1, 0.2\nsin = 0, 0.05\n", "mean = 1\ncos = 0, 0.5\n"],
        ids=["convex", "non-convex"],
    )
    def test_flows_axis_writes_the_rows_of_one_flow_sweeps(self, tmp_path, capsys, curve):
        # The flows share one heat half; each row is the bytes of the same
        # flow swept alone, which integrates it on a heat half of its own.
        cfg = parse_config("flow = pan-yang\n" + curve + "t_max = 3\n")
        assert sweep(cfg, "flows:" + self.SHARED_FLOWS, tmp_path, tmp_path / "all") == 0
        want = []
        for i, term in enumerate(self.SHARED_FLOWS.split(";")):
            assert sweep(cfg, "flows:" + term, tmp_path, tmp_path / f"one{i}") == 0
            header, row = (tmp_path / f"one{i}" / "sweep.csv").read_text().splitlines()
            want += [header] * (i == 0) + [row]
        text = (tmp_path / "all" / "sweep.csv").read_text()
        assert text == "\n".join(want) + "\n"
        errors = [row[10] for row in list(csv.reader(io.StringIO(text)))[1:]]
        if curve.endswith("0.5\n"):
            assert errors == ["curve fails convexity validation: min radius of curvature -5.000e-01"] * 7
        else:
            assert errors == [""] * 7 and ",singularity," in text  # H = L pinches

    def test_a_failing_row_among_closed_laws_keeps_its_error_to_itself(self, tmp_path, capsys):
        # powersum:1e308,1,1 overflows H at t = 0. The closed laws either side
        # of it scan their blocks together; each row is the bytes of its flow
        # swept alone.
        cfg = parse_config("flow = pan-yang\nmean = 1\ncos = 0.1, 0.2\nsin = 0, 0.05\nt_max = 20\n")
        flows = ["pan-yang", "powersum:1,1,0", "powersum:1e308,1,1", "lin-tsai", "const:-1"]
        assert sweep(cfg, "flows:" + ";".join(flows), tmp_path, tmp_path / "all") == 0
        want = []
        for i, term in enumerate(flows):
            assert sweep(cfg, "flows:" + term, tmp_path, tmp_path / f"one{i}") == 0
            header, row = (tmp_path / f"one{i}" / "sweep.csv").read_text().splitlines()
            want += [header] * (i == 0) + [row]
        text = (tmp_path / "all" / "sweep.csv").read_text()
        assert text == "\n".join(want) + "\n"
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert [row[10].startswith("H overflow at L=") for row in rows] == [False, False, True, False, False]
        assert [row[10] for row in rows if not row[10].startswith("H overflow")] == [""] * 4
        assert [row[2] for row in rows] == ["reached-horizon", "singularity", "", "reached-horizon", "reached-horizon"]

    def test_heat_halves_per_axis_and_no_work_kept_between_commands(self, tmp_path, capsys, monkeypatch):
        # One convexity gate per flows axis and one per scale value; the same
        # command run twice does the same spectral work both times, so no heat
        # half outlives its command.
        import importlib

        from curveflow.heat import _Modes

        module = importlib.import_module("curveflow.integrate")
        counts = {"gates": 0, "factors": 0}
        gate, factors = module.require_convex, _Modes.factors

        def counted_gate(spec):
            counts["gates"] += 1
            return gate(spec)

        def counted_factors(modes, t):
            counts["factors"] += 1
            return factors(modes, t)

        monkeypatch.setattr(module, "require_convex", counted_gate)
        monkeypatch.setattr(_Modes, "factors", counted_factors)
        cfg = parse_config("flow = powersum:1,1,0\nmean = 1\ncos = 0.1, 0.2\nsin = 0, 0.05\nt_max = 3\n")
        work = []
        for axis in ["flows:" + self.SHARED_FLOWS] * 2 + ["scale:0.5,1.0,1.5"]:
            counts.update(gates=0, factors=0)
            assert sweep(cfg, axis, tmp_path, tmp_path / "out") == 0
            work.append(dict(counts))
        assert work[0] == work[1] and work[0]["factors"] > 0
        assert [w["gates"] for w in work] == [1, 1, 3]

    def test_horizon_rows_of_a_flows_axis_build_the_grid_columns_once(self, tmp_path, capsys, monkeypatch):
        # Five closed laws that reach the horizon record the heat half's grid:
        # E(t) (the area's term) and the deficit on it are computed once, by
        # the first row, and read by the other four. The scalar tests of the
        # event locator take E at one time each; they are not counted.
        from curveflow.heat import _Modes

        calls = {"e_value": 0, "deficit": 0}
        for name in calls:
            method = getattr(_Modes, name)

            def counted(modes, t, *args, _name=name, _method=method):
                calls[_name] += np.ndim(t) > 0
                return _method(modes, t, *args)

            monkeypatch.setattr(_Modes, name, counted)
        cfg = parse_config("flow = pan-yang\nmean = 1\ncos = 0.1, 0.2\nsin = 0, 0.05\nt_max = 3\n")
        axis = "flows:pan-yang;lin-tsai;ma-cheng;const:-1;powersum:0.1,1,0"
        assert sweep(cfg, axis, tmp_path, tmp_path / "out") == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "out" / "sweep.csv").read_text())))[1:]
        assert [row[2] for row in rows] == ["reached-horizon"] * 5
        assert calls == {"e_value": 1, "deficit": 1}

    def test_scale_rows_take_no_subnormal_coefficient_to_the_grid(self, tmp_path, capsys, monkeypatch):
        # A smooth N = 32 curve: mode 32's factor e^{-1023 t} is subnormal for
        # t in [0.69, 0.73]. The sweep's rows take the grid one time at a
        # time; the same curve through run takes it in the block products of
        # its k columns, which span those times.
        from curveflow import support

        rng, n = np.random.default_rng(3), np.arange(1, 33)
        cos, sin = (", ".join(repr(x) for x in (rng.uniform(-1.0, 1.0, 32) / n**3.5).tolist()) for _ in range(2))
        cfg = parse_config(f"flow = pan-yang\nmean = 1\ncos = {cos}\nsin = {sin}\nt_max = 5\n")
        grid_deviation, blocks, tiny = support._grid_deviation, [], []

        def checked(cos_coeffs, sin_coeffs):
            blocks.append(cos_coeffs.ndim == 2)
            for coeffs in (cos_coeffs, sin_coeffs):
                tiny.extend(coeffs[(coeffs != 0.0) & (np.abs(coeffs) < np.finfo(float).tiny)].tolist())
            return grid_deviation(cos_coeffs, sin_coeffs)

        monkeypatch.setattr(support, "_grid_deviation", checked)
        assert sweep(cfg, "scale:0.5,1.0,1.5", tmp_path, tmp_path / "out") == 0
        assert blocks and tiny == []
        del blocks[:]
        assert run(cfg, tmp_path, tmp_path / "run") == 0
        assert any(blocks) and tiny == []

    def test_empty_axis_rejected(self, tmp_path, capsys):
        cfg = parse_config(MINIMAL)
        assert sweep(cfg, "flows:", tmp_path) == 2
        assert sweep(cfg, "scale:", tmp_path) == 2

    def test_unknown_axis_kind(self, tmp_path):
        cfg = parse_config(MINIMAL)
        assert sweep(cfg, "volume:1,2", tmp_path) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_scale_rejected(self, tmp_path, capsys, value):
        cfg_path = write_config(tmp_path, MINIMAL)
        argv = ["sweep", "--config", str(cfg_path), "--axis", f"scale:1.0,{value}"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"scale value '{value}'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_scale_that_is_not_a_number_rejected(self, tmp_path, capsys, value):
        cfg_path = write_config(tmp_path, MINIMAL)
        argv = ["sweep", "--config", str(cfg_path), "--axis", f"scale:1.0,{value},2"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: scale value '{value}' is not a number\n"
        assert not (tmp_path / "o").exists()

    def test_scale_overflowing_a_coefficient_rejected(self, tmp_path, capsys):
        cfg = parse_config("flow = pan-yang\nmean = 100\ncos = 0, 2\n")
        assert sweep(cfg, "scale:1.0,1e308", tmp_path, tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: cos_coeffs contains non-finite entries\n"
        assert not (tmp_path / "o").exists()


# Each failure: the bytes of run.cfg (None: no such file), whether --out is a
# regular file, and text of the one stderr line. sweep records an unusable
# curve as an error row, so the non-convex curve exits 2 in run and check only.
# A unit square sits beside run.cfg as poly.csv.
EXIT_TWO_CASES = {
    "missing-config": (None, False, "No such file"),
    "config-not-utf8": (b"\xff\xfe", False, "config error: "),
    "unknown-key": (MINIMAL.encode() + b"colour = red\n", False, "config error: line 4: unknown key"),
    "bad-powersum-number": (
        b"flow = powersum:1,x,0\nmean = 1\n",
        False,
        "config error: line 1: bad number in powersum term '1,x,0'",
    ),
    "missing-coeffs-file": (b"flow = pan-yang\ncoeffs_file = nope.csv\n", False, "No such file"),
    "nonconvex-curve": (
        b"flow = pan-yang\nmean = 1\ncos = 0, 0.5\n",
        False,
        "error: curve fails convexity validation: min radius of curvature -5.000e-01",
    ),
    "out-blocked-by-file": (MINIMAL.encode() + b"t_max = 0.5\n", True, "File exists"),
    "length-above-max-length": (
        b"flow = pan-yang\nmean = 3e153\ncos = 0.0, 1e152\nt_max = 1\n",
        False,
        "error: mean must be finite, with length 2 pi |mean| at most 6.704e+153",
    ),
    "polygon-truncation-over-511": (
        b"flow = pan-yang\npolygon_file = poly.csv\ntruncation = 512\n",
        False,
        "error: truncation of a polygon source must be at most 511, got 512",
    ),
}


@pytest.mark.parametrize(
    "command, case",
    [
        (command, case)
        for case in EXIT_TWO_CASES
        for command in ("run", "check", "sweep")
        if (command, case) != ("sweep", "nonconvex-curve")
    ],
)
def test_bad_input_exits_two_with_one_stderr_line(tmp_path, capsys, command, case):
    text, blocked, message = EXIT_TWO_CASES[case]
    cfg_path = tmp_path / "run.cfg"
    if text is not None:
        cfg_path.write_bytes(text)
    (tmp_path / "poly.csv").write_text("0,0\n1,0\n1,1\n0,1\n")
    out = tmp_path / "o"
    if blocked:
        out.write_text("a file, not a directory\n")
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "flows:pan-yang"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert message in captured.err and "Traceback" not in captured.err


class TestMain:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINIMAL + "t_max = 1\n")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "timeseries.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_error_reported(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "flow = banana\nmean = 1\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "banana" in capsys.readouterr().err

    def test_check_subcommand(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINIMAL)
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    def test_sweep_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL + "t_max = 1\n")
        code = main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--axis",
                "flows:pan-yang;const:-1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        assert len((tmp_path / "o" / "sweep.csv").read_text().splitlines()) == 3

    def test_relative_input_resolved_against_config_dir(self, tmp_path, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        th = theta_grid(256)
        (sub / "samples.csv").write_text(
            "\n".join(repr(float(v)) for v in 1.0 + 0.1 * np.cos(2 * th)) + "\n"
        )
        cfg_path = write_config(
            sub, "flow = pan-yang\nsamples_file = samples.csv\ntruncation = 8\nt_max = 1\n"
        )
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


class TestParser:
    def test_built_on_the_first_call_only(self, tmp_path, monkeypatch):
        import argparse

        from curveflow import cli

        built, init = [], argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = ["check", "--config", str(write_config(tmp_path, MINIMAL)), "--out", str(tmp_path / "o")]
        cli._parser.cache_clear()
        try:
            assert main(argv) == 0
            first = len(built)
            assert main(argv) == 0
        finally:
            cli._parser.cache_clear()
        # One parser and one per subcommand, all during the first call.
        assert first == 4 and len(built) == first

    def test_help_names_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert "{run,sweep,check}" in usage

    @pytest.mark.parametrize("argv", [[], ["run"]])
    def test_missing_arguments_exit_two(self, argv):
        for _ in range(2):  # the same parser, twice
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 2


GALLERY = "mean = 1.0\ncos = 0.1, 0.2\nsin = 0.0, 0.05\n"


class TestRejectedControls:
    """Each bad control exits 2 with a message naming the field."""

    @pytest.mark.parametrize(
        "line, field",
        [
            ("t_max = inf", "t_max"),
            ("length_blowup = 1e-30", "length_blowup"),
            ("sample_interval = 1e-300", "sample_interval"),
            ("truncation = 2.7", "truncation"),
            (f"truncation = {MAX_TRUNCATION + 1}", "truncation"),
            ("frame_count = 2.7", "frame_count"),
            ("frame_count = 1e7", "frame_count"),
        ],
    )
    def test_exit_two_names_field(self, tmp_path, capsys, line, field):
        cfg_path = write_config(tmp_path, MINIMAL + line + "\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_mode_index_or_coefficient_count(self, tmp_path, capsys):
        zeros = ", ".join(["0"] * (MAX_TRUNCATION + 1))
        cases = [
            ("coeffs_file", "flow = pan-yang\ncoeffs_file = coeffs.csv\n", f"{MAX_TRUNCATION + 1}"),
            ("coeffs_file", "flow = pan-yang\ncoeffs_file = coeffs.csv\n", "inf"),
            ("coeffs_file", "flow = pan-yang\ncoeffs_file = coeffs.csv\n", "2.7"),
            ("cos", f"flow = pan-yang\nmean = 1.0\ncos = {zeros}\n", None),
            ("sin", f"flow = pan-yang\nmean = 1.0\nsin = {zeros}\n", None),
        ]
        for field, text, mode in cases:
            (tmp_path / "coeffs.csv").write_text(f"0,1.0,0\n{mode},0,0\n")
            cfg_path = write_config(tmp_path, text)
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
            assert field in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_constant_names_flow_line(self, tmp_path, capsys, value):
        with pytest.raises(ConfigError, match=f"line 2: bad constant in flow term 'const:{value}'"):
            parse_config(f"mean = 1.0\nflow = const:{value}\n")
        cfg_path = write_config(tmp_path, f"flow = const:{value}\nmean = 1.0\ncos = 0.0, 0.2\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: line 1: bad constant in flow term 'const:{value}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("n,a,b\n0,1.0,0\n2,0.2,0.0\n2,0.05,0.0\n", "coeffs_file line 4: mode index 2 repeats line 3"),
            ("n,a,b\n", "coeffs_file: no coefficient rows n,a_n,b_n after line 1"),
            ("", "coeffs_file: no coefficient rows n,a_n,b_n after line 1"),
            ("n,a,b\n\n  # no rows\n", "coeffs_file: no coefficient rows n,a_n,b_n after line 1"),
            ("n,a,b\n0,1.0,0\n2,x,0\n", "coeffs_file line 3: expected numbers, got '2,x,0'"),
            ("n,a,b\n0,1.0,0\n2,0.2\n", "coeffs_file line 3: expected 3 columns"),
        ],
    )
    def test_repeated_mode_or_no_coeffs_rows(self, tmp_path, capsys, rows, message):
        (tmp_path / "coeffs.csv").write_text(rows)
        cfg_path = write_config(tmp_path, "flow = pan-yang\ncoeffs_file = coeffs.csv\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_nonzero_b_at_mode_zero_rejected(self, tmp_path, capsys):
        (tmp_path / "coeffs.csv").write_text("0,1.0,0.5\n2,0.1,0\n")
        cfg_path = write_config(tmp_path, "flow = pan-yang\ncoeffs_file = coeffs.csv\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: coeffs_file line 1: row 0 carries the mean, so its b must be 0, got 0.5\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "source, message",
        [
            ("mean = 1.0\ncos = 0.0, 0.2, 0.01\n", "line 2: truncation = 2 is below the 3 modes of cos/sin"),
            ("mean = 1.0\nsin = 0.0, 0.2, 0.01\n", "line 2: truncation = 2 is below the 3 modes of cos/sin"),
            ("coeffs_file = coeffs.csv\n", "coeffs_file line 3: mode index 3 exceeds truncation = 2"),
        ],
    )
    def test_truncation_below_the_source_modes_rejected(self, tmp_path, capsys, source, message):
        (tmp_path / "coeffs.csv").write_text("n,a,b\n0,1.0,0\n3,0.01,0\n")
        cfg_path = write_config(tmp_path, "flow = pan-yang\ntruncation = 2\n" + source)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("truncation", ["", "truncation = 3\n", "truncation = 64\n"])
    def test_truncation_at_or_above_the_source_modes_changes_nothing(self, tmp_path, truncation):
        (tmp_path / "coeffs.csv").write_text("n,a,b\n0,1.0,0\n3,0.01,0\n")
        for source in ("mean = 1.0\ncos = 0.0, 0.0, 0.01\n", "coeffs_file = coeffs.csv\n"):
            cfg = parse_config("flow = pan-yang\n" + truncation + source)
            spec = load_initial(cfg.initial, tmp_path)
            assert spec.mean == 1.0
            assert spec.cos_coeffs.tolist() == [0.0, 0.0, 0.01]
            assert spec.sin_coeffs.tolist() == [0.0, 0.0, 0.0]

    def test_integral_float_accepted(self):
        assert parse_config(MINIMAL + "frame_count = 4.0\n").frame_count == 4


class TestRunErrors:
    def test_powersum_overflow_reported(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "flow = powersum:-1,400,0\n" + GALLERY)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err
        assert "Traceback" not in err


FUZZ_FLOWS = [
    "pan-yang", "lin-tsai", "ma-cheng", "const:-1", "const:0.5",
    "powersum:0.2,1.5,0", "powersum:1000,-3,0", "powersum:0.3,0.5,0.25;2,-1,1",
]


def _coefficients(n: int):
    # Mode k gets at most 0.3 / k^2, so many curves are convex and some are not.
    return st.tuples(*(st.floats(min_value=-0.3, max_value=0.3).map(lambda v, k=k: v / k**2) for k in range(1, n + 1)))


class TestFuzz:
    """run and a scale: sweep through main over random inline spectra,
    flows and controls: an exit status, never a traceback, and CSVs that
    read back."""

    @given(
        spectrum=st.integers(min_value=2, max_value=8).flatmap(lambda n: st.tuples(_coefficients(n), _coefficients(n))),
        mean=st.floats(min_value=0.5, max_value=2.0),
        flow=st.sampled_from(FUZZ_FLOWS),
        t_max=st.floats(min_value=0.05, max_value=5.0),
        sample_interval=st.floats(min_value=0.02, max_value=1.0),
        singularity_eps=st.sampled_from([1e-9, 1e-3]) | st.floats(min_value=1e-6, max_value=0.5),
        area_vanish=st.sampled_from([1e-12, 1e-3, 0.1]),
        length_vanish=st.sampled_from([1e-12, 1e-3, 0.5]),
        length_blowup=st.sampled_from([1e12, 100.0, 20.0]),
        scales=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_and_sweep_exit_cleanly_with_readable_csvs(
        self, spectrum, mean, flow, t_max, sample_interval, singularity_eps,
        area_vanish, length_vanish, length_blowup, scales,
    ):
        cos, sin = spectrum
        text = (
            f"flow = {flow}\nmean = {mean!r}\n"
            f"cos = {', '.join(map(repr, cos))}\nsin = {', '.join(map(repr, sin))}\n"
            f"t_max = {t_max!r}\nsample_interval = {sample_interval!r}\n"
            f"singularity_eps = {singularity_eps!r}\narea_vanish = {area_vanish!r}\n"
            f"length_vanish = {length_vanish!r}\nlength_blowup = {length_blowup!r}\nframe_count = 4\n"
        )
        axis = "scale:" + ",".join(map(repr, scales))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            cfg_path = write_config(root, text)
            codes = []
            for argv in (["run"], ["sweep", "--axis", axis]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    codes.append(main(argv + ["--config", str(cfg_path), "--out", str(root / "o")]))
                assert codes[-1] in (0, 1, 2), argv
                assert "Traceback" not in err.getvalue()
            timeseries, sweep_csv = root / "o" / "timeseries.csv", root / "o" / "sweep.csv"
            assert timeseries.exists() == (codes[0] == 0) and sweep_csv.exists() == (codes[1] == 0)
            if timeseries.exists():
                rows = list(csv.reader(timeseries.read_text().splitlines()))
                assert all(len(row) == 8 for row in rows)
                times = [float(row[0]) for row in rows[1:]]
                assert all(b > a for a, b in zip(times, times[1:]))
            if sweep_csv.exists():
                rows = list(csv.reader(io.StringIO(sweep_csv.read_text())))
                assert len(rows) == 1 + len(scales)
                assert all(len(row) == 11 for row in rows)


class TestConstMinusOneRun:
    def test_ipd_decay_row_satisfied_and_ipd_exact(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "flow = const:-1\nt_max = 10\n" + GALLERY)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        reports = (tmp_path / "o" / "reports.csv").read_text().splitlines()
        row = next(r for r in reports if r.startswith("ipd_decay_max_ratio,"))
        assert row.endswith(",true")
        n = np.array([1.0, 2.0])
        power = np.array([0.1, 0.2]) ** 2 + np.array([0.0, 0.05]) ** 2
        rows = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[1]) > 1e5
        for line in rows:
            cols = line.split(",")
            t, ipd = float(cols[0]), float(cols[3])
            exact = 2.0 * np.pi**2 * np.sum((n**2 - 1.0) * power * np.exp(2.0 * (1.0 - n**2) * t))
            assert ipd == pytest.approx(exact, rel=1e-12)


class TestFrameIndices:
    def test_same_as_unique_of_rounded_linspace(self):
        from curveflow.cli import _frame_indices

        for count in range(1, 401):
            for frame_count in range(2, 65):
                want = np.unique(np.round(np.linspace(0, count - 1, frame_count)).astype(int)).tolist()
                assert _frame_indices(count, frame_count) == want, (count, frame_count)


# A pinching run whose last record has null curvatures (the event fires below
# CONVEXITY_EPS), a circle whose points include y = 0.0 (-0.0 in the SVG), and
# an ellipse with sine modes.
WRITER_RUNS = {
    "pinch-null-curvatures": (
        "flow = powersum:1,1,0\nmean = 1\ncos = 0, 0.2\nt_max = 5\nsingularity_eps = 1e-12\n"
    ),
    "circle": "flow = pan-yang\nmean = 1\ncos = 0, 0\nt_max = 1\n",
    "ellipse": "flow = lin-tsai\n" + GALLERY + "t_max = 2\n",
}


def _svg_points(path: Path) -> str:
    (points,) = re.findall(r' points="([^"]*)"', path.read_text())
    return points


class TestWriterBytes:
    """frames.jsonl and the SVG frames against the per-frame dict and
    per-point formulas the writers are defined by."""

    def _run(self, tmp_path, name):
        from curveflow.cli import _frame_indices
        from curveflow.integrate import record_rows

        cfg = parse_config(WRITER_RUNS[name] + "svg = anim\nframe_count = 5\n")
        out = tmp_path / "out"
        assert run(cfg, tmp_path, out) == 0
        traj = integrate(load_initial(cfg.initial, tmp_path), cfg.flow, cfg.controls)
        records = record_rows(traj)
        frames = [
            (records[i], curve_position(traj.states[i].spectrum))
            for i in _frame_indices(len(records), cfg.frame_count)
        ]
        lines = (out / "frames.jsonl").read_text().splitlines()
        svgs = sorted((out / "anim").glob("frame_*.svg"))
        return traj, frames, lines, svgs

    @pytest.mark.parametrize("name", WRITER_RUNS)
    def test_lines_and_points_match_the_per_point_formulas(self, tmp_path, name):
        from curveflow.integrate import summary_record

        traj, frames, lines, svgs = self._run(tmp_path, name)
        assert len(lines) == len(frames) + 1 and len(svgs) == len(frames)
        for (record, samples), line, svg in zip(frames, lines, svgs):
            assert line == json.dumps(
                dict(
                    record,
                    theta=samples.thetas.tolist(),
                    x=samples.points[:, 0].tolist(),
                    y=samples.points[:, 1].tolist(),
                )
            )
            assert _svg_points(svg) == " ".join(f"{x:.6f},{-y:.6f}" for x, y in samples.points)
        assert lines[-1] == json.dumps(summary_record(traj))

    def test_null_curvatures_in_the_last_frame(self, tmp_path):
        _, frames, lines, _ = self._run(tmp_path, "pinch-null-curvatures")
        last = json.loads(lines[-2])
        assert frames[-1][0]["k_min"] is None and last["k_min"] is last["k_max"] is None
        assert '"k_min": null, "k_max": null, "theta": [' in lines[-2]

    def test_timeseries_fields_parse_as_floats(self, tmp_path):
        self._run(tmp_path, "pinch-null-curvatures")
        lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        header, *rows = [line.split(",") for line in lines]
        assert header == ["t", "L", "A", "ipd", "ipr", "k_min", "k_max", "H"]
        values = [[float(field) for field in row] for row in rows]
        assert all(len(row) == 8 for row in values)
        assert np.isnan(values[-1][5]) and np.isnan(values[-1][6])
        assert np.all(np.isfinite(np.array(values[:-1])))

    def test_zero_y_is_written_negated(self, tmp_path):
        _, frames, _, svgs = self._run(tmp_path, "circle")
        assert frames[0][1].points[0, 1] == 0.0
        assert _svg_points(svgs[0]).startswith("1.000000,-0.000000 ")

    def test_svg_points_of_rounding_edge_values(self, tmp_path):
        from curveflow.cli import _write_svg_frames
        from curveflow.support import CurveSamples

        values = [0.0, -0.0, 5e-7, -5e-7, 4e-7, -4e-7, 1.0000005, 123456.789, -2.5e-12]
        points = np.array([(v, w) for v in values for w in values])
        _write_svg_frames(tmp_path, [CurveSamples(thetas=np.zeros(len(points)), points=points)])
        want = " ".join(f"{x:.6f},{-y:.6f}" for x, y in points)
        assert _svg_points(tmp_path / "frame_00000.svg") == want
        assert "-0.000000,-0.000000" in want and "0.000000,0.000000" in want
