"""Configuration ingestion, run orchestration and artifact emission.

Config files are flat ``key = value`` text; ``#`` starts a comment.
Exactly one initial-curve source must be given:

    mean = 1.0            inline coefficient record (with cos = .., sin = ..)
    coeffs_file = f.csv   rows n,a_n,b_n (row n = 0 carries the mean, b_0 = 0)
    samples_file = f.csv  one support value per line on a uniform grid
    polygon_file = f.csv  rows x,y of convex counterclockwise vertices

plus ``flow = pan-yang | lin-tsai | ma-cheng | const:<c> |
powersum:<c,p,q>[;<c,p,q>...]``, optional integrator-control overrides
(rel_tol, abs_tol, t_max, length_blowup, length_vanish, area_vanish,
singularity_eps, sample_interval), output paths (timeseries, frames,
reports, svg), frame_count and truncation: the projection truncation of
a samples or polygon file (default 64), and for cos/sin or a coeffs_file
a bound that their mode count may not exceed.

Subcommands:
  run    integrate until an event, write timeseries CSV / frames JSONL /
         optional SVG frames / inequality reports CSV, print the verdict
         (the outcome the event implies)
  sweep  one run per axis value, run serially, summary CSV; the flows of
         a flows axis share the flow-independent half of the run
  check  inequality suite on the initial curve only

``main`` parses its arguments with one parser per process, built on its
first call, so a process that runs many commands (a benchmark, a test
suite, a notebook) builds it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics
from .flows import NonlocalTerm, flow_state, format_flow_term, parse_flow_term
from .flows import evaluate_h  # noqa: F401  (perfbench/spans.py traces this name here)
from .integrate import (
    MAX_SAMPLES,
    IntegratorControls,
    Trajectory,
    _Heat,
    describe_outcome,
    h_column,
    integrate,
    outcome_record,
    record_rows,
    summary_record,
)
from .integrate import state_record  # noqa: F401  (perfbench/spans.py traces this name here)
from .support import (
    MAX_TRUNCATION,
    TWO_PI,
    SupportSpectrum,
    curve_length,
    curve_position,
    isoperimetric_ratio,
    spectrum_from_dict,
    spectrum_from_polygon,
    project_from_samples,
    require_convex,
)
from .support import validate_convexity  # noqa: F401  (perfbench/spans.py traces this name here)


class ConfigError(ValueError):
    """Malformed run configuration; the message names line and field."""


@dataclass(frozen=True)
class InitialCurve:
    kind: str  # "coeffs" | "coeffs-file" | "samples-file" | "polygon-file"
    mean: float | None = None
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()
    path: str | None = None
    truncation: int | None = None  # None: unset, DEFAULT_TRUNCATION for samples/polygon files


@dataclass(frozen=True)
class OutputPaths:
    timeseries: str = "timeseries.csv"
    frames: str = "frames.jsonl"
    reports: str = "reports.csv"
    svg: str | None = None


@dataclass(frozen=True)
class RunConfig:
    initial: InitialCurve
    flow: NonlocalTerm
    controls: IntegratorControls
    outputs: OutputPaths
    frame_count: int = 16


_CONTROL_KEYS = tuple(f.name for f in fields(IntegratorControls))
_PATH_KEYS = tuple(f.name for f in fields(OutputPaths))
_SOURCE_KEYS = ("coeffs_file", "samples_file", "polygon_file")
DEFAULT_TRUNCATION = 64


def _parse_float(value: str, key: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: field {key!r} needs a number, got {value!r}") from None


def _parse_float_list(value: str, key: str, lineno: int) -> tuple[float, ...]:
    body = value.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        return ()
    return tuple(_parse_float(part.strip(), key, lineno) for part in body.split(","))


def _parse_count(raw: dict, key: str, default: int | None, maximum: float = np.inf) -> int | None:
    if key not in raw:
        return default
    value, lineno = raw[key]
    number = _parse_float(value, key, lineno)
    if not number.is_integer():
        raise ConfigError(f"line {lineno}: field {key!r} needs an integer, got {value!r}")
    if number < 2:
        raise ConfigError(f"line {lineno}: {key} must be at least 2")
    if number > maximum:
        raise ConfigError(f"line {lineno}: {key} must be at most {maximum}")
    return int(number)


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value config text into a validated RunConfig."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip().strip('"')
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)

    known = (
        {"flow", "mean", "cos", "sin", "truncation", "frame_count"}
        | set(_CONTROL_KEYS)
        | set(_PATH_KEYS)
        | set(_SOURCE_KEYS)
    )
    for key, (_, lineno) in raw.items():
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if "flow" not in raw:
        raise ConfigError("missing required key 'flow'")
    flow_text, flow_line = raw["flow"]
    try:
        flow = parse_flow_term(flow_text)
    except ValueError as exc:
        raise ConfigError(f"line {flow_line}: {exc}") from None

    truncation = _parse_count(raw, "truncation", None, MAX_TRUNCATION)
    sources = [k for k in _SOURCE_KEYS if k in raw]
    inline = "mean" in raw
    if inline + len(sources) != 1:
        raise ConfigError(
            "exactly one initial source is required: inline 'mean' (+cos/sin), "
            "coeffs_file, samples_file or polygon_file"
        )
    if not inline and ("cos" in raw or "sin" in raw):
        raise ConfigError("cos/sin coefficients require an inline 'mean'")

    if inline:
        mean_text, mean_line = raw["mean"]
        cos = _parse_float_list(raw["cos"][0], "cos", raw["cos"][1]) if "cos" in raw else ()
        sin = _parse_float_list(raw["sin"][0], "sin", raw["sin"][1]) if "sin" in raw else ()
        for key, coeffs in (("cos", cos), ("sin", sin)):
            if len(coeffs) > MAX_TRUNCATION:
                raise ConfigError(
                    f"line {raw[key][1]}: {key} holds more than {MAX_TRUNCATION} coefficients"
                )
        count = max(len(cos), len(sin))
        if truncation is not None and truncation < count:
            raise ConfigError(
                f"line {raw['truncation'][1]}: truncation = {truncation} is below the {count} modes of cos/sin"
            )
        initial = InitialCurve(
            kind="coeffs",
            mean=_parse_float(mean_text, "mean", mean_line),
            cos=cos,
            sin=sin,
            truncation=truncation,
        )
    else:
        key = sources[0]
        initial = InitialCurve(
            kind=key.replace("_file", "-file"),
            path=raw[key][0],
            truncation=truncation,
        )

    overrides = {}
    for key in _CONTROL_KEYS:
        if key in raw:
            overrides[key] = _parse_float(raw[key][0], key, raw[key][1])
    try:
        controls = replace(IntegratorControls(), **overrides)
    except ValueError as exc:
        raise ConfigError(f"bad integrator controls: {exc}") from None

    outputs = OutputPaths(**{key: raw[key][0] for key in _PATH_KEYS if key in raw})

    # Frames are drawn from the recorded states, which are capped.
    frame_count = _parse_count(raw, "frame_count", RunConfig.frame_count, MAX_SAMPLES)

    return RunConfig(
        initial=initial, flow=flow, controls=controls, outputs=outputs, frame_count=frame_count
    )


def _read_rows(path: Path, expected: int, name: str) -> dict[int, list[float]]:
    """The numeric rows of a CSV input file, keyed by line number."""
    rows = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p.strip() for p in body.split(",")]
        try:
            rows[lineno] = [float(p) for p in parts]
        except ValueError:
            if lineno == 1:  # header row
                continue
            raise ConfigError(f"{name} line {lineno}: expected numbers, got {body!r}") from None
        if len(rows[lineno]) != expected:
            raise ConfigError(f"{name} line {lineno}: expected {expected} columns")
    return rows


def load_initial(initial: InitialCurve, base_dir: Path) -> SupportSpectrum:
    """Materialize the configured initial curve as a spectrum."""
    if initial.kind == "coeffs":
        return spectrum_from_dict(
            {"mean": initial.mean, "cos": list(initial.cos), "sin": list(initial.sin)}
        )
    path = Path(initial.path)
    if not path.is_absolute():
        path = base_dir / path
    if initial.kind == "coeffs-file":
        modes = {}  # mode index -> (line, a_n, b_n)
        for lineno, (n_val, a_val, b_val) in _read_rows(path, 3, "coeffs_file").items():
            if not (n_val.is_integer() and 0 <= n_val <= MAX_TRUNCATION):
                raise ConfigError(
                    f"coeffs_file line {lineno}: mode index {n_val} must be an integer "
                    f"in 0..{MAX_TRUNCATION}"
                )
            n = int(n_val)
            if n == 0 and b_val != 0.0:
                raise ConfigError(
                    f"coeffs_file line {lineno}: row 0 carries the mean, so its b must be 0, got {b_val!r}"
                )
            if n in modes:
                raise ConfigError(f"coeffs_file line {lineno}: mode index {n} repeats line {modes[n][0]}")
            modes[n] = (lineno, a_val, b_val)
        if not modes:
            raise ConfigError("coeffs_file: no coefficient rows n,a_n,b_n after line 1")
        top = max(modes)
        if initial.truncation is not None and top > initial.truncation:
            raise ConfigError(
                f"coeffs_file line {modes[top][0]}: mode index {top} exceeds truncation = {initial.truncation}"
            )
        mean = modes.pop(0, (0, 0.0, 0.0))[1]
        cos = [0.0] * max(top, 2)
        sin = list(cos)
        for n, (_, a_val, b_val) in modes.items():
            cos[n - 1], sin[n - 1] = a_val, b_val
        return spectrum_from_dict({"mean": mean, "cos": cos, "sin": sin})
    if initial.kind == "samples-file":
        values = [row[0] for row in _read_rows(path, 1, "samples_file").values()]
        return project_from_samples(values, initial.truncation or DEFAULT_TRUNCATION)
    if initial.kind == "polygon-file":
        vertices = list(_read_rows(path, 2, "polygon_file").values())
        return spectrum_from_polygon(vertices, initial.truncation or DEFAULT_TRUNCATION)
    raise ConfigError(f"unknown initial kind {initial.kind!r}")


def _resolve_out(path_text: str, out_dir: Path | None) -> Path:
    path = Path(path_text)
    if not path.is_absolute() and out_dir is not None:
        path = out_dir / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


_TIMESERIES_KEYS = ("t", "L", "A", "ipd", "ipr", "k_min", "k_max")


def _write_timeseries(path: Path, traj: Trajectory, records: list, term: NonlocalTerm) -> None:
    lines = [",".join(_TIMESERIES_KEYS + ("H",))]
    for rec, h_val in zip(records, h_column(traj, term)):
        # None is the record's JSON null: k_min and k_max of a state that is
        # not strictly convex.
        cells = ["nan" if rec[k] is None else repr(rec[k]) for k in _TIMESERIES_KEYS]
        lines.append(",".join(cells + [repr(h_val)]))
    path.write_text("\n".join(lines) + "\n")


def _frame_indices(count: int, frame_count: int) -> list[int]:
    """The distinct indices round(linspace(0, count - 1, frame_count)), in
    increasing order; rounding keeps them sorted, so equal ones are adjacent."""
    return list(dict.fromkeys(np.round(np.linspace(0, count - 1, frame_count)).astype(int).tolist()))


def _write_frames(path: Path, traj: Trajectory, records: list, frame_count: int) -> list:
    indices = _frame_indices(len(records), frame_count)
    # Each frame's spectrum straight from the run's mode arrays: the state's
    # spectrum bit for bit, without building the FlowState or its area.
    modes = traj._modes
    frames = [
        curve_position(modes.spectrum(t, length / TWO_PI))
        for t, length in zip(traj.t[indices].tolist(), traj.L[indices].tolist())
    ]
    # Every frame is sampled at the same angles, so they are encoded once. Each
    # line is the text of json.dumps(dict(record, theta=..., x=..., y=...)):
    # the record's keys first, then the three lists, with the same separators.
    # repr of a list of finite floats is the text json.dumps writes for it,
    # and CurveSamples holds finite points only.
    theta = json.dumps(frames[0].thetas.tolist())
    lines = []
    for i, samples in zip(indices, frames):
        x = repr(samples.points[:, 0].tolist())
        y = repr(samples.points[:, 1].tolist())
        lines.append(f'{json.dumps(records[i])[:-1]}, "theta": {theta}, "x": {x}, "y": {y}}}')
    lines.append(json.dumps(summary_record(traj)))
    path.write_text("\n".join(lines) + "\n")
    return frames


def _write_svg_frames(svg_dir: Path, frames) -> None:
    svg_dir.mkdir(parents=True, exist_ok=True)
    all_pts = np.vstack([f.points for f in frames])
    min_x, min_y = all_pts.min(axis=0)
    max_x, max_y = all_pts.max(axis=0)
    pad = 0.1 * max(max_x - min_x, max_y - min_y, 1e-9)
    # SVG y points down; flip and shift the viewBox accordingly.
    vb = (min_x - pad, -(max_y + pad), (max_x - min_x) + 2 * pad, (max_y - min_y) + 2 * pad)
    stroke = 0.004 * max(vb[2], vb[3])
    # Every frame has the same number of points. %.6f of a float is the text
    # of f"{v:.6f}" (-0.0 included), and scaling by -1.0 is exact negation,
    # so one format call writes the "x,-y x,-y ..." list of a frame.
    template = " ".join(["%.6f,%.6f"] * len(frames[0].points))
    for i, frame in enumerate(frames):
        pts = template % tuple((frame.points * (1.0, -1.0)).ravel().tolist())
        doc = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{vb[0]:.6f} {vb[1]:.6f} {vb[2]:.6f} {vb[3]:.6f}">\n'
            f'  <polygon points="{pts}" fill="none" stroke="black" '
            f'stroke-width="{stroke:.6f}"/>\n</svg>\n'
        )
        (svg_dir / f"frame_{i:05d}.svg").write_text(doc)


def _inequality_rows(traj: Trajectory) -> list[diagnostics.InequalityReport]:
    rows = [
        replace(report, name=f"{report.name}@{label}")
        for label, state in (("initial", traj.states[0]), ("final", traj.states[-1]))
        for report in diagnostics.state_reports(state)
    ]
    rows.append(diagnostics.build_report("ipd_decay_max_ratio", 1.0, diagnostics.ipd_decay_ratio(traj)))
    rows.append(diagnostics.build_report("ipr_monotone", float(diagnostics.ipr_monotone(traj)), 1.0))
    return rows


def _exit_status(command):
    """The subcommand's own exit status, or 2 after one stderr line when it
    raises ValueError (bad input: ConfigError, ConvexityError, HDomainError)
    or OSError (filesystem)."""

    @functools.wraps(command)
    def guarded(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except OSError as exc:
            print(str(exc), file=sys.stderr)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
        return 2

    return guarded


@_exit_status
def run(config: RunConfig, base_dir: Path, out_dir: Path | None = None) -> int:
    """Integrate one configured flow and write all artifacts."""
    traj = integrate(load_initial(config.initial, base_dir), config.flow, config.controls)
    records = record_rows(traj)
    paths = config.outputs
    _write_timeseries(_resolve_out(paths.timeseries, out_dir), traj, records, config.flow)
    frames = _write_frames(_resolve_out(paths.frames, out_dir), traj, records, config.frame_count)
    if paths.svg is not None:
        _write_svg_frames(_resolve_out(paths.svg, out_dir), frames)
    reports = _inequality_rows(traj)
    _resolve_out(paths.reports, out_dir).write_text(diagnostics.reports_to_csv(reports))
    print(f"verdict: {describe_outcome(traj.outcome)}")
    return 0


@_exit_status
def check(config: RunConfig, base_dir: Path, out_dir: Path | None = None) -> int:
    """Inequality suite on the initial curve only."""
    spec0 = load_initial(config.initial, base_dir)
    require_convex(spec0)
    state = flow_state(spec0, 0.0, curve_length(spec0))
    reports = diagnostics.state_reports(state)
    text = diagnostics.reports_to_csv(reports)
    _resolve_out(config.outputs.reports, out_dir).write_text(text)
    sys.stdout.write(text)
    print(f"go2_equality_case: {str(diagnostics.go2(state)[1]).lower()}")
    return 0 if all(r.satisfied for r in reports) else 1


def _parse_axis(axis: str) -> tuple[str, list]:
    head, sep, rest = axis.partition(":")
    if not sep or not rest.strip():
        raise ConfigError(f"axis must be 'flows:<term>;...' or 'scale:<f>,...', got {axis!r}")
    if head == "flows":
        return "flows", [parse_flow_term(part) for part in rest.split(";")]
    if head == "scale":
        values = []
        for part in rest.split(","):
            try:
                values.append(float(part))
            except ValueError:
                raise ConfigError(f"scale value {part.strip()!r} is not a number") from None
            if not np.isfinite(values[-1]):
                raise ConfigError(f"scale value {part.strip()!r} is not finite")
        return "scale", values
    raise ConfigError(f"unknown axis kind {head!r}")


_SWEEP_COLUMNS = (
    "axis", "outcome", "event", "event_t", "final_t", "final_L",
    "final_A", "final_ipr", "ipd_ratio_max", "ipr_monotone", "error",
)


def _sweep_row(label: str, result) -> dict:
    """The row of one run: ``result`` is its ``Trajectory``, or the
    exception that run raised, which is the row's."""
    row = {"axis": label}
    try:
        if isinstance(result, Exception):
            raise result
        traj = result
        final_t, final_L, final_A = (float(column[-1]) for column in (traj.t, traj.L, traj.A))
        row.update(
            outcome=outcome_record(traj.outcome)["kind"],
            event=traj.event.kind,
            event_t=repr(traj.event.t),
            final_t=repr(final_t),
            final_L=repr(final_L),
            final_A=repr(final_A),
            final_ipr=repr(isoperimetric_ratio(final_L, final_A)),
            ipd_ratio_max=repr(diagnostics.ipd_decay_ratio(traj)),
            ipr_monotone=str(diagnostics.ipr_monotone(traj)).lower(),
            error="",
        )
    except Exception as exc:  # per-row failure; the sweep continues
        row.update({c: "" for c in _SWEEP_COLUMNS[1:]}, error=str(exc))
    return row


def _run_all(spec0: SupportSpectrum, controls: IntegratorControls, terms: list) -> list:
    """``_Heat.run_all`` of ``terms`` on the heat half of ``spec0``; where
    its convexity gate rejects the spectrum, that error is every term's."""
    try:
        heat = _Heat(spec0, controls)
    except Exception as exc:
        return [exc] * len(terms)
    return heat.run_all(terms)


@_exit_status
def sweep(config: RunConfig, axis: str, base_dir: Path, out_dir: Path | None = None) -> int:
    """One integration per axis value; failures are recorded per row. The
    flows of a flows axis run in one ``integrate._Heat.run_all`` call, on
    one heat half whose pre-scan blocks the closed laws share; a spectrum
    its gate rejects fails every row with the same message. Each value of a
    scale axis has a heat half of its own."""
    kind, values = _parse_axis(axis)
    spec0 = load_initial(config.initial, base_dir)
    if kind == "flows":
        results = _run_all(spec0, config.controls, values)
        rows = [_sweep_row(format_flow_term(term), result) for term, result in zip(values, results)]
    else:
        rows = []
        for value in values:
            with np.errstate(over="ignore"):  # a coefficient overflowing to inf is rejected
                scaled = SupportSpectrum(
                    mean=spec0.mean,
                    cos_coeffs=spec0.cos_coeffs * value,
                    sin_coeffs=spec0.sin_coeffs * value,
                )
            rows.append(_sweep_row(repr(value), *_run_all(scaled, config.controls, [config.flow])))
    # Labels such as powersum:1,1,0 hold commas, so fields are quoted where needed.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    writer.writerows([row[c] for c in _SWEEP_COLUMNS] for row in rows)
    text = buffer.getvalue()
    _resolve_out("sweep.csv", out_dir).write_text(text)
    sys.stdout.write(text)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call of a process."""
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Simulate linear nonlocal curvature flows of convex plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", default=None, help="directory for output artifacts")
        if name == "sweep":
            p.add_argument(
                "--axis", required=True,
                help="'flows:<term>;<term>;...' or 'scale:<f>,<f>,...'",
            )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config_path = Path(args.config)
    try:
        config = parse_config(config_path.read_text())
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, or a file that is not UTF-8 text
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    base_dir = config_path.parent
    out_dir = Path(args.out) if args.out is not None else None
    if args.command == "run":
        return run(config, base_dir, out_dir)
    if args.command == "sweep":
        return sweep(config, args.axis, base_dir, out_dir)
    return check(config, base_dir, out_dir)


if __name__ == "__main__":
    sys.exit(main())
