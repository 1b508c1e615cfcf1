"""Seeded input generator for the benchmark workloads.

Everything here is plain numpy and never calls curveflow: convexity is
tested with this module's own dense-grid minimum of rho = u'' + u, and
polygon sources are projected with this module's own FFT, so the
references built from these curves are independent of the code under
test.

A curve is u(theta) = mean + sum_n a_n cos(n theta) + b_n sin(n theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi

# Dense grid for the generator's own convexity test.
CHECK_GRID = 8192
# The README documents that curvature minima are searched on a
# max(4N, 512)-point grid; for N <= 128 that is 512 points. Pinch
# directions are placed relative to it (see pinch_curve).
PINCH_GRID = 512
POLYGON_GRID = 1024
SAMPLES_GRID = 256
SAMPLES_TRUNCATION = 64

RUN_T_MAX = 10.0
SWEEP_T_MAX = 5.0
PINCH_T_MAX = 10.0
SAMPLE_INTERVAL = 0.05
FRAME_COUNT = 24

# Flow slots of run-artifacts, in equal shares. The last one pinches.
RUN_FLOWS = ("pan-yang", "lin-tsai", "ma-cheng", "const", "powersum:2,-1,1", "powersum:1,1,0")
SOURCES = ("inline", "coeffs_file", "samples_file", "polygon_file")
PINCH_FLOW = "powersum:1,1,0"
PINCH_NS = (2, 16, 64)
SWEEP_NAMED = ("pan-yang", "lin-tsai", "ma-cheng", "const")
SWEEP_FLOWS = ("pan-yang", "lin-tsai", "ma-cheng", "const", "powersum:1,1,0", "powersum:2,-1,1")
SCALE_VALUES = 8

# Jobs in one pass over a workload's job list. The timed loop cycles
# over the pass; a traced run traces whole passes.
PASS_JOBS = {"run-artifacts": 48, "pinch-scan": 120, "sweep": 16}
WORKLOADS = tuple(PASS_JOBS)
# Every block of this many consecutive jobs in a pass holds the same
# operations by flow and path (run-artifacts: one job per flow slot;
# pinch-scan: each N with and without the worst-placed pinch; sweep:
# the whole pass, whose scale axes run each named flow once). The timed
# loop stops only at a block boundary, so the share of each kind of
# operation, and with it the share that fails, is the same in every run
# and every seed.
BLOCK_JOBS = {"run-artifacts": len(RUN_FLOWS), "pinch-scan": 2 * len(PINCH_NS), "sweep": PASS_JOBS["sweep"]}


@dataclass(frozen=True)
class Curve:
    mean: float
    cos: np.ndarray
    sin: np.ndarray

    @property
    def modes(self) -> int:
        return len(self.cos)

    def power(self) -> np.ndarray:
        return self.cos**2 + self.sin**2

    def scaled(self, factor: float) -> "Curve":
        """Scale the deviation (every mode n >= 1), keeping the mean."""
        return Curve(self.mean, self.cos * factor, self.sin * factor)

    def support(self, thetas: np.ndarray) -> np.ndarray:
        ang = np.outer(thetas, np.arange(1, self.modes + 1))
        return self.mean + np.cos(ang) @ self.cos + np.sin(ang) @ self.sin


@dataclass(frozen=True)
class RunJob:
    """One ``curveflow run`` on a generated config."""

    flow: str
    source: str
    curve: Curve  # reference spectrum of the initial curve
    config: Path
    out: Path


@dataclass(frozen=True)
class PinchJob:
    """One library ``integrate`` call under H = L on a pinching curve."""

    curve: Curve


@dataclass(frozen=True)
class SweepJob:
    """One ``curveflow sweep``; each row is an (flow, initial curve) pair."""

    kind: str  # "scale" | "flows"
    axis: str
    rows: tuple[tuple[str, Curve], ...]
    config: Path
    out: Path


def min_radius(curve: Curve, grid: int = CHECK_GRID) -> float:
    """min over a dense grid of rho = mean + sum (1 - n^2)(a_n cos + b_n sin)."""
    n = np.arange(1, curve.modes + 1, dtype=float)
    ang = np.outer(np.arange(grid) * (TWO_PI / grid), n)
    w = 1.0 - n**2
    rho = curve.mean + np.cos(ang) @ (w * curve.cos) + np.sin(ang) @ (w * curve.sin)
    return float(rho.min())


def project(samples: np.ndarray, truncation: int) -> Curve:
    """Fourier projection of uniform-grid support samples."""
    m = len(samples)
    coeffs = np.fft.rfft(samples)
    return Curve(
        mean=float(coeffs[0].real / m),
        cos=2.0 * coeffs[1 : truncation + 1].real / m,
        sin=-2.0 * coeffs[1 : truncation + 1].imag / m,
    )


def smooth_curve(rng: np.random.Generator, modes: int, mean: float, roundness: float) -> Curve:
    """Random smooth convex curve whose min radius of curvature is
    ``roundness`` times its mean radius."""
    k = np.arange(1, modes + 1, dtype=float)
    cos = rng.uniform(-1.0, 1.0, modes) / k**3.5
    sin = rng.uniform(-1.0, 1.0, modes) / k**3.5
    cos[0], sin[0] = rng.uniform(-0.5, 0.5, 2) * mean
    # rho - mean is linear in the modes n >= 2, so one rescale hits the target.
    rho_min = min_radius(Curve(mean, cos, sin))
    factor = (1.0 - roundness) * mean / (mean - rho_min)
    cos[1:] *= factor
    sin[1:] *= factor
    return Curve(mean, cos, sin)


def pinch_curve(rng: np.random.Generator, modes: int, m: float, ratio: float, worst: bool) -> Curve:
    """u = m + a1 cos + b1 sin + a cos 2(theta - phi), zero-padded.

    a/m is ``ratio`` and phi is in [0, pi). With ``worst`` the pinch
    direction sits midway between two nodes of the 512-point curvature
    grid, the placement that grid search resolves worst; otherwise it is
    uniform. Every run contains both kinds, so its maximum errors do not
    hinge on how close the seed's random angles happen to land to a node.
    """
    amp = ratio * m
    node = rng.integers(0, PINCH_GRID // 2)
    offset = 0.5 if worst else rng.uniform()
    phi = (node + offset) * TWO_PI / PINCH_GRID
    cos = np.zeros(modes)
    sin = np.zeros(modes)
    cos[0], sin[0] = rng.uniform(-1.0, 1.0, 2) * m
    cos[1], sin[1] = amp * np.cos(2.0 * phi), amp * np.sin(2.0 * phi)
    return Curve(m, cos, sin)


def polygon(rng: np.random.Generator, truncation: int, size: float) -> tuple[np.ndarray, Curve]:
    """Convex counterclockwise polygon inscribed in a random ellipse, and
    the projection of its support function, which must stay convex."""
    for _ in range(200):
        k = int(rng.integers(3 * truncation, 4 * truncation + 1))
        angles = TWO_PI * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
        semi = np.array([1.0, rng.uniform(0.6, 1.0)]) * size
        rot = rng.uniform(0.0, TWO_PI)
        local = np.column_stack([semi[0] * np.cos(angles), semi[1] * np.sin(angles)])
        turn = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
        verts = local @ turn.T + rng.uniform(-0.5, 0.5, 2)
        normals = np.arange(POLYGON_GRID) * (TWO_PI / POLYGON_GRID)
        support = np.max(verts @ np.vstack([np.cos(normals), np.sin(normals)]), axis=0)
        curve = project(support, truncation)
        if min_radius(curve) > 0.02 * curve.mean:
            return verts, curve
    raise RuntimeError("no polygon with a convex projection in 200 draws")


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _source_lines(source: str, curve: Curve, stem: Path, truncation: int) -> list[str]:
    """Write the source file (if any); return the config lines naming it."""
    if source == "inline":
        return [f"mean = {float(curve.mean)!r}", f"cos = {_floats(curve.cos)}", f"sin = {_floats(curve.sin)}"]
    path = stem.with_suffix(".csv")
    if source == "coeffs_file":
        rows = ["n,a,b", f"0,{float(curve.mean)!r},0.0"]
        rows += [f"{n},{float(a)!r},{float(b)!r}" for n, (a, b) in enumerate(zip(curve.cos, curve.sin), 1)]
    elif source == "samples_file":
        thetas = np.arange(SAMPLES_GRID) * (TWO_PI / SAMPLES_GRID)
        rows = [repr(float(v)) for v in curve.support(thetas)]
    else:
        raise ValueError(f"curve source {source!r} has no file form")
    path.write_text("\n".join(rows) + "\n")
    return [f"{source} = {path.name}", f"truncation = {truncation}"]


def _job_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` draws from [lo, hi], one in each of ``count`` equal strata,
    in a seeded order. Every pass then covers each range evenly, so its
    timings and error maxima do not hinge on where a seed's draws fall."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count


def _int_strata(rng: np.random.Generator, count: int, lo: int, hi: int) -> np.ndarray:
    """Stratified integers in [lo, hi]."""
    return np.floor(_strata(rng, count, lo, hi + 1)).astype(int)


def _const(c: float) -> str:
    return f"const:{float(c)!r}"


def _write_config(stem: Path, lines: list[str]) -> Path:
    config = stem.with_suffix(".cfg")
    config.write_text("\n".join(lines) + "\n")
    return config


def run_jobs(seed: int, work: Path) -> list[RunJob]:
    """Every flow slot crossed with every source, twice.

    The pinching slot cannot take a polygon (its t* and theta* need the
    pinch family), so its polygon jobs read the inline form instead.
    """
    count = PASS_JOBS["run-artifacts"]
    rng = np.random.default_rng([seed, WORKLOADS.index("run-artifacts")])
    blocks = count // len(RUN_FLOWS)  # jobs of each flow
    per_source = blocks // len(SOURCES) * (len(RUN_FLOWS) - 1)  # non-pinching jobs of a source
    means = _strata(rng, count, 0.5, 2.0)
    roundness = _strata(rng, count, 0.3, 0.8)
    inline_modes = _int_strata(rng, per_source, 2, 8)
    polygon_modes = _int_strata(rng, per_source, 8, 12)
    consts = _strata(rng, blocks, -2.0, -0.5)
    ratios = _strata(rng, blocks, 0.05, 0.3)
    jobs = []
    for i in range(count):
        job_rng = _job_rng(seed, "run-artifacts", i)
        block, slot = divmod(i, len(RUN_FLOWS))
        source, flow = SOURCES[block % len(SOURCES)], RUN_FLOWS[slot]
        stem = work / f"run{i:03d}"
        ordinal = block // len(SOURCES) * (len(RUN_FLOWS) - 1) + slot  # among the source's jobs
        lines = []
        if flow == PINCH_FLOW:
            source = "inline" if source == "polygon_file" else source
            modes = {"inline": 2, "coeffs_file": 16, "samples_file": SAMPLES_TRUNCATION}[source]
            curve = pinch_curve(job_rng, modes, means[i], ratios[block], worst=block % 2 == 0)
        elif source == "polygon_file":
            verts, curve = polygon(job_rng, int(polygon_modes[ordinal]), means[i])
            poly = stem.with_suffix(".csv")
            poly.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in verts.tolist()))
            lines = [f"polygon_file = {poly.name}", f"truncation = {curve.modes}"]
        else:
            modes = {"inline": int(inline_modes[ordinal]), "coeffs_file": 32}.get(source, SAMPLES_TRUNCATION)
            curve = smooth_curve(job_rng, modes, means[i], roundness[i])
        flow = _const(consts[block]) if flow == "const" else flow
        lines = lines or _source_lines(source, curve, stem, SAMPLES_TRUNCATION)
        config = _write_config(stem, [
            f"flow = {flow}", *lines, f"t_max = {RUN_T_MAX!r}", f"sample_interval = {SAMPLE_INTERVAL!r}",
            "svg = anim", f"frame_count = {FRAME_COUNT}",
        ])
        jobs.append(RunJob(flow, source, curve, config, work / f"out{i:03d}"))
    return jobs


def pinch_jobs(seed: int) -> list[PinchJob]:
    count = PASS_JOBS["pinch-scan"]
    rng = np.random.default_rng([seed, WORKLOADS.index("pinch-scan")])
    means, ratios = _strata(rng, count, 0.5, 2.0), _strata(rng, count, 0.05, 0.3)
    return [
        PinchJob(pinch_curve(_job_rng(seed, "pinch-scan", i), PINCH_NS[i % len(PINCH_NS)],
                             means[i], ratios[i], worst=i % 2 == 0))
        for i in range(count)
    ]


def sweep_jobs(seed: int, work: Path) -> list[SweepJob]:
    """Six-flow axes over pinch-family curves, interleaved with 8-value
    scale axes over smooth N = 32 curves, three to one. The scale jobs of
    a pass run each named flow once, in a seeded order. The shorter flows
    jobs are three quarters of the pass so that the median job falls in
    the middle of them, not on the step between the two kinds."""
    count = PASS_JOBS["sweep"]
    n_scale = count // 4
    rng = np.random.default_rng([seed, WORKLOADS.index("sweep")])
    named = rng.permutation(SWEEP_NAMED)
    means = _strata(rng, count, 0.5, 2.0)
    roundness = _strata(rng, n_scale, 0.4, 0.8)
    ratios = _strata(rng, count - n_scale, 0.05, 0.3)
    consts = _strata(rng, count, -2.0, -0.5)
    jobs = []
    for i in range(count):
        job_rng = _job_rng(seed, "sweep", i)
        stem = work / f"sweep{i:03d}"
        k, phase = divmod(i, 4)
        if phase < 3:
            j = 3 * k + phase  # index among flows jobs
            curve = pinch_curve(job_rng, 2, means[i], ratios[j], worst=j % 2 == 0)
            flows = tuple(_const(consts[i]) if f == "const" else f for f in SWEEP_FLOWS)
            lines = ["flow = pan-yang"] + _source_lines("inline", curve, stem, 32)
            kind, axis = "flows", "flows:" + ";".join(flows)
            rows = tuple((flow, curve) for flow in flows)
        else:
            flow = _const(consts[i]) if named[k] == "const" else str(named[k])
            curve = smooth_curve(job_rng, 32, means[i], roundness[k])
            values = np.sort(_strata(job_rng, SCALE_VALUES, 0.2, 1.4))
            lines = [f"flow = {flow}"] + _source_lines("coeffs_file", curve, stem, 32)
            kind, axis = "scale", "scale:" + ",".join(repr(float(v)) for v in values)
            rows = tuple((flow, curve.scaled(v)) for v in values)
        config = _write_config(stem, [*lines, f"t_max = {SWEEP_T_MAX!r}"])
        jobs.append(SweepJob(kind, axis, rows, config, work / f"out{i:03d}"))
    return jobs


def make_jobs(workload: str, seed: int, work: Path) -> list:
    """The seeded job list (one pass) of a workload; writes its input files."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "run-artifacts":
        return run_jobs(seed, work)
    if workload == "pinch-scan":
        return pinch_jobs(seed)
    if workload == "sweep":
        return sweep_jobs(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


def mix(workload: str, jobs: list) -> dict:
    """Shares of the operations in one pass, by flow, source and path.

    ``ode_only_share`` is the share of operations whose H has no named
    closed form in curveflow (the ``powersum`` terms)."""
    if workload == "run-artifacts":
        flows = [j.flow.split(":")[0] if j.flow.startswith("const") else j.flow for j in jobs]
        sources = [j.source for j in jobs]
    elif workload == "pinch-scan":
        flows = [PINCH_FLOW] * len(jobs)
        sources = [f"library N={j.curve.modes}" for j in jobs]
    else:
        flows = [f.split(":")[0] if f.startswith("const") else f for j in jobs for f, _ in j.rows]
        sources = [j.kind for j in jobs for _ in j.rows]

    def shares(items):
        return {k: round(items.count(k) / len(items), 4) for k in sorted(set(items))}

    return {
        "operations_per_pass": len(flows),
        "flow_shares": shares(flows),
        "source_shares": shares(sources),
        "ode_only_share": round(sum(f.startswith("powersum") for f in flows) / len(flows), 4),
    }
