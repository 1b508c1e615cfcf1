#!/usr/bin/env python3
"""Fingerprint a fixed matrix of integrations, to check that a refactor
changed nothing.

Runs every initial spectrum under every flow and every control set
below. The matrix reaches all five threshold outcomes (horizon, length
blow-up, area vanish, length vanish, singularity), runs where two
thresholds are crossed inside one step, and runs whose length reaches
the float range (``support.MAX_LENGTH``), an H domain exit, runs to
a horizon where an ulp of t exceeds 1e-12, and runs of a smooth N = 64
spectrum whose mode factors pass the float underflow band. For each
run it prints the sha256 of the run's event (kind, t, theta) and of
every recorded state's (t, L, A), read from the trajectory's columns and
written with repr so any bit change shows; then the counts by event kind, how many runs took
the closed-form length and how many the ODE solve, how many scalar tests
the event locator ran (calls of ``integrate._Heat.margins``), what its
pre-scan did (blocks: calls of ``integrate._Heat.flags``; columns: the
check times those calls received; grid products: calls of
``support._grid_deviation`` with 2-D coefficients), how often the
closed-form length law was evaluated (calls of
``flows.ClosedLength.__call__`` on an array, the times those arrays held,
and calls on a scalar time), and one sha256 over all runs. The counts
come from wrapping those names here. Then it runs the matrix a second
time the way ``curveflow sweep`` runs a flows axis, the flows of each
spectrum and control set on one shared heat half (``integrate._Heat``),
and prints the sha256 over those runs, which must equal the first. Run
it on two checkouts on the same machine and compare the output: the
probe, pre-scan and evaluation counts show whether the locator's work
changed, which the hashes see only through the event times.

With ``--out DIR`` it also writes each run to DIR/<spectrum>__<flow>__<controls>.jsonl:
one {"t", "L", "A"} line per recorded state, then an {"event": {"kind",
"t", "theta"}} line (or {"error": ...} for a rejected run), so that
``scripts/artifact_diff.py`` can measure how far two checkouts' numbers
lie apart, which the hashes cannot.

Usage:
    python scripts/trajectory_digest.py [--quiet] [--out DIR]
"""

import argparse
import functools
import hashlib
import importlib
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curveflow import IntegratorControls, SupportSpectrum, integrate, parse_flow_term  # noqa: E402
from curveflow.flows import ClosedLength, closed_length  # noqa: E402

# The module, not the function of the same name that the package exports.
HEAT = importlib.import_module("curveflow.integrate")._Heat
SUPPORT = importlib.import_module("curveflow.support")


def smooth(modes: int, seed: int) -> SupportSpectrum:
    """Mean 1, a_n then b_n drawn U(-1, 1) / n^3.5, then a_2 = 0.2."""
    rng, n = np.random.default_rng(seed), np.arange(1, modes + 1)
    cos_coeffs = rng.uniform(-1.0, 1.0, modes) / n**3.5
    sin_coeffs = rng.uniform(-1.0, 1.0, modes) / n**3.5
    cos_coeffs[1] = 0.2
    return SupportSpectrum(mean=1.0, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)


SPECTRA = {
    "circle": SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.0], sin_coeffs=[0.0, 0.0]),
    "ellipse": SupportSpectrum(mean=1.0, cos_coeffs=[0.0, 0.2], sin_coeffs=[0.0, 0.0]),
    "gallery": SupportSpectrum(mean=1.0, cos_coeffs=[0.1, 0.2], sin_coeffs=[0.0, 0.05]),
    "offcenter": SupportSpectrum(mean=1.0, cos_coeffs=[0.3, 0.2], sin_coeffs=[-0.2, 0.0]),
    "three-mode": SupportSpectrum(
        mean=1.3, cos_coeffs=[0.2, 0.05, -0.01, 0.004], sin_coeffs=[-0.1, 0.03, 0.02, 0.0]
    ),
    "triangle": SupportSpectrum(mean=2.0, cos_coeffs=[0.0, 0.0, 0.2], sin_coeffs=[0.0, 0.0, 0.0]),
    "small": SupportSpectrum(mean=0.05, cos_coeffs=[0.0, 0.01], sin_coeffs=[0.0, 0.005]),
    # Every mode's factor passes the float underflow band and the cut below it
    # (support.EXP_CUT): mode 64's near t = 0.15, mode 2's near t = 200.
    "smooth64": smooth(64, 3),
}
FLOWS = (
    "pan-yang",
    "lin-tsai",
    "ma-cheng",
    "const:-1",
    "const:0.5",
    "const:2",
    "powersum:1,1,0",
    "powersum:0.5,1,0",
    "powersum:2,-1,1",
    "powersum:0.3,0.5,0.25;2,-1,1",
    "powersum:1.2,0,0",
)
CONTROLS = {
    "default": IntegratorControls(t_max=10.0),
    "tight": IntegratorControls(t_max=10.0, length_blowup=100.0, area_vanish=1e-3),
    "vanish": IntegratorControls(
        t_max=10.0, length_vanish=1e-3, area_vanish=1e-30, singularity_eps=1e-16
    ),
    # Area and length vanish cross inside the same step for a shrinking circle.
    "tie": IntegratorControls(t_max=10.0, length_vanish=3.5e-6),
    # A length growing like e^t reaches the float range long before length_blowup.
    "float": IntegratorControls(t_max=400.0, length_blowup=1e300, sample_interval=0.5),
    # Past t = 16384 an ulp of t is wider than 1e-12, and t_max is a multiple of the interval.
    "long": IntegratorControls(t_max=20000.0, sample_interval=2500.0),
}


def digest(run) -> tuple[str, str, list]:
    """(event kind or error type, sha256 of the event and the states,
    the run's JSONL records) of the trajectory ``run()`` returns."""
    try:
        traj = run()
    except ValueError as exc:
        kind = f"error:{type(exc).__name__}"
        return kind, hashlib.sha256(f"{kind} {exc}".encode()).hexdigest(), [{"error": f"{kind} {exc}"}]
    event = traj.event
    columns = list(zip(traj.t.tolist(), traj.L.tolist(), traj.A.tolist()))
    lines = [f"{event.kind} {event.t!r} {event.theta!r}"]
    lines.extend(f"{t!r} {L!r} {A!r}" for t, L, A in columns)
    records = [{"t": t, "L": L, "A": A} for t, L, A in columns]
    records.append({"event": {"kind": event.kind, "t": event.t, "theta": event.theta}})
    return event.kind, hashlib.sha256("\n".join(lines).encode()).hexdigest(), records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="print only the counts and the total")
    parser.add_argument("--out", type=Path, help="directory for one JSONL file per run")
    args = parser.parse_args()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    counts: Counter[str] = Counter()
    paths: Counter[str] = Counter()
    total = hashlib.sha256()
    tally: Counter[str] = Counter()
    margins, flags, grid_deviation = HEAT.margins, HEAT.flags, SUPPORT._grid_deviation
    law = ClosedLength.__call__

    def counted_margins(heat, t, length):
        tally["probes"] += 1
        return margins(heat, t, length)

    def counted_flags(heat, times, lengths, width):
        tally["blocks"] += 1
        tally["columns"] += len(times)
        return flags(heat, times, lengths, width)

    def counted_grid_deviation(cos_coeffs, sin_coeffs):
        tally["grid products"] += cos_coeffs.ndim == 2
        return grid_deviation(cos_coeffs, sin_coeffs)

    def counted_law(closed, t):
        if getattr(t, "ndim", 0):
            tally["law arrays"] += 1
            tally["law times"] += t.size
        else:
            tally["law scalars"] += 1
        return law(closed, t)

    HEAT.margins, HEAT.flags = counted_margins, counted_flags
    SUPPORT._grid_deviation = counted_grid_deviation
    ClosedLength.__call__ = counted_law
    try:
        for spec_name, spec in SPECTRA.items():
            for flow in FLOWS:
                for controls_name, controls in CONTROLS.items():
                    kind, sha, records = digest(lambda: integrate(spec, parse_flow_term(flow), controls))
                    if args.out is not None:
                        name = re.sub(r"[^A-Za-z0-9.+-]", "_", f"{spec_name}__{flow}__{controls_name}")
                        lines = "".join(json.dumps(rec) + "\n" for rec in records)
                        (args.out / f"{name}.jsonl").write_text(lines)
                    counts[kind] += 1
                    paths["ode" if closed_length(spec, parse_flow_term(flow)) is None else "closed"] += 1
                    total.update(sha.encode())
                    if not args.quiet:
                        print(f"{spec_name:>10} {flow:>28} {controls_name:>7} {kind:>16} {sha}")
    finally:
        HEAT.margins, HEAT.flags = margins, flags
        SUPPORT._grid_deviation = grid_deviation
        ClosedLength.__call__ = law
    for kind, count in sorted(counts.items()):
        print(f"count {kind} {count}")
    print(f"paths closed {paths['closed']} ode {paths['ode']}")
    print(f"probes {tally['probes']}")
    print(f"prescan blocks {tally['blocks']} columns {tally['columns']} grid products {tally['grid products']}")
    print(
        f"closed-law evaluations arrays {tally['law arrays']} times {tally['law times']}"
        f" scalars {tally['law scalars']}"
    )
    print(f"runs {sum(counts.values())} sha256 {total.hexdigest()}")
    print(f"shared sha256 {shared_digest()}")
    return 0


def shared_digest() -> str:
    """The total sha256 of the matrix with the flows of each spectrum and
    control set run on one heat half, hashed in the order of ``main``."""
    shas = {}
    for spec_name, spec in SPECTRA.items():
        for controls_name, controls in CONTROLS.items():
            # Built by the first flow; a spectrum it rejects fails every flow alike.
            heat = functools.cache(lambda: HEAT(spec, controls))
            for flow in FLOWS:
                shas[spec_name, flow, controls_name] = digest(lambda: heat().run(parse_flow_term(flow)))[1]
    total = hashlib.sha256()
    for spec_name in SPECTRA:
        for flow in FLOWS:
            for controls_name in CONTROLS:
                total.update(shas[spec_name, flow, controls_name].encode())
    return total.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
