#!/usr/bin/env python3
"""Run the named nonlocal flows on one benchmark curve and compare them.

Writes per-flow artifacts (timeseries CSV, curve frames, SVG animation
frames, inequality reports) and prints a summary table.

Usage:
    python scripts/flow_gallery.py [--out gallery_out] [--t-max 5.0]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curveflow import (  # noqa: E402
    IntegratorControls,
    SupportSpectrum,
    describe_outcome,
    integrate,
    ipd_decay_ratio,
    ipr_monotone,
    parse_flow_term,
)
from curveflow.cli import OutputPaths, RunConfig, InitialCurve, run  # noqa: E402

BENCHMARK = SupportSpectrum(mean=1.0, cos_coeffs=[0.1, 0.2], sin_coeffs=[0.0, 0.05])
FLOWS = ["pan-yang", "lin-tsai", "ma-cheng", "const:-1", "powersum:1,1,0"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="gallery_out")
    parser.add_argument("--t-max", type=float, default=5.0)
    args = parser.parse_args()
    out_root = Path(args.out)

    print(f"{'flow':>16}  {'outcome':<60} {'ipd_ratio':>10} {'ipr_mono':>9}")
    for text in FLOWS:
        term = parse_flow_term(text)
        controls = IntegratorControls(t_max=args.t_max)
        traj = integrate(BENCHMARK, term, controls)
        ratio = ipd_decay_ratio(traj)
        mono = ipr_monotone(traj)
        print(f"{text:>16}  {describe_outcome(traj.outcome):<60} {ratio:>10.4f} {str(mono):>9}")

        config = RunConfig(
            initial=InitialCurve(
                kind="coeffs",
                mean=BENCHMARK.mean,
                cos=tuple(BENCHMARK.cos_coeffs),
                sin=tuple(BENCHMARK.sin_coeffs),
            ),
            flow=term,
            controls=controls,
            outputs=OutputPaths(svg="anim"),
            frame_count=24,
        )
        slug = text.replace(":", "_").replace(",", "-")
        code = run(config, Path("."), out_root / slug)
        if code != 0:
            return code
    print(f"\nartifacts written under {out_root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
