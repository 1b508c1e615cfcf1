"""Host-speed probe, run in a process of its own that never imports curveflow.

The host shares its cores: other work takes slices of our time at a rate
that drifts over seconds and minutes, so the same job's time moved by up
to 30% between runs. The worker asks this process for a fixed piece of
work before every timed job and reports each time at a reference speed:
multiplied by REFERENCE_PROBE_MS / the mean probe time. Slicing stretches
a job's mean time and the probe's mean time alike, so the scaled means
keep the program's own cost. The probe runs outside the worker, so
nothing the program leaves behind in its own process (threads, numpy
settings, memory) changes the scale.

A workload whose jobs run on a thread pool is probed with as many copies
of the work on as many threads: the time a pool loses to the host is not
the time one thread loses. The probe time is then the wall time of all
copies over their number.

Protocol: ``python3 -m perfbench.probe <threads>``; each line read from
stdin asks for one probe, whose time in ms is written back as one line.
The process ends at end of input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

REFERENCE_PROBE_MS = 2.0

_MATRIX = np.cos(np.outer(np.arange(512) * (2 * np.pi / 512), np.arange(1, 17)))


def probe() -> float:
    """Wall ms of a fixed piece of Python and numpy work, about 2 ms."""
    start = time.perf_counter()
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    vec = np.ones(16)
    for k in range(40):
        vec = np.exp(-1e-3 * k) * (_MATRIX.T @ (_MATRIX @ vec)) / 512.0
    return (time.perf_counter() - start) * 1e3


def pool_probe(pool: ThreadPoolExecutor, threads: int) -> float:
    """Wall ms of ``threads`` copies of the probe on the pool, per copy."""
    start = time.perf_counter()
    list(pool.map(lambda _: probe(), range(threads)))
    return (time.perf_counter() - start) * 1e3 / threads


def host_scale(probes: list[float]) -> float:
    """Factor that brings times measured next to ``probes`` to the reference speed."""
    return REFERENCE_PROBE_MS / statistics.fmean(probes)


class Prober:
    """Client of a probe process; use as a context manager."""

    def __init__(self, threads: int):
        self.threads = threads

    def __enter__(self) -> "Prober":
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe", str(self.threads)],
            cwd=Path(__file__).resolve().parent.parent,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()


def main() -> int:
    threads = int(sys.argv[1])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in sys.stdin:
            print(repr(probe() if threads == 1 else pool_probe(pool, threads)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
