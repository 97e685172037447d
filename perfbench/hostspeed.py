"""How fast the host runs right now, against the host the benchmark was tuned on.

A shared host's CPUs slow down on their own, each by up to 40%, in
stretches from under a second to more than a minute, and the process's CPU
time slows with its wall time.  So the benchmark runs a fixed amount of
work like ldmcap's just before and just after each CLI process, on the
same CPU, and scales the process's times by how fast that work ran.

``calibrate`` times the work once.  ``REFERENCE_S`` is its time on a quiet
stretch of the reference host (a 2-core VM, Python 3.11.7, numpy 2.4.6), so
a scaled time is in seconds of that host.  The work is the benchmark's own
and does not depend on ldmcap, so a change to ldmcap moves the scaled times
exactly as it moves the raw ones.

The work runs in a helper process (``Calibrator``), so the benchmark
process stays small: a child's peak RSS counts the memory of the process
that spawned it, up to the moment it execs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

REFERENCE_S = 0.16


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreted loops, many small numpy
    calls, a few large array passes and float formatting: the kinds of
    work in ldmcap."""
    import numpy as np

    small = np.random.default_rng(0).random((150, 4))
    large = np.random.default_rng(1).random((19683, 30)) + 0.5
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(700):
        d = ((small[:, None, :] - small[None, :10, :]) ** 2).sum(-1)
        np.argsort(d, axis=0)
    for _ in range(15):
        np.log(large).sum(axis=1)
    for row in large[:1500].tolist():
        ",".join(f"{v:.17g}" for v in row)
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """The host's speed over a process bracketed by two calibrations, as a
    share of the reference host's: below 1 when it ran slower."""
    return REFERENCE_S / ((before + after) / 2)


class Calibrator:
    """The helper process: ``measure(cpu)`` runs ``calibrate`` on that CPU
    (on every CPU the benchmark may use if None) and returns its time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def measure(self, cpu: int | None) -> float:
        self.proc.stdin.write(f"{'' if cpu is None else cpu}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self) -> Calibrator:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


if __name__ == "__main__":
    cpus = os.sched_getaffinity(0)
    calibrate()  # warm up: imports and first-touch allocations
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)} if line.strip() else cpus)
        print(calibrate(), flush=True)
