"""Timed sections scaled by the speed of the core they ran on.

The benchmark runs on a few cores of a shared host. Their throughput swings
by up to 1.6x within seconds and differs from one minute to the next with
the other tenants' load, while process CPU time swings with it, so neither
wall time nor CPU time compares across runs. A section therefore measures the
core's speed while it runs: a fixed reference loop runs once before the
section, once after it, and every `INTERVAL` seconds inside it (from a
SIGALRM handler, between two bytecodes of whatever runs). The loop's own time
is subtracted from the section's wall time, and the rest is scaled by the
loop's reference time over its mean time: the section's time on a core that
runs the loop in its reference time. Each loop time is capped at twice the
section's median first: a loop that loses the core for milliseconds would
otherwise weigh fifty times more in the mean than in the section, since
sampling takes about 2 % of the section's time. A program that does more work
takes proportionally longer in these seconds too; a busy neighbour slows the
loop and the program alike and cancels out.

The loop is interpreter work, plus, with `numpy=True`, small numpy and LAPACK
calls like the solver's: contention slows these two by different amounts, and
the solver does both. The set-up is timed with the interpreter loop alone, so
that the section imports nothing and times the set-up's imports in full.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

INTERVAL = 0.02  # seconds between samples inside a section
# Reference times of the two loops, a scale only: about their times on a core
# of a 2-vCPU x86-64 virtual machine, so that scaled seconds read close to
# wall seconds there.
PYTHON_REF = 2.5e-4
NUMPY_REF = 2.5e-4


def _python_loop() -> int:
    s = 0
    for i in range(3000):
        s += (i * 7) % 13
    return s


def _numpy_loop(a) -> None:
    import numpy as np

    for _ in range(8):
        np.linalg.svd(a, compute_uv=False)
        (a @ a.T).max(axis=0)


@dataclass
class Timing:
    wall: float = 0.0  # wall seconds of the section, sampling excluded
    seconds: float = 0.0  # `wall` scaled to the reference speed
    samples: int = 0


@contextmanager
def section(numpy: bool = False):
    """Time the body of a `with` block; the Timing is filled in on exit."""
    timing = Timing()
    samples: list[float] = []
    ref = PYTHON_REF
    if numpy:
        import numpy as np

        a = np.linspace(-1.0, 1.0, 24).reshape(6, 4)
        ref += NUMPY_REF

    def sample(*_):
        t = time.perf_counter()
        _python_loop()
        if numpy:
            _numpy_loop(a)
        samples.append(time.perf_counter() - t)

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    t0 = time.perf_counter()
    try:
        yield timing
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
        inside = sum(samples[1:])
        sample()
        timing.wall = t1 - t0 - inside
        cap = 2 * statistics.median(samples)
        loop = sum(min(s, cap) for s in samples) / len(samples)
        timing.seconds = timing.wall * ref / loop
        timing.samples = len(samples)
