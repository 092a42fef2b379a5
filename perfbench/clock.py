"""Reference seconds: measured times with the machine's speed divided out.

The benchmark shares a small machine whose throughput swings by up to
1.8x within seconds to minutes, on every core at once.  Raw wall times of
the same pass then spread by 30% and more from run to run, so they cannot
tell a 10% change in the program from a busy neighbour.

While a pass runs, ``SpeedSampler`` times a fixed pure-Python kernel (exact
fractions and dict updates, the same kind of work as mckay's arithmetic)
every 0.25 s from a SIGALRM handler, and once more a few times before and
after.  A measured interval is converted to reference seconds as

    (wall seconds - sampler time inside it) * REFERENCE_KERNEL_S / mean kernel time

where the mean is over the samples taken inside the interval or within a
second of it.  A program change does
not move the kernel time, so it shows in full; a slow phase of the machine
moves both and cancels.  REFERENCE_KERNEL_S is the kernel's mean time on the
2-core VM (Python 3.11.7) the benchmark was defined on, in a fast phase, so
reference seconds read close to wall seconds there.  Raw wall times are
kept in the benchmark's detail line.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0022
SAMPLE_EVERY_S = 0.25
WINDOW_S = 1.0
BRACKET_SAMPLES = 4


def kernel() -> Fraction:
    """Fixed pure-Python work: exact fraction arithmetic and dict updates."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


class SpeedSampler:
    """Kernel timings taken around and during a measured stretch of code."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        for _ in range(BRACKET_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET_SAMPLES):
            self.sample()

    def busy(self, a: float, b: float) -> float:
        """Seconds the sampler itself ran inside [a, b]."""
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in self.samples)

    def speed(self, a: float, b: float) -> float:
        """REFERENCE_KERNEL_S over the mean kernel time of the samples taken
        in [a - WINDOW_S, b + WINDOW_S]: one kernel run is too noisy to set
        the speed of a short item alone."""
        near = [e - s for s, e in self.samples if s >= a - WINDOW_S and e <= b + WINDOW_S]
        # a C call that holds the interpreter for seconds delays the handler
        return REFERENCE_KERNEL_S / statistics.fmean(near or [e - s for s, e in self.samples])

    def reference_s(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b] of wall time."""
        return (b - a - self.busy(a, b)) * self.speed(a, b)


def reference_now(wall_s: float) -> float:
    """Reference seconds of a wall time measured just before this call."""
    sampler = SpeedSampler()
    for _ in range(2 * BRACKET_SAMPLES):
        sampler.sample()
    return wall_s * sampler.speed(float("-inf"), float("inf"))
