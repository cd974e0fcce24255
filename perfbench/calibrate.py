"""Host-speed calibration: rescale measured times to a fixed reference speed.

The benchmark shares a few cores of a host with other tenants, and the speed
that one single-threaded Python process gets from it drifts: on a 2-vCPU
virtual machine the same catalogue-6d round took 0.71 s in one run and 1.12 s
a minute later. Medians inside a run cannot remove drift that lasts longer
than the run.

So the measuring process itself also runs a fixed pure-Python kernel (exact
fraction arithmetic into a dict, like the program's inner loops, but no
nkhodge code) at regular intervals while it works, from a SIGALRM handler in
the same thread, and records how long each chunk of the kernel took. A window
of work is then reported as

    (window wall - chunk time inside it) * REF_CHUNK_S / mean chunk time

that is, the seconds the work would have taken on a host where one chunk
takes exactly REF_CHUNK_S. The mean, not the median, because the work is
slowed by the average speed over the window, bursts included. A change to
nkhodge moves this figure as it moves wall time; a change of host speed moves
the chunks and the work alike and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_CHUNK_S = 0.002
PERIOD_S = 0.05


def kernel() -> int:
    """One chunk of fixed work: Fraction products summed into a small dict."""
    acc: dict[int, Fraction] = {}
    x = Fraction(3, 7)
    for i in range(300):
        k = (i * 37) % 61
        acc[k] = acc.get(k, 0) + x * Fraction(i + 1, k + 2)
    return len(acc)


class Calibrator:
    """Chunk samples as (start, duration), taken on demand or by a timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter() - start))

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self, period: float = PERIOD_S) -> None:
        """Take one chunk every ``period`` seconds of wall time until stop()."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def chunk_time(self, lo: float, hi: float) -> float:
        """Seconds of the chunks that started in [lo, hi)."""
        return sum(d for t, d in self.samples if lo <= t < hi)

    def rescale(self, lo: float, hi: float, speed_from=None) -> float:
        """Reference seconds of the work done in [lo, hi).

        Chunks that started inside the window are taken out of its wall time.
        The speed is the mean chunk time of ``speed_from`` (a list of samples)
        if given, else of the chunks inside the window.
        """
        if speed_from is None:
            speed_from = [(t, d) for t, d in self.samples if lo <= t < hi]
        if not speed_from:
            raise ValueError("no calibration chunk to set the speed by")
        mean = statistics.fmean(d for _, d in speed_from)
        return (hi - lo - self.chunk_time(lo, hi)) * REF_CHUNK_S / mean
