"""Host-speed reference sampled while the benchmark measures.

The sandbox this benchmark was built on shares its CPU: the same code runs at
speeds up to 1.8x apart, in phases from a few seconds to minutes. A fixed
loop of small numpy products and dict updates, which does not touch decon,
slows down and speeds up with it: over 150 s, the ratio of a decon stepping
loop's time to this loop's time spread 0.4-1% between 10-36 s windows, while
the stepping loop's own time spread 12-15%.

`HostClock` runs that loop every PERIOD_S seconds from a SIGALRM handler in
the main thread, so speed is sampled during a timed stretch as well as around
it, and reports a stretch's seconds at the reference speed: its duration less
the sampling, times REF_S x the mean of 1 / (loop time) over the samples.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median time of `_loop` on the 2-core sandbox (Intel Xeon, 2.1 GHz nominal,
# Python 3.11, numpy 2.4): a loop ten times longer took 28 ms over 150 s, 9.4x
# this one. This is the reference speed.
REF_S = 0.0030
PERIOD_S = 0.2

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((10, 10))
_X = _rng.standard_normal((10, 5))
_M = _rng.standard_normal((10, 3, 5))


def _loop() -> float:
    x, acc = _X, 0.0
    for _ in range(150):
        y = _W @ x - 0.01 * x
        r = np.einsum("imp,ip->im", _M, y)
        x = y / (1.0 + float(np.sum(r * r)) * 1e-3)
        acc += float(np.linalg.norm(x))
    counts: dict[int, int] = {}
    for i in range(2_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


class HostClock:
    """Samples the reference loop every PERIOD_S seconds while entered."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostClock":
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self._sample()

    def at_ref(self, start: float, end: float) -> tuple[float, float]:
        """(seconds at the reference speed, sampling seconds) for [start, end)."""
        inside = [s for s in self.samples if start <= s[0] < end]
        before = [s for s in self.samples if s[0] < start][-3:]
        after = [s for s in self.samples if s[0] >= end][:3]
        busy = sum(d for _, d in inside)
        speed = statistics.mean(1.0 / d for _, d in before + inside + after)
        return (end - start - busy) * REF_S * speed, busy
