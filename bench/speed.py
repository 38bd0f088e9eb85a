"""Normalised time: seconds of the reference machine at full speed.

The benchmark runs on virtual machines whose CPU is shared with other
tenants: for seconds to minutes at a time a fixed piece of work takes up to
about twice as long, and the guest cannot see it (no steal time). Timing the
program with a wall clock then measures the neighbours as much as the
program, and one run can be slow from start to end.

So every time the benchmark reports is normalised. While a run is measured,
a ``Sampler`` times two small fixed pieces of work, the yardsticks, every
``INTERVAL_S`` seconds, from a SIGALRM handler in the main thread, between
the program's own bytecodes. After the run, a ``Warp`` maps the raw clock
readings the benchmark took to normalised ones: between two samples,
normalised time runs at a yardstick's reference time divided by the mean of
its times in those two samples, so it runs slow while the machine is slow,
and the yardsticks' own time is not counted. A reference time is the
yardstick's time on the reference machine at full speed, so a normalised
second is about one second there. Using the samples on both sides of an
interval, rather than only those before it, follows a change of speed
without lag: over 150 s of repeated precomputes and SGD runs on the
reference machine, the quartile spread of single repeats was 34-37 % raw,
13-16 % with the median of the last three samples taken every 0.5 s, and
5 % with the two samples around each instant taken every 0.25 s.

Neighbours do not slow all code alike. Python loops over small numpy
reductions (ROI pooling, box algebra, most of griddet) and small matrix
products (SGD) speed up and slow down on their own, so there is one
yardstick for each: ``pooling_yardstick`` sets the rate by default and
``sgd_yardstick`` inside the SGD intervals given to the ``Warp``.

The yardsticks are written here, not taken from griddet: a change to the
program moves the program's normalised times and leaves the yardsticks alone.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25

_rng = np.random.default_rng(20151223)
_MAP = _rng.random((3, 128, 128))
_X = _rng.random((32, 112))
_W = _rng.random((112, 64))
_BANK = _rng.standard_normal((2048, 112))
_LABELS = _rng.integers(0, 16, size=2048)
_W1 = 0.1 * _rng.standard_normal((112, 48))
_W2 = 0.1 * _rng.standard_normal((48, 16))


def pooling_yardstick() -> float:
    """Max-pool 3 x 3 bins over 240 boxes of a (3, 128, 128) map, with the
    box arithmetic in Python, then one (32, 112) @ (112, 64) product."""
    acc = 0.0
    for k in range(240):
        y0, x0, n = (37 * k) % 96, (53 * k) % 96, 9 + k % 24
        region = _MAP[:, y0:y0 + n, x0:x0 + n]
        for i in range(3):
            r0, r1 = (i * n) // 3, -((-(i + 1) * n) // 3)
            for j in range(3):
                c0, c1 = (j * n) // 3, -((-(j + 1) * n) // 3)
                acc += float(region[:, r0:r1, c0:c1].max())
                acc += math.sqrt(r1 * c1 + k) / (1.0 + c0)
    return acc + float((_X @ _W).sum())


def sgd_yardstick() -> float:
    """24 momentum-SGD steps of a (112, 48, 16) softmax MLP on 128-row
    batches gathered from a fixed bank. Every call starts from the same
    weights and batches, so it does the same arithmetic."""
    rng = np.random.default_rng(7)
    w1, w2 = _W1.copy(), _W2.copy()
    v1, v2 = np.zeros_like(w1), np.zeros_like(w2)
    loss = 0.0
    for _ in range(24):
        pick = rng.integers(0, len(_BANK), size=128)
        x, y = _BANK[pick], _LABELS[pick]
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        z = np.exp(z - z.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        rows = np.arange(len(y))
        loss += float(-np.log(p[rows, y]).mean())
        p[rows, y] -= 1.0
        g2 = h.T @ p
        g1 = x.T @ ((p @ w2.T) * (h > 0))
        v1 = 0.9 * v1 - 0.01 * g1
        v2 = 0.9 * v2 - 0.01 * g2
        w1, w2 = w1 + v1, w2 + v2
    return loss


# yardstick and its time on the reference machine (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4, OpenBLAS on one thread) at full speed, in seconds
YARDSTICKS = {
    "pooling": (pooling_yardstick, 0.0046),
    "sgd": (sgd_yardstick, 0.0036),
}


class Sampler:
    """Times every yardstick once on entry, every ``interval`` seconds
    inside ``with sampler:``, and once on exit, so that every reading taken
    inside has a sample on each side. Restores the previous SIGALRM handler
    on exit."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        # (raw start, raw end, {yardstick: seconds}) in time order
        self.samples: list[tuple[float, float, dict[str, float]]] = []
        self._saved_handler = None
        self._sampling = False

    def sample(self, *_):
        """Time each yardstick. A signal that arrives during a sample is
        dropped."""
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            times = {}
            for kind, (work, _) in YARDSTICKS.items():
                a = time.perf_counter()
                work()
                times[kind] = time.perf_counter() - a
            self.samples.append((start, time.perf_counter(), times))
        finally:
            self._sampling = False

    def __enter__(self):
        self.sample()
        self._saved_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self.sample()
        return False

    def report(self) -> dict:
        """Raw yardstick times (seconds) for the run's report."""
        out = {"interval_s": self.interval, "samples": len(self.samples)}
        for kind, (_, reference) in YARDSTICKS.items():
            times = [s[2][kind] for s in self.samples]
            if len(times) < 2:
                continue
            q1, med, q3 = statistics.quantiles(times, n=4)
            out[kind] = {"reference_s": reference, "min": min(times),
                         "q1": q1, "median": med, "q3": q3,
                         "max": max(times), "total": sum(times)}
        return out


class Warp:
    """Maps raw ``time.perf_counter`` readings taken inside a ``Sampler`` to
    normalised seconds. ``sgd_intervals`` are the raw (start, end) of the
    program's SGD calls, timed against ``sgd_yardstick``; all else is timed
    against ``pooling_yardstick``."""

    def __init__(self, samples, sgd_intervals=()):
        if not samples:
            raise ValueError("no yardstick samples")
        self._sample_starts = [s[0] for s in samples]
        self._samples = samples
        sgd = sorted(sgd_intervals)
        self._sgd_starts = [a for a, _ in sgd]
        self._sgd = sgd
        edges = {x for s in samples for x in s[:2]} | \
            {x for iv in sgd for x in iv}
        self._edges = sorted(edges)
        self._cumulative = [0.0]
        self._rates = []
        for a, b in zip(self._edges, self._edges[1:]):
            rate = self._rate(0.5 * (a + b))
            self._rates.append(rate)
            self._cumulative.append(self._cumulative[-1] + rate * (b - a))
        self._rates.append(self._rate(self._edges[-1]))  # after the last

    def _inside(self, starts, intervals, t) -> bool:
        i = bisect.bisect_right(starts, t) - 1
        return i >= 0 and t < intervals[i][1]

    def _rate(self, t) -> float:
        """Normalised seconds per raw second at raw time ``t``: 0 inside a
        sample, else a reference time over the mean of the bracketing
        samples' times."""
        if self._inside(self._sample_starts, self._samples, t):
            return 0.0
        kind = "sgd" if self._inside(self._sgd_starts, self._sgd, t) \
            else "pooling"
        i = bisect.bisect_right(self._sample_starts, t)
        around = self._samples[max(0, i - 1):i + 1]
        return YARDSTICKS[kind][1] / statistics.fmean(
            s[2][kind] for s in around)

    def __call__(self, t: float) -> float:
        """The normalised reading at raw time ``t``."""
        j = max(0, bisect.bisect_right(self._edges, t) - 1)
        return self._cumulative[j] + self._rates[j] * (t - self._edges[j])

    def seconds(self, start: float, end: float) -> float:
        return self(end) - self(start)
