"""Reference clock: times a unit of work in reference seconds.

The machine this benchmark was built on is shared, and its CPU speed drifts
by ±30% within seconds while cpu/wall stays at 1.00, so wall time alone
spreads by about 25% between runs of the same code.  A reference clock
samples the machine's current speed while a unit runs: every ``INTERVAL``
seconds of work a SIGALRM handler runs a fixed numpy kernel, shaped like
the workloads' hot loops, for ``SAMPLE_STEPS`` steps and times it.  One
reference second is the time the kernel takes for ``REF_STEPS`` steps at
that moment.  A unit's reference time is its work time, piece by piece,
divided by the length of a reference second around that piece; the time
spent in the handler is not work and counts in neither.

The kernels are frozen benchmark code and never call attnlab, so a change
to the program changes a unit's reference time only through its own work.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL = 0.2       # seconds of work between two speed samples
REF_STEPS = 2540     # kernel steps in one reference second
SAMPLE_STEPS = 38    # kernel steps in one speed sample, about 15 ms
# REF_STEPS is the kernel's steps per second at the median speed of a
# 2-core Intel Xeon at 2.0 GHz, so a reference second there is about one
# wall second.


class Kernel:
    """An attention gradient step on 60 x 8 x 20 inputs, then 24
    coordinate-ascent updates on a dual vector: the small numpy calls and
    the scalar loop that the workloads spend their time in.  Its inputs
    come from a private generator, so it touches no global random state.

    Measured against all three workloads, this mix tracked their speed best
    of the kernels tried (a desk-sized or large-k-sized attention step, a
    300-row dual loop, a pure-Python loop, a 4 MB stream): unit time over
    kernel time has a slope of 1.05-1.16 and a correlation of 0.89-0.99.
    A memory stream tracks worst, so the drift is CPU speed, not bandwidth.
    """

    def __init__(self, groups: int = 60, tokens: int = 8, dim: int = 20, coords: int = 24) -> None:
        rng = np.random.default_rng(20240312)
        self.x = rng.standard_normal((groups, tokens, dim)) / np.sqrt(dim)
        self.xbar = rng.standard_normal((groups, dim)) / np.sqrt(dim)
        self.w0 = rng.standard_normal((dim, dim)) / dim
        a = rng.standard_normal((coords, 2 * coords + 1))
        self.gram = a @ a.T + np.eye(coords)

    def run(self, steps: int) -> float:
        x, xbar, gram = self.x, self.xbar, self.gram
        m = len(gram)
        w = self.w0.copy()
        lam = np.zeros(m)
        margins = np.zeros(m)
        for _ in range(steps):
            h = np.einsum("gtd,de,ge->gt", x, w, xbar)
            s = np.exp(h - h.max(axis=1, keepdims=True))
            s /= s.sum(axis=1, keepdims=True)
            v = np.einsum("gt,gtd->gd", s, x)
            w -= 1e-3 * np.einsum("gd,ge->de", v, xbar)
            for a in range(m):
                new = lam[a] + (1.0 - margins[a]) / gram[a, a]
                if new < 0.0:
                    new = 0.0
                delta = new - lam[a]
                if delta != 0.0:
                    lam[a] = new
                    margins += delta * gram[a]
        return float(w[0, 0] + lam.sum())


@dataclass
class Measured:
    """Work time of one unit in wall seconds and in reference seconds."""

    work_s: float = 0.0
    ref_s: float = 0.0
    sampled_s: float = 0.0         # wall time spent in speed samples
    first_ref_second: float = 1.0  # a reference second at the unit's start


class WallClock:
    """Plain wall time; reference time reads the same.  Used where spans
    are timed, so that no speed sample lands inside a span."""

    @contextmanager
    def unit(self):
        m = Measured()
        start = perf_counter()
        try:
            yield m
        finally:
            m.work_s = m.ref_s = perf_counter() - start


class RefClock:
    """Samples the machine's speed before, during and after each unit."""

    def __init__(self) -> None:
        start = perf_counter()
        self.kernel = Kernel()
        self._samples: list[tuple[float, float, float]] = []
        self.kernel.run(SAMPLE_STEPS)  # first-call costs out of every sample
        self.init_s = perf_counter() - start

    def sample(self) -> tuple[float, float, float]:
        """(start, end, wall seconds one reference second takes now)."""
        start = perf_counter()
        self.kernel.run(SAMPLE_STEPS)
        end = perf_counter()
        return start, end, (end - start) * REF_STEPS / SAMPLE_STEPS

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    @contextmanager
    def unit(self):
        m = Measured()
        self._samples = [self.sample()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        try:
            yield m
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._samples.append(self.sample())
            for (_, end, before), (start, _, after) in zip(self._samples, self._samples[1:]):
                m.work_s += start - end
                m.ref_s += (start - end) / (0.5 * (before + after))
            m.sampled_s = sum(end - start for start, end, _ in self._samples)
            m.first_ref_second = self._samples[0][2]
