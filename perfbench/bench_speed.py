"""The host's speed, sampled while the workload runs, to put times on one scale.

On a shared host the same work can run up to twice as slow for stretches of
seconds to minutes, and a whole run can fall inside one slow stretch.  A
SIGALRM handler therefore runs a fixed reference kernel every ``PERIOD_S`` of
wall time.  Each kernel is code of the kind a workload spends its time in,
and calls no hambif code, so a change to the program cannot change it.  A
time ``t`` measured while the kernel took ``k`` (the mean of its samples
over that time) is reported as ``t * reference_s / k``: seconds on a host
where the kernel takes its reference time.  The mean, not the median,
because the workload suffers every stall of the host, short or long, and a
sample taken at a random moment does too.

The kernel's own time is taken out of every latency: ``spent(t0, t1)`` is
the time the handler used between ``t0`` and ``t1``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.03
MIN_SAMPLES = 9

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((n, n)) for n in (6, 10, 16, 24)]
_LARGE = _rng.standard_normal((64, 64))
# A quartic on R^4 as (coefficient, exponent vector) terms, and a point.
_TERMS = ((0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)), (1.0, (0, 0, 2, 0)), (0.5, (0, 0, 0, 2)),
          (0.25, (4, 0, 0, 0)), (0.1, (2, 0, 2, 0)), (0.25, (0, 0, 4, 0)))
_POINT = np.array([0.3, -0.2, 0.1, 0.4])


def linalg_kernel() -> None:
    """Dense linear algebra of the sizes the decide workloads use."""
    for m in _SMALL * 2:
        np.linalg.svd(m)
        np.linalg.eigvalsh(m + m.T)
    np.linalg.svd(_LARGE)


def scalar_kernel() -> None:
    """Gradients of a polynomial in Python loops over numpy scalars, the
    kind of code that continuation spends its time in."""
    x = _POINT
    for _ in range(12):
        g = np.zeros(4)
        for coeff, exps in _TERMS:
            for k, ek in enumerate(exps):
                if ek:
                    prod = coeff * ek
                    for m, em in enumerate(exps):
                        p = em - 1 if m == k else em
                        if p:
                            prod *= x[m] ** p
                    g[k] += prod


def mixed_kernel() -> None:
    """Both, each taking about half the time."""
    linalg_kernel()
    for _ in range(13):
        scalar_kernel()


# name -> (kernel, its mean time on the 2-vCPU KVM guest (Intel Xeon, numpy
# 2.4.6 with OpenBLAS on one thread) where the benchmark was written, in a
# fast phase)
KERNELS = {"linalg": (linalg_kernel, 1.6e-3), "scalar": (scalar_kernel, 0.12e-3),
           "mixed": (mixed_kernel, 1.6e-3 + 13 * 0.12e-3)}


class SpeedProbe:
    """Samples a reference kernel: on a timer inside ``with probe:``, or on
    demand with ``sample()``."""

    def __init__(self, kernel: str = "linalg", period_s: float = PERIOD_S):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.period_s = period_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:  # a tick that arrives while a sample runs is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.kernel()
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, t0: float, t1: float) -> float:
        """Time spent in samples that started in [t0, t1)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scale(self, since: float) -> float:
        """The kernel's reference time over its mean sample started at or
        after ``since``; samples on demand first until there are
        ``MIN_SAMPLES``."""
        lo = bisect.bisect_left(self.starts, since)
        while len(self.starts) - lo < MIN_SAMPLES:
            self.sample()
        return self.reference_s / statistics.fmean(self.durations[lo:])
