"""Host speed sampling, so that untraced times can be put on one scale.

On a shared virtual machine the speed of the host drifts: the same fixed loop
takes up to twice as long from one minute to the next, and a run's wall time
follows it.  The host also takes the processor away now and then (steal
time), which adds to wall time but not to the process's CPU time.  So the
workload and the kernel below are timed in CPU seconds of this process; the
program is single-threaded, so on an idle machine these equal wall seconds.
While a workload runs, a timer signal interrupts it every
``INTERVAL_S`` seconds and times a fixed kernel of small numpy and pure
Python work that does not touch polysmith.  The time spent in the kernel is
taken out of the workload's clock.  A job's time is then reported in
reference seconds: measured seconds x ``REFERENCE_S`` / median time of the
kernel samples taken within ``WINDOW_S`` of the job.  The kernel does not
change with the program, so a change to polysmith moves reference seconds
as it moves measured seconds on a host of steady speed.
"""

from __future__ import annotations

import signal
import statistics
from time import process_time

import numpy as np

INTERVAL_S = 0.2
WINDOW_S = 1.0
# Nominal time of one kernel call; it sets the scale of reference seconds.
REFERENCE_S = 0.005

_rng = np.random.default_rng(20181211)
_SQUARE = [_rng.normal(size=(6, 6)) for _ in range(8)]
_TALL = [_rng.normal(size=(12, 6)) for _ in range(8)]
_SIGNAL = _rng.normal(size=64)
_WORDS = [f"k{i}" for i in range(200)]
ROUNDS = 6


def kernel() -> float:
    """A fixed mix of the work polysmith does: small dense factorizations,
    FFTs, and interpreter-bound loops over lists and dicts."""
    total = 0.0
    for a, b in zip(_SQUARE * ROUNDS, _TALL * ROUNDS):
        total += float(np.abs(np.linalg.eigvals(a)).sum())
        total += float(np.linalg.svd(b, compute_uv=False)[0])
        total += float(np.linalg.lstsq(b, b[:, 0], rcond=None)[0][0])
        total += float(np.abs(np.fft.rfft(_SIGNAL)).max())
    table = {}
    for i, word in enumerate(_WORDS * 4 * ROUNDS):
        table[word] = table.get(word, 0) + i * 0.5
    total += sum(table.values())
    return total


class HostSpeed:
    """Samples the kernel on a timer while the workload runs.

    ``clock()`` is the process's CPU time minus the time spent in the
    kernel, so time the workload with it.  ``scale_between()`` converts a
    job's seconds to reference seconds.
    """

    def __init__(self):
        self.samples = []
        self.stamps = []  # clock() when each sample was taken
        self.paused = 0.0
        self._previous = None

    def clock(self) -> float:
        return process_time() - self.paused

    def sample(self) -> float:
        start = process_time()
        kernel()
        spent = process_time() - start
        self.samples.append(spent)
        return spent

    def _on_timer(self, signum, frame):
        start = process_time()
        self.stamps.append(self.clock())
        self.sample()
        self.paused += process_time() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)

    def scale_between(self, t0: float, t1: float) -> float:
        """Scale from the timer samples within WINDOW_S of [t0, t1] on the
        workload clock; the run's scale when there are fewer than three."""
        near = [d for t, d in zip(self.stamps, self.samples)
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if len(near) < 3:
            return self.scale()
        return REFERENCE_S / statistics.median(near)
