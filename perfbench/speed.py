"""Machine speed, measured next to the work it is used to normalize.

The CPU speed of a shared virtual machine drifts by a third or more within
seconds, and process CPU time drifts with it.  So every timed stretch of
work is paired with timings of one fixed reference block (standard library
and numpy only, never the package), taken right beside it: between graphs
in the certify loop, and from a SIGALRM sampler inside each child process.
A raw time t measured while the block took r seconds is reported as
t * REF_NOMINAL_S / r: seconds on a machine where the block takes
REF_NOMINAL_S.  Raw times are kept in the report next to them.
"""

import signal
import time
from fractions import Fraction

import numpy as np

# Typical time of block() on an idle 2-core x86-64 VM, CPython 3.11;
# it only sets the scale of the normalized figures.
REF_NOMINAL_S = 0.0013

_M = np.arange(36.0).reshape(6, 6)


def block():
    """Fixed mix of the package's kinds of work: Fraction arithmetic,
    plain Python integer loops and small numpy column updates."""
    A = _M.copy()
    for _ in range(2):
        s = Fraction(0)
        for i in range(1, 200):
            s += Fraction(i % 7 + 1, i)
        for p in range(5):
            for q in range(p + 1, 6):
                c = A[:, p].copy()
                A[:, p] = 0.6 * c - 0.8 * A[:, q]
                A[:, q] = 0.8 * c + 0.6 * A[:, q]
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return s, acc


def time_block() -> float:
    """Seconds for one run of block(), after one untimed run that warms the
    caches, so the figure depends on the machine and not on what ran
    before it."""
    block()
    t0 = time.perf_counter()
    block()
    return time.perf_counter() - t0


def normalize(raw_s: float, ref_s: float) -> float:
    return raw_s * REF_NOMINAL_S / ref_s


class Sampler:
    """Times block() once at start() and then every interval seconds of
    wall time, from a SIGALRM handler, until stop()."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(time_block())

    def start(self):
        self.samples.append(time_block())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> dict:
        """Mean block time, and the time the samples took out of the run."""
        return {"ref_mean_s": sum(self.samples) / len(self.samples),
                "ref_sum_s": sum(self.samples),
                "ref_samples": len(self.samples)}
