"""Reference kernels: fixed work that measures how fast the machine runs.

On a shared machine the same pass can take half again as long in one minute
as in the next, and a core can slow down for a few seconds at a time.  While
a pass runs, a Sampler times a workload's reference kernels from a SIGALRM
handler every PERIOD_S seconds, so the samples cover the same seconds as the
operations.  The mean over kernels of median time / NOMINAL_S is the pass's
slowdown; run.py divides the pass's times by it.  Each workload uses the
kernels that do the same kind of work as its dominant layer
(workloads.REFERENCE).  The kernels are the benchmark's own code and write
into buffers allocated before the pass, so the package cannot change their
cost through the allocator; it can still leave the CPU caches colder or
warmer for them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
# median kernel times on the 2-core Intel Xeon machine the benchmark was
# calibrated on; they fix the unit of every normalised time, so never change
NOMINAL_S = {"py": 0.0027, "roll": 0.0015, "scan": 0.0065}


def _py(_state):
    # interpreted scalar arithmetic, like the family and N3 sweeps
    acc = 0
    for i in range(30000):
        acc = (acc * 31 + i) % 1000003


def _roll(state):
    # shifts of a boolean digit tensor, like the coset-leader BFS
    b, shifted, cuts = state
    for i in range(40):
        body_to, body_from, wrap_to, wrap_from = cuts[i % b.ndim]
        np.copyto(shifted[body_to], b[body_from])
        np.copyto(shifted[wrap_to], b[wrap_from])
        np.bitwise_or(b, shifted, out=b)


def _scan(state):
    # mismatch counts over a table the size of L2, like the exhaustive oracle
    table, word, mismatch, counts = state
    np.not_equal(table, word, out=mismatch)
    np.add.reduce(mismatch, axis=1, dtype=np.uint8, out=counts)
    int(counts.min())


# The kernels write into buffers allocated here, once, so that they allocate
# no arrays while they are timed: their cost cannot depend on the state the
# package left the allocator in.


def _roll_state():
    b = np.zeros((3,) * 10, dtype=bool)
    b.flat[0] = True

    def cut(axis, s):
        return (slice(None),) * axis + (s,)

    # shifted = np.roll(b, 1, axis), as a body and a wrapped-around slice
    cuts = [
        (cut(a, slice(1, None)), cut(a, slice(None, -1)),
         cut(a, slice(0, 1)), cut(a, slice(-1, None)))
        for a in range(b.ndim)
    ]
    return b, np.empty_like(b), cuts


def _scan_state():
    table = np.random.default_rng(0).integers(0, 9, size=(200_000, 10), dtype=np.uint8)
    mismatch = np.empty(table.shape, dtype=bool)
    return table, table[17].copy(), mismatch, np.empty(len(table), dtype=np.uint8)


KERNELS = {"py": (_py, lambda: None), "roll": (_roll, _roll_state), "scan": (_scan, _scan_state)}


class Sampler:
    """Kernel times, one kernel per sample in rotation.  As a context manager
    it samples every PERIOD_S seconds; `spent` is the time it took."""

    def __init__(self, kernels):
        self._kernels = [(k, KERNELS[k][0], KERNELS[k][1]()) for k in kernels]
        self.times = {k: [] for k in kernels}
        self.spent = 0.0
        self._tick = 0

    def sample(self, *_signal_args):
        name, fn, state = self._kernels[self._tick % len(self._kernels)]
        self._tick += 1
        t = time.perf_counter()
        fn(state)
        took = time.perf_counter() - t
        self.times[name].append(took)
        self.spent += took

    def __enter__(self):
        if self._kernels:
            for _ in self._kernels:
                self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self._kernels:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            for _ in self._kernels:
                self.sample()
        return False

    def slowdowns(self) -> dict[str, float]:
        """Each kernel's median time over its nominal time."""
        return {k: statistics.median(t) / NOMINAL_S[k] for k, t in self.times.items()}

    def slowdown(self) -> float:
        """The mean of the kernels' slowdowns; 1.0 for a Sampler without
        kernels, which never samples."""
        if not self._kernels:
            return 1.0
        return statistics.mean(self.slowdowns().values())
