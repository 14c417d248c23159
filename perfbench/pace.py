"""A fixed reference unit of work, timed between jobs to track machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over tens of seconds to minutes, for reasons outside the program
(other guests).  A raw pass time carries that drift.  The reference unit is
work of the benchmark's own that touches no ``usdlab`` code: a pure-Python
loop, small numpy element-wise kernels, a small LAPACK solve and a stream
over a 16 MiB buffer (above L2, the same size as the traversal's sample).
``Pacer.slot`` runs a few units before every job, outside the job's time,
and a run reports its job time rescaled by ``REF_UNIT_S`` over the mean unit
time it measured: seconds at the speed where one unit takes ``REF_UNIT_S``.
A change to the program cannot move the reference, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# one unit's time on the baseline machine in a quiet phase (see README.md)
REF_UNIT_S = 0.03

_SMALL = np.random.default_rng(0).standard_normal((64, 64))
_STREAM = np.random.default_rng(1).standard_normal(4 << 20).astype(np.float32)


def reference_unit():
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    acc = 0
    for i in range(60000):
        acc += i * i
    counts = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    b = _SMALL
    for _ in range(100):
        b = np.cos(b) * 0.5 + np.abs(b.sum(axis=0)) * 1e-3
    for _ in range(15):
        w = np.linalg.eigvalsh(b @ b.T)
    s = 0.0
    for _ in range(2):
        s += float(np.add.reduce(_STREAM, dtype=np.float64))
    return acc + len(counts) + float(w[-1]) + s


class Pacer:
    """Times ``units`` reference units per slot and keeps the totals."""

    def __init__(self, units):
        self.units = int(units)
        self.count = 0
        self.total_s = 0.0

    def slot(self):
        t0 = time.perf_counter()
        for _ in range(self.units):
            reference_unit()
        self.count += self.units
        self.total_s += time.perf_counter() - t0

    def mean_unit_s(self):
        return self.total_s / self.count

    def scale(self):
        """Factor that rescales a time measured here to the reference speed."""
        return REF_UNIT_S / self.mean_unit_s()
