"""Machine-speed reference for timing on shared cores.

On a machine whose cores are shared with other tenants, the speed of the
same code drifts by tens of per cent in phases that last from seconds to
a minute, long enough to move the mean of a whole run. The benchmark
therefore runs a small fixed kernel of its own between the timed calls
(interpreted loops over small NumPy arrays, like curvop's Jacobi sweeps
and descent steps) and scales each call's time by REFERENCE_S over the
kernel's time measured around it. Call times are so expressed at the
speed of a machine on which the kernel takes REFERENCE_S; a program
change moves them exactly as it moves the raw times, while the machine's
phases cancel. The kernel does not depend on curvop.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference machine (2-core Xeon, OpenBLAS 0.3.31, one
# thread, NumPy 2.4.6, Python 3.11) in a quiet phase. It sets only the
# scale of the reported rates.
REFERENCE_S = 0.002
# Longest stretch of timed calls between two kernel runs.
EVERY_S = 0.1

_MATRIX = np.random.default_rng(12).standard_normal((12, 12))


def kernel_seconds() -> float:
    """Time of the reference kernel now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        m = _MATRIX + _MATRIX.T
        for _ in range(6):
            for p in range(11):
                for q in range(p + 1, 12):
                    col_p = 0.8 * m[:, p] - 0.6 * m[:, q]
                    col_q = 0.6 * m[:, p] + 0.8 * m[:, q]
                    m[:, p], m[:, q] = col_p, col_q
        best = min(best, time.perf_counter() - start)
    return best


class ReferenceClock:
    """Accumulates call times scaled to the reference machine's speed.

    ``add`` records a call's raw time under a key; the scaled time is
    credited once the next kernel run brackets the call, which happens
    after every EVERY_S of calls and on ``settle``.
    """

    def __init__(self):
        self.scaled: dict = {}
        self._pending: list[tuple[object, float]] = []
        self._since = 0.0
        self._before = kernel_seconds()

    def add(self, key, seconds: float) -> None:
        self._pending.append((key, seconds))
        self._since += seconds
        if self._since >= EVERY_S:
            self.settle()

    def settle(self) -> None:
        if not self._pending:
            return
        after = kernel_seconds()
        factor = REFERENCE_S / ((self._before + after) / 2.0)
        for key, seconds in self._pending:
            self.scaled[key] = self.scaled.get(key, 0.0) + seconds * factor
        self._pending.clear()
        self._since = 0.0
        self._before = after
