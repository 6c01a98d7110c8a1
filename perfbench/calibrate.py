"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by 20-40% over
seconds to minutes, as other load comes and goes. Each timing is therefore
also reported at a reference speed: it is multiplied by REFERENCE_S over
the time a fixed kernel takes at that moment, in the same process where
possible. The kernel is the benchmark's own code, a small copy of the work
the package does most (an exhaustive identity sweep that yields witness
tuples, formatted into text), so only changes to the program move the
scaled figures.
"""

from __future__ import annotations

import io
import statistics
from time import perf_counter

#: Median kernel time on the reference machine (2-vCPU Intel Xeon,
#: Python 3.11) when it is otherwise idle.
REFERENCE_S = 0.010
#: How often a process running ops measures the kernel again.
EVERY_S = 1.0

_N = 12
_DOT = [[(a + b) % _N for b in range(_N)] for a in range(_N)]
_CIRC = [[(a * 5 + b * 7 + a * b) % _N for b in range(_N)] for a in range(_N)]


def _violations():
    for x in range(_N):
        cx = _CIRC[x]
        for y in range(_N):
            left = _DOT[_DOT[cx[y]][x]]
            dy = _DOT[y]
            for z in range(_N):
                if cx[dy[z]] != left[cx[z]]:
                    yield (x, y, z)


def _kernel() -> int:
    out = io.StringIO()
    for _ in range(15):
        for witness in _violations():
            out.write(f"kernel: FAIL witness={witness}\n")
    return len(out.getvalue())


def kernel_time() -> float:
    """Median seconds of five runs of the kernel (about 0.05 s in all)."""
    times = []
    for _ in range(5):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Clock:
    """The kernel times one process measured, and the time that took."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0
        self._last = perf_counter()

    def measure(self) -> None:
        start = perf_counter()
        self.times.append(kernel_time())
        self._last = perf_counter()
        self.spent += self._last - start

    def due(self) -> bool:
        return perf_counter() - self._last >= EVERY_S


def scale(before: float, after: float) -> float:
    """Factor to the reference speed for work done between two kernel times."""
    return REFERENCE_S / ((before + after) / 2)
