"""Host-speed sampling, so timings can be quoted at a reference speed.

The benchmark shares its host: over tens of seconds the same fixed
Python loop runs up to twice as slowly as at other times, and the
slow stretches come and go independently of the program.  A
:class:`HostSpeed` sampler runs a tiny fixed loop on a background
thread every ``PERIOD`` seconds while the benchmark works and keeps
how much CPU time (``time.thread_time``, so waiting for the GIL or a
processor does not count) each loop took.  :meth:`HostSpeed.scale`
turns the wall seconds of a window into seconds at the reference
speed, ``NOMINAL_S`` per loop, using the mean loop time inside that
window.  A sample costs about half a millisecond every quarter second
(0.2% of one processor).

The correction is partial: in the host's slowest stretches the flow
slows about twice as much as the loop does (ATPG: 2x against 1.3x),
so scaled times still rise there, by less than raw ones.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Dict, List, Tuple

#: Seconds between two samples.
PERIOD = 0.25
#: CPU seconds of one sample loop at the reference host speed (a
#: 2-vCPU Xeon VM at 2.0 GHz, typical of its quiet and busy stretches).
NOMINAL_S = 0.00045
#: Fewest samples a window is scaled by; shorter windows borrow the
#: samples nearest to them.
MIN_SAMPLES = 8


def _loop() -> int:
    """The fixed sample work: dict updates and integer arithmetic."""
    counts: Dict[int, int] = {}
    for i in range(2000):
        k = (i * 7919) % 409
        counts[k] = counts.get(k, 0) + 1
    return len(counts)


class HostSpeed:
    """Background sampler of the host's speed (a context manager)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            t = time.thread_time()
            _loop()
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - t))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def loop_s(self, start: float, end: float) -> float:
        """Mean sample seconds in ``[start, end]`` (at least
        ``MIN_SAMPLES`` samples: the ones nearest the window's middle)."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        return statistics.fmean(inside)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent in ``[start, end]`` at the reference speed."""
        return seconds * NOMINAL_S / self.loop_s(start, end)
