"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same pass of a workload takes anywhere from 1x to 1.8x
its quiet-machine time, in stretches of seconds to minutes, and a run of
under a minute cannot average that out.  So the benchmark times this loop
next to the work it measures and rescales the work's wall time by
``REFERENCE_S`` / (the loop's time): the result is the time the work takes on
a quiet core.  The loop is plain Python float arithmetic and runs none of
torsionlab's code, so no change to the program moves it.  Of the loops tried
(this one, small numpy einsums and eigensolves, a small forward-mode jet
class), it tracked the slowdowns of both the pure-Python trajectory loops and
the numpy-bound spectra best.
"""

from __future__ import annotations

import time

# The loop's time on a quiet core of a 2.1 GHz Intel Xeon vCPU: the fast mode
# of its samples there, which fall in two groups, 0.51-0.62 ms and 0.75-1.1 ms.
REFERENCE_S = 5.7e-4
INTERVAL_S = 0.2  # at most one sample per this much wall time


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(6000):
        s += (i * 0.5) ** 2
    return time.perf_counter() - t0


def sample() -> float:
    """Seconds the loop takes now: the faster of two back-to-back runs."""
    return min(_loop(), _loop())


def rescale(segments, refs) -> float:
    """Wall seconds at reference speed.

    ``refs[i]`` and ``refs[i + 1]`` are the loop samples taken before and after
    the work that took ``segments[i]`` seconds; each segment is scaled by
    ``REFERENCE_S`` over the mean of its two samples.
    """
    return sum(seg * REFERENCE_S / (0.5 * (a + b))
               for seg, a, b in zip(segments, refs, refs[1:]))
