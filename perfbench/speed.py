"""Machine-speed calibration, so that timings survive a drifting CPU.

On a shared 2-vCPU Xeon virtual machine the CPU speed drifts by 10-25%
over minutes and flips between a fast and a slow mode within tens of
milliseconds.  Every timed interval is therefore also reported scaled to
a nominal machine: a fixed calibration loop is timed in short chunks
every SAMPLE_EVERY_S seconds while the interval runs (SIGALRM; the time
spent sampling is taken out of the interval), and the interval is
multiplied by the loop's nominal seconds per iteration over the trimmed
mean measured around it.  A mean, not a median, because the interval
integrates the speed over both modes.

Tasks are calibrated with a loop of small numpy operations: the
program's time goes to interpreted Python driving small numpy calls
(quadrature callbacks, the Sturm recurrence), which slow down almost as
this loop does.  Compiled kernels (LAPACK, BLAS) do not: ``track.py``
measures how well the factor tracks each kind of code.  Set-ups import
numpy themselves, so they are calibrated with the pure-Python loop.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_EVERY_S = 0.01
# typical seconds per iteration of each loop on a 2-vCPU Xeon (2.1 GHz) VM
NOMINAL_NUMPY_LOOP_S = 6e-6
NOMINAL_PYTHON_LOOP_S = 6e-8


def numpy_loop(loops: int = 20) -> float:
    """Seconds per iteration of a fixed loop of small numpy operations."""
    import numpy as np

    a, b = np.arange(1.0, 5.0), np.ones(4)
    t0 = time.perf_counter()
    for _ in range(loops):
        a = np.where(np.abs(a) < 1e-300, 1e-300, a)
        b = b - 1.0 / a
        _ = b < 0.0
    return (time.perf_counter() - t0) / loops


def python_loop(loops: int = 2000) -> float:
    """Seconds per iteration of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    return (time.perf_counter() - t0) / loops


def trimmed_mean(values: list) -> float:
    """Mean of the middle 80% (all values when there are fewer than ten)."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


class SpeedSampler:
    """Times ``loop()`` every SAMPLE_EVERY_S seconds while in the ``with`` block.

    The samples run on the main thread, between bytecodes; ``spent`` is
    the time they took and ``intervals`` their (start, end) times.
    """

    def __init__(self, loop):
        self.loop = loop
        self.samples, self.intervals, self.spent = [], [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.loop())
        t1 = time.perf_counter()
        self.intervals.append((t0, t1))
        self.spent += t1 - t0

    def __enter__(self):
        self.samples, self.intervals, self.spent = [], [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def scale_factors(cals: list, inner: list) -> list:
    """Per interval i (between cals[i] and cals[i + 1]): nominal / local loop time.

    ``cals`` are numpy-loop samples taken at the interval boundaries and
    ``inner[i]`` those taken during interval i.  The local loop time is the
    trimmed mean of the samples during the interval and of the four
    boundary samples nearest to it.
    """
    return [NOMINAL_NUMPY_LOOP_S / trimmed_mean(inner[i] + cals[max(0, i - 1):i + 3])
            for i in range(len(cals) - 1)]
