"""Machine-speed probe that puts timings on a common scale.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent within a minute, and CPU time drifts with it.  A fixed piece of
the kind of work floqep does (interpreter arithmetic, many small numpy
calls, a few larger vectorised ones) is timed right before and right
after every measured call.  The mean of the two probes gives the speed
the call ran at; the call time multiplied by ``REFERENCE_S / probe`` is
the time it would take on a machine where the probe takes exactly
``REFERENCE_S``.

A call that runs on ``n`` worker processes is matched by ``n`` probes
running at once in separate processes, because its speed is that of
every core it uses.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

REFERENCE_S = 0.080


def calibrate(_=None) -> float:
    """Seconds for the fixed probe work in this process."""
    big = np.linspace(0.0, 1.0, 16384)
    small = big[:12]
    t0 = time.perf_counter()
    s, z = 0, 0j
    for i in range(350_000):
        s += i * i
    for i in range(60_000):
        z = z * 0.5 + complex(i, 1.0) * 1e-9
    for _ in range(6000):
        np.sign(np.cos(small * 1.5)).sum()
    for _ in range(85):
        np.sin(big).sum()
    return time.perf_counter() - t0


class Probe:
    """Runs :func:`calibrate` on as many processes as the measured call uses."""

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None
        if workers > 1:
            self._pool = multiprocessing.get_context("spawn").Pool(workers)

    def __call__(self) -> float:
        if self._pool is None:
            return calibrate()
        return statistics.mean(self._pool.map(calibrate, range(self.workers), chunksize=1))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()


def at_reference(times: list[float], probes: list[float]) -> float:
    """Median of ``times`` at reference speed.

    ``probes`` has one more entry than ``times``: probe ``k`` ran right
    before call ``k`` and probe ``k + 1`` right after it.
    """
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before and one after every call")
    return statistics.median(
        t * REFERENCE_S / (0.5 * (a + b)) for t, a, b in zip(times, probes, probes[1:])
    )
