"""Child process that drives the floqep CLI for the benchmark.

Usage: ``python3 runner.py JOB.json`` with ``src`` on ``PYTHONPATH``.  The
job lists phases; each phase calls ``floqep.cli.main(argv)`` repeatedly
until ``seconds`` have passed and at least ``min_reps`` calls are done.
A phase with ``"trace": true`` makes its calls with every span of
:mod:`tracing` installed and writes the raw spans to ``spans_path``.

The last stdout line is one JSON object with, per phase, the call times,
the time of the compute call inside each CLI call, counted
``floqep.sweep`` log records, output hashes and the peak resident memory
of this process and of its (pool) children.

A :class:`calibration.Probe` on the phase's worker count runs before
the first call and after every call; the probe times are reported with
the phase.
"""

from __future__ import annotations

import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path

import floqep.berry
import floqep.cli
import floqep.floquet
import floqep.model
import floqep.propagator
import floqep.render
import floqep.sweep

from calibration import Probe
from tracing import Tracer, summarize

MODULES = {
    name: sys.modules[name]
    for name in (
        "floqep.berry", "floqep.cli", "floqep.floquet", "floqep.model",
        "floqep.propagator", "floqep.render", "floqep.sweep",
    )
}

# spans whose individual durations are summarized as median and tail
PER_CALL = (
    "sweep.cell_half_trace",
    "floquet.max_im_quasienergy",
    "berry.berry_phase_loop",
)


class SweepLogCounter(logging.Handler):
    """Counts the per-cell failure and lost-root warnings of floqep.sweep."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.failed_cells = 0
        self.roots_lost = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("cell ") and " failed" in msg:
            self.failed_cells += 1
        elif msg.startswith("EP root lost"):
            self.roots_lost += 1


class ComputeTimer:
    """Times the single compute call the CLI makes (``compute`` in cli)."""

    def __init__(self, attr: str):
        self.attr = attr
        self.original = getattr(floqep.cli, attr)
        self.times: list[float] = []

    def __enter__(self):
        original, times = self.original, self.times

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        setattr(floqep.cli, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(floqep.cli, self.attr, self.original)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_phase(phase: dict, counter: SweepLogCounter) -> dict:
    argv = phase["argv"]
    csv_path = Path(phase["csv"])
    walls, digests = [], []
    failed0, lost0 = counter.failed_cells, counter.roots_lost
    tracer = Tracer() if phase["trace"] else None
    with Probe(phase["workers"]) as probe, ComputeTimer(phase["compute"]) as compute:
        calibs = [probe()]
        if tracer is not None:
            tracer.install(MODULES)
        try:
            t_begin = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                code = floqep.cli.main(argv)
                walls.append(time.perf_counter() - t0)
                calibs.append(probe())
                if code != 0:
                    raise SystemExit(f"floqep {' '.join(argv)} exited with {code}")
                digests.append(_digest(csv_path))
                if (len(walls) >= phase["min_reps"]
                        and time.perf_counter() - t_begin >= phase["seconds"]):
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        # before the probe processes exit: only the CLI's own pool is counted
        kib = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
    out = {
        "peak_rss_mb": kib / 1024.0,
        "walls": walls,
        "compute": compute.times,
        "calib": calibs,
        "digests": digests,
        "failed_cells": counter.failed_cells - failed0,
        "roots_lost": counter.roots_lost - lost0,
    }
    if tracer is not None:
        tracer.save(phase["spans_path"])
        out["spans"] = summarize(tracer.names, tracer.arrays(), PER_CALL)
        out["span_count"] = len(tracer.start)
    return out


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    counter = SweepLogCounter()
    logging.getLogger("floqep.sweep").addHandler(counter)
    result = {
        "phases": [run_phase(phase, counter) for phase in job["phases"]],
        "floqep_file": floqep.cli.__file__,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
