"""In-memory spans around the calls floqep's modules make into each other.

Every span is one call of a wrapped function: its name, start, end and
the index of the span that was open when it began (its parent).  Spans
live in flat arrays while the run goes and are written out once, when
it ends.  Functions are wrapped under the name the *calling* module
imports them by (``floqep.sweep._segment_product``, not the definition
in ``floqep.propagator``), because that is the name the call resolves at
run time.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (span name, module path, attribute); a dotted attribute patches a class
# member.  One span name may be installed under several import names.
PATCHES = (
    ("cli.main", "floqep.cli", "main"),
    ("config.load_config", "floqep.cli", "load_config"),
    ("sweep.phase_diagram", "floqep.cli", "phase_diagram"),
    ("sweep.trace_ep_contours", "floqep.cli", "trace_ep_contours"),
    ("sweep.berry_gamma_sweep", "floqep.cli", "berry_gamma_sweep"),
    ("sweep.persist", "floqep.cli", "persist"),
    ("render.heatmap_svg", "floqep.render", "heatmap_svg"),
    ("render.contours_svg", "floqep.render", "contours_svg"),
    ("render.berry_svg", "floqep.render", "berry_svg"),
    ("sweep.cell_max_im", "floqep.sweep", "_cell_max_im"),
    ("sweep.cell_half_trace", "floqep.sweep", "_cell_half_trace"),
    ("sweep.classify_root", "floqep.sweep", "_classify_root"),
    ("model.instantiate", "floqep.model", "PresetTemplate.instantiate"),
    ("model.bloch_vector_at", "floqep.propagator", "bloch_vector_at"),
    ("model.bloch_vector_at", "floqep.berry", "bloch_vector_at"),
    ("propagator.segment_hamiltonians", "floqep.sweep", "segment_hamiltonians"),
    ("propagator.segment_hamiltonians", "floqep.propagator", "segment_hamiltonians"),
    ("propagator.segment_product", "floqep.sweep", "_segment_product"),
    ("propagator.segment_product", "floqep.propagator", "_segment_product"),
    ("propagator.quasienergy_from_trace", "floqep.sweep", "quasienergy_from_trace"),
    ("propagator.quasienergy_from_trace", "floqep.propagator", "quasienergy_from_trace"),
    ("propagator.monodromy", "floqep.sweep", "monodromy"),
    ("propagator.ep_indicator", "floqep.sweep", "ep_indicator"),
    ("floquet.max_im_quasienergy", "floqep.sweep", "max_im_quasienergy"),
    ("floquet.build_floquet_matrix", "floqep.floquet", "build_floquet_matrix"),
    ("floquet.complex_eigenvalues", "floqep.floquet", "complex_eigenvalues"),
    ("floquet.fold_spectrum", "floqep.floquet", "fold_spectrum"),
    ("berry.berry_phase_loop", "floqep.sweep", "berry_phase_loop"),
    ("berry.loop_frames", "floqep.berry", "_loop_frames"),
    ("berry.wilson_loop_phase", "floqep.berry", "wilson_loop_phase"),
)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        open_spans, clock = self._open, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                open_spans.pop()

        return traced

    def install(self, modules: dict):
        """Wrap every entry of :data:`PATCHES`; ``modules`` maps paths to modules."""
        for name, mod_path, attr in PATCHES:
            owner = modules[mod_path]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write the raw spans (names plus the four arrays) to ``path``."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def tail_percentile(n: int) -> float:
    """Highest of 99.9/99/90/50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def summarize(names: list[str], spans: dict, per_call: tuple = ()) -> dict:
    """Count, total and self seconds per span name.

    Self time is a span's duration minus the durations of its child
    spans; calls are single-threaded, so children never overlap.  Names
    in ``per_call`` also get the median and tail of their durations.
    """
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(
        spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_t = dur - child
    out = {}
    for nid, name in enumerate(names):
        mask = spans["name_id"] == nid
        d = dur[mask]
        entry = {
            "count": int(d.size),
            "total_s": float(d.sum()),
            "self_s": float(self_t[mask].sum()),
        }
        if name in per_call and d.size:
            pct = tail_percentile(d.size)
            entry["p50_s"] = float(np.percentile(d, 50))
            entry["tail_s"] = float(np.percentile(d, pct))
            entry["tail_pct"] = pct
        out[name] = entry
    return out
