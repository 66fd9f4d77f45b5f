"""(gamma, omega) grids, EP contour tracing, and persistence.

A preset is affine in gamma: the piecewise and ``floquet`` engines and
the spectral Berry pass evaluate it on its split
:meth:`~floqep.model.PresetTemplate.parts`.  Every engine evaluates a
list of (gamma, omega) cells through one function, :func:`_map_cells`:
both monodromy engines in blocks of one size, a piecewise block one call
of the batched segment-product kernel whatever the span, over half the
period where the preset has the half-period parity and half again where
it has the time reflection (see :mod:`floqep.propagator`), a
``monodromy-integrate`` block the RK4 oracle cell by cell; the
``floquet`` engine in stacked eigensolves of one parity sector (see
:mod:`floqep.floquet`).  A map runs the piecewise engine as one
in-process task, and the other two as one task per omega row over a
process pool, reassembled by index; block and stack sizes are fixed per
engine, so the output is bit-identical for any worker count, and the
sidecar records the calls and the workers that ran.  Numerical failures become NaN sentinel
cells, summarised in one log line; more than 1% failures aborts the
sweep.  EP contours come from the indicator on the grid blocks and a
bisection of every sign-change bracket; a bisection pass evaluates, in
one kernel call, the midpoints of every bracket down the path towards
an estimate of its root, under a small full tree that hedges the
estimate, and a root's kind comes from the traces of the call that
evaluated it.  A Berry sweep runs each loop in drive phase, so it takes
no omega, and in-process, one route per family: a square loop as the
polygon of its segment vectors, a smooth loop by the spectral route in
stacked passes, NaN where that route declines.
"""

from __future__ import annotations

import datetime
import functools
import itertools
import json
import logging
import math
import os
from dataclasses import asdict, dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, propagator
from .berry import polygon_phase_rows, spectral_phase_rows
from .floquet import DEFAULT_CUTOFF, STACK_CELLS, _check_cutoff, _sector_matrix, cells_max_im
from .model import PresetTemplate, _is_int, half_period_parity, time_reflection
from .propagator import (
    DEFAULT_STEPS_PER_PERIOD,
    ROOT_TOL,
    EPKind,
    NumericalError,
    Traces,
    indicator_from_trace,
    integrate_traces,
    monodromy,
    piecewise_traces,
    root_kinds,
    segment_hamiltonians,
    _complex,
    _doubled_arcsin,
    _kernel_state,
)
# unused here: perfbench wraps these names in this module
from .berry import berry_phase_loop  # noqa: F401
from .floquet import max_im_quasienergy  # noqa: F401
from .propagator import ep_indicator, quasienergy_from_trace, _segment_product  # noqa: F401

log = logging.getLogger(__name__)

ENGINES = ("floquet", "monodromy-piecewise", "monodromy-integrate")

INSTABILITY_THRESHOLD = 1e-8  # max Im eps above this counts as unstable

FAILURE_BUDGET = 0.01  # a larger share of failed cells aborts a map
MAX_BISECTIONS = 200  # per bracket; a root not found by then is lost

# cells per block of either monodromy engine, fixed, so no result depends
# on how a grid is split: a piecewise kernel call's fixed cost (~0.1 ms)
# spreads over them, and the square map's 4-row span peaks at ~0.75 MiB of
# heap (2048-cell calls take ~0.45 MiB more); the RK4 oracle runs cell by cell
BLOCK_CELLS = 1024


class FailureBudgetExceeded(RuntimeError):
    """Too many grid cells failed numerically."""


def _check_axis(name: str, lo, hi, count, positive: bool) -> tuple[float, float, int]:
    """``(lo, hi, count)`` as floats and an int: a count >= 2 and finite
    ``lo <= hi``, ``lo > 0`` if ``positive``, else ``lo >= 0``
    (``ValueError``); a bound that is not a number is a ``TypeError``."""
    if not _is_int(count):
        raise ValueError("grid counts must be integers")
    if not all(_is_int(x) or isinstance(x, (float, np.floating)) for x in (lo, hi)):
        raise TypeError("grid bounds must be numbers")
    lo, hi, count = float(lo), float(hi), int(count)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid bounds must be finite")
    if count < 2:
        raise ValueError("grid counts must be >= 2")
    if positive and not lo > 0:
        raise ValueError(f"{name}_min must be > 0")
    if lo < 0:
        raise ValueError(f"{name}_min must be >= 0")
    if hi < lo:
        raise ValueError("grid ranges must be ordered")
    return lo, hi, count


def _check_engine(engine) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")
    return engine


def _check_threads(threads) -> int:
    """``threads`` as an int; ``ValueError`` unless a positive integer (not a bool)."""
    if not _is_int(threads) or threads < 1:
        raise ValueError("threads must be a positive integer")
    return int(threads)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (gamma, omega) grid plus the evaluation engine; the
    fields are stored as Python floats and ints (see :func:`_check_axis`)."""

    gamma_min: float
    gamma_max: float
    gamma_count: int
    omega_min: float
    omega_max: float
    omega_count: int
    engine: str = "monodromy-piecewise"

    def __post_init__(self):
        for name, positive in (("gamma", False), ("omega", True)):
            fields = (f"{name}_min", f"{name}_max", f"{name}_count")
            checked = _check_axis(name, *(getattr(self, f) for f in fields), positive)
            for field, value in zip(fields, checked):
                object.__setattr__(self, field, value)
        _check_engine(self.engine)

    @property
    def gammas(self) -> np.ndarray:
        return np.linspace(self.gamma_min, self.gamma_max, self.gamma_count)

    @property
    def omegas(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.omega_count)

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Gamma and omega of every node, row-major (gamma fastest)."""
        return np.tile(self.gammas, self.omega_count), np.repeat(self.omegas, self.gamma_count)


@dataclass(eq=False)
class PhaseDiagram:
    """Row-major stability map: ``values[j, i] = max Im eps`` at
    ``(omegas[j], gammas[i])``."""

    grid: GridSpec
    values: np.ndarray
    metadata: dict


class ContourPoint(NamedTuple):
    omega: float
    gamma: float
    kind: str


@dataclass(eq=False)
class EPContourSet:
    """Degeneracy roots linked into polylines.

    Exceptional points are chained across neighbouring frequency columns;
    diabolic roots stay as singleton contours so they never pollute the
    EP polylines.
    """

    contours: tuple  # tuple of tuples of ContourPoint
    tolerance: float
    metadata: dict


@dataclass(eq=False)
class BerrySweep:
    """Geometric phase of both bands across a gamma range."""

    gammas: np.ndarray
    thetas: np.ndarray  # (n, 2) complex
    flags: tuple        # per gamma: tuple of flagged drive phases
    metadata: dict


@functools.lru_cache(maxsize=32)
def _segment_vectors(template: PresetTemplate):
    """Segment vectors ``(a, b)`` of a square preset (read-only arrays).

    Every preset is affine in gamma, and its segment midpoints sit at
    fixed drive phases, so segment ``l`` has the Bloch vector
    ``a[l] + gamma * b[l]`` at every omega, from the preset's ``parts()``.
    """
    a, b = map(segment_hamiltonians, template.parts())
    a.flags.writeable = b.flags.writeable = False
    return a, b


@functools.lru_cache(maxsize=32)
def _floquet_sector(template: PresetTemplate, cutoff: int):
    """Sector matrices ``(a, b, harmonics)`` of a smooth preset (read-only arrays).

    The Floquet matrix is affine in gamma, so the ``+1`` parity sector
    at ``(gamma, omega)`` is ``a + gamma * b + omega * diag(harmonics)``,
    from the preset's ``parts()`` (see :func:`~floqep.floquet._sector_matrix`).
    """
    (a, harmonics), (b, _) = (_sector_matrix(part, cutoff) for part in template.parts())
    a.flags.writeable = b.flags.writeable = harmonics.flags.writeable = False
    return a, b, harmonics


@functools.lru_cache(maxsize=32)
def _segment_symmetries(template: PresetTemplate):
    """The half-period parity and the time reflection of a square preset,
    each an axis or None (the same at every gamma)."""
    model = template.instantiate(1.0, 1.0)
    return half_period_parity(model), time_reflection(model)


def _block_cells(engine: str) -> int:
    """Cells per kernel call of ``engine``: a block of :func:`_block_propagators`,
    :data:`BLOCK_CELLS` for either monodromy engine, or a floquet stack of
    :data:`~floqep.floquet.STACK_CELLS`."""
    return STACK_CELLS if engine == "floquet" else BLOCK_CELLS


def _block_propagators(template: PresetTemplate, gammas, omegas, engine):
    """Propagator traces at the cells ``(gammas[k], omegas[k])``, block by block.

    Yields ``(cells, traces)`` per block of :data:`BLOCK_CELLS` cells: the
    slice and the :class:`~floqep.propagator.Traces`, periods in
    ``traces.T``.  A piecewise block is one kernel call over the span that
    the preset's parity and reflection leave, with the span's rounding
    bound (:func:`~floqep.propagator.piecewise_traces`); an integrate block
    runs the RK4 oracle cell by cell (:func:`~floqep.propagator.integrate_traces`).
    Either enters numpy's error state once per block, and a cell whose
    propagator is not finite is NaN.
    """
    if engine == "monodromy-piecewise":
        a, b = _segment_vectors(template)
        symmetries = _segment_symmetries(template)
    for start in range(0, len(gammas), BLOCK_CELLS):
        cells = slice(start, start + BLOCK_CELLS)
        T = 2.0 * math.pi / omegas[cells]
        if engine == "monodromy-piecewise":
            traces = piecewise_traces(a, b, gammas[cells], T, *symmetries)
        else:
            models = [template.instantiate(float(g), float(w)) for g, w in zip(gammas[cells], omegas[cells])]
            traces = integrate_traces(models, T, DEFAULT_STEPS_PER_PERIOD)
        yield cells, traces
        del traces  # before the next block's kernel call, as the callers do


def _indicator_at(template: PresetTemplate, gammas, omegas, engine, roots: list) -> np.ndarray:
    """EP indicator ``f`` at the cells; NaN where the propagator is not
    finite (see :func:`_finite`).  Each block with root cells, ``|f| <=
    ROOT_TOL``, appends their gammas, omegas, ``f`` and traces to ``roots``
    (see :func:`_classify_root`)."""
    f = np.empty(len(gammas))
    for cells, traces in _block_propagators(template, gammas, omegas, engine):
        f[cells] = f_block = indicator_from_trace(traces.half_trace)
        at = np.flatnonzero(np.abs(f_block) <= ROOT_TOL)
        if at.size:
            roots.append((gammas[cells][at], omegas[cells][at], f_block[at], traces.take(at)))
        del traces
    return f


def _finite(f: np.ndarray) -> np.ndarray:
    """``f`` if every value is finite, else ``NumericalError``."""
    n_bad = int(np.count_nonzero(~np.isfinite(f)))
    if n_bad:
        raise NumericalError(f"non-finite propagator at {n_bad} of {f.size} cells")
    return f


def _undecided(traces) -> np.ndarray:
    """Cells whose stability verdict rests on the propagator's error
    alone, as ``traces.bound`` bounds it; ``T`` is ``traces.T``.

    Full-period route: ``max Im eps`` crosses the threshold where
    ``|c| - 1`` reaches ``(threshold * T)**2 / 2``, and a numerically
    real ``c`` within ``bound`` of that may fall either side.

    Half-period route: the verdict differs somewhere in the box of
    half-width ``s``, twice the half-period product's bound, around ``t``.
    ``|Im eps_F| T = |Im 2 arcsin(-i t/2)|`` grows with ``|Re t|`` and
    ``|Im t|``, so over the box it is least at the point nearest 0 and
    greatest at the corner ``t + s (+/-1 +/- i)`` farthest from it; those
    two verdicts decide.  Only the cells that the first-order bound
    ``|dw| <= 2 |dt| / |sqrt(4 + t^2)| = 2 |dt| / sqrt(2 |1 + c|)`` on
    ``w = eps_F T``, doubled for the higher orders, puts near the
    threshold are tried.  Overflows are the caller's: it holds numpy's
    error state (see :func:`_map_cells`).
    """
    t, bound, T = traces.parity_trace, traces.bound, traces.T
    if t is None:
        c = traces.half_trace
        gap = np.abs(c) - 1.0 - 0.5 * (INSTABILITY_THRESHOLD * T) ** 2
        return (np.abs(c.imag) <= bound) & (np.abs(gap) <= bound)
    step = 2.0 * bound  # |dt| <= sqrt(2) step
    undecided = np.zeros(t.shape, dtype=bool)
    gap = np.abs(traces.max_im_eps - INSTABILITY_THRESHOLD) * T
    near = np.flatnonzero(gap * np.sqrt(np.abs(1.0 + traces.half_trace)) <= 4.0 * step)
    if near.size:
        t, s, T = t[near], step[near], T[near]
        least = _complex((t.real - np.clip(t.real, -s, s), t.imag - np.clip(t.imag, -s, s)))
        most = _complex((t.real + np.copysign(s, t.real), t.imag + np.copysign(s, t.imag)))
        undecided[near] = _unstable(least, T) != _unstable(most, T)
    return undecided


def _unstable(t, T) -> np.ndarray:
    """The map's verdict ``max Im eps > threshold`` at parity traces ``t``."""
    return np.abs(_doubled_arcsin(t).imag / T) > INSTABILITY_THRESHOLD


def _cell_half_trace(template: PresetTemplate, gamma, omega, engine):
    model = template.instantiate(float(gamma), float(omega))
    return monodromy(model, engine.removeprefix("monodromy-")).half_trace


def _cell_max_im(template: PresetTemplate, gamma, omega, engine) -> float:
    model = template.instantiate(float(gamma), float(omega))
    return monodromy(model, engine.removeprefix("monodromy-")).max_im_eps


def _map_cells(template: PresetTemplate, engine: str, cutoff: int, gammas, omegas):
    """``max Im eps`` at the cells ``(gammas[k], omegas[k])`` (NaN where one
    fails), the count of cells undecided by the propagator's bound (None
    for the floquet engine), and the error text of each failed floquet
    cell (a failed propagator cell has one cause, so no text).  A
    monodromy engine enters numpy's error state once per block for its
    verdict."""
    if engine == "floquet":
        values, errors = cells_max_im(*_floquet_sector(template, cutoff), gammas, omegas, cutoff)
        return values, None, errors
    values = np.empty(len(gammas))
    undecided = 0
    for cells, traces in _block_propagators(template, gammas, omegas, engine):
        with _kernel_state():  # the verdict of a non-finite cell is NaN
            values[cells] = traces.max_im_eps
            undecided += int(np.count_nonzero(_undecided(traces)))
        del traces
    return values, undecided, []


def _map_tasks(fn, tasks, threads: int) -> list:
    """``[fn(*t) for t in tasks]``, over a pool of ``min(threads, len(tasks))``
    processes when that is above 1; ``Pool.starmap`` keeps the order."""
    processes = min(threads, len(tasks))
    if processes > 1:
        with Pool(processes=processes) as pool:
            return pool.starmap(fn, tasks, chunksize=1)
    return [fn(*t) for t in tasks]


def _run_metadata(template: PresetTemplate, **fields) -> dict:
    """A result's sidecar metadata: the model label, ``fields``, a UTC
    timestamp, the package version, and the machine's CPU count and numpy
    version."""
    return {
        "model": template.label,
        **fields,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


def _engine_family_check(template: PresetTemplate, engine: str):
    if engine == "floquet" and template.family != "smooth":
        raise ValueError("the floquet engine needs a smooth-family model")
    if engine == "monodromy-piecewise" and template.family != "square":
        raise ValueError("the piecewise engine needs a square-family model")


def phase_diagram(
    template: PresetTemplate,
    grid: GridSpec,
    threads: int = 1,
    cutoff: int = DEFAULT_CUTOFF,
) -> PhaseDiagram:
    """Evaluate ``max Im eps`` on every grid node, by :func:`_map_cells`.

    The piecewise engine runs as one in-process task whatever ``threads``
    is.  The other engines run one task per omega row over at most
    ``threads`` processes, and the rows are written back in order.  Either
    way the result does not depend on the worker count.  Both monodromy
    engines count the cells whose verdict is within their bound of the
    threshold (``undecided_cells``; None for the floquet engine): the
    piecewise kernel's rounding bound, or the oracle's
    ``INTEGRATE_BOUND * max(1, ||G||_F)``.  The metadata records what ran:
    ``workers`` (the processes), ``kernel_calls`` (blocks of the monodromy
    engines, stacked eigensolves of the floquet engine) and
    ``cells_per_call`` (their size, the last of a task smaller).
    """
    threads = _check_threads(threads)
    _engine_family_check(template, grid.engine)
    # argument errors raise here: inside a cell they would only become NaN
    if grid.engine == "floquet":
        cutoff = _check_cutoff(cutoff, template.beta)  # beta: a preset's largest harmonic
        if not math.isfinite(grid.omega_max * cutoff):
            raise ValueError(f"omega_max {grid.omega_max:g} times cutoff {cutoff} "
                             "overflows the Floquet matrix diagonal")
    rows = 1 if grid.engine == "monodromy-piecewise" else grid.omega_count
    tasks = [(template, grid.engine, cutoff, g, w)
             for g, w in zip(*(np.split(axis, rows) for axis in grid.cells()))]
    workers = min(threads, len(tasks))
    values, undecided, errors = zip(*_map_tasks(_map_cells, tasks, workers))
    values = np.concatenate(values).reshape(grid.omega_count, grid.gamma_count)
    undecided = None if None in undecided else sum(undecided)
    errors = [e for errs in errors for e in errs]
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        log.warning(
            "%d of %d cells failed; first (omega index, gamma index): %s%s",
            len(bad), values.size, ", ".join(f"({j}, {i})" for j, i in bad[:5]),
            f"; first error: {errors[0]}" if errors else "",
        )
    n_bad = len(bad)
    if n_bad > FAILURE_BUDGET * values.size:
        raise FailureBudgetExceeded(
            f"{n_bad} of {values.size} cells failed (> {FAILURE_BUDGET:.0%} budget)"
        )
    # each engine records the settings it read
    settings = {
        "floquet": {"cutoff": cutoff},
        "monodromy-integrate": {"steps_per_period": DEFAULT_STEPS_PER_PERIOD},
    }.get(grid.engine, {})
    size = _block_cells(grid.engine)
    calls = rows * -(-values.size // rows // size)
    metadata = _run_metadata(
        template, engine=grid.engine, **settings, failed_cells=n_bad, undecided_cells=undecided,
        workers=workers, kernel_calls=calls, cells_per_call=size,
    )
    return PhaseDiagram(grid=grid, values=values, metadata=metadata)


def instability_window(diagram: PhaseDiagram, gamma: float) -> list[tuple[float, float]]:
    """Maximal contiguous frequency intervals that are unstable at ``gamma``.

    ``gamma`` is matched to the nearest grid column; each returned interval
    spans the first to last contiguous node with
    ``max Im eps > 1e-8``.  A failed (non-finite) cell in that column would
    split or hide a window, so it raises ``NumericalError``.
    """
    gammas = diagram.grid.gammas
    if not (gammas[0] - 1e-12 <= gamma <= gammas[-1] + 1e-12):
        raise ValueError(f"gamma {gamma} outside grid range [{gammas[0]}, {gammas[-1]}]")
    i = int(np.argmin(np.abs(gammas - gamma)))
    row = diagram.values[:, i]
    omegas = diagram.grid.omegas
    failed = ", ".join(f"{w:g}" for w in omegas[~np.isfinite(row)])
    if failed:
        raise NumericalError(f"failed cells at gamma {gammas[i]:g}, omega {failed}")
    unstable = row > INSTABILITY_THRESHOLD
    windows = []
    start = None
    for j, flag in enumerate(unstable):
        if flag and start is None:
            start = j
        elif not flag and start is not None:
            windows.append((float(omegas[start]), float(omegas[j - 1])))
            start = None
    if start is not None:
        windows.append((float(omegas[start]), float(omegas[-1])))
    return windows


def _classify_root(roots: list) -> dict[tuple[float, float], EPKind]:
    """The kind of each root cell of ``roots`` (from :func:`_indicator_at`)
    under its ``(gamma, omega)``: the traces their kernel calls built, so
    the defectiveness is formed once, on those cells alone."""
    if not roots:
        return {}
    g, w, f, traces = zip(*roots)
    with np.errstate(all="ignore"):
        defect = Traces.concat(traces).defectiveness
    kinds = root_kinds(np.concatenate(f), defect)
    return dict(zip(zip(np.concatenate(g).tolist(), np.concatenate(w).tolist()), kinds))


def _refine_brackets(f_at, lo, hi, flo, fhi, pass_cells: int):
    """Bisect the sign-change brackets ``[lo[b], hi[b]]`` of ``f`` (``flo``
    and ``fhi`` are ``f`` at the ends); returns ``(roots, passes, cells,
    steps)``, a lost bracket's root NaN.  ``f_at(x, b)`` is ``f`` at the
    points ``x`` of brackets ``b``, NaN where not finite.

    One step at a time, a bracket would end at its midpoint once the width
    and ``|f|`` are within ``ROOT_TOL`` (or ``f`` is 0), and be lost when
    the midpoint rounds onto an end or after ``MAX_BISECTIONS`` of its
    steps.  A pass here evaluates, in one call, up to ``pass_cells // n``
    midpoints of each of the ``n`` active brackets, each the midpoint of
    the ends that one step at a time would hold: a full tree of the top
    ``hedge`` levels, then one midpoint per level down the path towards
    an estimate of the root, no deeper than the bracket can use.  A
    bracket walks down by the one-step rule until it stops or reaches a
    midpoint not evaluated, where ``f`` leaves the predicted path: the
    same roots, bit for bit, whatever the estimate.

    The estimate is the root of the secant through the ends on
    ``asinh(f)`` (``|f|`` grows exponentially in gamma).  The root of the
    quadratic in ``f`` through the ends and a third point, the latest
    midpoint the last walk passed, else an end it replaced (inverse
    quadratic interpolation, as in Brent's method), replaces it where that
    root is nearer the secant's than either end; before a walk, the NaN
    third point leaves the secant's.  With
    ``k = floor(log2(pass_cells // n + 1))`` the depth of the full tree
    the cells hold, ``hedge`` is one level short of it on the first pass
    (and at least one level), where the untested estimate's path takes at
    most ``hedge + 2`` levels; then it is ``k`` after a pass on which the
    estimate held for fewer than ``k`` levels, and one (the path alone)
    after one on which it held for ``k``.  ``steps`` sums the steps
    walked.  A non-finite node raises ``NumericalError`` only if the walk
    reads it.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)  # of the active brackets
    flo, fhi = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    x3, f3 = np.full(lo.size, np.nan), np.full(lo.size, np.nan)  # the third point, once a walk leaves one
    up = flo > 0  # lo only ever moves to a midpoint where f has this sign
    roots = np.full(lo.size, np.nan)
    active = np.arange(lo.size)
    room = np.full(lo.size, MAX_BISECTIONS)  # the steps each bracket may still take
    held = None  # per bracket: the estimate led its last walk as deep as the full tree
    passes = cells = steps = 0
    while active.size:
        n = active.size
        row = np.arange(n)
        budget = max(1, pass_cells // n)
        k = (budget + 1).bit_length() - 1  # the depth of the full tree the budget holds
        with np.errstate(all="ignore"):
            a_lo, a_hi = np.arcsinh(flo), np.arcsinh(fhi)
            x = lo + (hi - lo) * (a_lo / (a_lo - a_hi))  # the secant's root
            # about the levels until the width and |f| ~ slope * width are
            # within ROOT_TOL; two more allow for the slope's error
            need = np.frexp(np.maximum(hi - lo, np.abs(a_hi - a_lo)) / ROOT_TOL)[1]
            # Neville's scheme for x(f) at f = 0; NaN without a third point, which keeps the secant
            x_01 = (lo * fhi - hi * flo) / (fhi - flo)
            x_12 = (hi * f3 - x3 * fhi) / (f3 - fhi)
            quad = (x_01 * f3 - x_12 * flo) / (f3 - flo)
            x = np.where(np.abs(quad - x) < np.minimum(x - lo, hi - x), quad, x)
        cap = np.minimum(room, np.maximum(need, 0) + 2)
        hedge = np.minimum(max(1, k - 1) if held is None else np.where(held, 1, k), cap)
        depth = np.minimum(hedge + (budget + 1) - (1 << hedge), cap)
        if held is None:
            depth = np.minimum(depth, 2 * hedge + 2)
        H, D = int(hedge.max()), int(depth.max())
        # nodes: the hedge tree of H levels by columns, then the predicted
        # path, one row per level
        span = 1 << H
        half = span >> np.arange(1, H + 1)
        nodes = np.empty((span + 1 + D, n))
        nodes[0], nodes[span] = lo, hi
        for h in half.tolist():
            nodes[h:span:2 * h] = 0.5 * (nodes[:span - h:2 * h] + nodes[2 * h:span + 1:2 * h])
        end_lo, end_hi = np.empty((D, n)), np.empty((D, n))  # each level's bracket
        right = np.empty((D, n), dtype=bool)  # the step the estimate predicts
        plo, phi = lo, hi
        for lv in range(D):
            m = plo + phi
            m *= 0.5
            r = np.greater(x, m, out=right[lv])
            end_lo[lv], end_hi[lv] = plo, phi
            nodes[span + 1 + lv] = m
            plo, phi = np.where(r, m, plo), np.where(r, phi, m)
        level = np.arange(D)[:, None]
        in_hedge = level < hedge
        wanted = np.zeros(nodes.shape, dtype=bool)
        lowbit = np.arange(1, span) & -np.arange(1, span)  # half a node's width, in columns
        wanted[1:span] = lowbit[:, None] >= span >> hedge
        wanted[span + 1:] = ~in_hedge & (level < depth)
        f = np.full(nodes.shape, np.nan)
        f[wanted] = fx = f_at(nodes[wanted], active[np.nonzero(wanted)[1]])
        passes, cells = passes + 1, cells + fx.size
        # the walk: down the hedge by the signs, then along the path
        right_of = (f > 0) == up
        left, lefts = np.zeros(n, dtype=int), []
        for h in half.tolist():
            lefts.append(left)
            left = left + h * right_of[left + h, row]
        lefts = np.array(lefts)
        cols = lefts + half[:, None]
        at = (span + 1 + level).repeat(n, axis=1)  # the node each level's step reads
        at[:H] = np.where(in_hedge[:H], cols, at[:H])
        end_lo[:H] = np.where(in_hedge[:H], nodes[lefts, row], end_lo[:H])
        end_hi[:H] = np.where(in_hedge[:H], nodes[cols + half[:, None], row], end_hi[:H])
        mid, fmid = nodes[at, row], f[at, row]
        go_right = (fmid > 0) == up
        on_path = np.logical_and.accumulate(go_right == right, axis=0)  # the estimate held
        known = in_hedge.copy()
        known[1:] |= on_path[:-1] & (level[1:] < depth)
        done = ((end_hi - end_lo < ROOT_TOL) & (np.abs(fmid) <= ROOT_TOL)) | (fmid == 0.0)
        # a midpoint that rounds onto an end leaves the bracket as it is, for good
        stop = done | (mid == end_lo) | (mid == end_hi)
        walked = known.copy()  # up to the first stop
        walked[1:] &= np.logical_and.accumulate(known & ~stop, axis=0)[:-1]
        _finite(fmid[walked])
        walked_n = walked.sum(axis=0)
        steps += int(walked_n.sum())
        room -= walked_n
        last = walked_n - 1
        ended = stop[last, row]
        found = ended & done[last, row]
        roots[active[found]] = mid[last, row][found]
        held = on_path.sum(axis=0) >= np.minimum(k, depth)
        # the bracket that remains: its last midpoints with a step right, and left
        i_lo = np.where(walked & go_right, level, -1).max(axis=0)
        i_hi = np.where(walked & ~go_right, level, -1).max(axis=0)
        # the third point: the latest midpoint walked past (the last is an
        # end, and so may be the one before it), else the end the walk replaced
        i_3 = last - 1 - (np.minimum(i_lo, i_hi) == last - 1)
        past = np.maximum(i_3, 0)
        x3 = np.where(i_3 < 0, np.where(i_lo < 0, hi, lo), mid[past, row])
        f3 = np.where(i_3 < 0, np.where(i_lo < 0, fhi, flo), fmid[past, row])
        lo, flo = np.where(i_lo < 0, lo, mid[i_lo, row]), np.where(i_lo < 0, flo, fmid[i_lo, row])
        hi, fhi = np.where(i_hi < 0, hi, mid[i_hi, row]), np.where(i_hi < 0, fhi, fmid[i_hi, row])
        go_on = ~ended & (room > 0)
        active, lo, hi, flo, fhi, x3, f3, up, held, room = (
            v[go_on] for v in (active, lo, hi, flo, fhi, x3, f3, up, held, room))
    return roots, passes, cells, steps


def trace_ep_contours(template: PresetTemplate, grid: GridSpec) -> EPContourSet:
    """Locate and link degeneracy roots of the half-trace indicator.

    The indicator ``f`` is evaluated on every node; each frequency column
    is scanned in gamma for sign changes, and all brackets of all columns
    are bisected together by :func:`_refine_brackets` until both the
    bracket width and ``|f|`` at the root fall below ``ROOT_TOL``.  A
    root not pinned down within ``MAX_BISECTIONS`` steps of its bracket,
    or whose bracket can no longer be halved (an indicator
    discontinuity), is dropped and logged.  The metadata's
    ``refinement`` counts the brackets, the roots on grid nodes, the
    passes, the cells they evaluated, the one-midpoint steps walked
    (summed over the brackets; ``cells - steps`` were evaluated ahead of
    a walk that did not need them), the kernel calls (grid blocks plus
    passes, a pass over more cells than a block taking more), and the
    brackets found and lost.  Every kernel call classifies the cells
    where ``|f| <= ROOT_TOL`` from its own traces (see
    :func:`_classify_root`), so a root's kind takes no call of its own.

    Linking takes the columns in omega order and each column's roots in
    gamma order.  A diabolic root is a singleton line.  The exceptional
    points of a column continue the lines open from the previous column:
    the (line, root) pairs, sorted by ``(|gamma gap|, line index, root
    index)``, are accepted greedily while the gap is at most 3 grid steps
    in gamma and neither side is taken.  A root left over starts a new
    line, placed after the continued lines in root order (this order
    breaks later ties); a line not continued closes.  Lines are returned
    sorted by their first point ``(omega, gamma)``.
    """
    if grid.engine == "floquet":
        raise ValueError("EP contour tracing needs a monodromy engine")
    _engine_family_check(template, grid.engine)
    gammas = grid.gammas
    omegas = grid.omegas
    dgamma = float(gammas[1] - gammas[0])

    block = _block_cells(grid.engine)
    roots: list = []  # the root cells of every kernel call, by block
    kernel_calls = 0

    def f_at(g, w):
        nonlocal kernel_calls
        kernel_calls += -(-len(g) // block)
        return _indicator_at(template, g, w, grid.engine, roots)

    fs = _finite(f_at(*grid.cells())).reshape(grid.omega_count, grid.gamma_count)
    # roots on a node (tangency roots never change sign), then brackets
    node_j, node_i = np.nonzero(np.abs(fs) <= ROOT_TOL)
    f0, f1 = fs[:, :-1], fs[:, 1:]
    off_root = (np.abs(f0) > ROOT_TOL) & (np.abs(f1) > ROOT_TOL)
    br_j, br_i = np.nonzero(off_root & ((f0 > 0) != (f1 > 0)))

    w_br = omegas[br_j]
    found, passes, cells, steps = _refine_brackets(
        lambda g, b: f_at(g, w_br[b]),
        gammas[br_i], gammas[br_i + 1], f0[br_j, br_i], f1[br_j, br_i],
        # a kernel call costs nearly the same up to a block; the oracle pays per cell
        block if grid.engine == "monodromy-piecewise" else 1,
    )
    lost = np.isnan(found)
    for k in np.flatnonzero(lost):
        log.warning(
            "EP root lost during bisection at omega=%.6g, gamma in [%.6g, %.6g]",
            w_br[k], gammas[br_i[k]], gammas[br_i[k] + 1],
        )

    root_j = np.concatenate([node_j, br_j[~lost]])
    root_g = np.concatenate([gammas[node_i], found[~lost]]).tolist()
    kinds = _classify_root(roots)
    column_roots: list[list[tuple[float, EPKind]]] = [[] for _ in omegas]
    for j, g, w in zip(root_j, root_g, omegas[root_j].tolist()):
        column_roots[j].append((g, kinds[g, w]))
    refinement = {"brackets": br_i.size, "node_roots": node_i.size, "passes": passes,
                  "cells": cells, "steps": steps, "kernel_calls": kernel_calls,
                  "found": br_i.size - lost.sum(), "lost": lost.sum()}
    return EPContourSet(
        contours=tuple(map(tuple, _link_ep_roots(omegas, column_roots, dgamma))),
        tolerance=ROOT_TOL,
        metadata=_run_metadata(template, engine=grid.engine, tolerance=ROOT_TOL,
                               refinement={k: int(v) for k, v in refinement.items()}),
    )


def _link_ep_roots(omegas, column_roots, dgamma: float) -> list[list[ContourPoint]]:
    """Polylines from the ``(gamma, kind)`` roots of each frequency column,
    by the rule :func:`trace_ep_contours` states; ``dgamma`` is the grid's
    gamma step."""
    closed: list[list[ContourPoint]] = []
    singletons: list[list[ContourPoint]] = []
    open_lines: list[list[ContourPoint]] = []
    for w, roots in zip(omegas, column_roots):
        w = float(w)
        roots = sorted(roots, key=lambda r: r[0])
        singletons += [
            [ContourPoint(w, g, kind.value)] for g, kind in roots if kind is EPKind.DIABOLIC
        ]
        ep_roots = [g for g, kind in roots if kind is EPKind.EP]
        pairs = sorted(
            (abs(line[-1].gamma - g), li, ri)
            for li, line in enumerate(open_lines)
            for ri, g in enumerate(ep_roots)
        )
        continued, line_of = set(), {}  # line_of: root index -> line index
        for dist, li, ri in pairs:
            if dist <= 3.0 * dgamma and li not in continued and ri not in line_of:
                continued.add(li)
                line_of[ri] = li
        new = []
        for ri, g in enumerate(ep_roots):
            point = ContourPoint(w, g, EPKind.EP.value)
            if ri in line_of:
                open_lines[line_of[ri]].append(point)
            else:
                new.append([point])
        closed += [line for li, line in enumerate(open_lines) if li not in continued]
        open_lines = [line for li, line in enumerate(open_lines) if li in continued] + new
    lines = closed + open_lines + singletons
    lines.sort(key=lambda line: (line[0].omega, line[0].gamma))
    return lines


def berry_gamma_sweep(template: PresetTemplate, gammas) -> BerrySweep:
    """Geometric phase of both bands for each gamma (deterministic order).

    A loop is one turn of the drive phase, which omega only traverses
    faster or slower, so the sweep takes no omega; its flags are drive
    phases in ``[0, 2*pi)``.  Each family has one route, run in-process
    on the preset's ``parts()``: a square loop is the polygon of its
    segment vectors (:func:`~floqep.berry.polygon_phase_rows`, delta 0); a
    smooth loop takes :func:`~floqep.berry.spectral_phase_loop` in stacked
    passes, and a loop that route declines, as it does every loop across
    an exceptional point, reads NaN and uncertified.  So does a loop
    through a zero Bloch vector, or whose ``d.d`` overflows, on either
    route.  The metadata's ``loops`` records each gamma's route
    (``"polygon"``, ``"spectral"`` or ``"declined"``), points and delta.
    ``gammas`` must be a non-empty 1-d array (``ValueError``).
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValueError("gammas must be a non-empty 1-d array")
    if template.family == "square":
        a, b = _segment_vectors(template)
        rows = [(p.theta, p.flags, p.certified, "polygon", len(a),
                 0.0 if np.isfinite(p.theta).all() else None)
                for p in polygon_phase_rows(a, b, gammas)]
    else:
        rows = [(np.full(2, complex(np.nan, np.nan)), (), False, "declined", None, None)
                if p is None else (p.theta, (), True, "spectral", p.points, p.delta)
                for p in spectral_phase_rows(*template.parts(), gammas)]
    thetas = np.array([r[0] for r in rows])
    flags = tuple(r[1] for r in rows)
    loops = [{"route": r[3], "points": r[4], "delta": r[5]} for r in rows]
    uncertified = [float(g) for g, r in zip(gammas, rows) if not r[2]]
    metadata = _run_metadata(
        template, max_step_delta=max((r[5] for r in rows if r[2]), default=None),
        all_certified=not uncertified, uncertified_gammas=uncertified, loops=loops,
    )
    return BerrySweep(gammas=gammas, thetas=thetas, flags=flags, metadata=metadata)


# ----------------------------------------------------------------------
# persistence: every result is one CSV table plus a JSON sidecar

_SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


# _fmt_array writes each value in a field of _FIELD bytes, NUL where it
# writes no character
_FIELD = 24  # sign, digit, point; 12 digits; "e", sign, 2-3 digits; the end
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # nonzero |x| that _fmt_array formats itself
_DECADES = 282  # |e| of the decades it may scale from (one to spare)
DIAGRAM_CHUNK_CELLS = 1024  # cells per chunk of the phase-diagram writer


@functools.cache
def _scale_table() -> np.ndarray:
    """Columns ``(hi, lo)`` of ``10**(12 - e)`` for ``e`` from ``-_DECADES``
    to ``_DECADES``: ``hi`` the nearest double, ``lo`` the double nearest
    the rest, by exact integer arithmetic (0 where ``10**(12 - e)`` is a
    double)."""
    table = []
    for k in range(12 + _DECADES, 11 - _DECADES, -1):
        hi = float(f"1e{k}")  # correctly rounded, as int / int is
        num, den = hi.as_integer_ratio()
        lo = (10**k * den - num) / den if k >= 0 else (den - num * 10**-k) / (den * 10**-k)
        table.append((hi, lo))
    return np.array(table).T


@functools.cache
def _digit_table() -> np.ndarray:
    """Entry ``n`` holds the 4 ASCII digits of ``n < 10**4`` as its bytes
    (little-endian uint32, as every word :func:`_fmt_array` writes)."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):  # the digit of place ``place`` varies along axis ``place``
        table[..., place] = digits.reshape([-1 if axis == place else 1 for axis in range(4)])
    return table.view("<u4").ravel()


@functools.cache
def _exponent_table() -> np.ndarray:
    """Entry ``e + _DECADES`` holds ``"e%+03d" % e``, NUL-padded to 8 bytes
    (little-endian uint64)."""
    text = b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-_DECADES, _DECADES + 1))
    return np.frombuffer(text, dtype="<u8")


def _scaled_digits(a, e):
    """``a * 10**(12 - e)`` rounded half-even, and whether that rounding is
    certain.  The product is ``p + err``, TwoProduct by ``10**(12 - e)``'s
    ``hi`` plus ``a * lo``: exact where ``lo`` is 0, else within ``2**-104
    p``.  The rounding reads the sign of ``d``, the distance to the
    half-integer above ``floor(p)``, which a float sum keeps; so a tie is
    ``d == 0`` where the product is exact, and elsewhere a ``|d|`` within
    ``2**-100 p`` leaves the rounding uncertain."""
    hi, lo = _scale_table().take(e + _DECADES, axis=1)
    p, err = propagator._two_prod(a, hi)
    err += a * lo
    q = np.floor(p)
    d = (p - q - 0.5) + err  # p - q and the 0.5 exact, so |d| < 1
    tie = np.flatnonzero(d == 0.0)
    q += np.ceil(d)  # 1 above the half-integer, 0 at or below it
    q[tie] += q[tie] % 2.0  # to even
    return q, (lo == 0.0) | (np.abs(d) > p * 2.0**-100)


def _fmt_array(x, end: str) -> np.ndarray:
    """:func:`_fmt` of every float64 of the 1-d ``x``, then the character
    ``end``, as rows of :data:`_FIELD` ASCII bytes with NULs between.

    A nonzero ``|x|`` in ``[1e-280, 1e280]`` is rounded to 13 digits as
    ``q = |x| * 10**(12 - e)`` by :func:`_scaled_digits`, from ``e =
    floor(log10 |x| - 1e-12)``: the decade, or one below it where
    ``log10 |x|`` lies within ``1e-12`` above an integer (the log's error
    is far smaller), so ``q >= 10**12``.  A ``q`` of ``10**13`` reads
    ``10**12`` of the next decade, as ``%.12e`` writes a value rounded up
    into it; a ``q`` past ``10**13`` has ``e`` one below, and goes to
    :func:`_fmt`, as do non-finite values, those outside that range (0
    aside) and those whose rounding is uncertain.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0.0
    a[~fast] = 1.0  # formatted as 1: a zero then as 0, the rest by _fmt
    e = np.log(a)  # not log10, a numpy loop no other code runs (64 KiB more RSS)
    e = np.floor(e / math.log(10.0) - 1e-12, out=e).astype(np.int64)
    q, sure = _scaled_digits(a, e)
    sure &= q <= 1e13
    carry = q == 1e13
    q[carry] = 1e12
    e[carry] += 1
    q[zero] = 0.0  # formatted as 1, so e is 0

    # little-endian words: sign, lead digit, point, NUL; the 12 digits by 4;
    # the exponent and the end, NUL-padded to 8 bytes
    out = np.empty((x.size, _FIELD // 8), dtype="<u8")
    words = out.view("<u4")
    index = np.empty((x.size, 3), dtype=np.int64)
    lead, rest = np.divmod(q.astype(np.int64), 10**12)
    np.divmod(rest, 10**8, out=(index[:, 0], rest))
    np.divmod(rest, 10**4, out=(index[:, 1], index[:, 2]))
    point = ord(".") << 16 | ord("0") << 8
    words[:, 0] = (lead << 8) + np.where(np.signbit(x), point | ord("-"), point)
    words[:, 1:4] = _digit_table().take(index)
    out[:, 2] = _exponent_table().take(e + _DECADES) + (ord(end) << 40)
    text = out.view(np.uint8)
    for k in np.flatnonzero(~((fast | zero) & sure)).tolist():
        field = (_fmt(x[k]) + end).encode()
        text[k] = 0
        text[k, :len(field)] = np.frombuffer(field, dtype=np.uint8)
    return text


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _read_meta(path: Path, expected_fmt: str) -> dict:
    mp = _meta_path(path)
    if not mp.exists():
        raise FileNotFoundError(f"missing metadata sidecar {mp}")
    with open(mp) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"sidecar {mp} is not a JSON object")
    version = doc.get("schema_version")
    if not _is_int(version) or version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r} in {mp}")
    if doc.get("format") != expected_fmt:
        raise ValueError(f"expected format {expected_fmt!r}, found {doc.get('format')!r}")
    return doc


def write_table(path, header: str, chunks, fmt: str, payload: dict) -> Path:
    """Write the CSV line ``header``, then ``chunks`` (ASCII bytes of whole
    lines) as they come, then the sidecar of format ``fmt`` carrying
    ``payload``.  The sidecar text is built first, so a payload that JSON
    cannot encode raises before any file is opened."""
    path = Path(path)
    meta = json.dumps({"schema_version": _SCHEMA_VERSION, "format": fmt, **payload},
                      indent=2, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(chunks)
    with open(_meta_path(path), "w", newline="\n") as fh:
        fh.write(meta + "\n")
    return path


def csv_lines(rows):
    """One chunk of one CSV line per row of ``rows`` (each an iterable of
    text fields)."""
    return ["".join(",".join(row) + "\n" for row in rows).encode()]


def _diagram_table(diagram: PhaseDiagram):
    return _diagram_chunks(diagram), {"grid": asdict(diagram.grid), "metadata": diagram.metadata}


def _diagram_chunks(diagram: PhaseDiagram):
    """The CSV lines of ``diagram``, :data:`DIAGRAM_CHUNK_CELLS` cells at a
    time: each chunk the fields of its omegas, gammas and values, those of
    the axes formatted once, then the NULs dropped."""
    grid = diagram.grid
    field = f"V{_FIELD}"  # a field as one array item
    axes = _fmt_array(np.concatenate([grid.omegas, grid.gammas]), ",").view(field).ravel()
    omegas, gammas = axes[:grid.omega_count], axes[grid.omega_count:]
    values = diagram.values.ravel()
    for start in range(0, values.size, DIAGRAM_CHUNK_CELLS):
        chunk = values[start:start + DIAGRAM_CHUNK_CELLS]
        j, i = np.divmod(np.arange(start, start + chunk.size), grid.gamma_count)
        text = bytearray(3 * _FIELD * chunk.size)
        line = np.frombuffer(text, dtype=field).reshape(-1, 3)
        line[:, 0], line[:, 1] = omegas.take(j), gammas.take(i)
        line[:, 2] = _fmt_array(chunk, "\n").view(field).ravel()
        yield text.translate(None, b"\0")


def _diagram_from(rows, doc: dict, path: Path) -> PhaseDiagram:
    try:
        grid = GridSpec(**doc["grid"])
    except TypeError as exc:  # a non-numeric bound, or a missing or unknown field
        raise ValueError(f"malformed grid in {_meta_path(path)}: {exc}") from exc
    cells = itertools.product(map(_fmt, grid.omegas), map(_fmt, grid.gammas))  # omega outer

    def values_checked():
        for w, g, v in rows:
            cell = next(cells, None)  # None past the grid: left to the row count check
            if cell is not None and (w, g) != cell:
                raise ValueError(f"row ({w}, {g}) is not grid cell ({cell[0]}, {cell[1]}) in {path}")
            yield float(v)

    values = np.fromiter(values_checked(), dtype=float)
    if values.size != grid.omega_count * grid.gamma_count:
        raise ValueError(
            f"row count {values.size} does not match grid "
            f"{grid.omega_count}x{grid.gamma_count} in {path}"
        )
    values = values.reshape(grid.omega_count, grid.gamma_count)
    return PhaseDiagram(grid=grid, values=values, metadata=doc["metadata"])


def _contours_table(contours: EPContourSet):
    rows = (
        (str(cid), _fmt(pt.omega), _fmt(pt.gamma), pt.kind)
        for cid, line in enumerate(contours.contours)
        for pt in line
    )
    return csv_lines(rows), {"tolerance": contours.tolerance, "metadata": contours.metadata}


def _contours_from(rows, doc: dict, path: Path) -> EPContourSet:
    lines: dict[int, list[ContourPoint]] = {}
    for cid, w, g, kind in rows:
        if kind not in (EPKind.EP.value, EPKind.DIABOLIC.value):
            raise ValueError(f"unknown contour kind {kind!r} in {path}")
        lines.setdefault(int(cid), []).append(ContourPoint(float(w), float(g), kind))
    return EPContourSet(
        contours=tuple(tuple(lines[k]) for k in sorted(lines)),
        tolerance=doc["tolerance"],
        metadata=doc["metadata"],
    )


def _berry_table(sweep: BerrySweep):
    rows = (  # one row per band
        (_fmt(g), str(band), _fmt(theta.real), _fmt(theta.imag), ";".join(map(_fmt, flags)))
        for g, pair, flags in zip(sweep.gammas, sweep.thetas.tolist(), sweep.flags)
        for band, theta in enumerate(pair)
    )
    return csv_lines(rows), {"metadata": sweep.metadata}


def _berry_from(rows, doc: dict, path: Path) -> BerrySweep:
    gammas, thetas, flags = [], [], []
    for row0, row1 in itertools.zip_longest(rows, rows):  # consecutive rows in pairs
        if row1 is None or (row0[1], row1[1]) != ("0", "1") or row0[0] != row1[0]:
            raise ValueError(f"rows of {path} are not (band 0, band 1) pairs of one gamma")
        gammas.append(float(row0[0]))
        thetas.append([complex(float(row[2]), float(row[3])) for row in (row0, row1)])
        flags.append(tuple(float(v) for v in row0[4].split(";")) if row0[4] else ())
    return BerrySweep(
        gammas=np.array(gammas, dtype=float),
        thetas=np.array(thetas, dtype=complex).reshape(-1, 2),
        flags=tuple(flags),
        metadata=doc["metadata"],
    )


class _Format(NamedTuple):
    name: str        # the sidecar's "format"
    header: str      # the CSV's first line
    result: type
    to_table: Callable    # result -> (CSV line chunks, sidecar payload)
    from_rows: Callable   # (rows, sidecar, path) -> result


_FORMATS = (
    _Format("phase-diagram", "omega,gamma,max_im_eps",
            PhaseDiagram, _diagram_table, _diagram_from),
    _Format("ep-contours", "contour_id,omega,gamma,kind",
            EPContourSet, _contours_table, _contours_from),
    _Format("berry", "gamma,band,re_theta,im_theta,flags",
            BerrySweep, _berry_table, _berry_from),
)


def persist(result, path) -> Path:
    """Write a result to ``path`` (CSV plus a JSON metadata sidecar)."""
    for fmt in _FORMATS:
        if isinstance(result, fmt.result):
            chunks, payload = fmt.to_table(result)
            return write_table(path, fmt.header, chunks, fmt.name, payload)
    raise TypeError(f"cannot persist {type(result).__name__}")


def load(path):
    """Inverse of :func:`persist`; dispatches on the CSV header.

    A row with the wrong field count, rows that do not fit their format,
    and a sidecar that is not an object or lacks a field raise ``ValueError``.
    """
    path = Path(path)
    with open(path, newline="\n") as fh:
        header = fh.readline().strip()
        fmt = next((f for f in _FORMATS if f.header == header), None)
        if fmt is None:
            raise ValueError(f"unrecognized file header {header!r} in {path}")
        doc = _read_meta(path, fmt.name)
        try:
            return fmt.from_rows(_rows(fh, header.count(",") + 1, path), doc, path)
        except KeyError as exc:  # the sidecar lacks a field the format reads
            raise ValueError(f"sidecar {_meta_path(path)} has no {exc} field") from exc


def _rows(lines, n_fields: int, path: Path):
    """The non-blank ``lines`` split into their ``n_fields`` CSV fields."""
    for line in lines:
        line = line.strip()
        if line:
            fields = line.split(",")
            if len(fields) != n_fields:
                raise ValueError(f"malformed row in {path}: {line!r}")
            yield fields
