"""(gamma, omega) grids, EP contour tracing, and persistence.

A preset is affine in gamma: the piecewise and ``floquet`` engines and
the spectral Berry pass evaluate it on its split
:meth:`~floqep.model.PresetTemplate.parts`.  Every engine evaluates a
list of (gamma, omega) cells through one function, :func:`_map_cells`:
the piecewise engine in fixed-size blocks of cells, each one call of the
batched segment-product kernel, over half the period where the preset
has the half-period parity and half again where it has the time
reflection (see :mod:`floqep.propagator`); the
``floquet`` engine in stacked eigensolves of one parity sector (see
:mod:`floqep.floquet`); the ``monodromy-integrate`` engine cell by cell.
A map runs the piecewise engine as one in-process task, and the other
two as one task per omega row over a process pool, reassembled by index;
block and stack sizes are constants, so the output is bit-identical for
any worker count.  Numerical failures become NaN sentinel cells,
summarised in one log line; more than 1% failures aborts the sweep.  EP
contours come from the indicator on the grid blocks, a lockstep
bisection of every sign-change bracket, and one batched classification
of the roots; a bisection pass evaluates a tree of midpoints of every
bracket in one kernel call.  A Berry sweep runs each loop in drive
phase, so it takes no omega, and in-process, one route per family: a
square loop as the polygon of its segment vectors, a smooth loop by the
spectral route in stacked passes, NaN where that route declines.
"""

from __future__ import annotations

import datetime
import functools
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, propagator
from .berry import polygon_phase_rows, spectral_phase_rows
from .floquet import DEFAULT_CUTOFF, _check_cutoff, _sector_matrix, cells_max_im
from .model import PresetTemplate, _is_int, half_period_parity, time_reflection
from .propagator import (
    DEFAULT_STEPS_PER_PERIOD,
    ROOT_TOL,
    EPKind,
    MonodromyResult,
    NumericalError,
    Traces,
    indicator_from_trace,
    monodromy,
    piecewise_traces,
    root_kinds,
    segment_hamiltonians,
    _complex,
    _doubled_arcsin,
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

# cells per kernel call; fixed, so no result depends on how a grid is split
BLOCK_CELLS = 512


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


def _block_propagators(template: PresetTemplate, gammas, omegas, engine):
    """Propagator traces at the cells ``(gammas[k], omegas[k])``, block by block.

    Yields ``(cells, T, traces)`` per block of :data:`BLOCK_CELLS`: the
    slice, the periods and the :class:`~floqep.propagator.Traces`.  The
    piecewise engine is one kernel call per block, over the span and the
    half of it that the preset's parity and reflection leave, and
    ``traces.bound`` is the span's rounding bound; see
    :func:`~floqep.propagator.piecewise_traces`.  The integrate engine runs
    the RK4 oracle cell by cell (bound None); a cell whose propagator is
    not finite is NaN, as in the kernel.
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
            G = np.empty((2, 2, 2, len(T)))
            for k, (g, w) in enumerate(zip(gammas[cells], omegas[cells])):
                model = template.instantiate(float(g), float(w))
                # an overflow is a non-finite cell, which Traces makes NaN
                with np.errstate(all="ignore"):
                    G_k = propagator._integrate_monodromy(model, DEFAULT_STEPS_PER_PERIOD)
                G[..., k] = G_k.real, G_k.imag
            traces = Traces(G, T, half_period=False)
        yield cells, T, traces


def _indicator_at(template: PresetTemplate, gammas, omegas, engine) -> np.ndarray:
    """EP indicator ``f`` at the cells; NaN where the propagator is not
    finite (see :func:`_finite`)."""
    f = np.empty(len(gammas))
    for cells, _, traces in _block_propagators(template, gammas, omegas, engine):
        f[cells] = indicator_from_trace(traces.half_trace)
    return f


def _finite(f: np.ndarray) -> np.ndarray:
    """``f`` if every value is finite, else ``NumericalError``."""
    n_bad = int(np.count_nonzero(~np.isfinite(f)))
    if n_bad:
        raise NumericalError(f"non-finite propagator at {n_bad} of {f.size} cells")
    return f


def _undecided(traces, T) -> np.ndarray:
    """Cells whose stability verdict rests on the rounding alone.

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
    threshold are tried.
    """
    t, bound = traces.parity_trace, traces.bound
    if t is None:
        c = traces.half_trace
        gap = np.abs(c) - 1.0 - 0.5 * (INSTABILITY_THRESHOLD * T) ** 2
        return (np.abs(c.imag) <= bound) & (np.abs(gap) <= bound)
    step = 2.0 * bound  # |dt| <= sqrt(2) step
    undecided = np.zeros(t.shape, dtype=bool)
    with np.errstate(all="ignore"):
        gap = np.abs(np.abs(traces.eps_F.imag) - INSTABILITY_THRESHOLD) * T
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


def _cell_monodromy(template: PresetTemplate, gamma, omega, engine) -> MonodromyResult:
    if engine not in ("monodromy-piecewise", "monodromy-integrate"):
        raise ValueError(f"engine {engine!r} has no half-trace route")
    model = template.instantiate(float(gamma), float(omega))
    return monodromy(model, engine=engine.removeprefix("monodromy-"))


def _cell_half_trace(template: PresetTemplate, gamma, omega, engine):
    return _cell_monodromy(template, gamma, omega, engine).half_trace


def _cell_max_im(template: PresetTemplate, gamma, omega, engine) -> float:
    return _cell_monodromy(template, gamma, omega, engine).max_im_eps


def _map_cells(template: PresetTemplate, engine: str, cutoff: int, gammas, omegas):
    """``max Im eps`` at the cells ``(gammas[k], omegas[k])`` (NaN where one
    fails), the count of cells undecided by the piecewise kernel's rounding
    bound (None for the other engines), and the error text of each failed
    floquet cell (a failed propagator cell has one cause, so no text)."""
    if engine == "floquet":
        values, errors = cells_max_im(*_floquet_sector(template, cutoff), gammas, omegas, cutoff)
        return values, None, errors
    values = np.empty(len(gammas))
    undecided = 0 if engine == "monodromy-piecewise" else None
    for cells, T, traces in _block_propagators(template, gammas, omegas, engine):
        values[cells] = np.abs(traces.eps_F.imag)
        if undecided is not None:
            undecided += int(np.count_nonzero(_undecided(traces, T)))
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
    timestamp and the package version."""
    return {
        "model": template.label,
        **fields,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
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
    is, and counts the cells whose verdict is within its rounding bound of
    the threshold (``undecided_cells``).  The other engines run one task
    per omega row over at most ``threads`` processes, and the rows are
    written back in order.  Either way the result does not depend on the
    worker count.
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
    values, undecided, errors = zip(*_map_tasks(_map_cells, tasks, threads))
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
    metadata = _run_metadata(
        template, engine=grid.engine, **settings, failed_cells=n_bad, undecided_cells=undecided,
    )
    return PhaseDiagram(grid=grid, values=values, metadata=metadata)


def instability_window(diagram: PhaseDiagram, gamma: float) -> list[tuple[float, float]]:
    """Maximal contiguous frequency intervals that are unstable at ``gamma``.

    ``gamma`` is matched to the nearest grid row; each returned interval
    spans the first to last contiguous node with
    ``max Im eps > 1e-8``.  A failed (non-finite) cell in that row would
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


def _classify_root(template, gammas, omegas, engine) -> list[EPKind]:
    """Kinds of the roots at the cells ``(gammas[k], omegas[k])``, in one batch."""
    kinds = []
    for _, _, traces in _block_propagators(template, gammas, omegas, engine):
        f = indicator_from_trace(traces.half_trace)
        kinds.extend(root_kinds(f, traces.defectiveness))
    return kinds


def _refine_brackets(f_at, lo, hi, flo, pass_cells: int = BLOCK_CELLS):
    """Bisect the sign-change brackets ``[lo[b], hi[b]]`` of ``f`` in
    lockstep (``flo`` is ``f`` at ``lo``); returns ``(roots, passes,
    cells)``, a lost bracket's root NaN.  ``f_at(x, b)`` is ``f`` at the
    points ``x`` of brackets ``b``, NaN where not finite.

    One step per pass would end a bracket at its midpoint once the width
    and ``|f|`` are within ``ROOT_TOL`` (or ``f`` is 0), and lose it when
    the midpoint rounds onto an end or after ``MAX_BISECTIONS`` steps.  A
    pass here takes ``k = max(1, floor(log2(pass_cells // n + 1)))`` of
    those steps for all ``n`` active brackets in one call, on the tree of
    midpoints below each: the same roots, bit for bit.  A non-finite node
    raises ``NumericalError`` only if the walk reads it.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)  # of the active brackets
    up = np.asarray(flo) > 0  # lo only ever moves to a midpoint where f has this sign
    roots = np.full(lo.size, np.nan)
    active = np.arange(lo.size)
    passes = cells = steps = 0  # every active bracket has taken `steps` steps
    while active.size and steps < MAX_BISECTIONS:
        n = active.size
        depth = min(max(1, (pass_cells // n + 1).bit_length() - 1), MAX_BISECTIONS - steps)
        span = 1 << depth
        half = span >> np.arange(1, depth + 1)  # per level: half a bracket's width, in columns
        tree = np.empty((n, span + 1))  # per row: the ends and every level's midpoints, in order
        tree[:, 0], tree[:, span] = lo, hi
        for h in half.tolist():
            tree[:, h::2 * h] = 0.5 * (tree[:, :-h:2 * h] + tree[:, 2 * h::2 * h])
        f = f_at(tree[:, 1:-1].ravel(), np.repeat(active, span - 1)).reshape(n, span - 1)
        passes, cells, steps = passes + 1, cells + f.size, steps + depth
        # each bracket's path down its tree: at a level of half-width h its
        # ends are columns left and left + 2h, its midpoint left + h
        right_of = (f > 0) == up[active, None]  # the root lies right of this node
        row = np.arange(n)
        lefts = np.empty((n, depth), dtype=int)
        left = np.zeros(n, dtype=int)
        for level, h in enumerate(half.tolist()):
            lefts[:, level] = left
            left = left + h * right_of[row, left + h - 1]
        row = row[:, None]
        col, right = lefts + half, lefts + 2 * half
        mid, fmid = tree[row, col], f[row, col - 1]
        end_lo, end_hi = tree[row, lefts], tree[row, right]
        done = ((end_hi - end_lo < ROOT_TOL) & (np.abs(fmid) <= ROOT_TOL)) | (fmid == 0.0)
        # a midpoint that rounds onto an end leaves the bracket as it is, for good
        stop = done | (mid == end_lo) | (mid == end_hi)
        walked = np.cumsum(stop, axis=1) == stop  # the steps up to the first stop
        if not np.isfinite(fmid).all():
            bad = walked & ~np.isfinite(fmid)
            if bad.any():  # raised as one step per pass would, at the first such step
                level = bad.any(axis=0).argmax()
                _finite(fmid[walked[:, level], level])
        rows, level = np.nonzero(walked & stop)
        found = done[rows, level]
        roots[active[rows[found]]] = mid[rows[found], level[found]]
        go_on = ~stop.any(axis=1)
        row, left = row[go_on, 0], left[go_on]
        active, lo, hi = active[go_on], tree[row, left], tree[row, left + 1]
    return roots, passes, cells


def trace_ep_contours(template: PresetTemplate, grid: GridSpec) -> EPContourSet:
    """Locate and link degeneracy roots of the half-trace indicator.

    The indicator ``f`` is evaluated on every node; each frequency column
    is scanned in gamma for sign changes, and all brackets of all columns
    are bisected together by :func:`_refine_brackets` until both the
    bracket width and ``|f|`` at the root fall below ``ROOT_TOL``.  A
    root not pinned down within ``MAX_BISECTIONS`` steps, or whose bracket
    can no longer be halved (an indicator discontinuity), is dropped and
    logged.  The metadata's ``refinement`` counts the brackets, the roots
    on grid nodes, the passes, the cells they evaluated, and the brackets
    found and lost.

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

    def f_at(g, w):
        return _indicator_at(template, g, w, grid.engine)

    fs = _finite(f_at(*grid.cells())).reshape(grid.omega_count, grid.gamma_count)
    # roots on a node (tangency roots never change sign), then brackets
    node_j, node_i = np.nonzero(np.abs(fs) <= ROOT_TOL)
    f0, f1 = fs[:, :-1], fs[:, 1:]
    off_root = (np.abs(f0) > ROOT_TOL) & (np.abs(f1) > ROOT_TOL)
    br_j, br_i = np.nonzero(off_root & ((f0 > 0) != (f1 > 0)))

    w_br = omegas[br_j]
    found, passes, cells = _refine_brackets(
        lambda g, b: f_at(g, w_br[b]), gammas[br_i], gammas[br_i + 1], f0[br_j, br_i],
        # a kernel call costs nearly the same up to a block; the oracle pays per cell
        BLOCK_CELLS if grid.engine == "monodromy-piecewise" else 1,
    )
    lost = np.isnan(found)
    for k in np.flatnonzero(lost):
        log.warning(
            "EP root lost during bisection at omega=%.6g, gamma in [%.6g, %.6g]",
            w_br[k], gammas[br_i[k]], gammas[br_i[k] + 1],
        )

    root_j = np.concatenate([node_j, br_j[~lost]])
    root_g = np.concatenate([gammas[node_i], found[~lost]])
    kinds = _classify_root(template, root_g, omegas[root_j], grid.engine)
    column_roots: list[list[tuple[float, EPKind]]] = [[] for _ in omegas]
    for j, g, kind in zip(root_j, root_g, kinds):
        column_roots[j].append((float(g), kind))
    refinement = {"brackets": br_i.size, "node_roots": node_i.size, "passes": passes,
                  "cells": cells, "found": br_i.size - lost.sum(), "lost": lost.sum()}
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
    """
    gammas = np.asarray(gammas, dtype=float)
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
    """Write the CSV line ``header``, then ``chunks`` (strings of whole
    lines) as they come, then the sidecar of format ``fmt`` carrying
    ``payload``.  The sidecar text is built first, so a payload that JSON
    cannot encode raises before any file is opened."""
    path = Path(path)
    meta = json.dumps({"schema_version": _SCHEMA_VERSION, "format": fmt, **payload},
                      indent=2, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)
    with open(_meta_path(path), "w", newline="\n") as fh:
        fh.write(meta + "\n")
    return path


def csv_lines(columns):
    """One CSV line per row of ``columns`` (one iterable of fields per column)."""
    row = ",".join(["%s"] * len(columns)) + "\n"
    return map(row.__mod__, zip(*columns))


def _diagram_table(diagram: PhaseDiagram):
    grid = diagram.grid
    # one chunk per omega row: a template holding the row's omega and gamma
    # fields, formatted once with the row's values; %.12e writes what _fmt does
    cells = [_fmt(g) + ",%.12e\n" for g in grid.gammas]
    chunks = (
        (_fmt(w) + ",").join(["", *cells]) % tuple(row.tolist())
        for w, row in zip(grid.omegas, diagram.values)
    )
    return chunks, {"grid": asdict(grid), "metadata": diagram.metadata}


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
    rows = [
        (str(cid), _fmt(pt.omega), _fmt(pt.gamma), pt.kind)
        for cid, line in enumerate(contours.contours)
        for pt in line
    ]
    columns = tuple(zip(*rows))
    return csv_lines(columns), {"tolerance": contours.tolerance, "metadata": contours.metadata}


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
    gammas = [_fmt(g) for g in sweep.gammas]
    flags = [";".join(map(_fmt, f)) for f in sweep.flags]
    columns = (
        (g for g in gammas for _ in range(2)),  # one row per band
        ("0", "1") * len(gammas),
        map(_fmt, sweep.thetas.real.ravel().tolist()),
        map(_fmt, sweep.thetas.imag.ravel().tolist()),
        (f for f in flags for _ in range(2)),
    )
    return csv_lines(columns), {"metadata": sweep.metadata}


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
