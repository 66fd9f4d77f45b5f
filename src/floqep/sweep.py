"""(gamma, omega) grids, EP contour tracing, and persistence.

The piecewise engine evaluates a grid in fixed-size, row-major blocks of
cells, each one call of the batched segment-product kernel, in-process;
the block size is a constant, so the output does not depend on the
worker count.  The per-cell engines (``floquet``, ``monodromy-integrate``)
farm frequency columns out to a process pool and reassemble them by
index, bit-identical for any worker count.  Numerical failures become NaN
sentinel cells, summarised in one log line; more than 1% failures aborts
the sweep.  EP contours come from the indicator on the grid blocks, a
lockstep bisection of every sign-change bracket, and one batched
classification of the roots.
"""

from __future__ import annotations

import datetime
import functools
import json
import logging
import math
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .berry import berry_phase_loop
from .floquet import max_im_quasienergy
from .model import PresetTemplate
from .propagator import (  # noqa: F401  (ep_indicator: re-exported, traced by perfbench)
    EPKind,
    NumericalError,
    defectiveness,
    ep_indicator,
    indicator_from_trace,
    monodromy,
    quasienergy_from_trace,
    root_kinds,
    segment_hamiltonians,
    _segment_product,
)

log = logging.getLogger(__name__)

ENGINES = ("floquet", "monodromy-piecewise", "monodromy-integrate")

INSTABILITY_THRESHOLD = 1e-8  # max Im eps above this counts as unstable

DEFAULT_FAILURE_BUDGET = 0.01

# cells per kernel call; fixed, so no result depends on how a grid is split
BLOCK_CELLS = 512


class FailureBudgetExceeded(RuntimeError):
    """Too many grid cells failed numerically."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (gamma, omega) grid plus the evaluation engine."""

    gamma_min: float
    gamma_max: float
    gamma_count: int
    omega_min: float
    omega_max: float
    omega_count: int
    engine: str = "monodromy-piecewise"

    def __post_init__(self):
        if self.gamma_count < 2 or self.omega_count < 2:
            raise ValueError("grid counts must be >= 2")
        if not self.omega_min > 0:
            raise ValueError("omega_min must be > 0")
        if self.gamma_min < 0:
            raise ValueError("gamma_min must be >= 0")
        if self.gamma_max < self.gamma_min or self.omega_max < self.omega_min:
            raise ValueError("grid ranges must be ordered")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; known: {', '.join(ENGINES)}")

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
    flags: tuple        # per gamma: tuple of flagged loop positions
    metadata: dict


@functools.lru_cache(maxsize=32)
def _segment_vectors(template: PresetTemplate):
    """Segment vectors ``(a, b)`` of a square preset (read-only arrays).

    Every preset is affine in gamma, and its segment midpoints sit at
    fixed drive phases, so segment ``l`` has the Bloch vector
    ``a[l] + gamma * b[l]`` at every omega.
    """
    a = segment_hamiltonians(template.instantiate(0.0, 1.0)).ds
    b = segment_hamiltonians(template.instantiate(1.0, 1.0)).ds - a
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _block_propagators(template: PresetTemplate, gammas, omegas, engine, steps):
    """Propagators at the cells ``(gammas[k], omegas[k])``, block by block.

    Yields ``(cells, T, G, bound)`` per block of :data:`BLOCK_CELLS`:
    the slice, the periods, the four entries of ``G`` and the kernel's
    rounding bound on the half-trace.  The piecewise engine is one kernel
    call per block; the integrate engine runs cell by cell (bound None).
    """
    if engine == "monodromy-piecewise":
        a, b = _segment_vectors(template)
    for start in range(0, len(gammas), BLOCK_CELLS):
        cells = slice(start, start + BLOCK_CELLS)
        T = 2.0 * math.pi / omegas[cells]
        if engine == "monodromy-piecewise":
            *G, bound = _segment_product(a, b, gammas[cells], T / len(a))
        else:
            Gs = np.array([
                monodromy(template.instantiate(float(g), float(w)), "integrate", steps).G
                for g, w in zip(gammas[cells], omegas[cells])
            ]).reshape(-1, 4)
            G, bound = Gs.T, None
        yield cells, T, G, bound


def _indicator_at(template: PresetTemplate, gammas, omegas, engine, steps) -> np.ndarray:
    """EP indicator ``f`` at the cells; a non-finite propagator raises."""
    f = np.empty(len(gammas))
    for cells, _, (g00, _, _, g11), _ in _block_propagators(template, gammas, omegas, engine, steps):
        f[cells] = indicator_from_trace(0.5 * (g00 + g11))
    n_bad = int(np.count_nonzero(~np.isfinite(f)))
    if n_bad:
        raise NumericalError(f"non-finite propagator at {n_bad} of {f.size} cells")
    return f


def _undecided(c, bound, T) -> np.ndarray:
    """Cells whose stability verdict lies within the rounding bound.

    ``max Im eps`` crosses the threshold where ``|c| - 1`` reaches
    ``(threshold * T)**2 / 2``; a numerically real ``c`` that close to it
    may fall either side, depending only on the rounding.
    """
    gap = np.abs(c) - 1.0 - 0.5 * (INSTABILITY_THRESHOLD * T) ** 2
    return (np.abs(c.imag) <= bound) & (np.abs(gap) <= bound)


def _cell_half_trace(template: PresetTemplate, gamma, omega, engine, steps):
    if engine not in ("monodromy-piecewise", "monodromy-integrate"):
        raise ValueError(f"engine {engine!r} has no half-trace route")
    model = template.instantiate(float(gamma), float(omega))
    eng = "piecewise" if engine == "monodromy-piecewise" else "integrate"
    return monodromy(model, engine=eng, steps_per_period=steps).half_trace


def _cell_max_im(template: PresetTemplate, gamma, omega, engine, cutoff, steps) -> float:
    if engine == "floquet":
        model = template.instantiate(float(gamma), float(omega))
        return max_im_quasienergy(model, cutoff)
    c = _cell_half_trace(template, gamma, omega, engine, steps)
    eps = quasienergy_from_trace(c, 2.0 * math.pi / float(omega))
    return abs(eps.imag)


def _column_task(args):
    j, omega, template, gammas, engine, cutoff, steps = args
    vals = np.empty(len(gammas))
    errors = []
    for i, g in enumerate(gammas):
        try:
            vals[i] = _cell_max_im(template, g, omega, engine, cutoff, steps)
        except Exception as exc:  # recorded as NaN sentinel, budget-checked later
            vals[i] = np.nan
            errors.append(f"{type(exc).__name__}: {exc}")
    return j, vals, errors


def _engine_family_check(template: PresetTemplate, engine: str):
    if engine == "floquet" and template.family != "smooth":
        raise ValueError("the floquet engine needs a smooth-family model")
    if engine == "monodromy-piecewise" and template.family != "square":
        raise ValueError("the piecewise engine needs a square-family model")


def _piecewise_map(template: PresetTemplate, grid: GridSpec):
    """``max Im eps`` on the grid in kernel blocks, plus the undecided count."""
    gammas, omegas = grid.cells()
    values = np.empty(gammas.size)
    undecided = 0
    for cells, T, (g00, _, _, g11), bound in _block_propagators(
        template, gammas, omegas, grid.engine, 0
    ):
        c = 0.5 * (g00 + g11)
        values[cells] = np.abs(quasienergy_from_trace(c, T).imag)
        undecided += int(np.count_nonzero(_undecided(c, bound, T)))
    return values.reshape(grid.omega_count, grid.gamma_count), undecided


def _cell_map(template, grid, threads, cutoff, steps):
    """``max Im eps`` cell by cell, frequency columns over a process pool."""
    gammas = grid.gammas
    tasks = [
        (j, float(w), template, gammas, grid.engine, cutoff, steps)
        for j, w in enumerate(grid.omegas)
    ]
    if threads > 1:
        with Pool(processes=threads) as pool:
            results = pool.map(_column_task, tasks, chunksize=1)
    else:
        results = [_column_task(t) for t in tasks]
    values = np.empty((grid.omega_count, grid.gamma_count))
    errors = []
    for j, vals, errs in results:
        values[j] = vals
        errors.extend(errs)
    return values, errors


def phase_diagram(
    template: PresetTemplate,
    grid: GridSpec,
    threads: int = 1,
    cutoff: int = 20,
    steps_per_period: int = 200_000,
    failure_budget: float = DEFAULT_FAILURE_BUDGET,
) -> PhaseDiagram:
    """Evaluate ``max Im eps`` on every grid node.

    The piecewise engine runs in-process in fixed blocks whatever
    ``threads`` is, and counts the cells whose verdict is within its
    rounding bound of the threshold (``undecided_cells``).  The per-cell
    engines distribute frequency columns over ``threads`` processes and
    write them back into pre-assigned rows.  Either way the result does
    not depend on the worker count.
    """
    _engine_family_check(template, grid.engine)
    if grid.engine == "monodromy-piecewise":
        values, undecided = _piecewise_map(template, grid)
        errors = []
    else:
        values, errors = _cell_map(template, grid, threads, cutoff, steps_per_period)
        undecided = None
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        log.warning(
            "%d of %d cells failed; first (omega index, gamma index): %s%s",
            len(bad), values.size, ", ".join(f"({j}, {i})" for j, i in bad[:5]),
            f"; first error: {errors[0]}" if errors else "",
        )
    n_bad = len(bad)
    if n_bad > failure_budget * values.size:
        raise FailureBudgetExceeded(
            f"{n_bad} of {values.size} cells failed (> {failure_budget:.0%} budget)"
        )
    metadata = {
        "model": template.label,
        "engine": grid.engine,
        "cutoff": cutoff,
        "steps_per_period": steps_per_period,
        "failed_cells": n_bad,
        "undecided_cells": undecided,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    return PhaseDiagram(grid=grid, values=values, metadata=metadata)


def instability_window(diagram: PhaseDiagram, gamma: float) -> list[tuple[float, float]]:
    """Maximal contiguous frequency intervals that are unstable at ``gamma``.

    ``gamma`` is matched to the nearest grid row; each returned interval
    spans the first to last contiguous node with
    ``max Im eps > 1e-8``.
    """
    gammas = diagram.grid.gammas
    if not (gammas[0] - 1e-12 <= gamma <= gammas[-1] + 1e-12):
        raise ValueError(f"gamma {gamma} outside grid range [{gammas[0]}, {gammas[-1]}]")
    i = int(np.argmin(np.abs(gammas - gamma)))
    row = diagram.values[:, i]
    omegas = diagram.grid.omegas
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


def _classify_root(template, gammas, omegas, engine, steps, f_tol) -> list[EPKind]:
    """Kinds of the roots at the cells ``(gammas[k], omegas[k])``, in one batch."""
    kinds = []
    for _, _, (g00, g01, g10, g11), _ in _block_propagators(template, gammas, omegas, engine, steps):
        c = 0.5 * (g00 + g11)
        f = indicator_from_trace(c)
        kinds.extend(root_kinds(f, defectiveness(g00, g01, g10, g11, c), root_tol=f_tol))
    return kinds


def trace_ep_contours(
    template: PresetTemplate,
    grid: GridSpec,
    f_tol: float = 1e-6,
    steps_per_period: int = 200_000,
    max_iter: int = 200,
) -> EPContourSet:
    """Locate and link degeneracy roots of the half-trace indicator.

    The indicator ``f`` is evaluated on every node; each frequency column
    is scanned in gamma for sign changes, and all brackets of all columns
    are bisected together until both the bracket width and ``|f|`` at the
    root fall below ``f_tol``.  Roots that cannot be pinned down
    (indicator discontinuity) are dropped and logged.  Exceptional points
    in neighbouring columns are linked by nearest-gamma matching within 3
    grid cells.
    """
    if grid.engine == "floquet":
        raise ValueError("EP contour tracing needs a monodromy engine")
    _engine_family_check(template, grid.engine)
    gammas = grid.gammas
    omegas = grid.omegas
    dgamma = float(gammas[1] - gammas[0])

    def f_at(g, w):
        return _indicator_at(template, g, w, grid.engine, steps_per_period)

    fs = f_at(*grid.cells()).reshape(grid.omega_count, grid.gamma_count)
    # roots on a node (tangency roots never change sign), then brackets
    node_j, node_i = np.nonzero(np.abs(fs) <= f_tol)
    f0, f1 = fs[:, :-1], fs[:, 1:]
    br_j, br_i = np.nonzero((np.abs(f0) > f_tol) & (np.abs(f1) > f_tol) & ~(f0 * f1 > 0))

    # every bracket bisected in lockstep, each with its own stop rule
    lo, hi, flo = gammas[br_i], gammas[br_i + 1], f0[br_j, br_i]
    w_br = omegas[br_j]
    found = np.full(br_i.size, np.nan)
    active = np.arange(br_i.size)
    for _ in range(max_iter):
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        fmid = f_at(mid, w_br[active])
        done = ((hi[active] - lo[active] < 1e-6) & (np.abs(fmid) <= f_tol)) | (fmid == 0.0)
        found[active[done]] = mid[done]
        active, mid, fmid = active[~done], mid[~done], fmid[~done]
        same = (fmid > 0) == (flo[active] > 0)
        lo[active[same]], flo[active[same]] = mid[same], fmid[same]
        hi[active[~same]] = mid[~same]
    for k in active:
        log.warning(
            "EP root lost during bisection at omega=%.6g, gamma in [%.6g, %.6g]",
            w_br[k], gammas[br_i[k]], gammas[br_i[k] + 1],
        )

    ok = ~np.isnan(found)
    root_j = np.concatenate([node_j, br_j[ok]])
    root_g = np.concatenate([gammas[node_i], found[ok]])
    kinds = _classify_root(
        template, root_g, omegas[root_j], grid.engine, steps_per_period, f_tol
    )
    column_roots: list[list[tuple[float, EPKind]]] = [[] for _ in omegas]
    for j, g, kind in zip(root_j, root_g, kinds):
        column_roots[j].append((float(g), kind))

    open_lines: list[list[ContourPoint]] = []
    open_last_col: list[int] = []
    closed_lines: list[list[ContourPoint]] = []
    singletons: list[list[ContourPoint]] = []

    for j, w in enumerate(omegas):
        roots = column_roots[j]
        roots.sort(key=lambda r: r[0])
        ep_roots = [g for g, kind in roots if kind is EPKind.EP]
        for g, kind in roots:
            if kind is EPKind.DIABOLIC:
                singletons.append([ContourPoint(float(w), g, kind.value)])

        # link EP roots to polylines ending in the previous column
        still_open: list[list[ContourPoint]] = []
        still_cols: list[int] = []
        candidates = [
            (li, line) for li, (line, col) in enumerate(zip(open_lines, open_last_col))
            if col == j - 1
        ]
        used = set()
        assigned: dict[int, int] = {}
        pairs = sorted(
            (
                (abs(line[-1].gamma - g), li, ri)
                for li, line in candidates
                for ri, g in enumerate(ep_roots)
            ),
        )
        for dist, li, ri in pairs:
            if dist > 3.0 * dgamma or li in used or ri in assigned:
                continue
            used.add(li)
            assigned[ri] = li
        for ri, g in enumerate(ep_roots):
            if ri in assigned:
                line = open_lines[assigned[ri]]
                line.append(ContourPoint(float(w), g, EPKind.EP.value))
            else:
                open_lines.append([ContourPoint(float(w), g, EPKind.EP.value)])
                open_last_col.append(j)
        for li, (line, col) in enumerate(zip(open_lines, open_last_col)):
            if li in used:
                still_open.append(line)
                still_cols.append(j)
            elif col == j:  # just created
                still_open.append(line)
                still_cols.append(j)
            elif col <= j - 1:
                closed_lines.append(line)
            else:
                still_open.append(line)
                still_cols.append(col)
        open_lines, open_last_col = still_open, still_cols

    closed_lines.extend(open_lines)
    closed_lines.extend(singletons)
    closed_lines.sort(key=lambda line: (line[0].omega, line[0].gamma))
    metadata = {
        "model": template.label,
        "engine": grid.engine,
        "tolerance": f_tol,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    return EPContourSet(
        contours=tuple(tuple(line) for line in closed_lines),
        tolerance=f_tol,
        metadata=metadata,
    )


def _berry_task(args):
    idx, gamma, template, omega, steps, richardson, on_ep = args
    model = template.instantiate(float(gamma), float(omega))
    res = berry_phase_loop(model, steps=steps, richardson=richardson, on_ep=on_ep)
    return idx, res.theta, res.degeneracy_flags, res.step_delta, res.certified


def berry_gamma_sweep(
    template: PresetTemplate,
    gammas,
    omega: float = 1.0,
    steps: int = 8192,
    richardson: bool = True,
    on_ep: str = "flag",
    threads: int = 1,
) -> BerrySweep:
    """Geometric phase of both bands for each gamma (deterministic order).

    ``on_ep='flag'`` by default so a sweep can cross drive strengths whose
    loop grazes an exceptional point without aborting the whole curve.
    """
    gammas = np.asarray(gammas, dtype=float)
    tasks = [
        (i, float(g), template, omega, steps, richardson, on_ep)
        for i, g in enumerate(gammas)
    ]
    if threads > 1:
        with Pool(processes=threads) as pool:
            results = pool.map(_berry_task, tasks, chunksize=1)
    else:
        results = [_berry_task(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    thetas = np.array([r[1] for r in results])
    flags = tuple(tuple(r[2]) for r in results)
    deltas = [r[3] for r in results if r[3] is not None and r[4]]
    uncertified = [float(gammas[r[0]]) for r in results if not r[4]]
    metadata = {
        "model": template.label,
        "omega": omega,
        "steps": steps,
        "richardson": richardson,
        "max_step_delta": max(deltas) if deltas else None,
        "all_certified": not uncertified,
        "uncertified_gammas": uncertified,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    return BerrySweep(gammas=gammas, thetas=thetas, flags=flags, metadata=metadata)


# ----------------------------------------------------------------------
# persistence

_SCHEMA_VERSION = 1

_DIAGRAM_HEADER = "omega,gamma,max_im_eps"
_CONTOUR_HEADER = "contour_id,omega,gamma,kind"
_BERRY_HEADER = "gamma,band,re_theta,im_theta,flags"


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _write_meta(path: Path, fmt: str, payload: dict):
    doc = {"schema_version": _SCHEMA_VERSION, "format": fmt}
    doc.update(payload)
    with open(_meta_path(path), "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_meta(path: Path, expected_fmt: str) -> dict:
    mp = _meta_path(path)
    if not mp.exists():
        raise FileNotFoundError(f"missing metadata sidecar {mp}")
    with open(mp) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {doc.get('schema_version')!r} in {mp}"
        )
    if doc.get("format") != expected_fmt:
        raise ValueError(f"expected format {expected_fmt!r}, found {doc.get('format')!r}")
    return doc


def persist(result, path) -> Path:
    """Write a result to ``path`` (CSV plus a JSON metadata sidecar)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(result, PhaseDiagram):
        _save_diagram(result, path)
    elif isinstance(result, EPContourSet):
        _save_contours(result, path)
    elif isinstance(result, BerrySweep):
        _save_berry(result, path)
    else:
        raise TypeError(f"cannot persist {type(result).__name__}")
    return path


def load(path):
    """Inverse of :func:`persist`; dispatches on the CSV header."""
    path = Path(path)
    with open(path, newline="\n") as fh:
        header = fh.readline().strip()
    if header == _DIAGRAM_HEADER:
        return _load_diagram(path)
    if header == _CONTOUR_HEADER:
        return _load_contours(path)
    if header == _BERRY_HEADER:
        return _load_berry(path)
    raise ValueError(f"unrecognized file header {header!r} in {path}")


def _save_diagram(diagram: PhaseDiagram, path: Path):
    gammas = diagram.grid.gammas
    omegas = diagram.grid.omegas
    lines = [_DIAGRAM_HEADER]
    for j, w in enumerate(omegas):
        for i, g in enumerate(gammas):
            lines.append(f"{_fmt(w)},{_fmt(g)},{_fmt(diagram.values[j, i])}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    grid = diagram.grid
    _write_meta(
        path,
        "phase-diagram",
        {
            "grid": {
                "gamma_min": grid.gamma_min,
                "gamma_max": grid.gamma_max,
                "gamma_count": grid.gamma_count,
                "omega_min": grid.omega_min,
                "omega_max": grid.omega_max,
                "omega_count": grid.omega_count,
                "engine": grid.engine,
            },
            "metadata": diagram.metadata,
        },
    )


def _load_diagram(path: Path) -> PhaseDiagram:
    doc = _read_meta(path, "phase-diagram")
    grid = GridSpec(**doc["grid"])
    values = np.full((grid.omega_count, grid.gamma_count), np.nan)
    with open(path, newline="\n") as fh:
        header = fh.readline().strip()
        if header != _DIAGRAM_HEADER:
            raise ValueError(f"malformed phase-diagram file {path}")
        count = 0
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"malformed row in {path}: {line!r}")
            j, i = divmod(count, grid.gamma_count)
            if j >= grid.omega_count:
                raise ValueError(f"too many rows in {path}")
            values[j, i] = float(parts[2])
            count += 1
    if count != grid.omega_count * grid.gamma_count:
        raise ValueError(
            f"row count {count} does not match grid "
            f"{grid.omega_count}x{grid.gamma_count} in {path}"
        )
    return PhaseDiagram(grid=grid, values=values, metadata=doc["metadata"])


def _save_contours(contours: EPContourSet, path: Path):
    lines = [_CONTOUR_HEADER]
    for cid, line in enumerate(contours.contours):
        for pt in line:
            lines.append(f"{cid},{_fmt(pt.omega)},{_fmt(pt.gamma)},{pt.kind}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_meta(
        path,
        "ep-contours",
        {"tolerance": contours.tolerance, "metadata": contours.metadata},
    )


def _load_contours(path: Path) -> EPContourSet:
    doc = _read_meta(path, "ep-contours")
    lines: dict[int, list[ContourPoint]] = {}
    with open(path, newline="\n") as fh:
        header = fh.readline().strip()
        if header != _CONTOUR_HEADER:
            raise ValueError(f"malformed contour file {path}")
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            cid_s, w_s, g_s, kind = raw.split(",")
            lines.setdefault(int(cid_s), []).append(
                ContourPoint(float(w_s), float(g_s), kind)
            )
    contours = tuple(tuple(lines[k]) for k in sorted(lines))
    return EPContourSet(
        contours=contours, tolerance=doc["tolerance"], metadata=doc["metadata"]
    )


def _save_berry(sweep: BerrySweep, path: Path):
    lines = [_BERRY_HEADER]
    for i, g in enumerate(sweep.gammas):
        flag_s = ";".join(_fmt(v) for v in sweep.flags[i])
        for b in (0, 1):
            th = sweep.thetas[i, b]
            lines.append(f"{_fmt(g)},{b},{_fmt(th.real)},{_fmt(th.imag)},{flag_s}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_meta(path, "berry", {"metadata": sweep.metadata})


def _load_berry(path: Path) -> BerrySweep:
    doc = _read_meta(path, "berry")
    gammas: list[float] = []
    flags: list[tuple] = []
    rows: list[list[complex]] = []
    with open(path, newline="\n") as fh:
        header = fh.readline().strip()
        if header != _BERRY_HEADER:
            raise ValueError(f"malformed berry file {path}")
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            g_s, b_s, re_s, im_s, flag_s = raw.split(",")
            band = int(b_s)
            if band == 0:
                gammas.append(float(g_s))
                flags.append(
                    tuple(float(v) for v in flag_s.split(";")) if flag_s else ()
                )
                rows.append([0.0j, 0.0j])
            rows[-1][band] = complex(float(re_s), float(im_s))
    return BerrySweep(
        gammas=np.array(gammas),
        thetas=np.array(rows),
        flags=tuple(flags),
        metadata=doc["metadata"],
    )
