"""The four benchmark workloads: seeded configs and output checks.

Each workload runs one ``floqep`` subcommand on a config generated from
the seed.  The seed jitters the axis bounds by up to ``JITTER`` (relative)
and picks the cells the checks re-evaluate; grid counts are fixed, so
every seed does the same amount of grid work.  Checks run after the
timed calls, on the files the last call wrote, and compare them with a
second route through the library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

JITTER = 0.02

F_TOL = 1e-6         # trace_ep_contours default root tolerance
ORACLE_DG = 1e-7     # C07: piecewise vs integrate propagator entries
ORACLE_MAX_C = 1e3   # C07 skips cells whose |c| exceeds this
ORACLE_GAMMA_MAX = 2.0  # C07 samples gamma in [0, 2] ...
ORACLE_OMEGA_MIN = 0.5  # ... and omega in [0.5, 3]
C06_TOL = 1e-6       # C06: Floquet vs integrate quasienergy moduli
C08_PLATEAU = 1e-3   # C08: |Re theta| - pi above the threshold
C08_IM = 1e-6        # C08: |Im theta| below the threshold
BERRY_THRESHOLD = 1.0  # C10: instantaneous reality threshold of the loop
C06_GAMMA = (0.0, 2.0)  # C06 samples gamma in [0, 2] ...
C06_OMEGA = (0.3, 3.0)  # ... and omega in [0.3, 3]
LOW_OMEGA = 0.55     # below it, cutoff 20 fails convergence_check near gamma 2
LOW_OMEGA_CELLS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    threads: int
    compute: str        # the floqep.cli name of the compute call
    csv_name: str       # main output file written by the subcommand
    svg_name: str
    make_config: Callable[[random.Random], dict]
    check: Callable     # (floqep, config, out_dir, rng) -> (checks, counts)


def _j(rng: random.Random, x: float) -> float:
    return x * (1.0 + rng.uniform(-JITTER, JITTER))


def _base(preset: str, beta: int, family: str) -> dict:
    return {
        "schema_version": 1,
        "model": {"preset": preset, "J": 1.0, "beta": beta, "family": family},
    }


def square_map_config(rng):
    cfg = _base("pt-cosy-cosz", 3, "square")
    # more than 200 gamma nodes: the heatmap takes the raster path of 400x400
    cfg["gamma"] = {"min": 0.0, "max": _j(rng, 5.0), "count": 256}
    cfg["omega"] = {"min": _j(rng, 0.2), "max": _j(rng, 3.0), "count": 24}
    cfg["engine"] = "monodromy-piecewise"
    return cfg


def smooth_map_config(rng):
    cfg = _base("pt-cosy-cosz", 3, "smooth")
    cfg["gamma"] = {"min": 0.0, "max": _j(rng, 2.0), "count": 8}
    # cutoff 20 fails the doubling check below omega ~0.55 at gamma ~2
    cfg["omega"] = {"min": _j(rng, 0.7), "max": _j(rng, 3.0), "count": 8}
    cfg["engine"] = "floquet"
    cfg["cutoff"] = 20
    return cfg


def ep_contours_config(rng):
    cfg = _base("apt-cosx-siny", 3, "square")
    cfg["gamma"] = {"min": 0.0, "max": _j(rng, 5.0), "count": 128}
    cfg["omega"] = {"min": _j(rng, 0.2), "max": _j(rng, 3.0), "count": 24}
    cfg["engine"] = "monodromy-piecewise"
    return cfg


def berry_sweep_config(rng):
    cfg = _base("apt-cosx-siny", 1, "smooth")
    cfg["gamma"] = {"min": _j(rng, 0.05), "max": _j(rng, 2.95), "count": 8}
    cfg["omega"] = {"value": 1.0}
    cfg["berry_steps"] = 8192
    cfg["richardson"] = True
    return cfg


# ----------------------------------------------------------------------
# checks: each returns ([(name, passed, detail)], counts)


def _worst(errors) -> float:
    """Largest of ``errors``, or inf if any is not finite, so NaN fails a check."""
    worst = 0.0
    for e in errors:
        e = float(e)
        if not math.isfinite(e):
            return math.inf
        worst = max(worst, e)
    return worst


def _round_trip(fq, csv_path: Path, scratch: Path):
    """``floqep.load`` then ``persist`` must reproduce the CSV byte for byte."""
    loaded = fq.load(csv_path)
    again = fq.persist(loaded, scratch / csv_path.name)
    same = again.read_bytes() == csv_path.read_bytes()
    return loaded, ("load round-trip", same, f"{csv_path.name} re-persisted identically: {same}")


def _grid_matches(grid, cfg) -> bool:
    g, w = cfg["gamma"], cfg["omega"]
    return (
        (grid.gamma_min, grid.gamma_max, grid.gamma_count) == (g["min"], g["max"], g["count"])
        and (grid.omega_min, grid.omega_max, grid.omega_count) == (w["min"], w["max"], w["count"])
    )


def _template(fq, cfg):
    m = cfg["model"]
    return fq.PresetTemplate(m["preset"], J=m["J"], beta=m["beta"], family=m["family"])


def _map_checks(fq, cfg, out: Path):
    """Round-trip, grid and failure-count checks shared by the two map workloads."""
    import numpy as np

    diagram, rt = _round_trip(fq, out / "phase_diagram.csv", out / "roundtrip")
    sidecar = int(diagram.metadata["failed_cells"])
    nonfinite = int(np.count_nonzero(~np.isfinite(diagram.values)))
    checks = [
        rt,
        ("grid", _grid_matches(diagram.grid, cfg), "sidecar grid equals config"),
        ("failed_cells", sidecar == nonfinite,
         f"sidecar failed_cells {sidecar}, non-finite CSV cells {nonfinite}"),
    ]
    counts = {"units": int(diagram.values.size), "failed_cells": max(sidecar, nonfinite)}
    return diagram, checks, counts


def check_square_map(fq, cfg, out: Path, rng: random.Random):
    import numpy as np

    diagram, checks, counts = _map_checks(fq, cfg, out)
    tpl = _template(fq, cfg)
    gammas, omegas = diagram.grid.gammas, diagram.grid.omegas
    rels = []
    for _ in range(6):
        j, i = rng.randrange(len(omegas)), rng.randrange(len(gammas))
        r_pw = fq.monodromy(tpl.instantiate(float(gammas[i]), float(omegas[j])), "piecewise")
        v = float(diagram.values[j, i])
        rels.append(abs(v - r_pw.max_im_eps) / max(abs(v), 1e-300))
    worst_rel = _worst(rels)
    checks.append((
        "cells re-evaluate", worst_rel < 1e-11,
        f"6 cells: CSV vs monodromy(piecewise) rel {worst_rel:.1e} (< 1e-11)",
    ))
    # the integrate oracle meets 1e-7 only on C07's domain
    g_idx = [i for i, g in enumerate(gammas) if g <= ORACLE_GAMMA_MAX]
    w_idx = [j for j, w in enumerate(omegas) if w >= ORACLE_OMEGA_MIN]
    dgs, sampled, tries = [], 0, 0
    while sampled < 6 and tries < 200:
        tries += 1
        j, i = rng.choice(w_idx), rng.choice(g_idx)
        model = tpl.instantiate(float(gammas[i]), float(omegas[j]))
        r_pw = fq.monodromy(model, engine="piecewise")
        if abs(r_pw.half_trace) > ORACLE_MAX_C:
            continue
        r_it = fq.monodromy(model, engine="integrate")
        dgs.append(np.max(np.abs(r_pw.G - r_it.G)))
        sampled += 1
    worst_dg = _worst(dgs)
    checks.append((
        "C07 integrate route", sampled == 6 and worst_dg < ORACLE_DG,
        f"{sampled} cells (gamma <= {ORACLE_GAMMA_MAX:g}, omega >= {ORACLE_OMEGA_MIN:g}): "
        f"max |G_pw - G_rk4| = {worst_dg:.2e} (< {ORACLE_DG:g})",
    ))
    sub = fq.GridSpec(
        diagram.grid.gamma_min, diagram.grid.gamma_max, 24,
        diagram.grid.omega_min, diagram.grid.omega_max, 24, engine=diagram.grid.engine,
    )
    blobs = [fq.phase_diagram(tpl, sub, threads=t).values.tobytes() for t in (1, 2)]
    checks.append(("C11 determinism", blobs[0] == blobs[1], "24x24 sub-grid at 1 and 2 workers"))
    return checks, counts


def check_smooth_map(fq, cfg, out: Path, rng: random.Random):
    diagram, checks, counts = _map_checks(fq, cfg, out)
    tpl = _template(fq, cfg)
    cutoff = cfg["cutoff"]
    gammas, omegas = diagram.grid.gammas, diagram.grid.omegas
    cells = [(rng.randrange(len(omegas)), rng.randrange(len(gammas))) for _ in range(4)]
    res, deltas, converged = [], [], True
    for j, i in cells:
        model = tpl.instantiate(float(gammas[i]), float(omegas[j]))
        v = float(diagram.values[j, i])
        res.append(abs(v - fq.max_im_quasienergy(model, cutoff)))
        ok, delta = fq.convergence_check(model, cutoff)
        converged = converged and ok
        deltas.append(delta)
    worst_re, worst_delta = _worst(res), _worst(deltas)
    checks.append((
        "cutoff doubling", converged and worst_re <= 1e-10,
        f"4 cells: doubling delta {worst_delta:.2e} (< 1e-6), CSV vs re-evaluation {worst_re:.1e}",
    ))
    c06 = []
    for j, i in cells[:2]:
        w = float(omegas[j])
        model = tpl.instantiate(float(gammas[i]), w)
        fm = fq.build_floquet_matrix(model, cutoff)
        spec = fq.fold_spectrum(fq.complex_eigenvalues(fm.matrix), w, cutoff)
        eps_f = fq.monodromy(model, engine="integrate").eps_F
        c06.extend(abs(abs(z) - abs(eps_f)) for z in spec.folded)
    worst_c06 = _worst(c06)
    checks.append((
        "C06 integrate route", worst_c06 < C06_TOL,
        f"2 cells: max | |eps_floquet| - |eps_rk4| | = {worst_c06:.2e} (< {C06_TOL:g})",
    ))
    # Known defect, counted but not a check: C06's domain reaches below the
    # grid's omega, where cutoff 20 is too small near gamma 2.
    unconverged = 0
    for _ in range(LOW_OMEGA_CELLS):
        model = tpl.instantiate(rng.uniform(*C06_GAMMA), rng.uniform(C06_OMEGA[0], LOW_OMEGA))
        unconverged += not fq.convergence_check(model, cutoff)[0]
    counts["unconverged"] = unconverged
    return checks, counts


def check_ep_contours(fq, cfg, out: Path, rng: random.Random):
    contours, rt = _round_trip(fq, out / "ep_contours.csv", out / "roundtrip")
    checks = [rt]
    tpl = _template(fq, cfg)
    points = [p for line in contours.contours for p in line]
    fs, mismatched = [], 0
    for p in points:
        res = fq.monodromy(tpl.instantiate(p.gamma, p.omega), engine="piecewise")
        f, kind = fq.ep_indicator(res, root_tol=F_TOL)
        fs.append(abs(f))
        mismatched += kind.value != p.kind
    worst_f = _worst(fs)
    checks.append((
        "roots re-evaluate", bool(points) and worst_f <= F_TOL and mismatched == 0,
        f"{len(points)} points: max |f| = {worst_f:.2e} (<= {F_TOL:g}), {mismatched} kind mismatches",
    ))
    sample = rng.sample(points, min(4, len(points)))
    f_its = []
    for p in sample:
        res = fq.monodromy(tpl.instantiate(p.gamma, p.omega), engine="integrate")
        f_its.append(abs(fq.ep_indicator(res, root_tol=F_TOL)[0]))
    worst_it = _worst(f_its)
    checks.append((
        "roots on integrate route", bool(sample) and worst_it <= F_TOL + ORACLE_DG,
        f"{len(sample)} points: max |f_rk4| = {worst_it:.2e} (<= {F_TOL + ORACLE_DG:g})",
    ))
    grid_nodes = cfg["gamma"]["count"] * cfg["omega"]["count"]
    return checks, {"units": grid_nodes, "points": len(points)}


def check_berry_sweep(fq, cfg, out: Path, rng: random.Random):
    sweep, rt = _round_trip(fq, out / "berry.csv", out / "roundtrip")
    checks = [rt]
    plateau, im, same_edge = [], [], 0
    for g, th in zip(sweep.gammas, sweep.thetas):
        if g > BERRY_THRESHOLD:
            plateau.extend(abs(abs(t.real) - math.pi) for t in th)
            same_edge += (th[0].real > 0) == (th[1].real > 0)
        else:
            im.extend(abs(t.imag) for t in th)
    worst_plateau, worst_im = _worst(plateau), _worst(im)
    checks.append((
        "C08 plateaus", worst_plateau < C08_PLATEAU and worst_im < C08_IM,
        f"above gamma=1: max ||Re theta| - pi| = {worst_plateau:.2e} (< {C08_PLATEAU:g}); "
        f"below: max |Im theta| = {worst_im:.2e} (< {C08_IM:g})",
    ))
    meta = sweep.metadata
    return checks, {
        "units": int(len(sweep.gammas)),
        "uncertified": len(meta["uncertified_gammas"]),
        "max_step_delta": meta["max_step_delta"] or 0.0,
        "same_edge_pairs": int(same_edge),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("square-map", "phase-diagram", 2, "phase_diagram", "phase_diagram.csv",
                 "phase_diagram.svg", square_map_config, check_square_map),
        Workload("smooth-map", "phase-diagram", 1, "phase_diagram", "phase_diagram.csv",
                 "phase_diagram.svg", smooth_map_config, check_smooth_map),
        Workload("ep-contours", "ep-contours", 1, "trace_ep_contours", "ep_contours.csv",
                 "ep_contours.svg", ep_contours_config, check_ep_contours),
        Workload("berry-sweep", "berry", 1, "berry_gamma_sweep", "berry.csv",
                 "berry.svg", berry_sweep_config, check_berry_sweep),
    )
}
