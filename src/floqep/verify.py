"""Built-in verification suite: the acceptance criteria as executable checks.

Each criterion returns (passed, detail).  ``level='fast'`` runs the
quick oracle cross-checks and closed-form spot checks; ``level='full'``
runs everything, including the long cross-validation and performance
criteria.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .berry import berry_phase_loop, half_solid_angle, spectrum_region_scan, wilson_loop_phase, _loop_frames
from .floquet import build_floquet_matrix, complex_eigenvalues, convergence_check, fold_spectrum
from .model import Axis, DriveTerm, ModelSpec, PresetTemplate, Waveform, preset
from .propagator import EPKind, monodromy
from .sweep import GridSpec, instability_window, phase_diagram, trace_ep_contours

SEED = 20260810


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    level: str  # "fast" or "full"
    func: Callable[[], tuple[bool, str]]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed: float


def _window_containing(windows, omega):
    for lo, hi in windows:
        if lo <= omega <= hi:
            return (lo, hi)
    return None


def criterion_defective_drive_stability():
    """C1: beta=1 square PT model is stable on the whole 50x50 grid."""
    tpl = PresetTemplate("pt-cosy-cosz", beta=1, family="square")
    grid = GridSpec(0.0, 5.0, 50, 0.2, 3.0, 50, engine="monodromy-piecewise")
    t0 = time.perf_counter()
    diag = phase_diagram(tpl, grid)
    elapsed = time.perf_counter() - t0
    worst = float(np.nanmax(diag.values))
    ok = worst < 1e-8 and elapsed < 5.0
    return ok, f"max Im eps = {worst:.3e} (< 1e-8), elapsed {elapsed:.2f}s (< 5s)"


def criterion_primary_resonance():
    """C2: beta=3 PT model at gamma=0.05 is unstable around omega=2/3."""
    target = 2.0 / 3.0
    tpl_sq = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
    grid_sq = GridSpec(0.0, 0.05, 2, 0.3, 3.0, 271, engine="monodromy-piecewise")
    win_sq = _window_containing(
        instability_window(phase_diagram(tpl_sq, grid_sq), 0.05), target
    )
    tpl_sm = PresetTemplate("pt-cosy-cosz", beta=3, family="smooth")
    grid_sm = GridSpec(0.0, 0.05, 2, 0.3, 3.0, 271, engine="floquet")
    win_sm = _window_containing(
        instability_window(phase_diagram(tpl_sm, grid_sm, cutoff=20), 0.05), target
    )
    ok = win_sq is not None and win_sm is not None
    widths = []
    for win in (win_sq, win_sm):
        if win is not None:
            width = win[1] - win[0]
            widths.append(width)
            ok = ok and width < 0.2
    return ok, (
        f"square window {win_sq}, floquet window {win_sm}, "
        f"widths {['%.3f' % w for w in widths]} (< 0.2)"
    )


def criterion_dual_resonances():
    """C3: APT cosX-cosY at gamma=0.05 is unstable at omega=2 and 2/beta."""
    tpl = PresetTemplate("apt-cosx-cosy", beta=3, family="square")
    grid = GridSpec(0.0, 0.05, 2, 0.3, 3.0, 271, engine="monodromy-piecewise")
    windows = instability_window(phase_diagram(tpl, grid), 0.05)
    win_a = _window_containing(windows, 2.0)
    win_b = _window_containing(windows, 2.0 / 3.0)
    ok = win_a is not None and win_b is not None
    return ok, f"window at omega=2: {win_a}, window at omega=2/3: {win_b}"


def criterion_large_gamma_instability():
    """C4: APT cosX-cosY at gamma=5 has no stable frequency."""
    omegas = [0.25 * k for k in range(1, 13)]
    tpl_sq = PresetTemplate("apt-cosx-cosy", beta=3, family="square")
    tpl_sm = PresetTemplate("apt-cosx-cosy", beta=3, family="smooth")
    from .sweep import _cell_max_im

    vals_sq = [_cell_max_im(tpl_sq, 5.0, w, "monodromy-piecewise", 20) for w in omegas]
    vals_sm = [_cell_max_im(tpl_sm, 5.0, w, "floquet", 20) for w in omegas]
    worst = min(min(vals_sq), min(vals_sm))
    ok = worst > 1e-8
    return ok, f"min max Im eps over 12 frequencies = {worst:.3e} (> 0)"


def criterion_static_threshold_clustering():
    """C5: APT cosX-sinY square at omega=0.05, lowest EP root near gamma=1."""
    tpl = PresetTemplate("apt-cosx-siny", beta=3, family="square")
    grid = GridSpec(0.0, 1.5, 151, 0.05, 0.1, 2, engine="monodromy-piecewise")
    contours = trace_ep_contours(tpl, grid)
    roots = sorted(
        (
            pt
            for line in contours.contours
            for pt in line
            if abs(pt.omega - 0.05) < 1e-9 and pt.kind == EPKind.EP.value
        ),
        key=lambda p: p.gamma,
    )
    if not roots:
        return False, "no EP roots found in the omega=0.05 column"
    lowest = roots[0]
    ok = abs(lowest.gamma - 1.0) <= 0.05
    return ok, (
        f"lowest EP root at gamma = {lowest.gamma:.6f} (target 1.00 +/- 0.05; "
        f"square drives keep both gain-loss components at full strength, so the "
        f"low-frequency roots accumulate at J/sqrt(2) instead -- see README)"
    )


def criterion_engine_cross_validation():
    """C6: Floquet and monodromy-integrate quasienergies agree to 1e-6."""
    rng = np.random.default_rng(SEED)
    tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="smooth")
    t0 = time.perf_counter()
    worst_eps = 0.0
    worst_delta = 0.0
    for _ in range(25):
        g = float(rng.uniform(0.0, 2.0))
        w = float(rng.uniform(0.3, 3.0))
        model = tpl.instantiate(g, w)
        fm = build_floquet_matrix(model, 20)
        spec = fold_spectrum(complex_eigenvalues(fm.matrix), w, 20)
        eps_f = monodromy(model, engine="integrate").eps_F
        diff = max(abs(abs(z) - abs(eps_f)) for z in spec.folded)
        worst_eps = max(worst_eps, diff)
        converged, delta = convergence_check(model, 20)
        worst_delta = max(worst_delta, delta)
        if not converged:
            return False, f"convergence_check failed at (gamma={g:.3f}, omega={w:.3f})"
    elapsed = time.perf_counter() - t0
    ok = worst_eps < 1e-6 and worst_delta < 1e-6 and elapsed < 60.0
    return ok, (
        f"max |eps| mismatch {worst_eps:.2e} (< 1e-6), max doubling delta "
        f"{worst_delta:.2e} (< 1e-6), elapsed {elapsed:.1f}s (< 60s)"
    )


def criterion_propagator_oracle():
    """C7: closed-form product matches fixed-step integration; det G = 1."""
    rng = np.random.default_rng(SEED + 1)
    worst_dg = 0.0
    worst_det = 0.0
    count = 0
    for beta in (1, 2, 3):
        tpl = PresetTemplate("pt-cosy-cosz", beta=beta, family="square")
        n_beta = 0
        while n_beta < (7 if beta < 3 else 6):
            g = float(rng.uniform(0.0, 2.0))
            w = float(rng.uniform(0.5, 3.0))
            model = tpl.instantiate(g, w)
            r_pw = monodromy(model, engine="piecewise")
            if abs(r_pw.half_trace) > 1e3:
                # propagator entries beyond ~1e3 put the absolute dG and
                # det contracts below double-precision representability
                continue
            n_beta += 1
            r_it = monodromy(model, engine="integrate")
            worst_dg = max(worst_dg, float(np.max(np.abs(r_pw.G - r_it.G))))
            for r in (r_pw, r_it):
                # extended precision: the double-precision 2x2 determinant
                # loses ~|G|^2 * eps to cancellation in the broken phase
                gl = r.G.astype(np.clongdouble)
                det = gl[0, 0] * gl[1, 1] - gl[0, 1] * gl[1, 0]
                worst_det = max(worst_det, float(abs(complex(det) - 1.0)))
            count += 1
    ok = worst_dg < 1e-7 and worst_det < 1e-9
    return ok, (
        f"{count} points (gamma in [0,2], omega in [0.5,3]): max |dG| = {worst_dg:.2e} "
        f"(< 1e-7), max |det G - 1| = {worst_det:.2e} (< 1e-9)"
    )


def criterion_berry_plateaus():
    """C8: APT cosX-sinY beta=1 plateau at +/-pi and real phase below threshold."""
    m_hi = preset("apt-cosx-siny", J=1.0, gamma=1.5, omega=1.0, beta=1)
    r_hi = berry_phase_loop(m_hi, steps=8192, richardson=True)
    re = np.sort(r_hi.theta.real)
    err_plateau = max(abs(re[0] + np.pi), abs(re[1] - np.pi))
    opposite = re[0] < 0 < re[1]
    m_lo = preset("apt-cosx-siny", J=1.0, gamma=0.5, omega=1.0, beta=1)
    r_lo = berry_phase_loop(m_lo, steps=8192, richardson=True)
    im_max = float(np.max(np.abs(r_lo.theta.imag)))
    ok = err_plateau < 1e-3 and opposite and im_max < 1e-6
    return ok, (
        f"gamma=1.5: Re theta = {re.round(6).tolist()} (+/-pi within 1e-3, opposite), "
        f"gamma=0.5: max |Im theta| = {im_max:.2e} (< 1e-6)"
    )


def criterion_hermitian_reduction():
    """C9: equatorial Hermitian loop gives +/-pi and half solid angle pi."""
    model = ModelSpec(
        terms=(
            DriveTerm(Axis.X, 1.0, Waveform.COS, 1),
            DriveTerm(Axis.Y, 1.0, Waveform.SIN, 1),
        ),
        base_omega=1.0,
        label="hermitian-equator",
    )
    res = berry_phase_loop(model, steps=8192, richardson=True)
    err_pi = float(np.max(np.abs(np.abs(res.theta.real) - np.pi)))
    im_max = float(np.max(np.abs(res.theta.imag)))
    phi = np.arange(4096) * (2.0 * np.pi / 4096)
    path = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
    hsa = half_solid_angle(path)
    ok = (
        err_pi < 1e-4
        and im_max < 1e-8
        and abs(hsa - np.pi) < 1e-10
        and res.half_solid_angle is not None
        and abs(res.half_solid_angle - np.pi) < 1e-10
    )
    return ok, (
        f"|Re theta| - pi: {err_pi:.2e} (< 1e-4), |Im theta|: {im_max:.2e} (< 1e-8), "
        f"half solid angle - pi: {hsa - np.pi:.2e} (< 1e-10)"
    )


def criterion_instantaneous_thresholds():
    """C10: instantaneous-spectrum reality threshold is gamma=1 for both loops."""
    worst = 0.0
    for name in ("pt-cosy-sinz", "apt-cosx-siny"):
        tpl = PresetTemplate(name, beta=1, family="smooth")
        scan = spectrum_region_scan(tpl, np.array([0.5, 1.5]), samples=256)
        if not scan.thresholds:
            return False, f"{name}: no threshold found in [0.5, 1.5]"
        worst = max(worst, abs(scan.thresholds[0].gamma - 1.0))
    ok = worst <= 1e-6
    return ok, f"max |gamma_c - 1| = {worst:.2e} (<= 1e-6)"


def criterion_property_suites():
    """C11: gauge invariance, spectrum conjugation, determinism, similarity."""
    rng = np.random.default_rng(SEED + 2)
    details = []

    # Wilson-loop gauge invariance under random frame rescalings
    model = preset("apt-cosx-siny", J=1.0, gamma=0.7, omega=1.0, beta=1)
    _, _, right, left, _ = _loop_frames(model, 512, "raise")
    theta0, *_ = wilson_loop_phase(right, left)
    scale = (0.2 + 4.8 * rng.random((512, 2))) * np.exp(2j * np.pi * rng.random((512, 2)))
    theta1, *_ = wilson_loop_phase(right * scale[:, :, None], left / scale[:, :, None])
    drift = float(np.max(np.abs(theta1 - theta0)))
    details.append(f"gauge drift {drift:.2e}")
    ok = drift < 1e-10

    # spectrum closure under conjugation for the three stability models
    # (the cosY-sinZ loop model has an odd-in-time drive and is only ever
    # analyzed through its instantaneous spectrum, not its Floquet one)
    worst_conj = 0.0
    for name in ("pt-cosy-cosz", "apt-cosx-cosy", "apt-cosx-siny"):
        m = preset(name, J=1.0, gamma=0.4, omega=0.9, beta=3)
        eigs = complex_eigenvalues(build_floquet_matrix(m, 20).matrix)
        remaining = list(np.conj(eigs))
        for z in eigs:
            idx = int(np.argmin(np.abs(np.array(remaining) - z)))
            worst_conj = max(worst_conj, abs(remaining.pop(idx) - z))
    details.append(f"conjugation closure {worst_conj:.2e}")
    ok = ok and worst_conj < 1e-8

    # bit determinism across 1/4/8 worker processes
    tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
    grid = GridSpec(0.0, 3.0, 24, 0.3, 3.0, 24, engine="monodromy-piecewise")
    blobs = [phase_diagram(tpl, grid, threads=t).values.tobytes() for t in (1, 4, 8)]
    deterministic = blobs[0] == blobs[1] == blobs[2]
    details.append(f"determinism 1/4/8 threads: {'bit-identical' if deterministic else 'MISMATCH'}")
    ok = ok and deterministic

    # eigensolver similarity invariance
    m = rng.standard_normal((82, 82)) + 1j * rng.standard_normal((82, 82))
    q, _ = np.linalg.qr(rng.standard_normal((82, 82)) + 1j * rng.standard_normal((82, 82)))
    d = np.diag(0.5 + rng.random(82))
    p = q @ d
    e1 = complex_eigenvalues(m)
    e2 = complex_eigenvalues(np.linalg.solve(p, m @ p))
    remaining = list(e2)
    worst_sim = 0.0
    for z in e1:
        idx = int(np.argmin(np.abs(np.array(remaining) - z)))
        worst_sim = max(worst_sim, abs(remaining.pop(idx) - z))
    details.append(f"similarity invariance {worst_sim:.2e}")
    ok = ok and worst_sim < 1e-8

    return ok, "; ".join(details)


def criterion_performance():
    """C12: 400x400 piecewise sweep under 30s on 8 threads, >= 4x speedup."""
    tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
    grid = GridSpec(0.0, 5.0, 400, 0.2, 3.0, 400, engine="monodromy-piecewise")
    t0 = time.perf_counter()
    ref = phase_diagram(tpl, grid, threads=1)
    t_single = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = phase_diagram(tpl, grid, threads=8)
    t_par = time.perf_counter() - t0
    identical = ref.values.tobytes() == par.values.tobytes()
    speedup = t_single / t_par if t_par > 0 else float("inf")
    ok = t_par < 30.0 and speedup >= 4.0 and identical
    return ok, (
        f"single {t_single:.1f}s, 8 workers {t_par:.1f}s (< 30s), speedup {speedup:.2f}x "
        f"(>= 4x required), {os.cpu_count()} hardware threads available, "
        f"outputs {'bit-identical' if identical else 'MISMATCH'}"
    )


CRITERIA = (
    Criterion(1, "defective-drive stability (beta=1 square PT grid)", "fast",
              criterion_defective_drive_stability),
    Criterion(2, "primary resonance window at omega=2/beta", "full",
              criterion_primary_resonance),
    Criterion(3, "dual resonance windows at omega=2 and 2/beta", "fast",
              criterion_dual_resonances),
    Criterion(4, "no stable frequencies at gamma=5", "fast",
              criterion_large_gamma_instability),
    Criterion(5, "low-frequency EP clustering at the static threshold", "full",
              criterion_static_threshold_clustering),
    Criterion(6, "Floquet vs monodromy-integrate cross-validation", "full",
              criterion_engine_cross_validation),
    Criterion(7, "piecewise product vs integration oracle", "fast",
              criterion_propagator_oracle),
    Criterion(8, "complex phase plateaus at +/-pi", "full",
              criterion_berry_plateaus),
    Criterion(9, "Hermitian reduction and half solid angle", "fast",
              criterion_hermitian_reduction),
    Criterion(10, "instantaneous-spectrum reality thresholds", "fast",
              criterion_instantaneous_thresholds),
    Criterion(11, "property suites (gauge, conjugation, determinism, similarity)", "fast",
              criterion_property_suites),
    Criterion(12, "parallel sweep performance", "full",
              criterion_performance),
)


def run(level: str = "fast") -> list[CriterionResult]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    results = []
    for crit in CRITERIA:
        if level == "fast" and crit.level != "fast":
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = crit.func()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CriterionResult(crit.number, crit.title, passed, detail,
                            time.perf_counter() - t0)
        )
    return results


def report(results, file=None) -> bool:
    import sys

    file = file or sys.stdout
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[criterion {r.number:2d}] {status}  {r.title} ({r.elapsed:.1f}s)", file=file)
        print(f"               {r.detail}", file=file)
        all_ok = all_ok and r.passed
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed", file=file)
    return all_ok
