"""Biorthogonal eigenframes and complex geometric phases on closed loops.

For a non-Hermitian two-level Hamiltonian the left and right
eigenvectors are not related by conjugation, and the geometric phase
accumulated on a closed parameter loop is complex.  A loop is
parametrized by the drive phase ``theta = omega*t`` in ``[0, 2*pi)``:
the phase depends on the closed path ``d(theta)`` only, not on how fast
it is traversed, so omega does not enter.  A smooth loop with an open
gap takes the spectral route: the trapezoid rule on ``i * loop integral
of L dR / (L R)`` over one adjugate frame, with the exact
``dd/dtheta``, which converges exponentially in the point count; see
:func:`spectral_phase_loop`.  A square loop is the polygon of its
segment vectors; see :func:`polygon_phase_rows`.  Any sampled loop can
take the discrete biorthogonal Wilson loop, the oracle of both: per-step
overlaps of the tracked left and right frames, with the forward and
backward logarithms averaged.
The averaged form is gauge invariant, second-order accurate in the step
size, and for Hermitian loops its imaginary part cancels identically.  A
Richardson loop at ``n`` steps builds and gauges its frames once, at
``2n`` points, as plain per-loop arrays, and runs the ``n``-step loop on
views of their even points.  ``Re theta`` is reported on ``[-pi, pi]``; on the
``+/-pi`` plateau each band takes the edge whose sign matches its
``Im theta``.  A step across an exceptional point, where the two band
pairings tie, keeps the band slots and leaves the loop uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import (
    SQUARE_WAVEFORMS,
    ModelSpec,
    PresetTemplate,
    _is_int,
    bloch_phase_derivative,
    bloch_vector_at,
)


class DefectivePointError(ValueError):
    """A loop point has no eigenframe pair: a zero eigenvector, or a non-finite d.d or frame norm."""


class EPOnPathError(RuntimeError):
    """The loop passes through (or too close to) an exceptional point."""


@dataclass(eq=False)
class BerryPhaseResult:
    """Complex geometric phase per band for one closed loop."""

    theta: np.ndarray             # (2,) complex, band-major
    degeneracy_flags: tuple       # drive phases with gap < GAP_TOL
    half_solid_angle: float | None
    step_delta: float | None      # max band |theta(2n) - theta(n)|
    certified: bool               # False if EP steps were skipped or bands swapped or tied


_DEFECT_REL_TOL = 1e-10
# step pairings this close are undecided: across an EP the two agree to
# ~1e-14 relative, anywhere else they differ by more than 0.5
_TIE_REL_TOL = 1e-9
GAP_TOL = 1e-6  # a loop point with band gap below this is a degeneracy flag
OVERLAP_TOL = 1e-8  # a pairing or step overlap below this is dropped or raises
SPECTRUM_TOL = 1e-10  # |Re mu| or |Im mu| below this counts as zero
THRESHOLD_TOL = 1e-6  # a spectrum class boundary is bisected to this width in gamma
SCAN_SAMPLES = 256  # loop points of an instantaneous-spectrum classification
DEFAULT_LOOP_STEPS = 8192
MIN_LOOP_STEPS = 256
SPECTRAL_TOL = 1e-12  # the largest |theta(n) - theta(n/2)| a spectral loop accepts
SPECTRAL_MIN_POINTS = 128  # the first spectral grid, compared with its 64 even points
SPECTRAL_MAX_POINTS = 32768  # a spectral loop not accepted on this many points declines
SPECTRAL_STACK_POINTS = 2048  # loops x points of one stacked spectral pass, to bound its memory


def _raw_eigenframes(d):
    """Closed-form eigenframes for a batch of Bloch vectors ``(n, 3)``.

    The bands of ``d0*I + d.sigma`` are ``d0 +/- mu`` with
    ``mu = sqrt(d.d)`` (principal branch, so the first band has the
    descending-(Re, Im) eigenvalue); the frames do not depend on ``d0``.
    Eigenvectors come from the adjugate columns of ``H - eps I``; the
    larger-norm column is selected per point for stability.  Left rows are
    the transpose-system eigenvectors (``dy -> -dy``).  Every operation is
    pointwise, so a point's frames do not depend on the rest of the batch.
    Returns ``(mu, gap, right, left)``; ``right[b, c]`` and ``left[b, c]``
    hold component ``c`` of the band-``b`` frames over the loop points.
    """
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    mu = np.sqrt(dx * dx + dy * dy + dz * dz)
    gap = np.abs(2.0 * mu)
    w, wc = dx + 1.0j * dy, dx - 1.0j * dy
    w2, wc2 = np.abs(w) ** 2, np.abs(wc) ** 2
    right = np.empty((2, 2, d.shape[0]), dtype=complex)
    left = np.empty_like(right)
    for b, smu in enumerate((mu, -mu)):
        p, q = dz + smu, smu - dz
        p2, q2 = np.abs(p) ** 2, np.abs(q) ** 2
        # right: columns (p, w) and (wc, q); left: rows (p, wc) and (w, q)
        use2 = wc2 + q2 > p2 + w2
        right[b] = np.where(use2, wc, p), np.where(use2, q, w)
        use2 = w2 + q2 > p2 + wc2
        left[b] = np.where(use2, w, p), np.where(use2, q, wc)
    return mu, gap, right, left


def _defective(d, mu):
    """Points where ``d.d = 0`` with ``d != 0``: one eigenvector only."""
    dnorm = np.sqrt(np.abs(d[:, 0]) ** 2 + np.abs(d[:, 1]) ** 2 + np.abs(d[:, 2]) ** 2)
    return (np.abs(mu) < _DEFECT_REL_TOL * dnorm) & (dnorm > 0)


def _canonical_gauge(right, left):
    """Deterministic biorthonormal gauge, in place on the frames of
    :func:`_raw_eigenframes`.

    Each right frame gets unit norm with its dominant component rotated
    real-positive, and each left frame unit norm, then division by the
    pairing overlap ``left . right`` where that is at least
    ``OVERLAP_TOL``.  Returns ``bad``, where ``bad[b]`` marks the points
    whose band-``b`` pairing is not, for near-EP detection.  The dominant
    component prefers index 0 unless index 1 is larger by a relative
    margin, so near-ties cannot flip the choice between neighbouring loop
    points.  Every operation is pointwise.
    """
    bad = np.empty((2, right.shape[-1]), dtype=bool)
    for b in (0, 1):
        (r0, r1), (l0, l1) = right[b], left[b]
        a0, a1 = np.abs(r0), np.abs(r1)
        with np.errstate(over="ignore"):  # an overflowed norm is not finite, which raises
            rnorm = np.sqrt(a0 * a0 + a1 * a1)
            lnorm = np.sqrt(np.abs(l0) ** 2 + np.abs(l1) ** 2)
        if not (rnorm.all() and lnorm.all()):
            raise DefectivePointError("zero eigenvector encountered")
        if not np.isfinite(rnorm + lnorm).all():
            raise DefectivePointError("eigenvector norm is not finite")
        use1 = a1 > a0 * (1.0 + 1e-9)
        # |pick| / pick, and 1 / rnorm, as one complex factor
        right[b] *= np.conj(np.where(use1, r1, r0)) * (1.0 / (np.where(use1, a1, a0) * rnorm))
        left[b] *= 1.0 / lnorm
        ov = l0 * r0 + l1 * r1
        bad[b] = np.abs(ov) < OVERLAP_TOL
        left[b] *= 1.0 / np.where(bad[b], 1.0, ov)  # biorthonormal where the pairing allows
    return bad


def _check_loop_settings(steps, richardson) -> tuple[int, bool]:
    """``(steps, richardson)`` with ``steps`` an int; ``ValueError`` unless
    ``steps`` is an integer >= ``MIN_LOOP_STEPS`` and ``richardson`` a bool."""
    if not _is_int(steps) or steps < MIN_LOOP_STEPS:
        raise ValueError(f"steps must be an integer >= {MIN_LOOP_STEPS}")
    if not isinstance(richardson, bool):
        raise ValueError("richardson must be a bool")
    return int(steps), richardson


def _check_on_ep(on_ep: str):
    if on_ep not in ("raise", "flag"):
        raise ValueError(f"on_ep must be 'raise' or 'flag', got {on_ep!r}")


def _step_dots(a, b, b_close):
    """``a[k] . b[k+1]`` for each loop step ``k``; the closing step pairs
    ``a[n-1]`` with ``b_close`` in place of ``b[0]``.

    ``a``, ``b`` and ``b_close`` are pairs of components.
    """
    (a0, a1), (b0, b1) = a, b
    out = np.empty(a0.shape, dtype=complex)
    np.multiply(a0[:-1], b0[1:], out=out[:-1])
    out[:-1] += a1[:-1] * b1[1:]
    out[-1] = a0[-1] * b_close[0] + a1[-1] * b_close[1]
    return out


def _wilson_core(R, L, bad, on_ep: str):
    """The Wilson loop on gauged frames ``(band, component, point)`` and
    their ``bad`` pairing marks, as :func:`_canonical_gauge` leaves them;
    see :func:`wilson_loop_phase`."""
    n = R.shape[-1]
    skipped = int(np.count_nonzero(bad))
    if skipped and on_ep == "raise":
        raise EPOnPathError(
            f"biorthogonal overlap below {OVERLAP_TOL:.1e} at "
            f"{int(np.count_nonzero(bad[0] | bad[1]))} loop points"
        )
    dots = [_step_dots(L[b], R[b], R[b, :, 0]) for b in (0, 1)]
    diag = np.abs(dots[0] * dots[1])
    off = np.abs(_step_dots(L[0], R[1], R[1, :, 0]) * _step_dots(L[1], R[0], R[0, :, 0]))
    # a step across an EP pairs each band with either successor equally
    # well; rounding must not pick one, so such a step keeps the slots and
    # the loop is not reported closed
    tie = np.abs(diag - off) <= _TIE_REL_TOL * np.maximum(diag, off)
    # par[k]: whether the band identities have traded frame slots by point k
    par = np.zeros(n + 1, dtype=bool)
    np.logical_xor.accumulate((diag < off) & ~tie, out=par[1:])
    closed = not par[n] and not tie.any()
    theta = np.empty(2, dtype=complex)
    min_overlap = np.inf
    for band in (0, 1):
        # the closing step lands in the slot the band holds after a full turn
        close = int(par[n]) ^ band
        if par.any():
            in_slot1 = par[:n] if band == 0 else ~par[:n]
            Rt, Lt = np.where(in_slot1, R[1], R[0]), np.where(in_slot1, L[1], L[0])
            o_fwd = _step_dots(Lt, Rt, R[close, :, 0])
        else:
            # the band never leaves its slot: its forward overlaps are the
            # diagonal step dots
            Rt, Lt = R[band], L[band]
            o_fwd = dots[band]
        o_bwd = _step_dots(Rt, Lt, L[close, :, 0])
        a_fwd, a_bwd = np.abs(o_fwd), np.abs(o_bwd)
        min_overlap = min(min_overlap, float(min(np.min(a_fwd), np.min(a_bwd))))
        weak = (a_fwd < OVERLAP_TOL) | (a_bwd < OVERLAP_TOL)
        if weak.any():
            if on_ep == "raise":
                raise EPOnPathError(
                    f"step overlap below {OVERLAP_TOL:.1e}: phase undefined through an EP"
                )
            o_fwd[weak] = o_bwd[weak] = 1.0
            a_fwd[weak] = a_bwd[weak] = 1.0
            skipped += int(np.count_nonzero(weak))
        # 0.5j * (sum log o_fwd - sum log o_bwd), with log o = log|o| + i arg o
        arg = _sum_arg(o_fwd) - _sum_arg(o_bwd)
        log_abs = _sum_log_abs(o_fwd, a_fwd) - _sum_log_abs(o_bwd, a_bwd)
        theta[band] = complex(-0.5 * arg, 0.5 * log_abs)
    return theta, closed, min_overlap, skipped


def wilson_loop_phase(right, left, on_ep: str = "raise"):
    """Complex phase of the discrete biorthogonal Wilson loop.

    ``right[k, b]`` / ``left[k, b]`` are the band-``b`` frames at loop
    point ``k`` (the loop closes from the last point back to the first).
    Frames are re-canonicalized internally, so the result is invariant
    under independent per-point rescalings.  Bands are tracked around the
    loop by maximal overlap; each step contributes the average of the
    forward and backward principal logarithms, which keeps Hermitian
    loops exactly real and converges at second order.

    The work runs on the 1-D component arrays of each band, with the dot
    products and ``log z = log|z| + i arg z`` written out; no
    ``(n, 2, 2)`` overlap stack is formed.

    A step whose two band pairings agree to within ``1e-9`` relative, as
    where the loop crosses an exceptional point, cannot tell the bands
    apart: it keeps their frame slots, whatever the rounding, and leaves
    the loop open.

    A pairing or step overlap below ``OVERLAP_TOL`` raises
    :class:`EPOnPathError` with ``on_ep='raise'``; with ``on_ep='flag'`` it
    is dropped and counted.

    Returns ``(theta, closed, min_overlap, skipped)`` where ``closed`` is
    False if band identities swap over the loop or a step cannot tell
    them apart, and ``skipped`` counts the dropped overlaps.
    """
    _check_on_ep(on_ep)
    right = np.asarray(right, dtype=complex)
    left = np.asarray(left, dtype=complex)
    if right.ndim != 3 or right.shape[1:] != (2, 2) or right.shape != left.shape:
        raise ValueError("expected frames of shape (n, 2, 2)")
    n = right.shape[0]
    if n < 3:
        raise ValueError("need at least 3 loop points")
    R, L = right.transpose(1, 2, 0).copy(), left.transpose(1, 2, 0).copy()
    return _wilson_core(R, L, _canonical_gauge(R, L), on_ep)


def _sum_arg(z):
    return np.sum(np.arctan2(z.imag, z.real))


def _sum_log_abs(z, a):
    """Sum of ``log |z|``, given ``a = |z|``.

    Where ``|z|`` is near 1, as the step overlaps mostly are, it is
    ``log1p(|z|^2 - 1) / 2``: ``log(a)`` would leave an absolute error of
    ~1e-16 per step there, which adds up over the loop.  Each point takes
    one of the two logarithms, and the sum runs over all points at once.
    """
    x, y = z.real, z.imag
    with np.errstate(divide="ignore"):  # log1p(-1) at a tiny |z|, which the where drops
        near_one = 0.5 * np.log1p((x - 1.0) * (x + 1.0) + y * y)
    return np.sum(np.where((a > 0.5) & (a < 2.0), near_one, np.log(a)))


def _principal_theta(theta: complex, band: int) -> complex:
    """Reduce ``Re theta`` modulo 2*pi to ``[-pi, pi]``.

    The phase is defined modulo 2*pi; this picks a deterministic
    representative.  On the ``+/-pi`` plateau the raw windings of the two
    bands land on either edge, so a value within 1e-9 of either edge takes
    the edge of its imaginary part: ``+pi`` for ``Im > 1e-12``, ``-pi``
    for ``Im < -1e-12``, and band order as the tie-break (band 0 at
    ``+pi``).  The two bands, whose imaginary parts are opposite, thus sit
    on opposite edges, and rounding cannot move a value to the other one.
    """
    re = theta.real - 2.0 * math.pi * math.floor((theta.real + math.pi) / (2.0 * math.pi))
    if abs(re) >= math.pi - 1e-9:
        plus = theta.imag > 1e-12 or (abs(theta.imag) <= 1e-12 and band == 0)
        if plus != (re > 0):
            re += 2.0 * math.pi if plus else -2.0 * math.pi
    return complex(re, theta.imag)


def _loop_frames(model: ModelSpec, steps: int, on_ep: str):
    """Drive phases ``theta_k = 2*pi*k/steps``, the Bloch vectors and band
    gap at the times ``t_k = k*T/steps`` where the drive reaches them, and
    the gauged frames there with their ``bad`` pairing marks, as
    ``(phases, d, gap, right, left, bad)``."""
    k = np.arange(steps)
    phases = k * (2.0 * math.pi / steps)
    d = bloch_vector_at(model, k * (model.period / steps))
    # an overflowed d.d raises before any frame is used; against an overflowed
    # |d|, any finite mu is 0, so the point is defective
    with np.errstate(over="ignore", invalid="ignore"):
        mu, gap, right, left = _raw_eigenframes(d)
        if not np.isfinite(mu).all():
            raise DefectivePointError("d.d is not finite on the loop")
        if on_ep == "raise":
            defective = _defective(d, mu)
            if np.any(defective):
                raise EPOnPathError(
                    f"loop passes through a defective point at drive phase "
                    f"{float(phases[np.argmax(defective)]):.6g}"
                )
    bad = _canonical_gauge(right, left)
    return phases, d, gap, right, left, bad


def berry_phase_loop(
    model: ModelSpec,
    steps: int = DEFAULT_LOOP_STEPS,
    richardson: bool = True,
    on_ep: str = "raise",
) -> BerryPhaseResult:
    """Complex geometric phase of the cyclic model over one period.

    The loop parameter is the drive phase ``theta = omega*t in [0, 2*pi)``
    sampled at ``steps`` uniform points; the points with a band gap below
    ``GAP_TOL`` are reported, as drive phases, in ``degeneracy_flags``.
    With ``richardson=True`` the loop is also computed at doubled
    resolution and the two values extrapolated, removing the leading
    second-order discretization error; the step-doubling difference is
    reported as a convergence certificate.  The frames are built and
    gauged once, at the ``2 * steps`` points: their even points are the
    ``steps``-point loop bit for bit, so the coarse loop runs on those
    views.  ``Re theta`` is reported on ``[-pi, pi]``, a value at the
    ``+/-pi`` edge on the edge of the sign of ``Im theta`` (see
    :func:`_principal_theta`).

    For a Hermitian loop (real Bloch vector throughout) the half solid
    angle subtended by the normalized Bloch path is attached for
    reference; the phase equals it modulo 2*pi up to discretization
    error.
    """
    steps, richardson = _check_loop_settings(steps, richardson)
    _check_on_ep(on_ep)

    phases, d, gap, right, left, bad = _loop_frames(
        model, 2 * steps if richardson else steps, on_ep
    )
    # the even points of the 2n grid are the n grid bit for bit
    # (2k * (T/2n) == k * (T/n)) and every frame operation is pointwise
    n_grid = slice(None, None, 2 if richardson else 1)
    phases, d, gap = phases[n_grid], d[n_grid], gap[n_grid]
    theta1, closed1, _, skipped1 = _wilson_core(
        right[..., n_grid], left[..., n_grid], bad[:, n_grid], on_ep
    )
    flags = tuple(float(v) for v in phases[gap < GAP_TOL])

    step_delta = None
    theta = theta1
    closed = closed1
    skipped = skipped1
    if richardson:
        theta2, closed2, _, skipped2 = _wilson_core(right, left, bad, on_ep)
        step_delta = float(np.max(np.abs(theta2 - theta1)))
        theta = (4.0 * theta2 - theta1) / 3.0
        closed = closed1 and closed2
        skipped += skipped2

    hsa = None
    if float(np.max(np.abs(d.imag))) <= 1e-12 * max(float(np.max(np.abs(d))), 1e-300):
        hsa = half_solid_angle(d.real)

    if skipped > max(2, 0.01 * steps):
        # the loop sits essentially on an exceptional point: with a
        # significant fraction of the overlaps dropped, no meaningful
        # phase remains
        theta = np.full(2, complex(np.nan, np.nan))
        step_delta = None
    else:
        theta = np.array([_principal_theta(complex(theta[b]), b) for b in (0, 1)])
    return BerryPhaseResult(
        theta=theta,
        degeneracy_flags=flags,
        half_solid_angle=hsa,
        step_delta=step_delta,
        certified=bool(closed and skipped == 0 and not flags),
    )


class PolygonPhase(NamedTuple):
    """The complex phase of one square loop, from its vertices."""

    theta: np.ndarray  # (2,) complex, band-major, Re on [-pi, pi]; NaN where no phase
    flags: tuple       # drive phases of the vertices with gap < GAP_TOL
    certified: bool


def polygon_phase_rows(a, b, gammas) -> list[PolygonPhase]:
    """The phase of the square loop with segment vectors ``a + g * b`` for
    each ``g`` of ``gammas``: the Wilson core, with ``on_ep='flag'``, run
    once on the ``n`` vertices.  A sampled Wilson loop's steps inside a
    segment have overlap 1, so its value is this discrete Pancharatnam
    phase (Samuel & Bhandari, PRL 60, 2339, 1988) at any step count.
    Vertex ``l`` is flagged at the drive phase ``2*pi*l/n``, where its
    segment starts.  A zero eigenvector, a non-finite ``d.d`` or a pairing
    below ``OVERLAP_TOL`` leaves the loop NaN, as it does the sampled one.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    phases = np.arange(len(a)) * (2.0 * math.pi / len(a))
    return [_polygon_phase(d, phases) for d in _affine(a, b, np.asarray(gammas, dtype=float))]


def _polygon_phase(d, phases) -> PolygonPhase:
    nan = np.full(2, complex(np.nan, np.nan))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed d.d is no phase
        mu, gap, right, left = _raw_eigenframes(d)
    if not np.isfinite(mu).all():
        return PolygonPhase(nan, (), False)
    try:
        bad = _canonical_gauge(right, left)
    except DefectivePointError:
        return PolygonPhase(nan, (), False)
    flags = tuple(float(v) for v in phases[gap < GAP_TOL])
    if bad.any():
        return PolygonPhase(nan, flags, False)
    theta, closed, _, skipped = _wilson_core(right, left, bad, "flag")
    theta = np.array([_principal_theta(complex(theta[band]), band) for band in (0, 1)])
    return PolygonPhase(theta, flags, bool(closed and not skipped and not flags))


class SpectralPhase(NamedTuple):
    """The complex phase of one loop by the spectral route."""

    theta: np.ndarray  # (2,) complex, band-major, Re on [-pi, pi]
    points: int        # drive phases of the accepted trapezoid sum
    delta: float       # max band |theta(points) - theta(points / 2)|


def _affine(static, slope, gammas):
    """``static + g * slope`` for each ``g`` of ``gammas``, stacked on a new
    leading axis; on the real and imaginary parts apart, so ``x + 0 * x``
    is ``x`` bit for bit for every finite ``x``, signed zeros included."""
    return (static.view(float) + gammas[:, None, None] * slope.view(float)).view(complex)


def _spectral_sums(d, dd):
    """Trapezoid values of ``i * loop integral of L dR / (L R)`` for both
    bands of each loop whose Bloch vectors ``d`` and phase derivatives
    ``dd`` are stacked ``(loops, points, 3)`` on uniform drive phases, on
    all the points and on their even half.  Returns ``(kept, fine,
    coarse)``: the indices of the loops whose integrand can be trusted,
    and their ``(len(kept), 2)`` complex sums.

    ``eps`` follows ``sqrt(d.d)`` continuously from point to point: the
    principal root can jump to its negative between neighbours (a
    ``-0.0`` imaginary part on a negative ``d.d`` does), so it is not the
    band.  Each band keeps one adjugate column on the whole loop,
    ``R = (d_z + eps, d_x + i d_y)`` and ``L = (d_z + eps, d_x - i d_y)``
    with ``L R = 2 eps (eps + d_z)``, or, if ``eps + d_z`` comes closer to
    0, ``R = (d_x - i d_y, eps - d_z)`` and ``L = (d_x + i d_y, eps - d_z)``
    with ``L R = 2 eps (eps - d_z)``; the two gauges differ by a factor
    that varies along the loop, so they are never mixed.

    A loop is declined on a non-finite value, a gap ``|2 eps|`` below
    ``GAP_TOL``, a step of ``arg(d.d)`` of pi/2 or more (which a sign
    change of a real ``d.d`` is: the loop crosses an exceptional point
    between two samples), a band that comes back as the other one after a
    turn, or a frame that vanishes.  Every test is per loop, and a
    declined loop is dropped before the next division, so no loop's
    value or warning depends on the others in the stack.
    """
    points = d.shape[1]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    # summed in the order of _raw_eigenframes, so both routes start band 0
    # on the same root
    q = dx * dx
    q += dy * dy
    q += dz * dz
    ok = np.isfinite(q).all(axis=1) & np.isfinite(dd).all(axis=(1, 2))
    root = np.sqrt(q)
    ok &= ~(np.abs(2.0 * root).min(axis=1) < GAP_TOL)
    ok &= ~((q * _previous(q).conj()).real <= 0.0).any(axis=1)
    # with arg(d.d) steps below pi/2, a root step of more than pi/2 is a
    # jump to the other root
    flip = (root * _previous(root).conj()).real < 0.0
    flip[:, 0] = False
    eps = np.where(np.logical_xor.accumulate(flip, axis=1), -root, root)
    ok &= ~((eps[:, -1] * eps[:, 0].conj()).real < 0.0)
    kept = ok.nonzero()[0]
    if kept.size < ok.size:  # the declined loops leave before the first division
        d, dd, eps = d[kept], dd[kept], eps[kept]
        dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    ddx, ddy, ddz = dd[..., 0], dd[..., 1], dd[..., 2]
    deps = (dx * ddx + dy * ddy + dz * ddz) / eps
    # both bands at once, (band, loop, point): band 1 is eps -> -eps
    e, de = np.array((eps, -eps)), np.array((deps, -deps))
    a, b = e + dz, e - dz
    use_a = (np.abs(a).min(axis=2) >= np.abs(b).min(axis=2))[..., None]
    g = np.where(use_a, a, b)
    idy, iddy = 1.0j * dy, 1.0j * ddy
    num = np.where(use_a, a * (de + ddz) + (dx - idy) * (ddx + iddy),
                   b * (de - ddz) + (dx + idy) * (ddx - iddy))
    ok = g.all(axis=(0, 2))
    if not ok.all():
        kept, e, g, num = kept[ok], e[:, ok], g[:, ok], num[:, ok]
    f = num / (2.0 * e * g)
    fine = (f.sum(axis=2) * (2.0j * math.pi / points)).T
    coarse = (f[..., ::2].sum(axis=2) * (4.0j * math.pi / points)).T
    ok = np.isfinite(fine).all(axis=1) & np.isfinite(coarse).all(axis=1)
    return kept[ok], fine[ok], coarse[ok]


def _previous(x):
    """``x`` at the previous point of each loop (the last for the first)."""
    return np.concatenate((x[:, -1:], x[:, :-1]), axis=1)


def spectral_phase_rows(static: ModelSpec, slope: ModelSpec, gammas) -> list[SpectralPhase | None]:
    """:func:`spectral_phase_loop` of ``static + g * slope`` for each ``g``
    of ``gammas`` (see :meth:`~floqep.model.PresetTemplate.parts`), as
    stacked passes of at most ``SPECTRAL_STACK_POINTS`` loops x points:
    each doubling of the grid evaluates the two parts once, and re-runs
    only the loops neither accepted nor declined.  Each loop's result is
    the bits of its own pass."""
    gammas = np.asarray(gammas, dtype=float)
    out: list[SpectralPhase | None] = [None] * len(gammas)
    if any(term.waveform in SQUARE_WAVEFORMS for term in static.terms):
        return out
    rows = np.arange(len(gammas))
    points = SPECTRAL_MIN_POINTS
    # an overflow surfaces as a non-finite value, which declines
    with np.errstate(over="ignore", invalid="ignore"):
        while rows.size and points <= SPECTRAL_MAX_POINTS:
            t = np.arange(points) * (static.period / points)
            # Bloch vectors and phase derivatives of the two parts on the uniform drive phases
            parts = [(f(static, t), f(slope, t)) for f in (bloch_vector_at, bloch_phase_derivative)]
            pending, block = [], max(1, SPECTRAL_STACK_POINTS // points)
            for start in range(0, rows.size, block):
                stack = rows[start:start + block]
                kept, fine, coarse = _spectral_sums(*(_affine(*part, gammas[stack]) for part in parts))
                deltas = np.abs(fine - coarse).max(axis=1)
                done = deltas <= SPECTRAL_TOL
                for row, (f0, f1), delta in zip(stack[kept[done]].tolist(), fine[done].tolist(),
                                                deltas[done].tolist()):
                    theta = np.array([_principal_theta(f0, 0), _principal_theta(f1, 1)])
                    out[row] = SpectralPhase(theta, points, delta)
                pending.append(stack[kept[~done]])
            rows = np.concatenate(pending)
            points *= 2
    return out


def spectral_phase_loop(model: ModelSpec) -> SpectralPhase | None:
    """Complex geometric phase of a smooth loop by the trapezoid rule,
    or None where this route cannot be trusted.

    A smooth model's ``d(theta)`` is a trigonometric polynomial, so with
    the gap open the integrand of ``i * loop integral of L dR / (L R)`` is
    analytic and periodic, and the trapezoid rule converges exponentially
    (Trefethen & Weideman, SIAM Rev. 56, 2014); the value is the
    biorthogonal complex phase (Garrison & Wright, Phys. Lett. A 128,
    1988), band 0 starting on the principal root as in
    :func:`berry_phase_loop`.  The grid doubles from
    ``SPECTRAL_MIN_POINTS`` until the fine and coarse sums agree within
    ``SPECTRAL_TOL``, and returns the fine value with that ``delta``.

    None for a square waveform, for any loop that
    :func:`_spectral_sums` declines, and for no agreement by
    ``SPECTRAL_MAX_POINTS``.  A declined loop emits no warning.  This is
    :func:`spectral_phase_rows` of the model as ``model + 0 * model``.
    """
    return spectral_phase_rows(model, model, np.zeros(1))[0]


def _solid_angle_pivot(u: np.ndarray) -> np.ndarray:
    """Interior pivot for the spherical fan triangulation.

    The signed-area normal (sum of consecutive cross products) points
    into the region enclosed by the oriented loop, which keeps the fan
    sum on the branch where the enclosed area is reported directly.
    Falls back to the centroid, then to fixed candidates, rejecting any
    pivot that is antipodal to a loop point.
    """
    candidates = []
    cross_sum = np.cross(u, np.roll(u, -1, axis=0)).sum(axis=0)
    if np.linalg.norm(cross_sum) > 1e-9:
        candidates.append(cross_sum / np.linalg.norm(cross_sum))
    centroid = u.mean(axis=0)
    if np.linalg.norm(centroid) > 1e-9:
        candidates.append(centroid / np.linalg.norm(centroid))
    candidates.append(u[0])
    candidates.extend(np.eye(3))
    for p in candidates:
        if np.min(1.0 + u @ p) > 1e-9:
            return p
    raise ValueError("could not find a pivot non-antipodal to the loop")


def half_solid_angle(loop) -> float:
    """Half the solid angle subtended by a closed loop of vectors.

    The loop is normalized to the unit sphere and fan-triangulated from
    an interior pivot; each spherical triangle contributes its signed
    excess via the triple-product formula.  The result is half the area
    of the region enclosed to the left of the traversal (e.g. pi for a
    counter-clockwise equator, pi*(1-cos(t0)) for a circle at polar
    angle t0 traversed counter-clockwise seen from its pole).
    Consecutive antipodal points make the geodesic ambiguous and raise
    ``ValueError``.
    """
    p = np.asarray(loop, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 3:
        raise ValueError("loop must be an (n, 3) array with n >= 3")
    norms = np.linalg.norm(p, axis=1)
    if not np.all(np.isfinite(norms)) or np.any(norms == 0):
        raise ValueError("loop vectors must be finite and nonzero")
    u = p / norms[:, None]
    if np.allclose(u[0], u[-1], rtol=0.0, atol=1e-15):
        u = u[:-1]
    if u.shape[0] < 3:
        raise ValueError("loop must contain at least 3 distinct points")
    dots = np.einsum("ij,ij->i", u, np.roll(u, -1, axis=0))
    if np.any(dots < -1.0 + 1e-12):
        raise ValueError("consecutive antipodal points: geodesic is ambiguous")
    a = _solid_angle_pivot(u)
    b = u
    c = np.roll(u, -1, axis=0)
    dets = np.einsum("j,ij->i", a, np.cross(b, c))
    denoms = 1.0 + b @ a + np.einsum("ij,ij->i", b, c) + c @ a
    omega = float(np.sum(2.0 * np.arctan2(dets, denoms)))
    return 0.5 * omega


class SpectralRegion(Enum):
    ALL_REAL = "AllReal"
    SOME_COMPLEX = "SomeComplex"
    ALL_IMAGINARY_WINDOW = "AllImaginaryWindow"
    MIXED = "Mixed"


@dataclass(eq=False)
class RegionThreshold:
    gamma: float
    below: str
    above: str


@dataclass(eq=False)
class SpectrumRegionScan:
    """Per-gamma classification of the instantaneous spectrum.

    ``AllReal``: eigenvalues real at every sampled loop position.
    ``SomeComplex``: nonreal on part of the loop only (the alternating
    regime; for the presets the nonreal values are purely imaginary).
    ``AllImaginaryWindow``: purely imaginary pair over the whole loop.
    ``Mixed``: genuinely complex eigenvalues (nonzero real and imaginary
    parts) somewhere on the loop.
    """

    gammas: np.ndarray
    classifications: tuple
    thresholds: tuple


def classify_instantaneous(model: ModelSpec):
    """Classify the instantaneous eigenvalue pair at ``SCAN_SAMPLES``
    points of one loop."""
    d = bloch_vector_at(model, np.arange(SCAN_SAMPLES) * (model.period / SCAN_SAMPLES))
    mu = np.sqrt(np.einsum("nk,nk->n", d, d))
    is_real = np.abs(mu.imag) < SPECTRUM_TOL
    is_imag = (np.abs(mu.real) < SPECTRUM_TOL) & ~is_real
    is_cplx = ~is_real & ~is_imag
    if np.any(is_cplx):
        return SpectralRegion.MIXED
    if not np.any(is_imag):
        return SpectralRegion.ALL_REAL
    if not np.any(is_real):
        return SpectralRegion.ALL_IMAGINARY_WINDOW
    return SpectralRegion.SOME_COMPLEX


def spectrum_region_scan(template: PresetTemplate, gammas) -> SpectrumRegionScan:
    """Classify the instantaneous spectrum across a gamma range.

    Classification boundaries between consecutive grid points are
    bisected to ``THRESHOLD_TOL`` or to adjacent doubles.  The loop is
    sampled at fixed drive phases, so omega (set to 1) does not enter.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or gammas.size < 2:
        raise ValueError("gammas must be a 1-d array with at least 2 values")

    def classify(g):
        return classify_instantaneous(template.instantiate(g, 1.0))

    classes = [classify(g) for g in gammas]
    thresholds = []
    for i in range(len(gammas) - 1):
        if classes[i] is classes[i + 1]:
            continue
        lo, hi = float(gammas[i]), float(gammas[i + 1])
        cls_lo = classes[i]
        while hi - lo > THRESHOLD_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
            # any departure from the left class marks the boundary; exactly
            # at a degeneracy rounding can produce an eps-wide stray class
            if classify(mid) is cls_lo:
                lo = mid
            else:
                hi = mid
        thresholds.append(
            RegionThreshold(
                gamma=0.5 * (lo + hi), below=cls_lo.value, above=classes[i + 1].value
            )
        )
    return SpectrumRegionScan(
        gammas=gammas,
        classifications=tuple(c.value for c in classes),
        thresholds=tuple(thresholds),
    )
