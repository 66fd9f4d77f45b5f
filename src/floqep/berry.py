"""Biorthogonal eigenframes and complex geometric phases on closed loops.

For a non-Hermitian two-level Hamiltonian the left and right eigenvectors
are not related by conjugation, and the geometric phase accumulated on a
closed parameter loop is complex.  It is computed here as a discrete
biorthogonal Wilson loop: per-step overlaps of the tracked left and right
frames, with the forward and backward logarithms averaged.  The averaged
form is gauge invariant, second-order accurate in the step size, and for
Hermitian loops its imaginary part cancels identically.  A Richardson
loop at ``n`` steps computes its frames once, at ``2n`` points, and runs
the ``n``-step loop on their even points.  ``Re theta`` is reported on
``[-pi, pi]``; on the ``+/-pi`` plateau each band takes the edge whose
sign matches its ``Im theta``.  A step across an exceptional point,
where the two band pairings tie, keeps the band slots and leaves the
loop uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelSpec, PresetTemplate, bloch_decompose, bloch_vector_at


class DefectivePointError(ValueError):
    """The matrix has a doubly degenerate eigenvalue with one eigenvector."""


class NearEPError(ValueError):
    """Left/right overlap too small to biorthonormalize reliably."""


class EPOnPathError(RuntimeError):
    """The loop passes through (or too close to) an exceptional point."""


@dataclass(eq=False)
class EigensystemInstant:
    """Instantaneous eigensystem with band-major storage.

    ``right[b]`` is the right eigenvector of band ``b`` and ``left[b]``
    the left row vector (``left[b] @ H = eps[b] * left[b]``); the
    biorthogonal pairing is the plain dot product ``left[b] @ right[b]``
    with no conjugation.  Bands are ordered by descending (Re, Im)
    eigenvalue.
    """

    eigenvalues: np.ndarray  # (2,) complex
    right: np.ndarray        # (2, 2) rows = bands
    left: np.ndarray         # (2, 2) rows = bands
    biorthonormal: bool
    gap: float


@dataclass(eq=False)
class BerryPhaseResult:
    """Complex geometric phase per band for one closed loop."""

    theta: np.ndarray             # (2,) complex, band-major
    steps: int
    degeneracy_flags: tuple       # loop positions s with gap < tolerance
    half_solid_angle: float | None
    richardson: bool
    step_delta: float | None      # max band |theta(2n) - theta(n)|
    certified: bool               # False if EP steps were skipped or bands swapped or tied


_DEFECT_REL_TOL = 1e-10
# step pairings this close are undecided: across an EP the two agree to
# ~1e-14 relative, anywhere else they differ by more than 0.5
_TIE_REL_TOL = 1e-9
SPECTRUM_TOL = 1e-10  # |Re mu| or |Im mu| below this counts as zero
THRESHOLD_TOL = 1e-6  # a spectrum class boundary is bisected to this width in gamma
DEFAULT_LOOP_STEPS = 8192
MIN_LOOP_STEPS = 256


def _abs2(z):
    return np.abs(z) ** 2


def _raw_eigenframes(d):
    """Closed-form eigenframes for a batch of Bloch vectors ``(n, 3)``.

    The bands of ``d0*I + d.sigma`` are ``d0 +/- mu`` with
    ``mu = sqrt(d.d)`` (principal branch, so the first band has the
    descending-(Re, Im) eigenvalue); the frames do not depend on ``d0``.
    Eigenvectors come from the adjugate columns of ``H - eps I``; the
    larger-norm column is selected per point for stability.  Left rows are
    the transpose-system eigenvectors (``dy -> -dy``).  Every operation is
    pointwise, so a point's frames do not depend on the rest of the batch.
    Returns ``(mu, right, left, gap, defective)``.
    """
    n = d.shape[0]
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    mu = np.sqrt(dx * dx + dy * dy + dz * dz)
    dnorm = np.sqrt(_abs2(dx) + _abs2(dy) + _abs2(dz))
    defective = (np.abs(mu) < _DEFECT_REL_TOL * dnorm) & (dnorm > 0)
    gap = np.abs(2.0 * mu)
    w, wc = dx + 1.0j * dy, dx - 1.0j * dy
    w2, wc2 = _abs2(w), _abs2(wc)
    right = np.empty((n, 2, 2), dtype=complex)
    left = np.empty((n, 2, 2), dtype=complex)
    for b, smu in enumerate((mu, -mu)):
        p, q = dz + smu, smu - dz
        p2, q2 = _abs2(p), _abs2(q)
        # right: columns (p, w) and (wc, q); left: rows (p, wc) and (w, q)
        use2 = wc2 + q2 > p2 + w2
        right[:, b, 0] = np.where(use2, wc, p)
        right[:, b, 1] = np.where(use2, q, w)
        use2 = w2 + q2 > p2 + wc2
        left[:, b, 0] = np.where(use2, w, p)
        left[:, b, 1] = np.where(use2, q, wc)
    return mu, right, left, gap, defective


def _canonical_gauge(r0, r1, l0, l1):
    """Deterministic gauge on component arrays: unit-norm right
    ``(r0, r1)`` with its dominant component rotated real-positive, and
    unit-norm left ``(l0, l1)``.

    The dominant component prefers index 0 unless index 1 is larger by a
    relative margin, so near-ties cannot flip the choice between
    neighbouring loop points.  Also returns the pairing overlap
    ``left . right`` of the unit frames, for near-EP detection; dividing
    the left frame by it makes the pair biorthonormal.
    """
    a0, a1 = np.abs(r0), np.abs(r1)
    rnorm = np.sqrt(a0 * a0 + a1 * a1)
    lnorm = np.sqrt(_abs2(l0) + _abs2(l1))
    if np.any(rnorm == 0) or np.any(lnorm == 0):
        raise DefectivePointError("zero eigenvector encountered")
    use1 = a1 > a0 * (1.0 + 1e-9)
    # |pick| / pick, and 1 / rnorm, as one complex factor
    scale = np.conj(np.where(use1, r1, r0)) * (1.0 / (np.where(use1, a1, a0) * rnorm))
    r0, r1 = r0 * scale, r1 * scale
    inv = 1.0 / lnorm
    l0, l1 = l0 * inv, l1 * inv
    return r0, r1, l0, l1, l0 * r0 + l1 * r1


def instantaneous_eigensystem(H) -> EigensystemInstant:
    """Eigenvalues and unit-norm left/right eigenvectors of a 2x2 matrix.

    Raises :class:`DefectivePointError` when ``d.d`` vanishes for a
    nonzero Bloch vector: the matrix then has a single eigenvector and no
    biorthogonal pair exists.
    """
    d0, d = bloch_decompose(H)
    mu, right, left, gap, defective = _raw_eigenframes(d[None, :])
    if defective[0]:
        raise DefectivePointError(
            "defective point: d.d = 0 with nonzero Bloch vector (single eigenvector)"
        )
    # both bands at once: each component array runs over the bands
    r0, r1, l0, l1, _ = _canonical_gauge(
        right[0, :, 0], right[0, :, 1], left[0, :, 0], left[0, :, 1]
    )
    return EigensystemInstant(
        eigenvalues=np.array([d0 + mu[0], d0 - mu[0]]),
        right=np.stack([r0, r1], axis=-1),
        left=np.stack([l0, l1], axis=-1),
        biorthonormal=False,
        gap=float(gap[0]),
    )


def biorthonormalize(e: EigensystemInstant, overlap_tol: float = 1e-8) -> EigensystemInstant:
    """Rescale left vectors so ``left[b] @ right[b] = 1``.

    Raises :class:`NearEPError` when a pairing overlap of the unit-norm
    frames falls below ``overlap_tol`` (coalescing eigenvectors).
    """
    ov = np.einsum("bc,bc->b", e.left, e.right)
    if np.any(np.abs(ov) < overlap_tol):
        raise NearEPError(
            f"left/right overlap {np.min(np.abs(ov)):.3e} below {overlap_tol:.1e}"
        )
    return EigensystemInstant(
        eigenvalues=e.eigenvalues,
        right=e.right,
        left=e.left / ov[:, None],
        biorthonormal=True,
        gap=e.gap,
    )


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


def wilson_loop_phase(right, left, overlap_tol: float = 1e-8, on_ep: str = "raise"):
    """Complex phase of the discrete biorthogonal Wilson loop.

    ``right[k, b]`` / ``left[k, b]`` are the band-``b`` frames at loop
    point ``k`` (the loop closes from the last point back to the first).
    Frames are re-canonicalized internally, so the result is invariant
    under independent per-point rescalings.  Bands are tracked around the
    loop by maximal overlap; each step contributes the average of the
    forward and backward principal logarithms, which keeps Hermitian
    loops exactly real and converges at second order.

    The work runs on the 1-D component arrays ``right[:, b, c]``, band by
    band, with the dot products and ``log z = log|z| + i arg z`` written
    out; no ``(n, 2, 2)`` overlap stack is formed.

    A step whose two band pairings agree to within ``1e-9`` relative, as
    where the loop crosses an exceptional point, cannot tell the bands
    apart: it keeps their frame slots, whatever the rounding, and leaves
    the loop open.

    Returns ``(theta, closed, min_overlap, skipped)`` where ``closed`` is
    False if band identities swap over the loop or a step cannot tell
    them apart, and ``skipped`` counts steps dropped in ``on_ep='flag'``
    mode.
    """
    right = np.asarray(right, dtype=complex)
    left = np.asarray(left, dtype=complex)
    if right.ndim != 3 or right.shape[1:] != (2, 2) or right.shape != left.shape:
        raise ValueError("expected frames of shape (n, 2, 2)")
    n = right.shape[0]
    if n < 3:
        raise ValueError("need at least 3 loop points")
    R, L, bad = [], [], []
    for b in (0, 1):
        r0, r1, l0, l1, ov = _canonical_gauge(
            right[:, b, 0], right[:, b, 1], left[:, b, 0], left[:, b, 1]
        )
        bad.append(np.abs(ov) < overlap_tol)
        inv = 1.0 / np.where(bad[b], 1.0, ov)  # biorthonormal where the pairing allows
        R.append((r0, r1))
        L.append((l0 * inv, l1 * inv))
    skipped = int(np.count_nonzero(bad[0]) + np.count_nonzero(bad[1]))
    if skipped and on_ep == "raise":
        raise EPOnPathError(
            f"biorthogonal overlap below {overlap_tol:.1e} at "
            f"{int(np.count_nonzero(bad[0] | bad[1]))} loop points"
        )

    def first(f):
        return f[0][0], f[1][0]

    diag = np.abs(_step_dots(L[0], R[0], first(R[0])) * _step_dots(L[1], R[1], first(R[1])))
    off = np.abs(_step_dots(L[0], R[1], first(R[1])) * _step_dots(L[1], R[0], first(R[0])))
    # a step across an EP pairs each band with either successor equally
    # well; rounding must not pick one, so such a step keeps the slots and
    # the loop is not reported closed
    tie = np.abs(diag - off) <= _TIE_REL_TOL * np.maximum(diag, off)
    # par[k]: whether the band identities have traded frame slots by point k
    par = np.zeros(n + 1, dtype=bool)
    np.logical_xor.accumulate((diag < off) & ~tie, out=par[1:])
    closed = not par[n] and not np.any(tie)
    theta = np.empty(2, dtype=complex)
    min_overlap = np.inf
    for band in (0, 1):
        in_slot1 = par[:n] if band == 0 else ~par[:n]
        Rt = tuple(np.where(in_slot1, R[1][c], R[0][c]) for c in (0, 1))
        Lt = tuple(np.where(in_slot1, L[1][c], L[0][c]) for c in (0, 1))
        # the closing step lands in the slot the band holds after a full turn
        close = int(par[n]) ^ band
        o_fwd = _step_dots(Lt, Rt, first(R[close]))
        o_bwd = _step_dots(Rt, Lt, first(L[close]))
        a_fwd, a_bwd = np.abs(o_fwd), np.abs(o_bwd)
        step_min = min(np.min(a_fwd), np.min(a_bwd))
        min_overlap = min(min_overlap, float(step_min))
        weak = (a_fwd < overlap_tol) | (a_bwd < overlap_tol)
        if np.any(weak):
            if on_ep == "raise":
                raise EPOnPathError(
                    f"step overlap below {overlap_tol:.1e}: phase undefined through an EP"
                )
            o_fwd[weak] = o_bwd[weak] = 1.0
            a_fwd[weak] = a_bwd[weak] = 1.0
            skipped += int(np.count_nonzero(weak))
        # 0.5j * (sum log o_fwd - sum log o_bwd), with log o = log|o| + i arg o
        arg = _sum_arg(o_fwd) - _sum_arg(o_bwd)
        log_abs = _sum_log_abs(o_fwd, a_fwd) - _sum_log_abs(o_bwd, a_bwd)
        theta[band] = complex(-0.5 * arg, 0.5 * log_abs)
    return theta, closed, min_overlap, skipped


def _sum_arg(z):
    return np.sum(np.arctan2(z.imag, z.real))


def _sum_log_abs(z, a):
    """Sum of ``log |z|``, given ``a = |z|``.

    Where ``|z|`` is near 1, as the step overlaps mostly are, it is
    ``log1p(|z|^2 - 1) / 2``: ``log(a)`` would leave an absolute error of
    ~1e-16 per step there, which adds up over the loop.
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
    """Loop positions ``s``, Bloch vectors, right and left frames and band
    gap at ``steps`` uniform points of one period."""
    s = np.arange(steps) * (model.period / steps)
    d = bloch_vector_at(model, s)
    _, right, left, gap, defective = _raw_eigenframes(d)
    if on_ep == "raise" and np.any(defective):
        raise EPOnPathError(
            f"loop passes through a defective point at s = "
            f"{float(s[np.argmax(defective)]):.6g}"
        )
    return s, d, right, left, gap


def berry_phase_loop(
    model: ModelSpec,
    steps: int = DEFAULT_LOOP_STEPS,
    richardson: bool = True,
    on_ep: str = "raise",
    gap_tol: float = 1e-6,
    overlap_tol: float = 1e-8,
) -> BerryPhaseResult:
    """Complex geometric phase of the cyclic model over one period.

    The loop parameter is ``s in [0, T)`` sampled at ``steps`` uniform
    points.  With ``richardson=True`` the loop is also computed at doubled
    resolution and the two values extrapolated, removing the leading
    second-order discretization error; the step-doubling difference is
    reported as a convergence certificate.  The frames are computed once,
    at the ``2 * steps`` points: their even points are the ``steps``-point
    loop bit for bit, so the coarse loop runs on those views.  ``Re theta``
    is reported on ``[-pi, pi]``, a value at the ``+/-pi`` edge on the edge
    of the sign of ``Im theta`` (see :func:`_principal_theta`).

    For a Hermitian loop (real Bloch vector throughout) the half solid
    angle subtended by the normalized Bloch path is attached for
    reference; the phase equals it modulo 2*pi up to discretization
    error.
    """
    if steps < MIN_LOOP_STEPS:
        raise ValueError(f"steps must be >= {MIN_LOOP_STEPS}")
    if on_ep not in ("raise", "flag"):
        raise ValueError("on_ep must be 'raise' or 'flag'")

    s, d, right, left, gap = _loop_frames(model, 2 * steps if richardson else steps, on_ep)
    if richardson:
        right2, left2 = right, left
        # the even points of the 2n grid are the n grid bit for bit
        # (2k * (T/2n) == k * (T/n)) and every frame operation is pointwise
        s, d, right, left, gap = s[::2], d[::2], right[::2], left[::2], gap[::2]
    theta1, closed1, _, skipped1 = wilson_loop_phase(
        right, left, overlap_tol=overlap_tol, on_ep=on_ep
    )
    flags = tuple(float(v) for v in s[gap < gap_tol])

    step_delta = None
    theta = theta1
    closed = closed1
    skipped = skipped1
    if richardson:
        theta2, closed2, _, skipped2 = wilson_loop_phase(
            right2, left2, overlap_tol=overlap_tol, on_ep=on_ep
        )
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
        steps=steps,
        degeneracy_flags=flags,
        half_solid_angle=hsa,
        richardson=richardson,
        step_delta=step_delta,
        certified=bool(closed and skipped == 0 and not flags),
    )


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
    samples: int


def classify_instantaneous(model: ModelSpec, samples: int = 256):
    """Classify the instantaneous eigenvalue pair over one loop."""
    s = np.arange(samples) * (model.period / samples)
    d = bloch_vector_at(model, s)
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


def spectrum_region_scan(
    template: PresetTemplate, gammas, samples: int = 256
) -> SpectrumRegionScan:
    """Classify the instantaneous spectrum across a gamma range.

    Classification boundaries between consecutive grid points are
    refined by bisection to ``THRESHOLD_TOL``.  The loop is sampled at
    fixed drive phases, so omega (set to 1) does not enter.
    """
    if samples < 64:
        raise ValueError("samples must be >= 64")
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or gammas.size < 2:
        raise ValueError("gammas must be a 1-d array with at least 2 values")

    def classify(g):
        return classify_instantaneous(template.instantiate(g, 1.0), samples)

    classes = [classify(g) for g in gammas]
    thresholds = []
    for i in range(len(gammas) - 1):
        if classes[i] is classes[i + 1]:
            continue
        lo, hi = float(gammas[i]), float(gammas[i + 1])
        cls_lo = classes[i]
        while hi - lo > THRESHOLD_TOL:
            mid = 0.5 * (lo + hi)
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
        samples=samples,
    )
