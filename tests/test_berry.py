import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import floqep.berry as berry_module
import floqep.sweep as sweep_mod
from floqep.berry import (
    _DEFECT_REL_TOL,
    _TIE_REL_TOL,
    DEFAULT_LOOP_STEPS,
    GAP_TOL,
    MIN_LOOP_STEPS,
    OVERLAP_TOL,
    SPECTRAL_MAX_POINTS,
    SPECTRAL_MIN_POINTS,
    SPECTRAL_TOL,
    BerryPhaseResult,
    SpectralPhase,
    DefectivePointError,
    EPOnPathError,
    SpectralRegion,
    _canonical_gauge,
    _check_on_ep,
    _defective,
    _loop_frames,
    _loop_vectors,
    _principal_theta,
    _raw_eigenframes,
    _spectral_sums,
    berry_phase_loop,
    classify_instantaneous,
    half_solid_angle,
    spectral_phase_loop,
    spectral_phase_rows,
    spectrum_region_scan,
    wilson_loop_phase,
)
from floqep.model import (
    PRESET_NAMES,
    Axis,
    DriveTerm,
    Hermiticity,
    ModelSpec,
    SQUARE_WAVEFORMS,
    PresetTemplate,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Waveform,
    bloch_decompose,
    bloch_phase_derivative,
    bloch_vector_at,
    preset,
)


def _eigensystem(H):
    """Eigenvalues, unit right frames and biorthonormal left frames
    (``left[b] @ right[b] = 1``), band-major, of one 2x2 matrix, through
    the loop kernel's ``_raw_eigenframes`` and ``_canonical_gauge``."""
    d0, d = bloch_decompose(H)
    mu, _, right, left = _raw_eigenframes(d[None, :])
    _canonical_gauge(right, left)
    return np.array([d0 + mu[0], d0 - mu[0]]), right[..., 0], left[..., 0]


def _frames(model, n):
    """The raw right and left frames, ``(n, 2, 2)``, of an ``n``-point loop
    of ``model``, as the loop kernel builds them before its gauge."""
    _, _, right, left = _raw_eigenframes(bloch_vector_at(model, np.arange(n) * (model.period / n)))
    return tuple(np.ascontiguousarray(f.transpose(2, 0, 1)) for f in (right, left))


# The loop kernel as it stood before the workspace version in floqep.berry:
# per-call arrays, strided (n, 2, 2) frame stacks, and a separate gauge in
# each Wilson loop.  Kept verbatim as the bit-for-bit reference.


def _reference_abs2(z):
    return np.abs(z) ** 2


def _reference_raw_eigenframes(d):
    n = d.shape[0]
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    mu = np.sqrt(dx * dx + dy * dy + dz * dz)
    dnorm = np.sqrt(_reference_abs2(dx) + _reference_abs2(dy) + _reference_abs2(dz))
    defective = (np.abs(mu) < _DEFECT_REL_TOL * dnorm) & (dnorm > 0)
    gap = np.abs(2.0 * mu)
    w, wc = dx + 1.0j * dy, dx - 1.0j * dy
    w2, wc2 = _reference_abs2(w), _reference_abs2(wc)
    right = np.empty((n, 2, 2), dtype=complex)
    left = np.empty((n, 2, 2), dtype=complex)
    for b, smu in enumerate((mu, -mu)):
        p, q = dz + smu, smu - dz
        p2, q2 = _reference_abs2(p), _reference_abs2(q)
        # right: columns (p, w) and (wc, q); left: rows (p, wc) and (w, q)
        use2 = wc2 + q2 > p2 + w2
        right[:, b, 0] = np.where(use2, wc, p)
        right[:, b, 1] = np.where(use2, q, w)
        use2 = w2 + q2 > p2 + wc2
        left[:, b, 0] = np.where(use2, w, p)
        left[:, b, 1] = np.where(use2, q, wc)
    return mu, right, left, gap, defective


def _reference_canonical_gauge(r0, r1, l0, l1):
    a0, a1 = np.abs(r0), np.abs(r1)
    rnorm = np.sqrt(a0 * a0 + a1 * a1)
    lnorm = np.sqrt(_reference_abs2(l0) + _reference_abs2(l1))
    if np.any(rnorm == 0) or np.any(lnorm == 0):
        raise DefectivePointError("zero eigenvector encountered")
    use1 = a1 > a0 * (1.0 + 1e-9)
    # |pick| / pick, and 1 / rnorm, as one complex factor
    scale = np.conj(np.where(use1, r1, r0)) * (1.0 / (np.where(use1, a1, a0) * rnorm))
    r0, r1 = r0 * scale, r1 * scale
    inv = 1.0 / lnorm
    l0, l1 = l0 * inv, l1 * inv
    return r0, r1, l0, l1, l0 * r0 + l1 * r1


def _reference_step_dots(a, b, b_close):
    (a0, a1), (b0, b1) = a, b
    out = np.empty(a0.shape, dtype=complex)
    np.multiply(a0[:-1], b0[1:], out=out[:-1])
    out[:-1] += a1[:-1] * b1[1:]
    out[-1] = a0[-1] * b_close[0] + a1[-1] * b_close[1]
    return out


def _reference_component_wilson_loop_phase(right, left, on_ep: str = "raise"):
    _check_on_ep(on_ep)
    right = np.asarray(right, dtype=complex)
    left = np.asarray(left, dtype=complex)
    if right.ndim != 3 or right.shape[1:] != (2, 2) or right.shape != left.shape:
        raise ValueError("expected frames of shape (n, 2, 2)")
    n = right.shape[0]
    if n < 3:
        raise ValueError("need at least 3 loop points")
    R, L, bad = [], [], []
    for b in (0, 1):
        r0, r1, l0, l1, ov = _reference_canonical_gauge(
            right[:, b, 0], right[:, b, 1], left[:, b, 0], left[:, b, 1]
        )
        bad.append(np.abs(ov) < OVERLAP_TOL)
        inv = 1.0 / np.where(bad[b], 1.0, ov)  # biorthonormal where the pairing allows
        R.append((r0, r1))
        L.append((l0 * inv, l1 * inv))
    skipped = int(np.count_nonzero(bad[0]) + np.count_nonzero(bad[1]))
    if skipped and on_ep == "raise":
        raise EPOnPathError(
            f"biorthogonal overlap below {OVERLAP_TOL:.1e} at "
            f"{int(np.count_nonzero(bad[0] | bad[1]))} loop points"
        )

    def first(f):
        return f[0][0], f[1][0]

    diag = np.abs(
        _reference_step_dots(L[0], R[0], first(R[0])) * _reference_step_dots(L[1], R[1], first(R[1]))
    )
    off = np.abs(
        _reference_step_dots(L[0], R[1], first(R[1])) * _reference_step_dots(L[1], R[0], first(R[0]))
    )
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
        o_fwd = _reference_step_dots(Lt, Rt, first(R[close]))
        o_bwd = _reference_step_dots(Rt, Lt, first(L[close]))
        a_fwd, a_bwd = np.abs(o_fwd), np.abs(o_bwd)
        step_min = min(np.min(a_fwd), np.min(a_bwd))
        min_overlap = min(min_overlap, float(step_min))
        weak = (a_fwd < OVERLAP_TOL) | (a_bwd < OVERLAP_TOL)
        if np.any(weak):
            if on_ep == "raise":
                raise EPOnPathError(
                    f"step overlap below {OVERLAP_TOL:.1e}: phase undefined through an EP"
                )
            o_fwd[weak] = o_bwd[weak] = 1.0
            a_fwd[weak] = a_bwd[weak] = 1.0
            skipped += int(np.count_nonzero(weak))
        # 0.5j * (sum log o_fwd - sum log o_bwd), with log o = log|o| + i arg o
        arg = _reference_sum_arg(o_fwd) - _reference_sum_arg(o_bwd)
        log_abs = _reference_sum_log_abs(o_fwd, a_fwd) - _reference_sum_log_abs(o_bwd, a_bwd)
        theta[band] = complex(-0.5 * arg, 0.5 * log_abs)
    return theta, closed, min_overlap, skipped


def _reference_sum_arg(z):
    return np.sum(np.arctan2(z.imag, z.real))


def _reference_sum_log_abs(z, a):
    x, y = z.real, z.imag
    with np.errstate(divide="ignore"):  # log1p(-1) at a tiny |z|, which the where drops
        near_one = 0.5 * np.log1p((x - 1.0) * (x + 1.0) + y * y)
    return np.sum(np.where((a > 0.5) & (a < 2.0), near_one, np.log(a)))


def _reference_loop_frames(model: ModelSpec, steps: int, on_ep: str):
    k = np.arange(steps)
    phases = k * (2.0 * math.pi / steps)
    d = bloch_vector_at(model, k * (model.period / steps))
    _, right, left, gap, defective = _reference_raw_eigenframes(d)
    if on_ep == "raise" and np.any(defective):
        raise EPOnPathError(
            f"loop passes through a defective point at drive phase "
            f"{float(phases[np.argmax(defective)]):.6g}"
        )
    return phases, d, right, left, gap


def _reference_berry_phase_loop(
    model: ModelSpec,
    steps: int = DEFAULT_LOOP_STEPS,
    richardson: bool = True,
    on_ep: str = "raise",
) -> BerryPhaseResult:
    if steps < MIN_LOOP_STEPS:
        raise ValueError(f"steps must be >= {MIN_LOOP_STEPS}")
    _check_on_ep(on_ep)

    phases, d, right, left, gap = _reference_loop_frames(
        model, 2 * steps if richardson else steps, on_ep
    )
    if richardson:
        right2, left2 = right, left
        # the even points of the 2n grid are the n grid bit for bit
        # (2k * (T/2n) == k * (T/n)) and every frame operation is pointwise
        phases, d, right, left, gap = phases[::2], d[::2], right[::2], left[::2], gap[::2]
    theta1, closed1, _, skipped1 = _reference_component_wilson_loop_phase(right, left, on_ep=on_ep)
    flags = tuple(float(v) for v in phases[gap < GAP_TOL])

    step_delta = None
    theta = theta1
    closed = closed1
    skipped = skipped1
    if richardson:
        theta2, closed2, _, skipped2 = _reference_component_wilson_loop_phase(
            right2, left2, on_ep=on_ep
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
        degeneracy_flags=flags,
        half_solid_angle=hsa,
        step_delta=step_delta,
        certified=bool(closed and skipped == 0 and not flags),
    )


def _reference_wilson_loop_phase(right, left, on_ep="raise"):
    """The einsum/np.roll Wilson loop on (n, 2, 2) stacks, kept as the
    oracle for the component-array kernel in floqep.berry."""
    right = np.asarray(right, dtype=complex)
    left = np.asarray(left, dtype=complex)
    n = right.shape[0]
    rnorm = np.linalg.norm(right, axis=-1, keepdims=True)
    lnorm = np.linalg.norm(left, axis=-1, keepdims=True)
    if np.any(rnorm == 0) or np.any(lnorm == 0):
        raise DefectivePointError("zero eigenvector encountered")
    right = right / rnorm
    left = left / lnorm
    use1 = np.abs(right[..., 1]) > np.abs(right[..., 0]) * (1.0 + 1e-9)
    pick = np.where(use1, right[..., 1], right[..., 0])
    right = right * (np.abs(pick) / pick)[..., None]
    raw_ov = np.einsum("...bc,...bc->...b", left, right)
    bad = np.abs(raw_ov) < OVERLAP_TOL
    if np.any(bad):
        if on_ep == "raise":
            raise EPOnPathError("biorthogonal overlap below tolerance")
        raw_ov = np.where(bad, 1.0, raw_ov)
    left = left / raw_ov[..., None]

    of = np.einsum("kac,kbc->kab", left, np.roll(right, -1, axis=0))
    ob = np.einsum("kac,kbc->kab", np.roll(left, -1, axis=0), right)
    swap = np.abs(of[:, 0, 0] * of[:, 1, 1]) < np.abs(of[:, 0, 1] * of[:, 1, 0])
    par = np.zeros(n + 1, dtype=int)
    par[1:] = np.cumsum(swap.astype(int)) % 2
    closed = par[n] == 0
    ks = np.arange(n)
    theta = np.empty(2, dtype=complex)
    min_overlap = np.inf
    skipped = int(np.sum(bad))
    for band in (0, 1):
        ia = par[:n] ^ band
        ja = par[1:] ^ band
        o_fwd = of[ks, ia, ja]
        o_bwd = ob[ks, ja, ia]
        step_min = min(np.min(np.abs(o_fwd)), np.min(np.abs(o_bwd)))
        min_overlap = min(min_overlap, float(step_min))
        weak = (np.abs(o_fwd) < OVERLAP_TOL) | (np.abs(o_bwd) < OVERLAP_TOL)
        if np.any(weak):
            if on_ep == "raise":
                raise EPOnPathError("step overlap below tolerance")
            o_fwd = np.where(weak, 1.0, o_fwd)
            o_bwd = np.where(weak, 1.0, o_bwd)
            skipped += int(np.sum(weak))
        theta[band] = 0.5j * (np.sum(np.log(o_fwd)) - np.sum(np.log(o_bwd)))
    return theta, bool(closed), min_overlap, skipped


def _swapping_frames(n, seed):
    """Biorthogonal frames G(s) v_b(phi) and G(s)^-T v_b(phi) whose basis
    turns by pi/2 over the loop, so the bands trade places once (the loop
    does not close), under random per-point gauges, with the band slots
    exchanged at a few isolated points on top."""
    rng = np.random.default_rng(seed)
    s = 2.0 * np.pi * np.arange(n) / n
    phi = 0.5 * np.pi * np.arange(n) / n
    a, b = 0.3 * (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    G = np.eye(2) + np.cos(s)[:, None, None] * a + np.sin(s)[:, None, None] * b
    v = np.stack([np.c_[np.cos(phi), np.sin(phi)], np.c_[-np.sin(phi), np.cos(phi)]], axis=1)
    right = np.einsum("kij,kbj->kbi", G, v)
    left = np.einsum("kji,kbj->kbi", np.linalg.inv(G), v)
    gauge = (0.2 + 4.8 * rng.random((n, 2))) * np.exp(2j * np.pi * rng.random((n, 2)))
    right, left = right * gauge[:, :, None], left / gauge[:, :, None]
    for k in rng.choice(np.arange(2, n - 2), size=3, replace=False):
        right[k], left[k] = right[k, ::-1].copy(), left[k, ::-1].copy()
    return right, left


def _defective_frames(kind):
    """Preset frames with planted defects against ``OVERLAP_TOL`` (1e-8):
    ``bad`` pairings (left nearly bilinear-orthogonal to right), ``weak``
    steps (left nearly orthogonal to the previous right) or a ``zero``
    eigenvector.  Bad pairings are planted at 1e-9.  A weak step's left
    frame still pairs with its own right frame, at ~7e-3, and the
    biorthonormal rescaling by that pairing lifts the step overlap
    140-fold, so weak steps are planted at 1e-11 to come out near 1e-9."""
    m = preset("apt-cosx-siny", J=1.0, gamma=0.7, omega=1.0, beta=1)
    right, left = _frames(m, 1024)
    right, left = right.copy(), left.copy()

    def nearly_orthogonal(r, overlap):
        return np.array([-r[1], r[0]]) + overlap * r.conj() / np.vdot(r, r).real

    if kind == "bad":
        for k, b in ((100, 0), (500, 1), (501, 1)):
            left[k, b] = nearly_orthogonal(right[k, b], 1e-9)
    elif kind == "weak":
        for k, b in ((300, 0), (700, 1)):
            left[k + 1, b] = nearly_orthogonal(right[k, b], 1e-11)
    else:
        right[400, 1] = 0.0
    return right, left


def _assert_matches_reference(right, left, on_ep="raise", overlap_rel=1e-12):
    got = wilson_loop_phase(right, left, on_ep)
    want = _reference_wilson_loop_phase(right, left, on_ep)
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12
    assert got[1] == want[1] and got[3] == want[3]
    assert got[2] == pytest.approx(want[2], rel=overlap_rel, abs=0.0)
    return got


def equator_model(amplitude=1.0):
    return ModelSpec(
        terms=(
            DriveTerm(Axis.X, amplitude, Waveform.COS, 1),
            DriveTerm(Axis.Y, amplitude, Waveform.SIN, 1),
        ),
        base_omega=1.0,
        label="equator",
    )


def cap_model(theta0):
    return ModelSpec(
        terms=(
            DriveTerm(Axis.X, np.sin(theta0), Waveform.COS, 1),
            DriveTerm(Axis.Y, np.sin(theta0), Waveform.SIN, 1),
            DriveTerm(Axis.Z, np.cos(theta0)),
        ),
        base_omega=1.0,
        label="cap",
    )


class TestInstantaneousEigensystem:
    def test_sigma_z(self):
        eigenvalues, right, _ = _eigensystem(1.0 * SIGMA_Z)
        assert np.allclose(eigenvalues, [1.0, -1.0])
        assert np.allclose(right[0], [1.0, 0.0])
        assert np.allclose(right[1], [0.0, 1.0])
        gap = _raw_eigenframes(np.array([[0.0, 0.0, 1.0 + 0j]]))[1]
        assert gap[0] == pytest.approx(2.0)

    def test_cosy_sinz_instantaneous_formula(self):
        # eigenvalues of the loop Hamiltonian: +/- sqrt(1 + g^2 cos(4 pi s/T))
        g = 0.8
        m = preset("pt-cosy-sinz", J=1.0, gamma=g, omega=1.0, beta=1)
        s = np.array([0.0, 0.13, 0.37, 0.61]) * m.period
        mu = _raw_eigenframes(bloch_vector_at(m, s))[0]
        want = np.sqrt((1.0 + g * g * np.cos(4 * np.pi * s / m.period)).astype(complex))
        assert np.max(np.abs(mu - want)) < 1e-12

    def test_random_quadratic_roots(self):
        # eigenvalues must solve z^2 - tr z + det = 0
        rng = np.random.default_rng(8)
        for _ in range(200):
            H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for z in _eigensystem(H)[0]:
                resid = z * z - np.trace(H) * z + np.linalg.det(H)
                assert abs(resid) < 1e-12

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            eigenvalues, right, left = _eigensystem(H)
            norm = np.linalg.norm(H)
            for b in range(2):
                resid_r = H @ right[b] - eigenvalues[b] * right[b]
                resid_l = left[b] @ H - eigenvalues[b] * left[b]
                assert np.linalg.norm(resid_r) < 1e-10 * norm
                assert np.linalg.norm(resid_l) < 1e-10 * norm * np.linalg.norm(left[b])

    def test_defective_point(self):
        # d = (0, 1, -i): d.d = 0 with d nonzero, a single eigenvector
        d = bloch_decompose(SIGMA_Y - 1j * SIGMA_Z)[1][None, :]
        assert _defective(d, _raw_eigenframes(d)[0]).tolist() == [True]
        # d = 0: the adjugate eigenvectors vanish, and no frame pair exists
        d = np.zeros((1, 3), dtype=complex)
        mu, _, right, left = _raw_eigenframes(d)
        assert _defective(d, mu).tolist() == [False]
        with pytest.raises(DefectivePointError, match="zero eigenvector"):
            _canonical_gauge(right, left)


class TestBiorthonormalize:
    def test_hermitian_left_equals_conj_right(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        _, right, left = _eigensystem(a + a.conj().T)
        assert np.max(np.abs(left - right.conj())) < 1e-12

    def test_non_hermitian_overlaps(self):
        _, right, left = _eigensystem(SIGMA_Z + 0.5j * SIGMA_X)
        ov = np.einsum("ac,bc->ab", left, right)
        assert np.max(np.abs(ov - np.eye(2))) < 1e-10

    def test_near_ep_raises(self):
        # d = (1, i, eps): d.d = eps^2, so the unit-frame overlap is ~eps
        _, _, right, left = _raw_eigenframes(np.tile([1.0, 1.0j, 1e-9], (4, 1)))
        frames = [f.transpose(2, 0, 1).copy() for f in (right, left)]
        assert np.all(_canonical_gauge(right, left)[0])
        with pytest.raises(EPOnPathError, match="biorthogonal overlap"):
            wilson_loop_phase(*frames)


class TestWilsonLoop:
    def test_gauge_invariance(self):
        model = preset("apt-cosx-siny", J=1.0, gamma=0.7, omega=1.0, beta=1)
        right, left = _frames(model, 512)
        theta0, closed, _, _ = wilson_loop_phase(right, left)
        assert closed
        rng = np.random.default_rng(13)
        scale = (0.2 + 4.8 * rng.random((512, 2))) * np.exp(
            2j * np.pi * rng.random((512, 2))
        )
        theta1, *_ = wilson_loop_phase(right * scale[:, :, None], left / scale[:, :, None])
        assert np.max(np.abs(theta1 - theta0)) < 1e-10

    def test_band_sum_rule(self):
        # theta_+ + theta_- = 0 (mod 2 pi) away from degeneracies
        for g in (0.3, 0.7, 1.6):
            m = preset("apt-cosx-siny", J=1.0, gamma=g, omega=1.0, beta=1)
            r = berry_phase_loop(m, steps=2048, richardson=False)
            total = complex(r.theta[0] + r.theta[1])
            wrapped = (total.real + np.pi) % (2 * np.pi) - np.pi
            assert abs(wrapped) < 1e-6 and abs(total.imag) < 1e-6

    def test_frame_shape_validation(self):
        with pytest.raises(ValueError):
            wilson_loop_phase(np.zeros((4, 2, 2)), np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta, gamma", [(1, 0.5), (3, 0.5)])
    def test_reference_on_preset_loops(self, name, beta, gamma):
        m = PresetTemplate(name, beta=beta, family="smooth").instantiate(gamma, 1.0)
        for n in (512, 2048):
            right, left = _frames(m, n)
            assert _assert_matches_reference(right, left)[1]

    def test_reference_on_plateau_loop(self):
        m = preset("apt-cosx-siny", J=1.0, gamma=1.5, omega=1.0, beta=1)
        right, left = _frames(m, 4096)
        _assert_matches_reference(right, left)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reference_on_band_swaps(self, seed):
        right, left = _swapping_frames(600, seed)
        theta, closed, _, skipped = _assert_matches_reference(right, left)
        assert not closed and skipped == 0

    @pytest.mark.parametrize("kind", ["bad", "weak"])
    def test_reference_on_flagged_overlaps(self, kind):
        right, left = _defective_frames(kind)
        # a planted overlap is the remainder of a cancellation, known to
        # ~1e-16 absolute, so the two kernels agree on it to ~1e-5 relative
        _, _, min_overlap, skipped = _assert_matches_reference(right, left, "flag", 1e-4)
        assert skipped > 0
        assert kind == "bad" or min_overlap < OVERLAP_TOL
        for fn in (wilson_loop_phase, _reference_wilson_loop_phase):
            with pytest.raises(EPOnPathError):
                fn(right, left, "raise")

    def test_ep_crossings_do_not_follow_rounding(self):
        # d.d = 1 + 1.69 cos(2 omega t) changes sign four times on this
        # loop; across each EP the two band pairings tie, and the einsum
        # kernel's swap decisions, hence theta, follow last-bit rounding
        m = preset("pt-cosy-sinz", J=1.0, gamma=1.3, omega=1.0, beta=1)
        n = 1024
        right, left = _frames(m, n)
        theta, closed, _, skipped = wilson_loop_phase(right, left, on_ep="flag")
        assert not closed and skipped == 0
        rng = np.random.default_rng(7)
        for _ in range(4):
            gauge = (0.2 + 4.8 * rng.random((n, 2))) * np.exp(2j * np.pi * rng.random((n, 2)))
            got = wilson_loop_phase(
                right * gauge[:, :, None], left / gauge[:, :, None], on_ep="flag"
            )
            assert np.max(np.abs(got[0] - theta)) <= 1e-12
            assert not got[1] and got[3] == 0
        r = berry_phase_loop(m, steps=n, richardson=True, on_ep="flag")
        assert not r.certified and np.all(np.isfinite(r.theta))

    @pytest.mark.parametrize("entry", ["wilson_loop_phase", "berry_phase_loop"])
    def test_on_ep_must_be_raise_or_flag(self, entry):
        # this loop crosses defective points, so a misspelt mode must not
        # run as either one
        m = preset("pt-cosy-sinz", J=1.0, gamma=1.0, omega=1.0, beta=1)
        with pytest.raises(ValueError, match="on_ep must be 'raise' or 'flag', got 'rase'"):
            if entry == "wilson_loop_phase":
                wilson_loop_phase(*_frames(m, 1024), on_ep="rase")
            else:
                berry_phase_loop(m, steps=1024, on_ep="rase")

    def test_zero_eigenvector_raises(self):
        right, left = _defective_frames("zero")
        for fn in (wilson_loop_phase, _reference_wilson_loop_phase):
            for on_ep in ("raise", "flag"):
                with pytest.raises(DefectivePointError):
                    fn(right, left, on_ep=on_ep)


class TestBerryLoop:
    def test_equator(self):
        r = berry_phase_loop(equator_model(), steps=1024)
        assert sorted(r.theta.real) == pytest.approx([-np.pi, np.pi], abs=1e-10)
        assert np.max(np.abs(r.theta.imag)) < 1e-12
        assert r.half_solid_angle == pytest.approx(np.pi, abs=1e-12)
        assert r.certified

    def test_hermitian_cap_matches_half_solid_angle(self):
        theta0 = 1.0
        want = np.pi * (1 - np.cos(theta0))
        r = berry_phase_loop(cap_model(theta0), steps=1024, richardson=False)
        assert r.half_solid_angle == pytest.approx(want, abs=1e-5)
        assert sorted(np.abs(r.theta.real)) == pytest.approx([want, want], abs=1e-3)
        assert np.max(np.abs(r.theta.imag)) < 1e-12

    def test_step_doubling_second_order(self):
        model = cap_model(0.8)
        thetas = {}
        for n in (512, 1024, 2048):
            thetas[n] = berry_phase_loop(model, steps=n, richardson=False).theta[0]
        d1 = abs(thetas[1024] - thetas[512])
        d2 = abs(thetas[2048] - thetas[1024])
        assert 3.0 < d1 / d2 < 5.0  # second order halving

    def test_richardson_improves(self):
        theta0 = 1.0
        want = np.pi * (1 - np.cos(theta0))
        plain = berry_phase_loop(cap_model(theta0), steps=512, richardson=False)
        extrap = berry_phase_loop(cap_model(theta0), steps=512, richardson=True)
        err_plain = abs(abs(plain.theta[0].real) - want)
        err_extrap = abs(abs(extrap.theta[0].real) - want)
        assert err_extrap < 0.05 * err_plain
        assert extrap.step_delta is not None and extrap.step_delta < 1e-4

    def test_plateau_values(self):
        r = berry_phase_loop(
            preset("apt-cosx-siny", J=1.0, gamma=1.5, omega=1.0, beta=1), steps=2048
        )
        re = np.sort(r.theta.real)
        assert re[0] == pytest.approx(-np.pi, abs=1e-6)
        assert re[1] == pytest.approx(np.pi, abs=1e-6)
        assert re[0] < 0 < re[1]

    def test_real_phase_below_threshold(self):
        r = berry_phase_loop(
            preset("apt-cosx-siny", J=1.0, gamma=0.5, omega=1.0, beta=1), steps=2048
        )
        assert np.max(np.abs(r.theta.imag)) < 1e-8

    def test_degeneracy_flags_recorded(self):
        # at gamma = 1, d.d = 1 + cos(2 theta) vanishes at the drive phases
        # pi/2 and 3pi/2; the loop is the same path at any omega, so the
        # flags and the bits of theta are too
        runs = [
            berry_phase_loop(
                preset("pt-cosy-sinz", J=1.0, gamma=1.0, omega=omega, beta=1),
                steps=1024, on_ep="flag",
            )
            for omega in (0.5, 1.0)
        ]
        for r in runs:
            assert r.degeneracy_flags == (np.pi / 2, 3 * np.pi / 2)
            assert not r.certified
        assert runs[0].theta.tobytes() == runs[1].theta.tobytes()

    def test_ep_on_path_raises(self):
        # at gamma exactly 1 the beta=1 loop crosses defective points
        m = preset("pt-cosy-sinz", J=1.0, gamma=1.0, omega=1.0, beta=1)
        with pytest.raises(EPOnPathError):
            berry_phase_loop(m, steps=1024, richardson=False, on_ep="raise")

    def test_steps_validation(self):
        with pytest.raises(ValueError, match="steps"):
            berry_phase_loop(equator_model(), steps=128)

    @pytest.mark.parametrize("steps", [300.5, 512.0, True])
    def test_steps_must_be_an_integer(self, steps):
        # a fractional count gave a 2*steps grid whose even points are not the coarse grid
        with pytest.raises(ValueError, match="integer"):
            berry_phase_loop(preset("apt-cosx-siny", gamma=0.5, beta=1), steps=steps)

    def test_numpy_integer_steps(self):
        m = preset("apt-cosx-siny", gamma=0.5, beta=1)
        want = berry_phase_loop(m, steps=512).theta
        assert berry_phase_loop(m, steps=np.int64(512)).theta.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("n", [256, 1024])
    def test_even_points_of_doubled_grid_are_the_grid(self, name, n):
        # ... and so are the gauged frames and their bad-pairing marks
        m = PresetTemplate(name, beta=3, family="smooth").instantiate(0.7, 1.0)
        pairs = list(zip(_loop_frames(m, 2 * n, "raise"), _loop_frames(m, n, "raise")))
        # the point axis leads in phases, d and gap, and ends the frames and marks
        pairs = pairs[:3] + [(fine.T, coarse.T) for fine, coarse in pairs[3:]]
        for fine, coarse in pairs:
            assert np.ascontiguousarray(fine[::2]).tobytes() == np.ascontiguousarray(coarse).tobytes()

    @pytest.mark.parametrize(
        "name, beta, gamma, on_ep, gap_tol, steps",
        [(name, 3, 0.5, "raise", 1e-6, 1024) for name in PRESET_NAMES]
        + [
            ("pt-cosy-sinz", 1, 1.0000001, "flag", 1e-3, 1024),
            # a gamma of the 64-gamma sweep on the plateau, at the CLI's default steps
            ("apt-cosx-siny", 1, 0.05 + 53 * 2.9 / 63, "raise", 1e-6, 8192),
        ],
    )
    def test_shared_frames_match_two_passes(
        self, monkeypatch, name, beta, gamma, on_ep, gap_tol, steps
    ):
        # gap_tol 1e-3 puts flags on the loop that grazes the degenerate strip
        monkeypatch.setattr(berry_module, "GAP_TOL", gap_tol)
        m = PresetTemplate(name, beta=beta, family="smooth").instantiate(gamma, 1.0)
        phases, _, gap, *_ = _loop_frames(m, steps, on_ep)
        theta1, closed1, _, skipped1 = wilson_loop_phase(*_frames(m, steps), on_ep=on_ep)
        theta2, closed2, _, skipped2 = wilson_loop_phase(*_frames(m, 2 * steps), on_ep=on_ep)
        flags = tuple(float(v) for v in phases[gap < gap_tol])
        r = berry_phase_loop(m, steps=steps, richardson=True, on_ep=on_ep)
        assert r.degeneracy_flags == flags
        assert r.certified == (closed1 and closed2 and skipped1 + skipped2 == 0 and not flags)
        assert r.step_delta == pytest.approx(float(np.max(np.abs(theta2 - theta1))), abs=1e-12)
        if r.certified:
            want = [_principal_theta(complex(t), b) for b, t in enumerate((4 * theta2 - theta1) / 3)]
            assert np.max(np.abs(r.theta - want)) <= 1e-12

    def test_one_frame_pass_two_wilson_loops(self, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(berry_module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        # one frame-and-gauge pass at the 2n points, then the Wilson core on
        # the n even points and on all 2n; the public wrapper would gauge again
        for name in ("_loop_frames", "_canonical_gauge", "_wilson_core", "wilson_loop_phase"):
            monkeypatch.setattr(berry_module, name, counted(name))
        berry_phase_loop(cap_model(0.8), steps=512, richardson=True)
        assert calls == ["_loop_frames", "_canonical_gauge", "_wilson_core", "_wilson_core"]

    def test_second_loop_heap_peak(self):
        # deterministic, not a timing gate: the 8192-step Richardson loop
        # of the earlier per-call kernel peaked at 8.6 MiB of transient
        # heap; with its frames gauged once, a second loop stays below that
        m = preset("apt-cosx-siny", J=1.0, gamma=0.9, omega=1.0, beta=1)
        tracemalloc.start()
        try:
            berry_phase_loop(m, steps=8192)
            tracemalloc.reset_peak()
            berry_phase_loop(m, steps=8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.6 * 2**20

    def test_plateau_bands_on_opposite_edges(self):
        # on the +/-pi plateau (gamma > 1) each band sits on the edge of
        # the sign of its imaginary part, so the two never share an edge
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        gammas = np.linspace(0.05, 2.95, 64)
        for g in gammas[gammas > 1.0]:
            theta = berry_phase_loop(tpl.instantiate(g, 1.0), steps=8192).theta
            assert np.sign(theta.real).tolist() == np.sign(theta.imag).tolist()
            assert (theta[0].real > 0) != (theta[1].real > 0)

    def test_principal_theta_edges(self):
        pi = np.pi
        for re in (pi - 1e-11, -pi + 1e-11, 3 * pi - 1e-11, -3 * pi + 1e-11):
            assert _principal_theta(complex(re, 2.0), 1).real == pytest.approx(pi, abs=1e-10)
            assert _principal_theta(complex(re, -2.0), 0).real == pytest.approx(-pi, abs=1e-10)
            assert _principal_theta(complex(re, 0.0), 0).real == pytest.approx(pi, abs=1e-10)
            assert _principal_theta(complex(re, 0.0), 1).real == pytest.approx(-pi, abs=1e-10)
        assert _principal_theta(complex(pi - 1e-6, -2.0), 0).real == pytest.approx(pi - 1e-6)
        assert _principal_theta(complex(2 * pi + 0.5, 1.0), 1) == complex(0.5, 1.0)

    def test_beta3_gamma_sweep_step_doubling(self):
        # below gamma=1 the beta=3 loop never collides bands and the
        # curves self-converge; in the alternating region the certificate
        # must flag the non-convergence instead
        tpl = PresetTemplate("pt-cosy-sinz", beta=3, family="smooth")
        for g in (0.2, 0.5, 0.9):
            m = tpl.instantiate(g, 1.0)
            r = berry_phase_loop(m, steps=4096, richardson=True)
            assert r.step_delta is not None and r.step_delta < 1e-4
        r = berry_phase_loop(tpl.instantiate(2.5, 1.0), steps=4096, richardson=True)
        assert r.step_delta > 1e-3  # on-loop band collisions: not converged

    def test_interleaved_sizes_match_alone(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        runs = [(512, 0.3), (8192, 1.5), (512, 0.7)]
        alone = [_loop_outcome(berry_phase_loop, tpl.instantiate(g, 1.0), n) for n, g in runs]
        # a loop's result does not depend on the loops run before it
        for (steps, gamma), want in zip(runs[::-1], alone[::-1]):
            assert _loop_outcome(berry_phase_loop, tpl.instantiate(gamma, 1.0), steps) == want

    def test_concurrent_loops_match_alone(self):
        # nor on loops of the same size running in other threads
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        gammas = [0.3, 0.6, 1.2, 1.6]
        want = [_loop_outcome(berry_phase_loop, tpl.instantiate(g, 1.0), 2048) for g in gammas]
        got = [None] * len(gammas)

        def run(i):
            for _ in range(3):
                got[i] = _loop_outcome(berry_phase_loop, tpl.instantiate(gammas[i], 1.0), 2048)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(gammas))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert got == want


def _loop_outcome(fn, *args, **kwargs):
    """A loop's result as bytes and values, or its exception as type and message."""
    try:
        r = fn(*args, **kwargs)
    except (DefectivePointError, EPOnPathError) as exc:
        return type(exc), str(exc)
    if isinstance(r, BerryPhaseResult):
        return r.theta.tobytes(), r.degeneracy_flags, r.step_delta, r.certified, r.half_solid_angle
    theta, closed, min_overlap, skipped = r
    return theta.tobytes(), closed, min_overlap, skipped


# on the +/-pi plateau: a gamma of the 64-gamma sweep, as in the shared-frames test
PLATEAU_GAMMA = 0.05 + 53 * 2.9 / 63


class TestReferenceBits:
    """The loop kernel against the per-call reference kernel, bit for bit."""

    # square loops take the Wilson route only: the spectral route declines them
    @pytest.mark.parametrize(
        "name, family",
        [pytest.param(name, "smooth", id=name) for name in PRESET_NAMES]
        + [pytest.param(name, "square", id=f"{name}-square") for name in PRESET_NAMES],
    )
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_preset_loops(self, name, family, beta):
        tpl = PresetTemplate(name, beta=beta, family=family)
        for gamma in (0.5, PLATEAU_GAMMA):
            m = tpl.instantiate(gamma, 1.0)
            for steps in (256, 1024, 8192):
                for richardson in (True, False):
                    args = (m, steps, richardson, "flag")
                    got = _loop_outcome(berry_phase_loop, *args)
                    assert got == _loop_outcome(_reference_berry_phase_loop, *args)

    @pytest.mark.parametrize("on_ep", ["raise", "flag"])
    def test_flags_case(self, on_ep):
        # the beta=1 loop at gamma = 1 crosses defective points
        m = preset("pt-cosy-sinz", J=1.0, gamma=1.0, omega=1.0, beta=1)
        for steps in (256, 1024, 8192):
            for richardson in (True, False):
                args = (m, steps, richardson, on_ep)
                got = _loop_outcome(berry_phase_loop, *args)
                assert got == _loop_outcome(_reference_berry_phase_loop, *args)
                assert on_ep == "raise" or got[1] == (np.pi / 2, 3 * np.pi / 2)

    @pytest.mark.parametrize("on_ep", ["raise", "flag"])
    def test_hermitian_loops(self, on_ep):
        for model in (equator_model(), cap_model(0.8)):
            for steps, richardson in ((256, False), (1024, True)):
                args = (model, steps, richardson, on_ep)
                got = _loop_outcome(berry_phase_loop, *args)
                assert got == _loop_outcome(_reference_berry_phase_loop, *args)

    @pytest.mark.parametrize(
        "frames",
        [lambda seed=seed: _swapping_frames(600, seed) for seed in (1, 2, 3)]
        + [lambda kind=kind: _defective_frames(kind) for kind in ("bad", "weak", "zero")],
        ids=["swap-1", "swap-2", "swap-3", "bad", "weak", "zero"],
    )
    @pytest.mark.parametrize("on_ep", ["raise", "flag"])
    def test_wilson_loop_frames(self, frames, on_ep):
        right, left = frames()
        got = _loop_outcome(wilson_loop_phase, right, left, on_ep)
        assert got == _loop_outcome(_reference_component_wilson_loop_phase, right, left, on_ep)


# The per-loop spectral route, frozen as the oracle for the stacked pass
# in floqep.berry: one loop per call, declining by returning None.


def _reference_spectral_sums(model: ModelSpec, points: int):
    """Trapezoid values of ``i * loop integral of L dR / (L R)`` for both
    bands, on ``points`` uniform drive phases and on their even half, as
    ``(fine, coarse)`` complex pairs; None where the integrand cannot be
    trusted there.

    ``eps`` follows ``sqrt(d.d)`` continuously from point to point: the
    principal root can jump to its negative between neighbours (a
    ``-0.0`` imaginary part on a negative ``d.d`` does), so it is not the
    band.  Each band keeps one adjugate column on the whole loop,
    ``R = (d_z + eps, d_x + i d_y)`` and ``L = (d_z + eps, d_x - i d_y)``
    with ``L R = 2 eps (eps + d_z)``, or, if ``eps + d_z`` comes closer to
    0, ``R = (d_x - i d_y, eps - d_z)`` and ``L = (d_x + i d_y, eps - d_z)``
    with ``L R = 2 eps (eps - d_z)``; the two gauges differ by a factor
    that varies along the loop, so they are never mixed.

    It declines on a non-finite value, a gap ``|2 eps|`` below
    ``GAP_TOL``, a step of ``arg(d.d)`` of pi/2 or more (which a sign
    change of a real ``d.d`` is: the loop crosses an exceptional point
    between two samples), a band that comes back as the other one after a
    turn, or a frame that vanishes.
    """
    t = np.arange(points) * (model.period / points)
    d = bloch_vector_at(model, t)
    dd = bloch_phase_derivative(model, t)
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    ddx, ddy, ddz = dd[:, 0], dd[:, 1], dd[:, 2]
    # summed in the order of _raw_eigenframes, so both routes start band 0
    # on the same root
    q = dx * dx
    q += dy * dy
    q += dz * dz
    if not (np.isfinite(q).all() and np.isfinite(dd).all()):
        return None
    root = np.sqrt(q)
    if np.min(np.abs(2.0 * root)) < GAP_TOL:
        return None
    if np.any((q * np.roll(q, 1).conj()).real <= 0.0):
        return None
    # with arg(d.d) steps below pi/2, a root step of more than pi/2 is a
    # jump to the other root
    flip = (root * np.roll(root, 1).conj()).real < 0.0
    flip[0] = False
    eps = np.where(np.logical_xor.accumulate(flip), -root, root)
    if (eps[-1] * eps[0].conj()).real < 0.0:
        return None
    deps = (dx * ddx + dy * ddy + dz * ddz) / eps
    w, wc = dx + 1.0j * dy, dx - 1.0j * dy
    dw, dwc = ddx + 1.0j * ddy, ddx - 1.0j * ddy
    fine, coarse = np.empty(2, dtype=complex), np.empty(2, dtype=complex)
    for band, (e, de) in enumerate(((eps, deps), (-eps, -deps))):
        a, b = e + dz, e - dz
        if np.min(np.abs(a)) >= np.min(np.abs(b)):
            g, num = a, a * (de + ddz) + wc * dw
        else:
            g, num = b, b * (de - ddz) + w * dwc
        if not g.all():
            return None
        f = num / (2.0 * e * g)
        fine[band] = f.sum() * (2.0j * math.pi / points)
        coarse[band] = f[::2].sum() * (4.0j * math.pi / points)
    if not (np.isfinite(fine).all() and np.isfinite(coarse).all()):
        return None
    return fine, coarse


def _reference_spectral_phase_loop(model: ModelSpec) -> SpectralPhase | None:
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
    :func:`_reference_spectral_sums` declines, and for no agreement by
    ``SPECTRAL_MAX_POINTS``.  A declined loop emits no warning.
    """
    if any(term.waveform in SQUARE_WAVEFORMS for term in model.terms):
        return None
    points = SPECTRAL_MIN_POINTS
    # an overflow surfaces as a non-finite value, which declines
    with np.errstate(over="ignore", invalid="ignore"):
        while points <= SPECTRAL_MAX_POINTS:
            sums = _reference_spectral_sums(model, points)
            if sums is None:
                return None
            fine, coarse = sums
            delta = float(np.max(np.abs(fine - coarse)))
            if delta <= SPECTRAL_TOL:
                theta = np.array([_principal_theta(complex(fine[b]), b) for b in (0, 1)])
                return SpectralPhase(theta, points, delta)
            points *= 2
    return None


def _quiet(fn, *args):
    """``fn(*args)``, failing on any RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fn(*args)


def _quiet_spectral(model):
    """``spectral_phase_loop(model)``, failing on any RuntimeWarning."""
    return _quiet(spectral_phase_loop, model)


def _one_loop_sums(model, points):
    """The stacked sums of the model's loop alone: its ``(fine, coarse)``
    band pairs, or None where the loop is declined."""
    own = np.array([[term.amplitude for term in model.terms]])
    kept, fine, coarse = _spectral_sums(*_loop_vectors(model, points, own))
    return (fine[0], coarse[0]) if kept.size else None


# loops whose d.d is real and changes sign on the loop: each crosses
# exceptional points, so no phase is certified there
EP_CROSSING_LOOPS = [
    ("pt-cosy-cosz", 3, 1.5),
    ("pt-cosy-cosz", 3, 2.5),
    ("apt-cosx-cosy", 2, 0.9),
    ("apt-cosx-cosy", 2, 1.5),
    ("pt-cosy-sinz", 1, 1.5),
]


class TestSpectralRoute:
    @pytest.mark.parametrize(
        "name, beta, gamma",
        [("apt-cosx-siny", 1, g) for g in (0.3, 0.9, 1.5, 2.5)]
        + [("apt-cosx-siny", 3, g) for g in (0.3, 0.7)]
        + [("pt-cosy-sinz", 1, 0.9), ("pt-cosy-cosz", 1, 0.4), ("apt-cosx-cosy", 2, 0.4)],
    )
    def test_matches_richardson_wilson(self, name, beta, gamma):
        m = PresetTemplate(name, beta=beta, family="smooth").instantiate(gamma, 1.0)
        self._check_matches_wilson(m)

    def test_tilted_hermitian_circle(self):
        # d_z changes sign on the loop, so which adjugate column is the
        # larger changes from point to point; the loop keeps one throughout
        m = ModelSpec(
            terms=(
                DriveTerm(Axis.X, 0.6),
                DriveTerm(Axis.Y, 1.0, Waveform.COS, 1),
                DriveTerm(Axis.Z, 1.0, Waveform.SIN, 1),
            ),
            base_omega=1.0,
        )
        got = self._check_matches_wilson(m)
        # half the solid angle of a circle 1 from the x axis at distance 0.6
        want = np.pi * (1.0 - 0.6 / np.sqrt(1.36))
        assert np.abs(got.theta.real) == pytest.approx([want, want], abs=1e-12)

    def test_loop_through_the_south_pole(self):
        # d = (0, 0, -1) at drive phase pi, where band 0's first adjugate
        # column (d_z + eps, d_x + i d_y) vanishes: that band takes the other
        m = ModelSpec(
            terms=(
                DriveTerm(Axis.X, 0.5),
                DriveTerm(Axis.X, 0.5, Waveform.COS, 1),
                DriveTerm(Axis.Y, 0.5, Waveform.SIN, 1),
                DriveTerm(Axis.Z, -1.0),
            ),
            base_omega=1.0,
        )
        self._check_matches_wilson(m)

    @staticmethod
    def _check_matches_wilson(m):
        wilson = berry_phase_loop(m, steps=8192, richardson=True)
        assert wilson.certified
        got = _quiet_spectral(m)
        assert got is not None and got.delta <= SPECTRAL_TOL
        assert SPECTRAL_MIN_POINTS <= got.points <= SPECTRAL_MAX_POINTS
        assert np.max(np.abs(got.theta - wilson.theta)) <= 1e-10
        return got

    @pytest.mark.parametrize("name, beta, gamma", EP_CROSSING_LOOPS)
    def test_declines_ep_crossing_loops(self, name, beta, gamma):
        m = PresetTemplate(name, beta=beta, family="smooth").instantiate(gamma, 1.0)
        d = bloch_vector_at(m, np.arange(4096) * (m.period / 4096))
        dd = np.einsum("nk,nk->n", d, d)
        sign_changes = np.count_nonzero(np.diff(np.sign(dd.real), append=np.sign(dd.real[:1])))
        assert np.all(dd.imag == 0.0) and 4 <= sign_changes <= 8
        assert _quiet_spectral(m) is None
        assert not berry_phase_loop(m, on_ep="flag").certified

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_square_family_declines(self, name):
        m = PresetTemplate(name, beta=2, family="square").instantiate(0.4, 1.0)
        assert _quiet_spectral(m) is None

    def test_zero_bloch_vector_declines(self):
        m = PresetTemplate("apt-cosx-siny", J=0.0, beta=1, family="smooth").instantiate(0.0, 1.0)
        assert _quiet_spectral(m) is None

    def test_gap_below_tolerance_declines(self):
        # d.d = 1 + gamma^2 cos(2 theta) stays positive, but its minimum at
        # the sample pi/2 is 2e-14: a gap of 2.8e-7
        m = preset("pt-cosy-sinz", gamma=1.0 - 1e-14, beta=1)
        assert _one_loop_sums(m, SPECTRAL_MIN_POINTS) is None
        assert _quiet_spectral(m) is None

    def test_band_that_does_not_close_declines(self):
        # d_x + i d_y = 2 e^{i theta} and d_x - i d_y = 2, so d.d = 1 + 4 e^{i theta}
        # circles 0 once, 3 away from it: eps comes back as -eps
        H, A = Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN
        m = ModelSpec(
            terms=(
                DriveTerm(Axis.X, 1.0, Waveform.COS),
                DriveTerm(Axis.X, 1.0, Waveform.SIN, 1, A),
                DriveTerm(Axis.X, 1.0),
                DriveTerm(Axis.Y, 1.0, Waveform.SIN, 1, H),
                DriveTerm(Axis.Y, -1.0, Waveform.COS, 1, A),
                DriveTerm(Axis.Y, 1.0, hermiticity=A),
                DriveTerm(Axis.Z, 1.0),
            ),
            base_omega=1.0,
        )
        d = bloch_vector_at(m, np.arange(256) * (m.period / 256))
        dd = np.einsum("nk,nk->n", d, d)
        assert np.min(np.abs(dd)) > 2.9
        assert np.allclose(dd, 1.0 + 4.0 * np.exp(1j * np.arange(256) * (2 * np.pi / 256)))
        assert _one_loop_sums(m, SPECTRAL_MIN_POINTS) is None
        assert _quiet_spectral(m) is None
        assert not berry_phase_loop(m, steps=1024, on_ep="flag").certified

    def test_overflow_declines(self):
        m = ModelSpec(
            terms=(DriveTerm(Axis.X, 1e200, Waveform.COS, 1), DriveTerm(Axis.Z, 1.0)),
            base_omega=1.0,
        )
        assert _quiet_spectral(m) is None

    def test_no_convergence_declines(self):
        # d.d = 1 + gamma^2 cos(2 theta) stays positive, but its dip at pi/2
        # is ~1e-4 wide, finer than the largest grid
        m = preset("pt-cosy-sinz", gamma=1.0 - 1e-8, beta=1)
        assert _one_loop_sums(m, SPECTRAL_MAX_POINTS) is not None
        assert _quiet_spectral(m) is None

    def test_negative_zero_does_not_swap_bands(self, monkeypatch):
        # On the imaginary-gap loop, d.d is negative with a zero imaginary
        # part, so the sign of that zero picks the principal root.
        # bloch_vector_at gives +0.0 there throughout; the patched copy signs
        # the zero parts of d so that d.d's is -0.0 on the second half of
        # the loop, which leaves every value of d and d.d as it was.
        m = preset("apt-cosx-siny", gamma=1.5, beta=1)

        def signed_zeros(model, t, amplitudes=None):
            d = bloch_vector_at(model, t, amplitudes)
            half = slice(d.shape[-2] // 2, None)
            # the x and y drives are anti-Hermitian, the z coupling Hermitian:
            # each square's imaginary part 2 Re Im becomes -0.0
            d.real[..., half, :2] = np.copysign(0.0, -d.imag[..., half, :2])
            d.imag[..., half, 2] = np.copysign(0.0, -d.real[..., half, 2])
            return d

        t = np.arange(128) * (m.period / 128)
        plain, patched = bloch_vector_at(m, t), signed_zeros(m, t)
        assert np.array_equal(plain, patched)
        dx, dy, dz = patched.T
        roots = np.sqrt(dx * dx + dy * dy + dz * dz)
        assert np.any(roots.imag > 0) and np.any(roots.imag < 0)
        wilson = berry_phase_loop(m, steps=8192)
        monkeypatch.setattr(berry_module, "bloch_vector_at", signed_zeros)
        got = _quiet_spectral(m)
        assert got is not None
        assert np.max(np.abs(got.theta - wilson.theta)) <= 1e-10
        assert got.theta[0].imag < 0 < got.theta[1].imag

    def test_delta_monotone_under_doubling(self):
        m = PresetTemplate("apt-cosx-siny", beta=3, family="smooth").instantiate(0.7, 1.0)
        deltas = [
            float(np.max(np.abs(np.subtract(*_one_loop_sums(m, n))))) for n in (128, 256, 512)
        ]
        assert deltas[0] > deltas[1] > SPECTRAL_TOL >= deltas[2]
        got = _quiet_spectral(m)
        assert (got.points, got.delta) == (512, deltas[2])


# a gamma range across every preset's thresholds, longer than one block of
# the sweep's stacked pass, then the edge cases 0, sqrt(0.5), 1 and 1e200
# (whose d.d overflows)
STACKED_GAMMAS = np.concatenate([np.linspace(0.0, 3.0, 37), [0.0, math.sqrt(0.5), 1.0, 1e200]])


def _spectral_outcome(phase):
    return None if phase is None else (phase.theta.tobytes(), phase.points, phase.delta)


class TestStackedSpectralPass:
    """The stacked spectral pass against the frozen per-loop route, bit for
    bit, with any RuntimeWarning an error: a declined loop in the stack
    must not reach a division the per-loop route never made."""

    @staticmethod
    def _reference_column(tpl, gammas):
        return [
            _spectral_outcome(_quiet(_reference_spectral_phase_loop, tpl.instantiate(float(g), 1.0)))
            for g in gammas
        ]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_sweep_column(self, name, beta):
        tpl = PresetTemplate(name, beta=beta, family="smooth")
        assert len(STACKED_GAMMAS) > sweep_mod.BERRY_BLOCK_LOOPS
        want = self._reference_column(tpl, STACKED_GAMMAS)
        got = _quiet(sweep_mod._spectral_column, tpl, STACKED_GAMMAS)
        assert list(map(_spectral_outcome, got)) == want
        # one loop alone is the stack of one
        alone = [_quiet_spectral(tpl.instantiate(float(g), 1.0)) for g in STACKED_GAMMAS]
        assert list(map(_spectral_outcome, alone)) == want

    def test_one_stack_mixes_levels_and_declines(self):
        # one pass of 16 loops: accepted at 128, 256 and 2048 points, and
        # declined across exceptional points
        tpl = PresetTemplate("apt-cosx-siny", beta=3, family="smooth")
        gammas = STACKED_GAMMAS[:16]
        amplitudes = np.stack(np.broadcast_arrays(*tpl.amplitudes(gammas)), axis=-1)
        got = _quiet(spectral_phase_rows, tpl.instantiate(1.0, 1.0), amplitudes)
        assert {p.points for p in got if p is not None} == {128, 256, 2048}
        assert None in got
        assert list(map(_spectral_outcome, got)) == self._reference_column(tpl, gammas)

    def test_zero_bloch_vector_in_the_stack(self):
        # J = 0 and gamma = 0: d = 0 on the whole loop, so eps = 0, which
        # the per-loop route declines before it divides by it
        tpl = PresetTemplate("apt-cosx-siny", J=0.0, beta=1, family="smooth")
        gammas = np.array([0.5, 0.0, 1.5, 0.0, 1e200])
        got = _quiet(sweep_mod._spectral_column, tpl, gammas)
        assert [p is None for p in got] == [False, True, False, True, True]
        assert list(map(_spectral_outcome, got)) == self._reference_column(tpl, gammas)


class TestHalfSolidAngle:
    def test_equator(self):
        phi = np.linspace(0, 2 * np.pi, 257)[:-1]
        loop = np.c_[np.cos(phi), np.sin(phi), np.zeros_like(phi)]
        assert half_solid_angle(loop) == pytest.approx(np.pi, abs=1e-12)

    def test_polar_cap(self):
        theta0 = 0.7
        phi = np.linspace(0, 2 * np.pi, 2049)[:-1]
        loop = np.c_[
            np.sin(theta0) * np.cos(phi),
            np.sin(theta0) * np.sin(phi),
            np.cos(theta0) * np.ones_like(phi),
        ]
        want = np.pi * (1 - np.cos(theta0))
        assert half_solid_angle(loop) == pytest.approx(want, abs=1e-5)

    def test_octant_triangle(self):
        assert half_solid_angle([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == pytest.approx(
            np.pi / 4, abs=1e-14
        )

    def test_reversed_orientation(self):
        # traversed the other way, the left-enclosed region is the
        # complement of the octant
        loop = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert half_solid_angle(loop) == pytest.approx(2 * np.pi - np.pi / 4, abs=1e-13)

    def test_unnormalized_input(self):
        phi = np.linspace(0, 2 * np.pi, 129)[:-1]
        loop = 3.7 * np.c_[np.cos(phi), np.sin(phi), np.zeros_like(phi)]
        assert half_solid_angle(loop) == pytest.approx(np.pi, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            half_solid_angle([[1, 0, 0], [0, 0, 0], [0, 0, 1]])

    def test_antipodal_rejected(self):
        with pytest.raises(ValueError, match="antipodal"):
            half_solid_angle([[1, 0, 0], [-1, 0, 0], [0, 0, 1]])

    def test_too_short(self):
        with pytest.raises(ValueError):
            half_solid_angle([[1, 0, 0], [0, 1, 0]])


class TestSpectrumRegions:
    def test_pt_beta1_classes(self):
        tpl = PresetTemplate("pt-cosy-sinz", beta=1, family="smooth")
        assert classify_instantaneous(tpl.instantiate(0.5, 1.0)) is SpectralRegion.ALL_REAL
        assert (
            classify_instantaneous(tpl.instantiate(1.5, 1.0))
            is SpectralRegion.SOME_COMPLEX
        )

    def test_apt_beta1_classes(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        assert classify_instantaneous(tpl.instantiate(0.5, 1.0)) is SpectralRegion.ALL_REAL
        assert (
            classify_instantaneous(tpl.instantiate(1.5, 1.0))
            is SpectralRegion.ALL_IMAGINARY_WINDOW
        )

    def test_mixed_class(self):
        # parallel Hermitian and anti-Hermitian drives give genuinely
        # complex instantaneous eigenvalues
        m = ModelSpec(
            terms=(
                DriveTerm(Axis.X, 1.0),
                DriveTerm(Axis.Y, 0.6, Waveform.COS, 1),
                DriveTerm(Axis.Y, 0.4, Waveform.SIN, 1, Hermiticity.ANTI_HERMITIAN),
            ),
            base_omega=1.0,
        )
        assert classify_instantaneous(m) is SpectralRegion.MIXED

    def test_threshold_bisection_pt(self):
        tpl = PresetTemplate("pt-cosy-sinz", beta=1, family="smooth")
        scan = spectrum_region_scan(tpl, np.array([0.5, 1.5]))
        assert len(scan.thresholds) == 1
        t = scan.thresholds[0]
        assert abs(t.gamma - 1.0) <= 1e-6
        assert t.below == "AllReal" and t.above == "SomeComplex"

    def test_threshold_bisection_apt(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        scan = spectrum_region_scan(tpl, np.array([0.5, 1.5]))
        t = scan.thresholds[0]
        assert abs(t.gamma - 1.0) <= 1e-6
        assert t.below == "AllReal" and t.above == "AllImaginaryWindow"

    def test_apt_beta3_two_thresholds(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=3, family="smooth")
        scan = spectrum_region_scan(tpl, np.linspace(0.4, 3.0, 14))
        kinds = [(t.below, t.above) for t in scan.thresholds]
        assert ("AllReal", "SomeComplex") in kinds
        assert ("SomeComplex", "AllImaginaryWindow") in kinds
        g1 = scan.thresholds[0].gamma
        g2 = scan.thresholds[1].gamma
        assert 0.7 < g1 < 0.8 < 2.0 < g2 < 2.2

    def test_bisection_ends_at_large_gamma(self, monkeypatch):
        # above 2**33 adjacent doubles lie more than THRESHOLD_TOL apart
        calls = []

        def counted(model):
            calls.append(None)
            if len(calls) > 200:
                raise AssertionError("the bisection does not end")
            return classify_instantaneous(model)

        monkeypatch.setattr(berry_module, "classify_instantaneous", counted)
        J = 1e10
        scan = spectrum_region_scan(PresetTemplate("pt-cosy-sinz", J=J), [5e9, 1.5e10])
        assert len(scan.thresholds) == 1
        assert abs(scan.thresholds[0].gamma - J) <= 1e-6 * J
