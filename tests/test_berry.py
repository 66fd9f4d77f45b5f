import numpy as np
import pytest

import floqep.berry as berry_module
from floqep.berry import (
    DefectivePointError,
    EPOnPathError,
    NearEPError,
    SpectralRegion,
    _loop_frames,
    _principal_theta,
    berry_phase_loop,
    biorthonormalize,
    classify_instantaneous,
    half_solid_angle,
    instantaneous_eigensystem,
    spectrum_region_scan,
    wilson_loop_phase,
)
from floqep.model import (
    PRESET_NAMES,
    Axis,
    DriveTerm,
    Hermiticity,
    ModelSpec,
    PresetTemplate,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Waveform,
    preset,
)


def _reference_wilson_loop_phase(right, left, overlap_tol=1e-8, on_ep="raise"):
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
    bad = np.abs(raw_ov) < overlap_tol
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
        weak = (np.abs(o_fwd) < overlap_tol) | (np.abs(o_bwd) < overlap_tol)
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
    """Preset frames with planted defects against an overlap tolerance of
    1e-2: ``bad`` pairings (left nearly bilinear-orthogonal to right),
    ``weak`` steps (left nearly orthogonal to the previous right) or a
    ``zero`` eigenvector.  The planted overlaps are 1e-3, well above
    rounding, so the step minimum compares to the last digits."""
    m = preset("apt-cosx-siny", J=1.0, gamma=0.7, omega=1.0, beta=1)
    _, _, right, left, _ = _loop_frames(m, 1024, "raise")
    right, left = right.copy(), left.copy()

    def nearly_orthogonal(r):
        return np.array([-r[1], r[0]]) + 1e-3 * r.conj() / np.vdot(r, r).real

    if kind == "bad":
        for k, b in ((100, 0), (500, 1), (501, 1)):
            left[k, b] = nearly_orthogonal(right[k, b])
    elif kind == "weak":
        for k, b in ((300, 0), (700, 1)):
            left[k + 1, b] = nearly_orthogonal(right[k, b])
    else:
        right[400, 1] = 0.0
    return right, left


def _assert_matches_reference(right, left, overlap_tol=1e-8, on_ep="raise"):
    got = wilson_loop_phase(right, left, overlap_tol, on_ep)
    want = _reference_wilson_loop_phase(right, left, overlap_tol, on_ep)
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12
    assert got[1] == want[1] and got[3] == want[3]
    assert got[2] == pytest.approx(want[2], rel=1e-12, abs=0.0)
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
        e = instantaneous_eigensystem(1.0 * SIGMA_Z)
        assert np.allclose(e.eigenvalues, [1.0, -1.0])
        assert np.allclose(e.right[0], [1.0, 0.0])
        assert np.allclose(e.right[1], [0.0, 1.0])
        assert e.gap == pytest.approx(2.0)

    def test_cosy_sinz_instantaneous_formula(self):
        # eigenvalues of the loop Hamiltonian: +/- sqrt(1 + g^2 cos(4 pi s/T))
        g = 0.8
        m = preset("pt-cosy-sinz", J=1.0, gamma=g, omega=1.0, beta=1)
        T = m.period
        for s in (0.0, 0.13 * T, 0.37 * T, 0.61 * T):
            from floqep.model import hamiltonian_at

            e = instantaneous_eigensystem(hamiltonian_at(m, s))
            want = np.sqrt(complex(1.0 + g * g * np.cos(4 * np.pi * s / T)))
            assert abs(e.eigenvalues[0] - want) < 1e-12

    def test_random_quadratic_roots(self):
        # eigenvalues must solve z^2 - tr z + det = 0
        rng = np.random.default_rng(8)
        for _ in range(200):
            H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            e = instantaneous_eigensystem(H)
            for z in e.eigenvalues:
                resid = z * z - np.trace(H) * z + np.linalg.det(H)
                assert abs(resid) < 1e-12

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            e = instantaneous_eigensystem(H)
            norm = np.linalg.norm(H)
            for b in range(2):
                assert np.linalg.norm(H @ e.right[b] - e.eigenvalues[b] * e.right[b]) < 1e-10 * norm
                assert np.linalg.norm(e.left[b] @ H - e.eigenvalues[b] * e.left[b]) < 1e-10 * norm

    def test_defective_point(self):
        with pytest.raises(DefectivePointError):
            instantaneous_eigensystem(SIGMA_Y - 1j * SIGMA_Z)


class TestBiorthonormalize:
    def test_hermitian_left_equals_conj_right(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = a + a.conj().T
        e = biorthonormalize(instantaneous_eigensystem(H))
        assert np.max(np.abs(e.left - e.right.conj())) < 1e-12

    def test_non_hermitian_overlaps(self):
        e = biorthonormalize(instantaneous_eigensystem(SIGMA_Z + 0.5j * SIGMA_X))
        ov = np.einsum("ac,bc->ab", e.left, e.right)
        assert np.max(np.abs(ov - np.eye(2))) < 1e-10
        assert e.biorthonormal

    def test_near_ep_raises(self):
        # d = (1, i, eps): d.d = eps^2, so the unit-frame overlap is ~eps
        H = SIGMA_X + 1j * SIGMA_Y + 1e-9 * SIGMA_Z
        with pytest.raises(NearEPError):
            biorthonormalize(instantaneous_eigensystem(H))


class TestWilsonLoop:
    def test_gauge_invariance(self):
        model = preset("apt-cosx-siny", J=1.0, gamma=0.7, omega=1.0, beta=1)
        _, _, right, left, _ = _loop_frames(model, 512, "raise")
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
            _, _, right, left, _ = _loop_frames(m, n, "raise")
            assert _assert_matches_reference(right, left)[1]

    def test_reference_on_plateau_loop(self):
        m = preset("apt-cosx-siny", J=1.0, gamma=1.5, omega=1.0, beta=1)
        _, _, right, left, _ = _loop_frames(m, 4096, "raise")
        _assert_matches_reference(right, left)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reference_on_band_swaps(self, seed):
        right, left = _swapping_frames(600, seed)
        theta, closed, _, skipped = _assert_matches_reference(right, left)
        assert not closed and skipped == 0

    @pytest.mark.parametrize("kind", ["bad", "weak"])
    def test_reference_on_flagged_overlaps(self, kind):
        right, left = _defective_frames(kind)
        _, _, min_overlap, skipped = _assert_matches_reference(right, left, 1e-2, "flag")
        assert skipped > 0
        assert kind == "bad" or min_overlap < 1e-2
        for fn in (wilson_loop_phase, _reference_wilson_loop_phase):
            with pytest.raises(EPOnPathError):
                fn(right, left, 1e-2, "raise")

    def test_ep_crossings_do_not_follow_rounding(self):
        # d.d = 1 + 1.69 cos(2 omega t) changes sign four times on this
        # loop; across each EP the two band pairings tie, and the einsum
        # kernel's swap decisions, hence theta, follow last-bit rounding
        m = preset("pt-cosy-sinz", J=1.0, gamma=1.3, omega=1.0, beta=1)
        n = 1024
        _, _, right, left, _ = _loop_frames(m, n, "flag")
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
        # gamma slightly above 1: the loop passes near the degenerate strip
        m = preset("pt-cosy-sinz", J=1.0, gamma=1.0000001, omega=1.0, beta=1)
        r = berry_phase_loop(m, steps=1024, richardson=False, on_ep="flag", gap_tol=1e-3)
        assert len(r.degeneracy_flags) > 0
        assert not r.certified

    def test_ep_on_path_raises(self):
        # at gamma exactly 1 the beta=1 loop crosses defective points
        m = preset("pt-cosy-sinz", J=1.0, gamma=1.0, omega=1.0, beta=1)
        with pytest.raises(EPOnPathError):
            berry_phase_loop(m, steps=1024, richardson=False, on_ep="raise")

    def test_steps_validation(self):
        with pytest.raises(ValueError, match="steps"):
            berry_phase_loop(equator_model(), steps=128)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("n", [256, 1024])
    def test_even_points_of_doubled_grid_are_the_grid(self, name, n):
        m = PresetTemplate(name, beta=3, family="smooth").instantiate(0.7, 1.0)
        frames = zip(_loop_frames(m, 2 * n, "raise"), _loop_frames(m, n, "raise"))
        for fine, coarse in frames:
            assert np.ascontiguousarray(fine[::2]).tobytes() == coarse.tobytes()

    @pytest.mark.parametrize(
        "name, beta, gamma, on_ep, gap_tol, steps",
        [(name, 3, 0.5, "raise", 1e-6, 1024) for name in PRESET_NAMES]
        + [
            ("pt-cosy-sinz", 1, 1.0000001, "flag", 1e-3, 1024),
            # a gamma of the 64-gamma sweep on the plateau, at the CLI's default steps
            ("apt-cosx-siny", 1, 0.05 + 53 * 2.9 / 63, "raise", 1e-6, 8192),
        ],
    )
    def test_shared_frames_match_two_passes(self, name, beta, gamma, on_ep, gap_tol, steps):
        m = PresetTemplate(name, beta=beta, family="smooth").instantiate(gamma, 1.0)
        s, _, right, left, gap = _loop_frames(m, steps, on_ep)
        theta1, closed1, _, skipped1 = wilson_loop_phase(right, left, on_ep=on_ep)
        _, _, right2, left2, _ = _loop_frames(m, 2 * steps, on_ep)
        theta2, closed2, _, skipped2 = wilson_loop_phase(right2, left2, on_ep=on_ep)
        flags = tuple(float(v) for v in s[gap < gap_tol])
        r = berry_phase_loop(m, steps=steps, richardson=True, on_ep=on_ep, gap_tol=gap_tol)
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

        for name in ("_loop_frames", "wilson_loop_phase"):
            monkeypatch.setattr(berry_module, name, counted(name))
        berry_phase_loop(cap_model(0.8), steps=512, richardson=True)
        assert calls == ["_loop_frames", "wilson_loop_phase", "wilson_loop_phase"]

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
        scan = spectrum_region_scan(tpl, np.array([0.5, 1.5]), samples=256)
        assert len(scan.thresholds) == 1
        t = scan.thresholds[0]
        assert abs(t.gamma - 1.0) <= 1e-6
        assert t.below == "AllReal" and t.above == "SomeComplex"

    def test_threshold_bisection_apt(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=1, family="smooth")
        scan = spectrum_region_scan(tpl, np.array([0.5, 1.5]), samples=256)
        t = scan.thresholds[0]
        assert abs(t.gamma - 1.0) <= 1e-6
        assert t.below == "AllReal" and t.above == "AllImaginaryWindow"

    def test_apt_beta3_two_thresholds(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=3, family="smooth")
        scan = spectrum_region_scan(tpl, np.linspace(0.4, 3.0, 14), samples=512)
        kinds = [(t.below, t.above) for t in scan.thresholds]
        assert ("AllReal", "SomeComplex") in kinds
        assert ("SomeComplex", "AllImaginaryWindow") in kinds
        g1 = scan.thresholds[0].gamma
        g2 = scan.thresholds[1].gamma
        assert 0.7 < g1 < 0.8 < 2.0 < g2 < 2.2

    def test_samples_validation(self):
        tpl = PresetTemplate("apt-cosx-siny", beta=1)
        with pytest.raises(ValueError, match="samples"):
            spectrum_region_scan(tpl, np.array([0.5, 1.5]), samples=32)
