import numpy as np
import pytest

from floqep.model import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PresetTemplate,
    matrix_from_bloch_vector,
    preset,
)
from floqep.propagator import (
    EPKind,
    MonodromyResult,
    NumericalError,
    ep_indicator,
    expm_two_level,
    monodromy,
    quasienergy_from_trace,
    segment_hamiltonians,
)


def expm_series_oracle(A, terms=30):
    """Scaling-and-squaring Taylor series, independent of the closed form."""
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    k = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    B = A / (2 ** k)
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, terms + 1):
        term = term @ B / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def det_extended(G):
    gl = G.astype(np.clongdouble)
    return complex(gl[0, 0] * gl[1, 1] - gl[0, 1] * gl[1, 0])


class TestExpm:
    def test_zero_hamiltonian(self):
        assert np.array_equal(expm_two_level(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_quarter_rotation(self):
        out = expm_two_level(SIGMA_X, np.pi / 2)
        assert np.allclose(out, -1j * SIGMA_X, atol=1e-15)

    def test_nilpotent_drive(self):
        # d.d = 0: the exponential truncates after the linear term
        gamma, tau = 0.7, 1.3
        H = gamma * (SIGMA_Y - 1j * SIGMA_Z)
        out = expm_two_level(H, tau)
        assert np.allclose(out, np.eye(2) - 1j * tau * H, atol=1e-15)

    def test_series_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            tau = rng.uniform(0.0, 2.0)
            H = matrix_from_bloch_vector(d)
            got = expm_two_level(H, tau)
            want = expm_series_oracle(-1j * tau * H)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_small_phase_branch_continuous(self):
        # both sides of the Taylor/closed-form switch at |mu*tau| = 1e-4
        # must match the series oracle
        H = matrix_from_bloch_vector([1.0, 0.0, 0.0])
        for tau in (0.97e-4, 1.03e-4):
            got = expm_two_level(H, tau)
            want = expm_series_oracle(-1j * tau * H)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_composition_property(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            H = matrix_from_bloch_vector(d)
            a, b = rng.uniform(0, 1.0, size=2)
            whole = expm_two_level(H, a + b)
            split = expm_two_level(H, a) @ expm_two_level(H, b)
            assert np.max(np.abs(whole - split)) < 1e-12

    def test_with_trace_part(self):
        H = 0.3 * np.eye(2) + SIGMA_Z
        got = expm_two_level(H, 0.9)
        want = expm_series_oracle(-0.9j * H)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            expm_two_level(np.array([[np.inf, 0], [0, 0]]), 1.0)


class TestSegments:
    def test_counts_and_durations(self):
        for beta in (1, 2, 3, 5):
            m = preset("pt-cosy-cosz", beta=beta, omega=0.8, family="square")
            ds = segment_hamiltonians(m)
            assert len(ds) == 4 * beta

    def test_pt_sign_vectors_beta1(self):
        m = preset("pt-cosy-cosz", gamma=0.5, beta=1, family="square")
        ds = segment_hamiltonians(m)
        v_y = (ds[:, 1].real / 0.5).astype(int)
        v_z = (-ds[:, 2].imag / 0.5).astype(int)
        assert v_y.tolist() == [1, -1, -1, 1]
        assert v_z.tolist() == [1, -1, -1, 1]

    def test_pt_sign_vectors_beta2(self):
        m = preset("pt-cosy-cosz", gamma=0.5, beta=2, family="square")
        ds = segment_hamiltonians(m)
        v_y = (ds[:, 1].real / 0.5).astype(int)
        v_z = (-ds[:, 2].imag / 0.5).astype(int)
        assert v_y.tolist() == [1, 1, -1, -1, -1, -1, 1, 1]
        assert v_z.tolist() == [1, -1, -1, 1, 1, -1, -1, 1]

    def test_apt_cs_sign_vectors_beta1(self):
        m = preset("apt-cosx-siny", gamma=0.5, beta=1, family="square")
        ds = segment_hamiltonians(m)
        v_x = (ds[:, 0].imag / 0.5).astype(int)
        v_y = (ds[:, 1].imag / 0.5).astype(int)
        assert v_x.tolist() == [1, -1, -1, 1]
        assert v_y.tolist() == [1, 1, -1, -1]

    def test_rejects_smooth(self):
        m = preset("pt-cosy-cosz", family="smooth")
        with pytest.raises(ValueError, match="square-family"):
            segment_hamiltonians(m)


class TestMonodromy:
    def test_static_limit(self):
        # gamma=0: G = exp(-i H_static T), half trace cos(2 pi J / omega)
        omega = 0.9
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=omega, beta=3, family="square")
        r = monodromy(m, engine="piecewise")
        assert r.half_trace == pytest.approx(np.cos(2 * np.pi / omega), abs=1e-12)
        assert r.max_im_eps < 1e-12

    def test_piecewise_vs_integrate(self):
        rng = np.random.default_rng(21)
        tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="square")
        for _ in range(5):
            m = tpl.instantiate(rng.uniform(0, 2), rng.uniform(0.5, 3))
            r_pw = monodromy(m, engine="piecewise")
            r_it = monodromy(m, engine="integrate")
            assert np.max(np.abs(r_pw.G - r_it.G)) < 1e-7

    def test_unimodularity_random_sample(self):
        # determinant drift scales as ||G||^2 * eps, so the 1e-9 contract is
        # checked where doubles can represent it (|c| <= 1e3); deep in the
        # broken phase the entries overflow what the check can resolve
        rng = np.random.default_rng(22)
        for name in ("pt-cosy-cosz", "apt-cosx-cosy", "apt-cosx-siny"):
            tpl = PresetTemplate(name, beta=2, family="square")
            n_done = 0
            while n_done < 20:
                m = tpl.instantiate(rng.uniform(0, 2), rng.uniform(0.4, 3))
                r = monodromy(m, engine="piecewise")
                if abs(r.half_trace) > 1e3:
                    continue
                assert abs(det_extended(r.G) - 1.0) < 1e-9
                n_done += 1

    def test_eigenvalue_pairing(self):
        # unimodular + antilinear symmetry: {lambda} = {conj lambda}, product 1
        rng = np.random.default_rng(23)
        tpl = PresetTemplate("apt-cosx-cosy", beta=3, family="square")
        for _ in range(20):
            m = tpl.instantiate(rng.uniform(0, 1.5), rng.uniform(0.4, 3))
            lams = np.linalg.eigvals(monodromy(m, engine="piecewise").G)
            scale = max(1.0, float(np.abs(lams).max() ** 2))
            assert abs(lams[0] * lams[1] - 1.0) < 1e-8 * scale
            remaining = list(np.conj(lams))
            for z in lams:
                idx = int(np.argmin(np.abs(np.array(remaining) - z)))
                assert abs(remaining.pop(idx) - z) < 1e-8 * np.sqrt(scale)

    def test_trace_invariants(self):
        m = preset("pt-cosy-cosz", gamma=0.5, omega=0.8, beta=3, family="square")
        r = monodromy(m, engine="piecewise")
        assert abs(np.cos(r.eps_F * m.period) - r.half_trace) < 1e-10
        assert r.max_im_eps == abs(r.eps_F.imag)

    def test_integrate_square_splits_segments(self):
        # modest step count still exact for square models: the integrator
        # aligns steps with the segment boundaries
        m = preset("pt-cosy-cosz", gamma=0.7, omega=0.8, beta=2, family="square")
        r_few = monodromy(m, engine="integrate", steps_per_period=4000)
        r_ref = monodromy(m, engine="piecewise")
        assert np.max(np.abs(r_few.G - r_ref.G)) < 1e-9

    def test_unknown_engine(self):
        m = preset("pt-cosy-cosz", family="square")
        with pytest.raises(ValueError, match="unknown engine"):
            monodromy(m, engine="magnus")


class TestQuasienergy:
    def test_trivial_values(self):
        assert quasienergy_from_trace(1.0, 2.0) == 0.0
        assert quasienergy_from_trace(0.0, np.pi) == pytest.approx(0.5)

    def test_hyperbolic_value(self):
        eps = quasienergy_from_trace(np.cosh(0.3), 1.0)
        assert eps == pytest.approx(0.3j, abs=1e-12)

    def test_negative_hyperbolic(self):
        eps = quasienergy_from_trace(-np.cosh(0.4), 2.0)
        assert eps.imag == pytest.approx(0.2, abs=1e-12)
        assert eps.real == pytest.approx(np.pi / 2.0, abs=1e-12)
        assert abs(np.cos(eps * 2.0) - (-np.cosh(0.4))) < 1e-10

    def test_noise_floor_keeps_branch(self):
        # noise-level negative imaginary parts must not flip Re
        eps = quasienergy_from_trace(complex(-0.5, -1e-16), 1.0)
        assert eps.real == pytest.approx(np.arccos(-0.5), abs=1e-9)

    def test_range_and_sign(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c = rng.uniform(-3, 3)
            eps = quasienergy_from_trace(c, 1.0)
            assert -1e-12 <= eps.real <= np.pi + 1e-12
            assert eps.imag >= -1e-10
            assert abs(np.cos(eps) - c) < 1e-9 * max(1.0, abs(c))

    def test_validation(self):
        with pytest.raises(ValueError):
            quasienergy_from_trace(1.0, 0.0)


class TestEPIndicator:
    def _result(self, G):
        G = np.asarray(G, dtype=complex)
        c = 0.5 * (G[0, 0] + G[1, 1])
        eps = quasienergy_from_trace(c, 1.0)
        return MonodromyResult(
            G=G,
            half_trace=complex(c),
            eps_F=eps,
            max_im_eps=abs(eps.imag),
            defectiveness=float(np.linalg.norm(G - c * np.eye(2), "fro")),
        )

    def test_identity_is_diabolic(self):
        f, kind = ep_indicator(self._result(np.eye(2)))
        assert f == 0.0 and kind is EPKind.DIABOLIC

    def test_hermitian_resonance_diabolic(self):
        # static X at omega = 2J/k gives G = +/-I exactly
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=1.0, beta=1, family="square")
        r = monodromy(m, engine="piecewise")
        f, kind = ep_indicator(r)
        assert abs(f) < 1e-12 and kind is EPKind.DIABOLIC

    def test_defective_root_is_ep(self):
        G = np.array([[1.0, 0.5], [0.0, 1.0]])  # nilpotent part, trace 2
        f, kind = ep_indicator(self._result(G))
        assert abs(f) < 1e-12 and kind is EPKind.EP

    def test_off_root_is_none(self):
        f, kind = ep_indicator(self._result(0.5 * np.eye(2)))
        assert f == pytest.approx(-0.5)
        assert kind is EPKind.NONE

    def test_broken_phase_positive(self):
        f, _ = ep_indicator(self._result(np.diag([2.0, 0.5])))
        assert f == pytest.approx(0.25)


class TestErrors:
    def test_nonfinite_segment_reported(self):
        m = preset("pt-cosy-cosz", gamma=1e308, omega=0.05, beta=1, family="square")
        with pytest.raises(NumericalError, match="segment"):
            monodromy(m, engine="piecewise")
