import math

import numpy as np
import pytest

from floqep.model import (
    Axis,
    DriveTerm,
    Hermiticity,
    ModelSpec,
    PRESET_NAMES,
    PresetTemplate,
    Waveform,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_decompose,
    bloch_phase_derivative,
    bloch_recompose,
    bloch_vector_at,
    hamiltonian_at,
    orthogonality_check,
    preset,
    _waveform_values,
)

ALL_PRESETS = ("pt-cosy-cosz", "pt-cosy-sinz", "apt-cosx-cosy", "apt-cosx-siny")

_H, _A = Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN
# every preset's terms at beta = 3: (axis, amplitude, waveform, harmonic,
# hermiticity), amplitude "J", "g" (gamma) or "-g", waveform None (static),
# "cos" or "sin" of the family
PRESET_TERMS = {
    "pt-cosy-cosz": (
        (Axis.X, "J", None, 1, _H), (Axis.Y, "g", "cos", 1, _H), (Axis.Z, "-g", "cos", 3, _A),
    ),
    "pt-cosy-sinz": (
        (Axis.X, "J", None, 1, _H), (Axis.Y, "g", "cos", 1, _H), (Axis.Z, "g", "sin", 3, _A),
    ),
    "apt-cosx-cosy": (
        (Axis.X, "g", "cos", 1, _A), (Axis.Y, "g", "cos", 3, _A), (Axis.Z, "J", None, 1, _H),
    ),
    "apt-cosx-siny": (
        (Axis.X, "g", "cos", 1, _A), (Axis.Y, "g", "sin", 3, _A), (Axis.Z, "J", None, 1, _H),
    ),
}
FAMILY_WAVEFORMS = {
    "smooth": {None: Waveform.CONSTANT, "cos": Waveform.COS, "sin": Waveform.SIN},
    "square": {None: Waveform.CONSTANT, "cos": Waveform.SQUARE_COS, "sin": Waveform.SQUARE_SIN},
}


def random_matrix(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


class TestBloch:
    def test_identity(self):
        d0, d = bloch_decompose(np.eye(2))
        assert d0 == 1.0
        assert np.all(d == 0.0)

    def test_basis_expansion(self):
        d0, d = bloch_decompose(SIGMA_X + 1j * SIGMA_Z)
        assert d0 == 0.0
        assert np.allclose(d, [1.0, 0.0, 1.0j], atol=0)

    def test_roundtrip_random(self):
        # reconstruction must be exact to a few ulp of the matrix scale
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = random_matrix(rng)
            back = bloch_recompose(*bloch_decompose(m))
            for part in (np.real, np.imag):
                diff = np.abs(part(back) - part(m))
                tol = 4.0 * np.spacing(np.max(np.abs(part(m))))
                assert np.all(diff <= tol)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            bloch_decompose(np.eye(3))


class TestWaveforms:
    def test_square_matches_sign(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-20, 20, size=100)
        cos_vals = np.cos(theta)
        mask = np.abs(cos_vals) > 1e-12
        sq = _waveform_values(Waveform.SQUARE_COS, theta)
        assert np.all(sq[mask] == np.sign(cos_vals[mask]))

    def test_square_right_limit_at_crossings(self):
        # theta = 0 is the one representable phase that lands exactly on a
        # sine zero; the right-limit convention gives the upward value
        assert _waveform_values(Waveform.SQUARE_SIN, 0.0) == 1.0
        assert _waveform_values(Waveform.SQUARE_SIN, -0.0) == 1.0
        # square waves never return 0 anywhere
        theta = np.linspace(-10, 10, 1001)
        for wf in (Waveform.SQUARE_COS, Waveform.SQUARE_SIN):
            assert np.all(np.abs(_waveform_values(wf, theta)) == 1.0)


class TestDriveTerm:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriveTerm(Axis.X, np.inf)
        with pytest.raises(ValueError):
            DriveTerm(Axis.X, 1.0, Waveform.COS, 0)
        with pytest.raises(ValueError):
            DriveTerm(Axis.X, 1.0, Waveform.COS, 1.5)

    def test_model_omega_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(terms=(DriveTerm(Axis.X, 1.0),), base_omega=0.0)


class TestPresets:
    @pytest.mark.parametrize("family", ["smooth", "square"])
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_preset_terms(self, name, family):
        waveform = FAMILY_WAVEFORMS[family]
        for gamma in (0.5, 0.0):
            amplitude = {"J": 1.3, "g": gamma, "-g": -gamma}
            m = preset(name, J=1.3, gamma=gamma, omega=0.8, beta=3, family=family)
            want = [
                DriveTerm(axis, amplitude[amp], waveform[wf], mult, herm)
                for axis, amp, wf, mult, herm in PRESET_TERMS[name]
            ]
            assert list(m.terms) == want
            # == does not see the sign of zero: -gamma is -0.0 at gamma = 0
            signs = [math.copysign(1.0, t.amplitude) for t in m.terms]
            assert signs == [math.copysign(1.0, t.amplitude) for t in want]

    def test_hamiltonian_at_zero_pt(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.5, omega=0.8, beta=3)
        expected = SIGMA_X + 0.5 * SIGMA_Y - 0.5j * SIGMA_Z
        assert np.allclose(hamiltonian_at(m, 0.0), expected, atol=1e-15)

    def test_hamiltonian_at_zero_apt_cs(self):
        m = preset("apt-cosx-siny", J=1.0, gamma=0.7, omega=1.1, beta=3)
        expected = 0.7j * SIGMA_X + SIGMA_Z
        assert np.allclose(hamiltonian_at(m, 0.0), expected, atol=1e-15)

    def test_gamma_zero_is_static(self):
        for name in ALL_PRESETS:
            m = preset(name, J=1.0, gamma=0.0, omega=0.8, beta=2)
            h0 = hamiltonian_at(m, 0.0)
            for t in (0.3, 1.7, 4.21):
                assert np.allclose(hamiltonian_at(m, t), h0, atol=1e-15)

    def test_square_family_matches_segment_formula(self):
        # mid-segment values of the square preset equal sign-vector matrices
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.5, omega=0.8, beta=1, family="square")
        tau = m.period / 4
        h = hamiltonian_at(m, 1.5 * tau)  # second segment: v_y = -1, v_z = -1
        expected = SIGMA_X - 0.5 * SIGMA_Y + 0.5j * SIGMA_Z
        assert np.allclose(h, expected, atol=1e-14)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("pt-nope")

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            preset("pt-cosy-cosz", beta=0)
        with pytest.raises(ValueError):
            preset("pt-cosy-cosz", beta=1.5)
        with pytest.raises(ValueError):
            preset("pt-cosy-cosz", omega=-1.0)
        with pytest.raises(ValueError):
            preset("pt-cosy-cosz", family="triangle")


class TestModelProperties:
    def test_periodicity(self):
        rng = np.random.default_rng(3)
        for name in ALL_PRESETS:
            for family in ("smooth", "square"):
                m = preset(name, J=1.0, gamma=0.6, omega=0.9, beta=3, family=family)
                ts = rng.uniform(-5 * m.period, 5 * m.period, size=100)
                d1 = bloch_vector_at(m, ts)
                d2 = bloch_vector_at(m, ts + m.period)
                assert np.max(np.abs(d1 - d2)) < 1e-9

    def test_tracelessness(self):
        rng = np.random.default_rng(4)
        for name in ALL_PRESETS:
            m = preset(name, J=1.3, gamma=0.6, omega=0.9, beta=2)
            for t in rng.uniform(0, 10, size=20):
                h = hamiltonian_at(m, t)
                assert abs(h[0, 0] + h[1, 1]) == 0.0

    def test_orthogonality_presets(self):
        for name in ALL_PRESETS:
            for family in ("smooth", "square"):
                m = preset(name, J=1.0, gamma=0.8, omega=1.2, beta=3, family=family)
                assert orthogonality_check(m, samples=257) <= 1e-14

    def test_orthogonality_violation(self):
        # parallel Hermitian and anti-Hermitian drives on the same axis
        m = ModelSpec(
            terms=(
                DriveTerm(Axis.X, 1.0),
                DriveTerm(Axis.X, 0.5, Waveform.COS, 1, Hermiticity.ANTI_HERMITIAN),
            ),
            base_omega=1.0,
        )
        assert orthogonality_check(m, samples=64) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonality_sample_validation(self):
        m = preset("pt-cosy-cosz")
        with pytest.raises(ValueError):
            orthogonality_check(m, samples=1)


class TestPhaseDerivative:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    @pytest.mark.parametrize("beta", [1, 3])
    def test_matches_central_difference(self, name, beta):
        # d/dtheta at omega = 0.7 is (1/omega) d/dt
        m = preset(name, gamma=0.8, omega=0.7, beta=beta)
        t = np.linspace(0.0, m.period, 37)
        h = 1e-5
        fd = (bloch_vector_at(m, t + h) - bloch_vector_at(m, t - h)) / (2 * h * m.base_omega)
        assert bloch_phase_derivative(m, t).shape == (37, 3)
        np.testing.assert_allclose(bloch_phase_derivative(m, t), fd, rtol=0, atol=1e-8)

    def test_square_waveform_has_no_derivative(self):
        with pytest.raises(ValueError, match="square-cos"):
            bloch_phase_derivative(preset("pt-cosy-cosz", family="square"), 0.3)


class TestPresetTemplate:
    @pytest.mark.parametrize(
        "field",
        [
            {"name": "pt-nope"},
            {"beta": 0},
            {"beta": 1.5},
            {"beta": True},
            {"family": "triangle"},
            {"J": math.inf},
            {"J": math.nan},
        ],
        ids=["name", "beta-0", "beta-1.5", "beta-True", "family", "J-inf", "J-nan"],
    )
    def test_rejects_bad_fields_on_construction(self, field):
        with pytest.raises(ValueError):
            PresetTemplate(**{"name": "pt-cosy-cosz", **field})

    @pytest.mark.parametrize("family", ["smooth", "square"])
    def test_parts(self, family):
        for name in PRESET_NAMES:
            tpl = PresetTemplate(name, J=0.7, beta=3, family=family)
            static, slope = tpl.parts()
            assert static == tpl.instantiate(0.0, 1.0)
            assert slope.base_omega == 1.0
            model = tpl.instantiate(2.5, 1.0)
            for s, d, m in zip(static.terms, slope.terms, model.terms):
                assert (d.axis, d.waveform, d.multiplier, d.hermiticity) == (
                    m.axis, m.waveform, m.multiplier, m.hermiticity)
                # J for the coupling, coef * gamma for a drive
                assert m.amplitude == s.amplitude + 2.5 * d.amplitude
                assert (s.amplitude, d.amplitude) in ((0.7, 0.0), (0.0, 1.0), (-0.0, -1.0))

    def test_instantiate(self):
        tpl = PresetTemplate("apt-cosx-cosy", J=1.0, beta=3, family="square")
        m = tpl.instantiate(0.4, 1.1)
        assert m.base_omega == 1.1
        assert m.terms[0].amplitude == 0.4
        assert m.is_square_family
