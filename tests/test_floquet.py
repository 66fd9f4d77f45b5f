import numpy as np
import pytest

from floqep.floquet import (
    build_floquet_matrix,
    complex_eigenvalues,
    convergence_check,
    fold_spectrum,
    fourier_components,
    max_im_quasienergy,
)
from floqep.model import PRESET_NAMES, SIGMA_Y, SIGMA_Z, preset
from floqep.propagator import monodromy


def _reference_floquet_matrix(model, cutoff):
    """The Floquet matrix block pair by block pair: block ``(m, n)`` is
    ``H^(m-n)``, plus ``m*omega`` on the diagonal."""
    comps = fourier_components(model)
    nb = 2 * cutoff + 1
    mat = np.zeros((2 * nb, 2 * nb), dtype=complex)
    w = model.base_omega
    for bi, m in enumerate(range(-cutoff, cutoff + 1)):
        for bj, n in enumerate(range(-cutoff, cutoff + 1)):
            k = m - n
            if k in comps:
                mat[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2] = comps[k]
        mat[2 * bi, 2 * bi] += m * w
        mat[2 * bi + 1, 2 * bi + 1] += m * w
    return mat


def matched_max_distance(a, b):
    """Greedy nearest-neighbour multiset distance."""
    remaining = list(b)
    worst = 0.0
    for z in a:
        idx = int(np.argmin(np.abs(np.array(remaining) - z)))
        worst = max(worst, abs(remaining.pop(idx) - z))
    return worst


class TestFourierComponents:
    def test_hermitian_cos_drive(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.6, omega=0.8, beta=3)
        comps = fourier_components(m)
        assert sorted(comps) == [-3, -1, 0, 1, 3]
        assert np.allclose(comps[1], 0.3 * SIGMA_Y)
        assert np.allclose(comps[-1], 0.3 * SIGMA_Y)

    def test_anti_hermitian_cos_drive(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.6, omega=0.8, beta=3)
        comps = fourier_components(m)
        assert np.allclose(comps[3], -0.3j * SIGMA_Z)
        assert np.allclose(comps[-3], -0.3j * SIGMA_Z)

    def test_anti_hermitian_sin_drive(self):
        # i*gamma*sin(3wt)*Y: +3 component (gamma/2) Y, -3 component -(gamma/2) Y
        m = preset("apt-cosx-siny", J=1.0, gamma=0.6, omega=0.8, beta=3)
        comps = fourier_components(m)
        assert np.allclose(comps[3], 0.3 * SIGMA_Y)
        assert np.allclose(comps[-3], -0.3 * SIGMA_Y)

    def test_rejects_square_family(self):
        m = preset("pt-cosy-cosz", family="square")
        with pytest.raises(ValueError, match="harmonic"):
            fourier_components(m)


class TestBuildMatrix:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_matches_blockwise_reference(self, name, beta):
        m = preset(name, gamma=0.7, omega=0.9, beta=beta)
        for cutoff in (beta, 5, 20):
            want = _reference_floquet_matrix(m, cutoff)
            assert np.array_equal(build_floquet_matrix(m, cutoff).matrix, want)

    def test_dimension_82(self):
        m = preset("pt-cosy-cosz", beta=3)
        fm = build_floquet_matrix(m, 20)
        assert fm.dim == 82

    def test_static_block_diagonal(self):
        omega = 0.8
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=omega, beta=3)
        fm = build_floquet_matrix(m, 20)
        eigs = complex_eigenvalues(fm.matrix)
        want = np.sort_complex(
            np.array(
                [s + n * omega for n in range(-20, 21) for s in (1.0, -1.0)],
                dtype=complex,
            )
        )
        assert np.max(np.abs(eigs - want)) < 1e-10

    def test_off_diagonal_block_toeplitz(self):
        m = preset("apt-cosx-cosy", J=1.0, gamma=0.7, omega=1.1, beta=2)
        fm = build_floquet_matrix(m, 6)
        mat = fm.matrix.copy()
        for bi in range(13):
            mat[2 * bi, 2 * bi] -= (bi - 6) * 1.1
            mat[2 * bi + 1, 2 * bi + 1] -= (bi - 6) * 1.1
        for bi in range(12):
            for bj in range(12):
                assert np.allclose(
                    mat[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2],
                    mat[2 * bi + 2 : 2 * bi + 4, 2 * bj + 2 : 2 * bj + 4],
                    atol=1e-15,
                )

    def test_cutoff_validation(self):
        m = preset("pt-cosy-cosz", beta=5)
        with pytest.raises(ValueError, match="cutoff"):
            build_floquet_matrix(m, 4)


class TestEigenvalues:
    def test_diagonal(self):
        d = np.diag([1.0 + 2j, -0.5, 3.0 - 1j])
        eigs = complex_eigenvalues(d)
        assert matched_max_distance(eigs, np.diag(d)) < 1e-14

    def test_companion_quadratic(self):
        # z^2 - 3z + 2 = (z-1)(z-2)
        comp = np.array([[0.0, -2.0], [1.0, 3.0]])
        eigs = complex_eigenvalues(comp)
        assert matched_max_distance(eigs, [1.0, 2.0]) < 1e-12

    def test_similarity_invariance_82(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((82, 82)) + 1j * rng.standard_normal((82, 82))
        q, _ = np.linalg.qr(rng.standard_normal((82, 82)) + 1j * rng.standard_normal((82, 82)))
        p = q @ np.diag(0.5 + rng.random(82))
        e1 = complex_eigenvalues(m)
        e2 = complex_eigenvalues(np.linalg.solve(p, m @ p))
        assert matched_max_distance(e1, e2) < 1e-8

    def test_backward_error(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        norm = np.linalg.norm(m, 2)
        for lam in complex_eigenvalues(m)[::8]:
            sigma_min = np.linalg.svd(m - lam * np.eye(40), compute_uv=False)[-1]
            assert sigma_min / norm < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            complex_eigenvalues(np.ones((2, 3)))
        with pytest.raises(ValueError):
            complex_eigenvalues(np.array([[np.nan, 0], [0, 1]]))


class TestFoldSpectrum:
    def test_trivial_list(self):
        spec = fold_spectrum([0.3, 1.3, -0.7], 1.0, 1)
        assert len(spec.folded) == 1
        assert spec.folded[0] == pytest.approx(0.3)

    def test_static_model(self):
        omega = 0.8
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=omega, beta=3)
        eigs = complex_eigenvalues(build_floquet_matrix(m, 20).matrix)
        spec = fold_spectrum(eigs, omega, 20)
        got = sorted(z.real for z in spec.folded)
        assert got == pytest.approx([-0.2, 0.2], abs=1e-10)
        assert spec.max_im < 1e-12
        assert spec.ladder_residual < 1e-10

    def test_zone_boundary(self):
        spec = fold_spectrum([0.5, -0.5, 1.5], 1.0, 3)
        for z in spec.folded:
            assert -0.5 < z.real <= 0.5

    def test_empty_after_filtering(self):
        with pytest.raises(ValueError, match="survived"):
            fold_spectrum([5.0, -5.0], 1.0, 3)

    def test_ladder_property(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.4, omega=1.3, beta=3)
        eigs = complex_eigenvalues(build_floquet_matrix(m, 20).matrix)
        spec = fold_spectrum(eigs, 1.3, 20)
        assert spec.ladder_residual < 1e-6


class TestCrossMethod:
    def test_folded_matches_monodromy(self):
        for g, w in [(0.3, 1.5), (0.8, 0.9), (1.5, 2.2)]:
            m = preset("pt-cosy-cosz", J=1.0, gamma=g, omega=w, beta=3)
            eigs = complex_eigenvalues(build_floquet_matrix(m, 20).matrix)
            spec = fold_spectrum(eigs, w, 20)
            eps = monodromy(m, engine="integrate").eps_F
            assert max(abs(abs(z) - abs(eps)) for z in spec.folded) < 1e-6

    def test_max_im_zero_hermitian(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=0.77, beta=3)
        assert max_im_quasienergy(m, 20) < 1e-12

    def test_resonance_instability(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.05, omega=2.0 / 3.0, beta=3)
        assert max_im_quasienergy(m, 20) > 1e-4

    def test_large_gamma_apt(self):
        m = preset("apt-cosx-cosy", J=1.0, gamma=5.0, omega=1.0, beta=3)
        assert max_im_quasienergy(m, 20) > 0.1


class TestConvergence:
    def test_static_exact(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.0, omega=0.9, beta=3)
        converged, delta = convergence_check(m, 20)
        assert converged and delta < 1e-12

    def test_paper_operating_point(self):
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.4, omega=0.9, beta=3)
        converged, delta = convergence_check(m, 20)
        assert converged, f"delta = {delta}"

    def test_tiny_cutoff_not_converged(self):
        # cutoff at the drive harmonic is badly truncated at low frequency
        m = preset("pt-cosy-cosz", J=1.0, gamma=0.8, omega=0.35, beta=3)
        _, delta_small = convergence_check(m, 3)
        ref = max_im_quasienergy(m, 40)
        small = max_im_quasienergy(m, 3)
        assert abs(small - ref) > 1e-6 or delta_small > 1e-6


class TestConjugationClosure:
    def test_stability_models(self):
        for name in ("pt-cosy-cosz", "apt-cosx-cosy", "apt-cosx-siny"):
            m = preset(name, J=1.0, gamma=0.4, omega=0.9, beta=3)
            eigs = complex_eigenvalues(build_floquet_matrix(m, 20).matrix)
            assert matched_max_distance(eigs, np.conj(eigs)) < 1e-8
