import logging
import tracemalloc
import warnings

import numpy as np
import pytest

import floqep.floquet as floquet_mod
import floqep.sweep as sweep_mod
from floqep.floquet import (
    _reductions,
    _sector_matrix,
    build_floquet_matrix,
    cells_max_im,
    complex_eigenvalues,
    convergence_check,
    fold_spectrum,
    fourier_components,
    max_im_quasienergy,
)
from floqep.model import (
    PRESET_NAMES,
    SIGMA_Y,
    SIGMA_Z,
    Axis,
    DriveTerm,
    Hermiticity,
    ModelSpec,
    PresetTemplate,
    Waveform,
    preset,
)
from floqep.propagator import monodromy
from floqep.sweep import INSTABILITY_THRESHOLD, GridSpec, phase_diagram


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

    def test_real_matrix_gives_exact_conjugate_pairs(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((30, 30))
        eigs = complex_eigenvalues(m)
        assert eigs.dtype == complex and np.count_nonzero(eigs.imag) >= 2
        assert np.array_equal(np.sort_complex(eigs.conj()), eigs)
        assert matched_max_distance(eigs, complex_eigenvalues(m.astype(complex))) < 1e-10

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


def _dense_max_im(model, cutoff=20):
    eigs = complex_eigenvalues(build_floquet_matrix(model, cutoff).matrix)
    return fold_spectrum(eigs, model.base_omega, cutoff).max_im


def _sector_eigenvalues(model, cutoff=20):
    """All eigenvalues of the model's ``+1`` parity sector (the whole matrix without parity)."""
    mat, harmonics = _sector_matrix(model, cutoff)
    return complex_eigenvalues(mat + np.diag(model.base_omega * harmonics))


# no half-period parity (the X coupling and the Z drive need opposite
# parities of the harmonic) and no real gauge (the Y drive at an even harmonic)
ASYMMETRIC = ModelSpec(
    terms=(
        DriveTerm(Axis.X, 1.0),
        DriveTerm(Axis.Z, 0.6, Waveform.COS, 2),
        DriveTerm(Axis.Y, 0.4, Waveform.COS, 2),
        DriveTerm(Axis.Z, 0.5, Waveform.COS, 1, Hermiticity.ANTI_HERMITIAN),
    ),
    base_omega=0.9,
)


class TestReducedSolve:
    # (parity axis, real gauge applies) at odd and at even beta
    REDUCTIONS = {
        "pt-cosy-cosz": ((Axis.X, True), (None, False)),
        "pt-cosy-sinz": ((Axis.X, False), (None, True)),
        "apt-cosx-cosy": ((Axis.Z, False), (None, True)),
        "apt-cosx-siny": ((Axis.Z, True), (None, True)),
    }

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_which_reduction_applies(self, name, beta):
        parity, gauge = _reductions(preset(name, beta=beta))
        assert (parity, gauge is not None) == self.REDUCTIONS[name][beta % 2 == 0]

    @pytest.mark.parametrize("family", ["smooth", "square"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_reductions_do_not_depend_on_gamma(self, name, beta, family):
        # so a preset's gamma-free part takes the reductions of the whole drive
        tpl = PresetTemplate(name, beta=beta, family=family)
        assert _reductions(tpl.instantiate(0.0, 0.8)) == _reductions(tpl.instantiate(1.0, 0.8))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_matches_dense_eigenvalues(self, name, beta):
        # one parity sector holds half the dense spectrum, and both bands
        # in its central third
        for gamma, omega in [(0.0, 0.9), (0.7, 1.3), (1.6, 0.45)]:
            m = preset(name, gamma=gamma, omega=omega, beta=beta)
            dense = complex_eigenvalues(build_floquet_matrix(m, 20).matrix)
            reduced = _sector_eigenvalues(m, 20)
            assert reduced.size == (dense.size // 2 if beta % 2 else dense.size)
            assert matched_max_distance(reduced, dense) < 1e-10
            assert abs(max_im_quasienergy(m, 20) - _dense_max_im(m)) < 1e-12

    def test_sigma_x_parity_takes_no_odd_v_gauge(self):
        # real under (0, 1) only, which would turn the sigma_x parity into sigma_y
        m = ModelSpec(
            terms=(
                DriveTerm(Axis.X, 0.5, hermiticity=Hermiticity.ANTI_HERMITIAN),
                DriveTerm(Axis.Y, 0.8, Waveform.COS, 1),
                DriveTerm(Axis.Z, 0.6, Waveform.COS, 3),
            ),
            base_omega=1.1,
        )
        assert _reductions(m) == (Axis.X, None)
        dense = complex_eigenvalues(build_floquet_matrix(m, 20).matrix)
        assert matched_max_distance(_sector_eigenvalues(m, 20), dense) < 1e-10

    @pytest.mark.parametrize("model", [
        ASYMMETRIC,
        preset("pt-cosy-cosz", gamma=0.8, omega=0.7, beta=2),
        preset("pt-cosy-cosz", gamma=0.05, omega=2.0 / 3.0, beta=4),
    ], ids=["custom", "pt-beta2", "pt-beta4"])
    def test_unreduced_model_is_bit_identical_to_dense(self, model):
        assert _reductions(model) == (None, None)
        assert max_im_quasienergy(model, 20) == _dense_max_im(model)

    def test_grid_verdicts_match_dense(self):
        tpl = PresetTemplate("pt-cosy-cosz", beta=3)
        grid = GridSpec(0.0, 2.0, 8, 0.3, 3.0, 8, engine="floquet")
        reduced = phase_diagram(tpl, grid, cutoff=20).values
        gammas, omegas = grid.cells()
        dense = np.array([_dense_max_im(tpl.instantiate(g, w)) for g, w in zip(gammas, omegas)])
        dense = dense.reshape(reduced.shape)
        assert np.max(np.abs(reduced - dense)) < 1e-12
        unstable = reduced > INSTABILITY_THRESHOLD
        assert np.array_equal(unstable, dense > INSTABILITY_THRESHOLD)
        assert 0 < np.count_nonzero(unstable) < unstable.size


def _stacked_target(template, gamma, omega, cutoff=20):
    """The matrix that the stacked column solve builds for one cell."""
    a, b, harmonics = sweep_mod._floquet_sector(template, cutoff)
    mat = a + gamma * b
    mat[np.diag_indices_from(mat)] += omega * harmonics
    return mat


class TestStackedColumn:
    GRID = GridSpec(0.0, 2.5, 12, 0.4, 3.0, 12, engine="floquet")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_map_matches_single_cells(self, name, beta):
        tpl = PresetTemplate(name, beta=beta)
        values = phase_diagram(tpl, self.GRID, cutoff=20).values
        gammas, omegas = self.GRID.cells()
        cells = np.array([max_im_quasienergy(tpl.instantiate(g, w), 20)
                          for g, w in zip(gammas, omegas)]).reshape(values.shape)
        assert self.GRID.gammas[0] == 0.0
        if beta % 2:
            # the sigma_x projection of a + gamma*b rounds apart from that of the cell's matrix
            assert np.max(np.abs(values - cells)) < 1e-13
        else:
            assert values.tobytes() == cells.tobytes()

    def test_chunks_do_not_change_the_map(self, monkeypatch):
        tpl = PresetTemplate("pt-cosy-sinz", beta=3)
        whole = phase_diagram(tpl, self.GRID, cutoff=20).values
        monkeypatch.setattr(floquet_mod, "STACK_CELLS", 5)
        assert phase_diagram(tpl, self.GRID, cutoff=20).values.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("fault, text", [
        ("no convergence", "RuntimeError: eigensolver did not converge on 41x41 matrix"),
        ("outside the central third",
         "TruncationError: no eigenvalues survived central-third filtering"),
    ])
    def test_one_failed_cell_reads_nan(self, monkeypatch, caplog, fault, text):
        tpl = PresetTemplate("pt-cosy-cosz", beta=3)
        clean = phase_diagram(tpl, self.GRID, cutoff=20).values
        j, i = 3, 7
        target = _stacked_target(tpl, self.GRID.gammas[i], float(self.GRID.omegas[j]))
        real = np.linalg.eigvals

        def faulty(m):
            hit = np.all(m == target, axis=(-2, -1))
            if not np.any(hit):
                return real(m)
            if fault == "no convergence":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.where(hit[..., None], 1e6, real(m))

        monkeypatch.setattr(np.linalg, "eigvals", faulty)
        with caplog.at_level(logging.WARNING, logger="floqep.sweep"):
            diag = phase_diagram(tpl, self.GRID, cutoff=20)
        failed = ~np.isfinite(diag.values)
        assert np.argwhere(failed).tolist() == [[j, i]] and np.isnan(diag.values[j, i])
        assert diag.values[~failed].tobytes() == clean[~failed].tobytes()
        assert diag.metadata["failed_cells"] == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"1 of 144 cells failed; first (omega index, gamma index): ({j}, {i}); "
            f"first error: {text}"
        ]

    def test_non_finite_matrix_raises(self):
        # omega * m overflows (numpy warns, as the dense build does); a map
        # rejects such a grid before any cell, so the cell solve is called directly
        sector = sweep_mod._floquet_sector(PresetTemplate("pt-cosy-cosz", beta=3), 20)
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            cells_max_im(*sector, np.linspace(0.0, 1.0, 4), np.full(4, 1e307), 20)

    def test_smooth_map_heap_peak(self):
        # the smooth-map benchmark's shape: a stack never spans two omega
        # rows, so the traced peak stays near one row's stack (~0.26 MiB;
        # stacks of 32 across rows read ~0.88 MiB)
        tpl = PresetTemplate("pt-cosy-cosz", beta=3, family="smooth")
        grid = GridSpec(0.0, 2.0, 8, 0.7, 3.0, 8, engine="floquet")
        phase_diagram(tpl, grid, cutoff=20)  # warm-up: the sector matrices are cached
        tracemalloc.start()
        try:
            phase_diagram(tpl, grid, cutoff=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.30 * 2**20

    def test_map_rejects_an_overflowing_diagonal(self, monkeypatch):
        calls = []
        real = sweep_mod.cells_max_im
        monkeypatch.setattr(sweep_mod, "cells_max_im", lambda *a: calls.append(a) or real(*a))
        tpl = PresetTemplate("pt-cosy-cosz", beta=3)

        def grid(omega_max):
            return GridSpec(0.0, 1.0, 4, 0.5, omega_max, 2, engine="floquet")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"omega_max 1e\+307 .* cutoff 20"):
                phase_diagram(tpl, grid(1e307), cutoff=20)
            assert calls == []
            diag = phase_diagram(tpl, grid(1e306), cutoff=20)
        assert len(calls) == 2 and np.all(np.isfinite(diag.values))
