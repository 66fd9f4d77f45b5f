"""Frequency-domain Floquet matrix: construction, spectrum, zone folding.

A smooth model with harmonics {m} gives a block-banded matrix with 2x2
blocks ``H^(m-n) + m*omega*I*delta_mn`` for block row ``m`` and column
``n`` in ``-N..N``.  Its eigenvalues approximate the quasienergy ladder
``eps_alpha + n*omega``; folding the central part of the ladder into the
first zone recovers the two quasienergies of the driven two-level
system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Hermiticity,
    ModelSpec,
    Waveform,
    SQUARE_WAVEFORMS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)

_PAULI = {0: SIGMA_X, 1: SIGMA_Y, 2: SIGMA_Z}

DEFAULT_CUTOFF = 20  # 2*(2*20+1) = 82-dimensional truncation


class TruncationError(ValueError):
    """No eigenvalue of the truncated Floquet matrix lies in the central third."""


@dataclass(eq=False)
class FloquetMatrix:
    """Dense truncated frequency-space Hamiltonian."""

    cutoff: int
    base_omega: float
    matrix: np.ndarray  # (2*(2N+1), 2*(2N+1)) complex

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class QuasienergySpectrum:
    """Quasienergies folded to ``Re in (-omega/2, omega/2]``.

    ``ladder_residual`` is the worst distance of any retained raw
    eigenvalue from the reconstructed ladder ``band + n*omega``;
    ``max_im`` is the largest |imaginary part| among retained
    eigenvalues (the instability measure).
    """

    folded: tuple
    ladder_residual: float
    max_im: float


def fourier_components(model: ModelSpec) -> dict[int, np.ndarray]:
    """Harmonic components ``H^(k) = (1/T) integral H(t) exp(-i k w t) dt``.

    Evaluated analytically: a constant term lands at ``k = 0``; an
    ``amp*cos(m w t)`` term contributes ``amp/2`` at ``k = +/-m``; an
    ``amp*sin(m w t)`` term contributes ``amp/(2i)`` at ``k = +m`` and
    ``-amp/(2i)`` at ``k = -m``.  Square waveforms are rejected (their
    harmonic content is unbounded; use the propagator route instead).
    """
    comps: dict[int, np.ndarray] = {}

    def add(k: int, mat: np.ndarray):
        if k in comps:
            comps[k] = comps[k] + mat
        else:
            comps[k] = mat.astype(complex)

    for term in model.terms:
        p = _PAULI[term.axis.value].copy()
        if term.hermiticity is Hermiticity.ANTI_HERMITIAN:
            p = 1.0j * p
        amp = term.amplitude
        if term.waveform is Waveform.CONSTANT:
            add(0, amp * p)
        elif term.waveform is Waveform.COS:
            add(term.multiplier, 0.5 * amp * p)
            add(-term.multiplier, 0.5 * amp * p)
        elif term.waveform is Waveform.SIN:
            add(term.multiplier, (amp / 2.0j) * p)
            add(-term.multiplier, -(amp / 2.0j) * p)
        elif term.waveform in SQUARE_WAVEFORMS:
            raise ValueError(
                "square-family model has no finite harmonic expansion; "
                "use the propagator engines"
            )
        else:
            raise ValueError(f"unknown waveform {term.waveform!r}")
    return comps


def _check_cutoff(cutoff: int, n_max: int):
    if cutoff < n_max:
        raise ValueError(f"cutoff {cutoff} below largest drive harmonic {n_max}")


def build_floquet_matrix(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> FloquetMatrix:
    """Assemble the truncated matrix for harmonics ``n = -N..N``.

    Each Fourier component ``H^(k)`` fills block diagonal ``k`` in one
    write, on the ``(block row, row, block column, column)`` view.
    """
    _check_cutoff(cutoff, model.max_multiplier)
    nb = 2 * cutoff + 1
    mat = np.zeros((2 * nb, 2 * nb), dtype=complex)
    blocks = mat.reshape(nb, 2, nb, 2)
    for k, comp in fourier_components(model).items():
        rows = np.arange(max(k, 0), nb + min(k, 0))
        blocks[rows, :, rows - k, :] = comp
    w = model.base_omega
    diag = np.arange(2 * nb)
    mat[diag, diag] += np.repeat(np.arange(-cutoff, cutoff + 1) * w, 2)
    return FloquetMatrix(cutoff=cutoff, base_omega=w, matrix=mat)


def complex_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, sorted by (Re, Im).

    Backed by the LAPACK dense non-symmetric solver (Hessenberg
    reduction plus implicitly shifted QR).  Non-convergence raises
    instead of returning a truncated spectrum.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge on {m.shape[0]}x{m.shape[0]} matrix") from exc
    return np.sort_complex(eigs)


def fold_spectrum(eigs, omega: float, cutoff: int) -> QuasienergySpectrum:
    """Fold raw ladder eigenvalues into the first zone and cluster bands.

    Each eigenvalue is assigned the ladder index ``n = round(Re e / omega)``
    and shifted by ``-n*omega``.  Eigenvalues with ``|n| > cutoff/3`` are
    discarded: the truncation corrupts the outer ladders, and keeping the
    central third is enough once the cutoff is converged.  The survivors
    are clustered (joint Re/Im proximity ``1e-4*omega``) into at most two
    bands.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    n_idx = np.floor(eigs.real / omega + 0.5).astype(int)
    re_f = eigs.real - n_idx * omega
    on_edge = re_f <= -0.5 * omega
    re_f = np.where(on_edge, re_f + omega, re_f)
    n_idx = np.where(on_edge, n_idx - 1, n_idx)
    keep = 3 * np.abs(n_idx) <= cutoff
    if not np.any(keep):
        raise TruncationError("no eigenvalues survived central-third filtering")
    folded_vals = re_f[keep] + 1.0j * eigs.imag[keep]

    tol = 1e-4 * omega
    order = np.lexsort((folded_vals.imag, folded_vals.real))
    clusters: list[list[complex]] = []
    for z in folded_vals[order]:
        placed = False
        for cl in clusters:
            if abs(z - np.mean(cl)) <= tol:
                cl.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    # bands are the two dominant clusters; ties broken by |Im|
    clusters.sort(key=lambda cl: (-len(cl), -abs(np.mean(cl).imag)))
    centers = [complex(np.mean(cl)) for cl in clusters[:2]]
    centers.sort(key=lambda z: (-z.real, -z.imag))

    residual = 0.0
    for z in folded_vals + 0.0:  # folded and raw share Im; Re offset is n*omega
        best = min(abs(z - b) for b in centers)
        residual = max(residual, best)
    max_im = float(np.max(np.abs(folded_vals.imag)))
    return QuasienergySpectrum(
        folded=tuple(centers),
        ladder_residual=float(residual),
        max_im=max_im,
    )


def max_im_quasienergy(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Largest |Im quasienergy| of the truncated Floquet spectrum."""
    fm = build_floquet_matrix(model, cutoff)
    eigs = complex_eigenvalues(fm.matrix)
    return fold_spectrum(eigs, model.base_omega, cutoff).max_im


def convergence_check(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> tuple[bool, float]:
    """Compare ``max_im`` at the given cutoff and at twice the cutoff."""
    a = max_im_quasienergy(model, cutoff)
    b = max_im_quasienergy(model, 2 * cutoff)
    delta = abs(a - b)
    return delta < 1e-6, delta
