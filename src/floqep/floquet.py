"""Frequency-domain Floquet matrix: construction, spectrum, zone folding.

A smooth model with harmonics {m} gives a block-banded matrix with 2x2
blocks ``H^(m-n) + m*omega*I*delta_mn`` for block row ``m`` and column
``n`` in ``-N..N``.  Its eigenvalues approximate the quasienergy ladder
``eps_alpha + n*omega``; folding the central part of the ladder into the
first zone recovers the two quasienergies of the driven two-level
system.

:func:`max_im_quasienergy` solves the same truncated matrix through two
exact reductions read off the drive terms, each used when every term
admits it:

- *half-period parity*: ``H(t + T/2) = P H(t) P`` for ``P`` = sigma_z or
  sigma_x, so the matrix commutes with ``diag((-1)^m) (x) P`` and splits
  into two ``(2N+1)``-dimensional sectors (all four presets at odd
  ``beta``: sigma_x for ``pt-*``, sigma_z for ``apt-*``);
- *real gauge*: ``D = diag(i^(u*m + v*s))`` for block ``m``, component
  ``s`` makes ``D^-1 K D`` real (``pt-cosy-cosz`` at odd ``beta``,
  ``pt-cosy-sinz`` and ``apt-cosx-cosy`` at even ``beta``,
  ``apt-cosx-siny`` at every ``beta``), so the sectors are solved in real
  arithmetic and their complex eigenvalues come in exact conjugate
  pairs; a stable cell reads exactly 0.

Any other model (``pt-cosy-cosz`` at even ``beta``, custom models
without these symmetries) takes the dense complex solve of
:func:`build_floquet_matrix` and :func:`complex_eigenvalues`, which also
serves as the reference the reduced solve is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Axis,
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
    """All eigenvalues of a dense matrix, as a complex array sorted by (Re, Im).

    Backed by the LAPACK dense non-symmetric solver (Hessenberg
    reduction plus implicitly shifted QR).  A real matrix is solved in
    real arithmetic, so its complex eigenvalues come in exact conjugate
    pairs.  Non-convergence raises instead of returning a truncated
    spectrum.
    """
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge on {m.shape[0]}x{m.shape[0]} matrix") from exc
    return np.sort_complex(eigs)


def _central_third(eigs, omega: float, cutoff: int) -> np.ndarray:
    """Fold raw ladder eigenvalues into the first zone, keeping the central third.

    Each eigenvalue is assigned the ladder index ``n = round(Re e / omega)``
    and shifted by ``-n*omega``.  Eigenvalues with ``|n| > cutoff/3`` are
    discarded: the truncation corrupts the outer ladders, and keeping the
    central third is enough once the cutoff is converged.
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
    return re_f[keep] + 1.0j * eigs.imag[keep]


def fold_spectrum(eigs, omega: float, cutoff: int) -> QuasienergySpectrum:
    """Fold raw ladder eigenvalues into the first zone and cluster bands.

    The central third of the ladder is folded as in
    :func:`_central_third`; the survivors are clustered (joint Re/Im
    proximity ``1e-4*omega``) into at most two bands.
    """
    folded_vals = _central_third(eigs, omega, cutoff)

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


def _reductions(model: ModelSpec) -> tuple[Axis | None, tuple[int, int] | None]:
    """The half-period parity axis and the real gauge ``(u, v)`` the model admits.

    A term at harmonic ``k`` (0 for a constant) on Pauli axis ``a`` keeps
    the parity ``diag((-1)^m) (x) P`` when ``(-1)^k`` times the sign
    ``P sigma_a P = +/-sigma_a`` is +1.  Under ``D = diag(i^(u*m + v*s))``
    its entries gain the phase ``i^(-u*k)`` and, off the diagonal,
    ``i^(-/+v)``; the entry is real when the number of factors of ``i``,
    ``k*u + [a != Z]*v + [a = Y] + [anti-Hermitian] + [sin]``, is even.
    A gauge with ``v`` odd turns a sigma_x parity into a sigma_y one, so
    only ``(1, 0)`` goes with sigma_x.  Either entry is ``None`` when no
    choice fits every term.
    """
    terms = [(0 if t.waveform is Waveform.CONSTANT else t.multiplier, t) for t in model.terms]
    parity = next((p for p in (Axis.Z, Axis.X)
                   if all(k % 2 == (t.axis is not p) for k, t in terms)), None)

    def real_under(u, v):
        return all(
            (k * u + (t.axis is not Axis.Z) * v + (t.axis is Axis.Y)
             + (t.hermiticity is Hermiticity.ANTI_HERMITIAN) + (t.waveform is Waveform.SIN)) % 2 == 0
            for k, t in terms
        )

    gauges = [(1, 0)] if parity is Axis.X else [(1, 0), (0, 1), (1, 1)]
    return parity, next((g for g in gauges if real_under(*g)), None)


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _sector_eigenvalues(model: ModelSpec, cutoff: int) -> np.ndarray:
    """All eigenvalues of the truncated Floquet matrix, sorted by (Re, Im),
    solved in the symmetry sectors and real gauge the model admits."""
    mat = build_floquet_matrix(model, cutoff).matrix
    parity, gauge = _reductions(model)
    nb = 2 * cutoff + 1
    blocks = np.arange(-cutoff, cutoff + 1)
    if gauge is not None:
        u, v = gauge
        phase = _I_POWERS[(np.repeat(u * blocks, 2) + np.tile([0, v], nb)) % 4]
        mat = (phase.conj()[:, None] * mat) * phase
        if np.any(mat.imag):
            raise RuntimeError(f"real gauge {gauge} left imaginary entries in {model.label!r}")
        mat = mat.real
    if parity is None:
        return complex_eigenvalues(mat)
    # per block, the coefficients of the sector's basis vector on the two components
    sign = np.where(blocks % 2, -1.0, 1.0)
    if parity is Axis.Z:
        bases = [np.stack([sign == eps, sign != eps], axis=1).astype(float) for eps in (1.0, -1.0)]
    else:
        bases = [np.sqrt(0.5) * np.stack([np.ones(nb), eps * sign], axis=1) for eps in (1.0, -1.0)]
    quad = mat.reshape(nb, 2, nb, 2)
    return np.sort_complex(np.concatenate([
        complex_eigenvalues(np.einsum("ma,manb,nb->mn", c, quad, c)) for c in bases
    ]))


def max_im_quasienergy(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Largest |Im quasienergy| over the central third of the truncated
    Floquet spectrum (the ``max_im`` of :func:`fold_spectrum`)."""
    eigs = _sector_eigenvalues(model, cutoff)
    return float(np.max(np.abs(_central_third(eigs, model.base_omega, cutoff).imag)))


def convergence_check(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> tuple[bool, float]:
    """Compare ``max_im`` at the given cutoff and at twice the cutoff."""
    a = max_im_quasienergy(model, cutoff)
    b = max_im_quasienergy(model, 2 * cutoff)
    delta = abs(a - b)
    return delta < 1e-6, delta
