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
  sigma_x (:func:`~floqep.model.half_period_parity`, the piecewise
  engine's rule), so the matrix commutes with ``Pi = diag((-1)^m) (x) P``
  and splits into two ``(2N+1)``-dimensional sectors (all four presets at
  odd ``beta``: sigma_x for ``pt-*``, sigma_z for ``apt-*``), of which
  only the ``+1`` sector is solved;
- *real gauge*: ``D = diag(i^(u*m + v*s))`` for block ``m``, component
  ``s`` makes ``D^-1 K D`` real (``pt-cosy-cosz`` at odd ``beta``,
  ``pt-cosy-sinz`` and ``apt-cosx-cosy`` at even ``beta``,
  ``apt-cosx-siny`` at every ``beta``), so the sector is solved in real
  arithmetic and its complex eigenvalues come in exact conjugate pairs;
  a stable cell reads exactly 0.

One sector is enough.  With the harmonic shift ``(S psi)_m = psi_(m-1)``,
the untruncated matrix has ``K S = S (K + omega)`` and ``Pi S = -S Pi``,
so the ``-1`` sector is the ``+1`` sector shifted by ``omega``: each
band's ladder appears in the ``+1`` sector on every other rung, and its
central third holds both bands.  (The two quasienergies of a traceless
drive are ``+/-eps`` besides, so they share ``|Im eps|``.)

Any other model (``pt-cosy-cosz`` at even ``beta``, custom models
without these symmetries) keeps the whole matrix, solved as complex.
The dense route, :func:`build_floquet_matrix`, :func:`complex_eigenvalues`
and :func:`fold_spectrum`, is the reference the reduced solve is tested
against.

A phase diagram solves one frequency column at a time
(:func:`column_max_im`): a preset is affine in gamma, so its sector is
``S_a + gamma*S_b + omega*diag(m)``, and the column's matrices go through
one stacked eigensolve per :data:`STACK_CELLS` cells.
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
    _is_int,
    half_period_parity,
)

_PAULI = {0: SIGMA_X, 1: SIGMA_Y, 2: SIGMA_Z}

DEFAULT_CUTOFF = 20  # 2*(2*20+1) = 82-dimensional truncation

# matrices per stacked eigensolve: bounds a column's memory (a 162x162
# complex matrix, cutoff 40 without parity, is 0.42 MB)
STACK_CELLS = 32

_TRUNCATED = "no eigenvalues survived central-third filtering"


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


def _check_cutoff(cutoff, n_max: int) -> int:
    """``cutoff`` as an int; ``ValueError`` unless an integer >= ``n_max`` (not a bool)."""
    if not _is_int(cutoff):
        raise ValueError("cutoff must be an integer")
    if cutoff < n_max:
        raise ValueError(f"cutoff {cutoff} below largest drive harmonic {n_max}")
    return int(cutoff)


def _harmonic_blocks(model: ModelSpec, cutoff: int) -> np.ndarray:
    """The truncated matrix without its ``m*omega`` diagonal.

    Each Fourier component ``H^(k)`` fills block diagonal ``k`` in one
    write, on the ``(block row, row, block column, column)`` view.
    """
    cutoff = _check_cutoff(cutoff, model.max_multiplier)
    nb = 2 * cutoff + 1
    mat = np.zeros((2 * nb, 2 * nb), dtype=complex)
    blocks = mat.reshape(nb, 2, nb, 2)
    for k, comp in fourier_components(model).items():
        rows = np.arange(max(k, 0), nb + min(k, 0))
        blocks[rows, :, rows - k, :] = comp
    return mat


def build_floquet_matrix(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> FloquetMatrix:
    """Assemble the truncated matrix for harmonics ``n = -N..N``."""
    mat = _harmonic_blocks(model, cutoff)
    w = model.base_omega
    diag = np.arange(mat.shape[0])
    mat[diag, diag] += np.repeat(np.arange(-cutoff, cutoff + 1) * w, 2)
    return FloquetMatrix(cutoff=cutoff, base_omega=w, matrix=mat)


def complex_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a dense matrix, or of each matrix of a
    ``(..., n, n)`` stack, as complex arrays sorted by (Re, Im).

    Backed by the LAPACK dense non-symmetric solver (Hessenberg
    reduction plus implicitly shifted QR), one matrix after another.  A
    real matrix is solved in real arithmetic, so its complex eigenvalues
    come in exact conjugate pairs.  Non-convergence on any matrix raises
    instead of returning a truncated spectrum.
    """
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        n = m.shape[-1]
        raise RuntimeError(f"eigensolver did not converge on {n}x{n} matrix") from exc
    return np.sort_complex(eigs)


def _central_mask(eigs: np.ndarray, omega: float, cutoff: int):
    """The folded real parts of ladder eigenvalues (any shape) and the
    mask of those in the central third.

    Each eigenvalue is assigned the ladder index ``n = round(Re e / omega)``
    and shifted by ``-n*omega`` into ``(-omega/2, omega/2]``.  Eigenvalues
    with ``|n| > cutoff/3`` are dropped: the truncation corrupts the
    outer ladders, and keeping the central third is enough once the
    cutoff is converged.
    """
    n_idx = np.floor(eigs.real / omega + 0.5)
    re_f = eigs.real - n_idx * omega
    on_edge = re_f <= -0.5 * omega
    re_f = np.where(on_edge, re_f + omega, re_f)
    n_idx = np.where(on_edge, n_idx - 1, n_idx)
    return re_f, 3 * np.abs(n_idx) <= cutoff


def _central_third(eigs, omega: float, cutoff: int) -> np.ndarray:
    """Fold raw ladder eigenvalues into the first zone, keeping the
    central third (see :func:`_central_mask`)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    re_f, keep = _central_mask(eigs, omega, cutoff)
    if not np.any(keep):
        raise TruncationError(_TRUNCATED)
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

    The parity is :func:`~floqep.model.half_period_parity`.  Under
    ``D = diag(i^(u*m + v*s))`` the entries of a term at harmonic ``k``
    (0 for a constant) on Pauli axis ``a`` gain the phase ``i^(-u*k)``
    and, off the diagonal, ``i^(-/+v)``; the entry is real when the
    number of factors of ``i``,
    ``k*u + [a != Z]*v + [a = Y] + [anti-Hermitian] + [sin]``, is even.
    A gauge with ``v`` odd turns a sigma_x parity into a sigma_y one, so
    only ``(1, 0)`` goes with sigma_x.  Either entry is ``None`` when no
    choice fits every term; neither depends on an amplitude.
    """
    terms = [(0 if t.waveform is Waveform.CONSTANT else t.multiplier, t) for t in model.terms]
    parity = half_period_parity(model)

    def real_under(u, v):
        return all(
            (k * u + (t.axis is not Axis.Z) * v + (t.axis is Axis.Y)
             + (t.hermiticity is Hermiticity.ANTI_HERMITIAN) + (t.waveform is Waveform.SIN)) % 2 == 0
            for k, t in terms
        )

    gauges = [(1, 0)] if parity is Axis.X else [(1, 0), (0, 1), (1, 1)]
    return parity, next((g for g in gauges if real_under(*g)), None)


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _sector_matrix(model: ModelSpec, cutoff: int):
    """The ``+1`` parity sector of the truncated Floquet matrix without its
    ``m*omega`` diagonal, and the harmonic ``m`` of each of its rows.

    The sector is gauged real where the model admits a real gauge, and
    is the whole matrix where the model has no parity.
    """
    parity, gauge = _reductions(model)
    mat = _harmonic_blocks(model, cutoff)
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
        return mat, np.repeat(blocks, 2)
    # per block, the coefficients of the sector's basis vector on the two components
    even = blocks % 2 == 0
    if parity is Axis.Z:
        basis = np.stack([even, ~even], axis=1).astype(float)
    else:
        basis = np.sqrt(0.5) * np.stack([np.ones(nb), np.where(even, 1.0, -1.0)], axis=1)
    return np.einsum("ma,manb,nb->mn", basis, mat.reshape(nb, 2, nb, 2), basis), blocks


def _solve_stack(stack: np.ndarray, harmonics, omega: float, cutoff: int):
    """``max |Im|`` over the central third of each matrix of ``stack``
    (``m*omega`` added on its diagonal, in place), and each matrix's error.

    The stack is solved in one call; if that fails, matrix by matrix, so
    a matrix that fails (``RuntimeError``) or keeps no central-third
    eigenvalue (``TruncationError``) gets NaN and its own exception, and
    the others their values.  Non-finite entries raise ``ValueError``.
    """
    diag = np.arange(stack.shape[-1])
    stack[:, diag, diag] += omega * harmonics
    errors = [None] * len(stack)
    try:
        eigs = complex_eigenvalues(stack)
    except RuntimeError:
        eigs = np.full(stack.shape[:-1], np.nan, dtype=complex)
        for i, mat in enumerate(stack):
            try:
                eigs[i] = complex_eigenvalues(mat)
            except RuntimeError as exc:
                errors[i] = exc
    _, keep = _central_mask(eigs, omega, cutoff)
    values = np.max(np.abs(eigs.imag), axis=-1, where=keep, initial=-np.inf)
    for i in np.flatnonzero(~keep.any(axis=-1)):
        values[i] = np.nan
        errors[i] = errors[i] or TruncationError(_TRUNCATED)
    return values, errors


def column_max_im(a, b, harmonics, gammas, omega: float, cutoff: int):
    """``max |Im eps|`` over the central third at each gamma of one frequency
    column, from the sector matrices ``a + gamma*b + omega*diag(harmonics)``
    (see :func:`_sector_matrix`), :data:`STACK_CELLS` per eigensolve.

    Returns the values and the error text of each failed cell, in cell
    order; a failed cell reads NaN.
    """
    gammas = np.asarray(gammas, dtype=float)
    values = np.empty(len(gammas))
    errors = []
    for start in range(0, len(gammas), STACK_CELLS):
        g = gammas[start:start + STACK_CELLS]
        values[start:start + len(g)], errs = _solve_stack(a + g[:, None, None] * b,
                                                          harmonics, omega, cutoff)
        errors.extend(f"{type(e).__name__}: {e}" for e in errs if e is not None)
    return values, errors


def max_im_quasienergy(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Largest |Im quasienergy| over the central third of the truncated
    Floquet spectrum (the ``max_im`` of :func:`fold_spectrum`), solved in
    the ``+1`` parity sector as a stack of one."""
    mat, harmonics = _sector_matrix(model, cutoff)
    (value,), (error,) = _solve_stack(mat[None], harmonics, model.base_omega, cutoff)
    if error is not None:
        raise error
    return float(value)


def convergence_check(model: ModelSpec, cutoff: int = DEFAULT_CUTOFF) -> tuple[bool, float]:
    """Compare ``max_im`` at the given cutoff and at twice the cutoff."""
    a = max_im_quasienergy(model, cutoff)
    b = max_im_quasienergy(model, 2 * cutoff)
    delta = abs(a - b)
    return delta < 1e-6, delta
