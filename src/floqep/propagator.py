"""Closed-form piecewise propagation and one-period monodromy analysis.

The one-period propagator ``G(T)`` of a traceless two-level Hamiltonian is
unimodular, so its half-trace ``c = tr G / 2`` fixes the quasienergy pair
``+/- eps_F`` through ``c = cos(eps_F T)``.  Real ``eps_F`` (|c| <= 1)
means bounded, stable dynamics; a complex pair means exponential growth.
Roots of ``|c| = 1`` are degeneracies: exceptional points when ``G`` keeps
only one eigenvector, diabolic points when ``G`` is proportional to the
identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    ModelSpec,
    Waveform,
    SMOOTH_WAVEFORMS,
    bloch_decompose,
    bloch_vector_at,
    matrix_from_bloch_vector,
)

# below this |mu*tau| the cos/sinc factors switch to 5-term Taylor series,
# which keeps the defective (mu -> 0) limit exact to machine precision
SMALL_PHASE = 1e-4

DEFAULT_STEPS_PER_PERIOD = 200_000
REAL_TRACE_TOL = 1e-9  # |Im c| below this: a numerically real half-trace
DEFECT_TOL = 1e-6  # ||G - c*I||_F above this at a root: an exceptional point
ROOT_TOL = 1e-6  # |f| at most this: a root of the degeneracy indicator

UNIT_ROUNDOFF = 2.0 ** -53


class NumericalError(RuntimeError):
    """Non-finite value produced during propagation."""


class EPKind(Enum):
    EP = "EP"
    DIABOLIC = "Diabolic"
    NONE = "None"


@dataclass(eq=False)
class MonodromyResult:
    """One-period propagator and the quantities derived from its trace.

    ``defectiveness`` is ``||G - c*I||_F``: zero for a diabolic
    degeneracy (G proportional to the identity), order gamma at an
    exceptional point.
    """

    G: np.ndarray
    half_trace: complex
    eps_F: complex
    max_im_eps: float
    defectiveness: float


def _mul(x, y):
    """Product of complex numbers held as ``(real, imag)`` pairs.

    Written out so that no step is fused: the same four products and two
    sums as Python's complex multiply, whatever numpy's SIMD dispatch.
    """
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _div(x, y):
    """Quotient of ``(real, imag)`` pairs by Smith's method, as Python's complex division."""
    (xr, xi), (yr, yi) = x, y
    real_big = np.abs(yr) >= np.abs(yi)
    ratio = np.where(real_big, yi / yr, yr / yi)
    denom = np.where(real_big, yr + yi * ratio, yr * ratio + yi)
    return (
        np.where(real_big, xr + xi * ratio, xr * ratio + xi) / denom,
        np.where(real_big, xi - xr * ratio, xi * ratio - xr) / denom,
    )


def _complex(x):
    out = np.empty(np.broadcast_shapes(np.shape(x[0]), np.shape(x[1])), dtype=complex)
    out.real, out.imag = x
    return out


def _series(z2, coeffs, last):
    """``1 + z2*(c0 + z2*(c1 + ... + z2/last))`` for ``coeffs = (..., c1, c0)``."""
    t = (z2[0] / last, z2[1] / last)
    for c in coeffs:
        t = _mul(z2, (c + t[0], t[1]))
    return 1.0 + t[0], t[1]


def _dot(d):
    """``d.d`` of a Bloch vector of ``(real, imag)`` pairs."""
    dx, dy, dz = d
    return _add(_add(_mul(dx, dx), _mul(dy, dy)), _mul(dz, dz))


def _cos_sinc(dd, tau):
    """``cos z`` and ``sin(z)/z`` for ``z = sqrt(dd) * tau``, as pairs.

    ``sqrt`` is on the principal branch; below ``|z| = SMALL_PHASE`` both
    switch to their 5-term Taylor series.
    """
    with np.errstate(all="ignore"):
        mu = np.sqrt(_complex(dd))
        z = (mu.real * tau, mu.imag * tau)
        zc = _complex(z)
        cos_z, sin_z = np.cos(zc), np.sin(zc)
        cosz, sinc = (cos_z.real, cos_z.imag), _div((sin_z.real, sin_z.imag), z)
        small = np.hypot(*z) < SMALL_PHASE
        if small.any():
            z2 = _mul(z, z)
            taylor = (
                _series(z2, (-1.0 / 720.0, 1.0 / 24.0, -1.0 / 2.0), 40320.0),
                _series(z2, (-1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0), 362880.0),
            )
            cosz, sinc = (
                (np.where(small, t[0], c[0]), np.where(small, t[1], c[1]))
                for t, c in zip(taylor, (cosz, sinc))
            )
    return cosz, sinc


def _expm_pauli_elements(d, factors, tau):
    """Entries of ``exp(-i tau d.sigma)`` for a traceless Bloch vector.

    Closed form ``cos(mu tau) I - i tau sinc(mu tau) (d.sigma)`` with
    ``mu = sqrt(d.d)``; ``factors`` is :func:`_cos_sinc` of ``d.d``.  The
    components are ``(real, imag)`` pairs and ``tau`` is real; they may be
    arrays, and every operation is elementwise, so an entry's bits do not
    depend on the array it sits in.  Returns the four matrix entries
    (row-major) as ``(real, imag)`` pairs.
    """
    dx, dy, dz = d
    cosz, sinc = factors
    with np.errstate(all="ignore"):
        a = (tau * sinc[1], -tau * sinc[0])  # -i tau sinc
        a_dz = _mul(a, dz)
        return (
            _add(cosz, a_dz),
            _mul(a, (dx[0] + dy[1], dx[1] - dy[0])),  # a (dx - i dy)
            _mul(a, (dx[0] - dy[1], dx[1] + dy[0])),  # a (dx + i dy)
            (cosz[0] - a_dz[0], cosz[1] - a_dz[1]),
        )


def expm_two_level(H, tau: float) -> np.ndarray:
    """``exp(-i tau H)`` for a 2x2 complex matrix, in closed form.

    Exact for any complex Bloch vector, including the defective
    ``d.d = 0`` case where the result degenerates to ``I - i tau (d.sigma)``.
    """
    H = np.asarray(H, dtype=complex)
    if not (np.all(np.isfinite(H.view(float))) and math.isfinite(tau)):
        raise ValueError("H and tau must be finite")
    d0, d = bloch_decompose(H)
    d = [(x.real, x.imag) for x in d]
    tau = float(tau)
    e00, e01, e10, e11 = (
        complex(*e) for e in _expm_pauli_elements(d, _cos_sinc(_dot(d), tau), tau)
    )
    out = np.array([[e00, e01], [e10, e11]], dtype=complex)
    if d0 != 0:
        out *= cmath.exp(-1.0j * d0 * tau)
    return out


def segment_hamiltonians(model: ModelSpec) -> np.ndarray:
    """Bloch vectors ``(n_seg, 3)`` of a square-family model's constant
    segments, segment 0 first; each lasts ``model.period / n_seg``.

    The segment count is four times the least common multiple of the
    drive harmonics (= ``4*beta`` for the presets), which puts every sign
    flip of every square wave exactly on a segment boundary.  Each
    segment Hamiltonian is the model evaluated at the segment midpoint.
    """
    mults = []
    for term in model.terms:
        if term.waveform in SMOOTH_WAVEFORMS:
            raise ValueError(
                "segment decomposition needs a square-family model; "
                f"term {term.axis.name} uses {term.waveform.value}"
            )
        if term.waveform is not Waveform.CONSTANT:
            mults.append(term.multiplier)
    n_seg = 4 * math.lcm(*mults) if mults else 4
    tau = model.period / n_seg
    return bloch_vector_at(model, (np.arange(n_seg) + 0.5) * tau)


def quasienergy_from_trace(c, T):
    """Quasienergy ``eps_F = arccos(c)/T`` on the principal branch.

    ``Re eps_F`` lies in ``[0, pi/T]``; the sign of the imaginary part is
    fixed >= 0 (the spectrum is the pair ``+/- eps_F``).  ``c`` and ``T``
    may be arrays (elementwise); scalars give a Python complex.
    """
    T = np.asarray(T, dtype=float)
    if not np.all(T > 0):
        raise ValueError("T must be positive")
    with np.errstate(all="ignore"):
        w = np.arccos(np.asarray(c, dtype=complex))
        # flip to the Im >= 0 representative of cos(w) = c, staying in
        # the Re in [0, pi] strip (for real c this is exact); noise-level
        # negative imaginary parts are kept to avoid distorting Re w
        w = np.where(
            w.imag < -1e-10, np.where(w.real <= math.pi / 2.0, -w, 2.0 * math.pi - w), w
        )
        eps = np.empty(np.broadcast_shapes(w.shape, T.shape), dtype=complex)
        eps.real = w.real / T
        eps.imag = w.imag / T
    return complex(eps) if eps.ndim == 0 else eps


def _segment_product(a, b, gammas, taus):
    """Ordered product of the segment exponentials for a batch of cells.

    Cell ``k`` has drive strength ``gammas[k]`` and segment duration
    ``taus[k]``; its segment ``l`` has the Bloch vector
    ``a[l] + gammas[k] * b[l]`` (``a`` and ``b`` are ``(n_seg, 3)``
    complex), and segment 0 is applied first.  Each distinct row pair
    ``(a[l], b[l])`` gets one exponential for the whole (1-D) batch, and
    the product runs on the 2x2 entries as an array axis.  All arithmetic
    is elementwise, so a cell gives the same bits alone or at any position
    of any batch.

    Returns the four entries of ``G`` (row-major) and the forward rounding
    bound ``n_seg * 8u * prod_l ||E_l||_F`` on the half-trace (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3).  Cells whose
    product is not finite come back as NaN in all four entries.
    """
    gammas = np.asarray(gammas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    distinct: dict = {}
    order = [distinct.setdefault((tuple(a[l]), tuple(b[l])), len(distinct)) for l in range(len(a))]
    with np.errstate(all="ignore"):
        E, norms, factors = [], [], {}
        for av, bv in distinct:
            d = [(av[k].real + gammas * bv[k].real, av[k].imag + gammas * bv[k].imag)
                 for k in range(3)]
            # distinct vectors often share d.d (the square-wave signs square
            # away), so its transcendental factors are computed once
            dd = _dot(d)
            key = dd[0].tobytes() + dd[1].tobytes()
            if key not in factors:
                factors[key] = _cos_sinc(dd, taus)
            e00, e01, e10, e11 = _expm_pauli_elements(d, factors[key], taus)
            # the (real, imag) parts of E as [row, col, cell]
            re, im = (np.array([[e00[p], e01[p]], [e10[p], e11[p]]]) for p in (0, 1))
            E.append((re, im))
            sq = re * re + im * im
            norms.append(np.sqrt(sq[0, 0] + sq[0, 1] + sq[1, 0] + sq[1, 1]))
        del factors
        G, norm = E[order[0]], norms[order[0]]
        for l in order[1:]:
            # left-multiply: G[r, c] <- E[r, 0] G[0, c] + E[r, 1] G[1, c]
            col = [tuple(part[:, k, None] for part in E[l]) for k in (0, 1)]
            row = [tuple(part[None, k] for part in G) for k in (0, 1)]
            G = _add(_mul(col[0], row[0]), _mul(col[1], row[1]))
            norm = norm * norms[l]
    G = _complex(G)
    G[:, :, ~np.all(np.isfinite(G), axis=(0, 1))] = np.nan
    return G[0, 0], G[0, 1], G[1, 0], G[1, 1], len(order) * 8.0 * UNIT_ROUNDOFF * norm


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product ``mats[-1] @ ... @ mats[0]`` by deterministic pairwise tree."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        even = n - (n % 2)
        paired = np.matmul(mats[1:even:2], mats[0:even:2])
        if n % 2:
            mats = np.concatenate([paired, mats[-1:]], axis=0)
        else:
            mats = paired
    return mats[0]


def _rk4_transfer(a_start, a_mid, a_end, h):
    """Per-step RK4 transfer matrices for ``G' = A(t) G`` (batched)."""
    eye = np.eye(2, dtype=complex)
    k1 = a_start
    k2 = a_mid + (0.5 * h) * np.matmul(a_mid, k1)
    k3 = a_mid + (0.5 * h) * np.matmul(a_mid, k2)
    k4 = a_end + h * np.matmul(a_end, k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_monodromy(model: ModelSpec, steps_per_period: int) -> np.ndarray:
    """Fixed-step RK4 solution of ``G' = -i H(t) G`` over one period.

    Square-family models are integrated segment by segment so the jump
    discontinuities always coincide with step boundaries; the constant
    per-segment step matrix is raised to the step count by binary
    powering.  The composition order is a fixed pairwise tree, making the
    result bitwise reproducible.
    """
    if steps_per_period < 4:
        raise ValueError("steps_per_period must be >= 4")
    T = model.period
    if model.is_square_family:
        ds = segment_hamiltonians(model)
        m = int(math.ceil(steps_per_period / len(ds)))
        h = T / len(ds) / m
        g = np.eye(2, dtype=complex)
        for d in ds:
            a = -1.0j * matrix_from_bloch_vector(d)
            step = _rk4_transfer(a, a, a, h)
            g = np.linalg.matrix_power(step, m) @ g
        return g
    n = int(steps_per_period)
    h = T / n

    def a_at(t):
        return -1.0j * matrix_from_bloch_vector(bloch_vector_at(model, t))

    a_edges = a_at(np.arange(n + 1) * h)
    steps = _rk4_transfer(a_edges[:-1], a_at((np.arange(n) + 0.5) * h), a_edges[1:], h)
    return _ordered_product(steps)


def _result_from_G(G: np.ndarray, T: float) -> MonodromyResult:
    if not np.all(np.isfinite(G.view(float))):
        raise NumericalError("non-finite monodromy matrix")
    c = complex(0.5 * (G[0, 0] + G[1, 1]))
    eps = quasienergy_from_trace(c, T)
    defect = float(defectiveness(G[0, 0], G[0, 1], G[1, 0], G[1, 1], c))
    return MonodromyResult(
        G=G,
        half_trace=c,
        eps_F=eps,
        max_im_eps=abs(eps.imag),
        defectiveness=defect,
    )


def monodromy(
    model: ModelSpec,
    engine: str = "piecewise",
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
) -> MonodromyResult:
    """One-period propagator of the model.

    ``engine='piecewise'`` multiplies the closed-form segment
    exponentials of a square-family model.  ``engine='integrate'`` runs
    the fixed-step RK4 integrator (the oracle route, valid for any
    family).
    """
    if engine == "piecewise":
        ds = segment_hamiltonians(model)
        # the grid kernel on a one-cell batch, so a cell has the same bits here
        g00, g01, g10, g11, _ = _segment_product(
            ds, np.zeros_like(ds), np.zeros(1), np.full(1, model.period / len(ds))
        )
        if not np.isfinite(g00[0]):
            raise NumericalError("non-finite propagator in the segment product")
        G = np.array([[g00[0], g01[0]], [g10[0], g11[0]]], dtype=complex)
    elif engine == "integrate":
        G = _integrate_monodromy(model, steps_per_period)
    else:
        raise ValueError(f"unknown engine {engine!r} (use 'piecewise' or 'integrate')")
    return _result_from_G(G, model.period)


def defectiveness(g00, g01, g10, g11, c):
    """``||G - c*I||_F`` from the entries of ``G`` (elementwise over arrays)."""
    with np.errstate(all="ignore"):
        return np.sqrt(
            np.abs(g00 - c) ** 2 + np.abs(g01) ** 2 + np.abs(g10) ** 2 + np.abs(g11 - c) ** 2
        )


def indicator_from_trace(c):
    """Signed degeneracy indicator ``f`` of half-trace(s) ``c``.

    ``f = |Re c| - 1`` while the half-trace is numerically real (negative
    in the stable phase, positive in the broken phase), else ``f = |Im c|``
    deep in the broken phase.  Elementwise over arrays; a scalar gives a
    float.
    """
    c = np.asarray(c, dtype=complex)
    f = np.where(np.abs(c.imag) < REAL_TRACE_TOL, np.abs(c.real) - 1.0, np.abs(c.imag))
    return float(f) if f.ndim == 0 else f


_KINDS = np.array([EPKind.NONE, EPKind.DIABOLIC, EPKind.EP], dtype=object)


def root_kinds(f, defect, root_tol: float = ROOT_TOL):
    """Classify indicator values ``f`` (elementwise, as :class:`EPKind`).

    At a root ``|f| <= root_tol`` the point is an exceptional point when
    the propagator retains a nilpotent part (``defect > DEFECT_TOL``, see
    :func:`defectiveness`), diabolic otherwise; elsewhere ``NONE``.
    """
    code = np.where(np.abs(f) <= root_tol, np.where(np.asarray(defect) > DEFECT_TOL, 2, 1), 0)
    return _KINDS[code]


def ep_indicator(result: MonodromyResult, root_tol: float = ROOT_TOL) -> tuple[float, EPKind]:
    """Signed degeneracy indicator and its classification.

    ``f`` is :func:`indicator_from_trace` of the half-trace, and the kind
    is :func:`root_kinds` of ``f`` and the propagator's defectiveness.
    """
    f = indicator_from_trace(result.half_trace)
    return f, root_kinds(f, result.defectiveness, root_tol)
