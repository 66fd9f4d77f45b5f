"""Closed-form piecewise propagation and one-period monodromy analysis.

The one-period propagator ``G(T)`` of a traceless two-level Hamiltonian is
unimodular, so its half-trace ``c = tr G / 2`` fixes the quasienergy pair
``+/- eps_F`` through ``c = cos(eps_F T)``.  Real ``eps_F`` (|c| <= 1)
means bounded, stable dynamics; a complex pair means exponential growth.
Roots of ``|c| = 1`` are degeneracies: exceptional points when ``G`` keeps
only one eigenvector, diabolic points when ``G`` is proportional to the
identity.

A drive with the half-period parity ``H(t + T/2) = P H(t) P`` (``P`` =
sigma_x or sigma_z; every preset at odd beta; read from the drive terms
by :func:`~floqep.model.half_period_parity`) repeats its first half
conjugated by ``P``, so ``G = P G_h P G_h = M^2`` with ``G_h`` the
half-period product and ``M = P G_h``.  Since ``det M = -1``, the trace
``t = tr M`` gives ``c = 1 + t^2/2`` and ``eps_F T = 2 arcsin(-i t/2)``.
Near ``c = +1``, ``arccos(c)`` keeps only half the digits of ``c``,
because ``c - 1`` is second order in ``eps_F``; ``t`` is first order
there, so the arcsin of ``t`` keeps them all.  It also costs half the
segment products.

A drive with a time reflection ``H(s - t) = Q H(t)^T Q`` of the span
``s`` multiplied (the half period with the parity, else the whole
period; read from the drive terms by
:func:`~floqep.model.time_reflection`) has ``U(s, s/2) = Q U(s/2, 0)^T Q``,
so the kernel multiplies the first half of the span, ``A``, and composes
``S = Q A^T Q A``: half the segment products again.  The ``*-sin*``
presets have one at every beta.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    Axis,
    ModelSpec,
    Waveform,
    SMOOTH_WAVEFORMS,
    _is_int,
    bloch_decompose,
    bloch_vector_at,
    half_period_parity,
    matrix_from_bloch_vector,
    time_reflection,
)

# below this |mu*tau| the cos/sinc factors switch to 5-term Taylor series,
# which keeps the defective (mu -> 0) limit exact to machine precision
SMALL_PHASE = 1e-4

DEFAULT_STEPS_PER_PERIOD = 200_000
REAL_TRACE_TOL = 1e-9  # |Im c| below this times max(1, |c|): a numerically real half-trace
DEFECT_TOL = 1e-6  # ||G - c*I||_F above this at a root: an exceptional point
ROOT_TOL = 1e-6  # |f| at most this: a root of the degeneracy indicator

UNIT_ROUNDOFF = 2.0 ** -53

# elements per numpy ufunc buffer inside the kernel and the map verdict:
# at numpy's default (8192) each broadcast or strided operation of a
# 1024-cell call copies operands through 64 KiB buffers, which took 0.1
# MiB of peak heap on the square map; at 1024 numpy runs its loops over
# the contiguous cell axis of the arrays themselves
KERNEL_BUFSIZE = 1024


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


@contextlib.contextmanager
def _kernel_state():
    """numpy's state for one kernel call or map verdict, entered once:
    every floating-point error ignored (an overflow is a non-finite cell,
    which the callers turn into NaN), and ufunc buffers of
    :data:`KERNEL_BUFSIZE` elements.  Neither changes a bit; both are
    restored on exit."""
    with np.errstate(all="ignore"):
        bufsize = np.setbufsize(KERNEL_BUFSIZE)
        try:
            yield
        finally:
            np.setbufsize(bufsize)


def _mul(x, y, out=None):
    """Product of complex numbers held as ``(real, imag)`` pairs, or written
    into ``out[0]`` and ``out[1]`` (which must not overlap ``x`` or ``y``).

    Written out so that no step is fused: the same four products and two
    sums as Python's complex multiply, whatever numpy's SIMD dispatch.
    """
    if out is None:
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]
    np.multiply(x[0], y[0], out=out[0])
    out[0] -= x[1] * y[1]
    np.multiply(x[0], y[1], out=out[1])
    out[1] += x[1] * y[0]
    return out


def _split(x):
    """Veltkamp's split ``x = hi + lo``, each half of 26 bits at most."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    """``(p, e)`` with ``p = fl(x*y)`` and ``p + e = x*y`` exactly: Dekker's
    TwoProduct (Numer. Math. 18, 224, 1971), unfused as :func:`_mul` is.
    Exact while ``2**27 x`` and ``2**27 y`` stay finite and ``e`` does
    not underflow."""
    (xh, xl), (yh, yl) = _split(x), _split(y)
    p = x * y
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


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


def _expm_pauli_elements(d, factors, tau, out):
    """Entries of ``exp(-i tau d.sigma)`` for a traceless Bloch vector,
    written into ``out[part, i, j]``, which it returns.

    Closed form ``cos(mu tau) I - i tau sinc(mu tau) (d.sigma)`` with
    ``mu = sqrt(d.d)``; ``factors`` is :func:`_cos_sinc` of ``d.d``.  The
    components are ``(real, imag)`` pairs and ``tau`` is real; they may be
    arrays that broadcast to ``out[part, i, j]``, and every operation is
    elementwise, so an entry's bits do not depend on the array it sits in.
    """
    dx, dy, dz = d
    cosz, sinc = factors
    a = (tau * sinc[1], -tau * sinc[0])  # -i tau sinc
    a_dz = _mul(a, dz, out=out[:, 1, 1])  # the (1, 1) entry is written over it
    for p in (0, 1):
        np.add(cosz[p], a_dz[p], out=out[p, 0, 0])
        np.subtract(cosz[p], a_dz[p], out=out[p, 1, 1])
    _mul(a, (dx[0] + dy[1], dx[1] - dy[0]), out=out[:, 0, 1])  # a (dx - i dy)
    _mul(a, (dx[0] - dy[1], dx[1] + dy[0]), out=out[:, 1, 0])  # a (dx + i dy)
    return out


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
    with np.errstate(all="ignore"):
        entries = _expm_pauli_elements(d, _cos_sinc(_dot(d), tau), tau, np.empty((2, 2, 2, 1)))
    out = _complex(entries[..., 0])
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
    """Quasienergy ``eps_F = w/T`` with ``cos(w) = c`` and ``Im w >= 0``.

    The spectrum is the pair ``+/- eps_F`` modulo ``2*pi/T``, and the
    representative is the one with ``Im w`` fixed >= 0 (up to -1e-10 of
    noise).  ``Re w`` lies in ``[0, pi]`` wherever the principal
    ``arccos(c)`` already has ``Im >= -1e-10``, every real ``c`` included.
    Elsewhere, for non-real ``c`` with ``Im c > 0``, no representative of
    ``+/-w mod 2*pi`` has both ``Re`` in ``[0, pi]`` and ``Im >= 0``:
    ``w`` is ``-arccos(c)`` or ``2*pi - arccos(c)``, so ``Re w`` lies in
    ``[-pi/2, 0)`` or ``(pi, 3*pi/2)``.  ``c`` and ``T`` may be arrays
    (elementwise); scalars give a Python complex.
    """
    T = np.asarray(T, dtype=float)
    if not np.all(T > 0):
        raise ValueError("T must be positive")
    with np.errstate(all="ignore"):
        return _on_branch(np.arccos(np.asarray(c, dtype=complex)), T)


def _on_branch(w, T):
    """``w/T`` for the principal ``w = arccos(c)``, ``Re w`` in ``[0, pi]``,
    flipped to the ``Im >= 0`` representative, which leaves that strip for
    non-real ``c`` (see :func:`quasienergy_from_trace`)."""
    # the flip nearest the strip: -w to [-pi/2, 0), 2*pi - w to (pi, 3*pi/2);
    # noise-level negative imaginary parts are kept to avoid distorting Re w
    w = np.where(
        w.imag < -1e-10, np.where(w.real <= math.pi / 2.0, -w, 2.0 * math.pi - w), w
    )
    eps = np.empty(np.broadcast_shapes(w.shape, T.shape), dtype=complex)
    eps.real = w.real / T
    eps.imag = w.imag / T
    return complex(eps) if eps.ndim == 0 else eps


class Traces:
    """The trace quantities of a batch of one-period propagators (arrays).

    Built from the entries of ``G``, or, on the half-period route
    (``half_period``), of ``M = P G_h``, as a ``[part, row, col, cell]``
    array of their real and imaginary parts.  There ``t = tr M`` is
    ``parity_trace``, ``c = 1 + t^2/2``, ``eps_F T = 2 arcsin(-i t/2)``
    on the branch of :func:`quasienergy_from_trace`, and, since
    Cayley-Hamilton with ``det M = -1`` gives ``G = t M + I``,
    ``||G - c*I||_F = |t| ||M - (t/2) I||_F``.  A cell with any entry not
    finite is NaN throughout.  ``half_trace`` and ``parity_trace`` are
    formed at once; ``entries`` (the four complex entries, row-major),
    ``bound`` (a bound on the half-trace's error, the kernel's rounding
    bound or the oracle's, from the zero-argument ``bound``; None without
    one), ``eps_F``, ``max_im_eps`` and ``defectiveness`` on first use,
    so a caller that reads only ``half_trace`` pays for nothing else.

    Neither the constructor nor a quantity enters numpy's error state:
    the caller that may meet an overflow holds it once (the kernel's entry
    points, a map block's verdict).
    """

    def __init__(self, parts, T, half_period: bool, bound=None):
        self._parts = parts
        self._T = np.asarray(T, dtype=float)
        self._bound = bound
        self._finite = np.isfinite(parts).all(axis=(0, 1, 2))
        t = _complex((parts[0, 0, 0] + parts[0, 1, 1], parts[1, 0, 0] + parts[1, 1, 1]))
        t[~self._finite] = np.nan
        if half_period:
            self.parity_trace, self.half_trace = t, 1.0 + (0.5 * t) * t
        else:
            self.parity_trace, self.half_trace = None, 0.5 * t

    def take(self, cells) -> Traces:
        """The cells ``cells`` alone, with the same bits (no bound)."""
        return Traces(self._parts[..., cells], self._T[cells], self.parity_trace is not None)

    @staticmethod
    def concat(batches) -> Traces:
        """The cells of ``batches`` (of one route) in order, with the same bits (no bound)."""
        return Traces(np.concatenate([t._parts for t in batches], axis=-1),
                      np.concatenate([t._T for t in batches]), batches[0].parity_trace is not None)

    @functools.cached_property
    def entries(self) -> tuple:
        return _packed(self._parts, self._finite)

    @functools.cached_property
    def bound(self):
        return None if self._bound is None else self._bound()

    @functools.cached_property
    def eps_F(self) -> np.ndarray:
        t = self.parity_trace
        if t is None:
            return quasienergy_from_trace(self.half_trace, self._T)
        w = _doubled_arcsin(t)
        return _on_branch(np.where(w.real < 0.0, -w, w), self._T)  # -w: same cosine, Re >= 0

    @functools.cached_property
    def max_im_eps(self) -> np.ndarray:
        """``|Im eps_F|``, the same bits as ``abs(eps_F.imag)`` without the
        branch fold, which only negates ``Im w``: ``|Im w| / T``."""
        t = self.parity_trace
        w = np.arccos(self.half_trace) if t is None else _doubled_arcsin(t)
        return np.abs(w.imag) / self._T

    @functools.cached_property
    def defectiveness(self) -> np.ndarray:
        t = self.parity_trace
        if t is None:
            return defectiveness(*self.entries, self.half_trace)
        m00, m01, m10, m11 = self.entries
        h = 0.5 * t
        off = np.abs(m00 - h) ** 2 + np.abs(m01) ** 2 + np.abs(m10) ** 2 + np.abs(m11 - h) ** 2
        return np.abs(t) * np.sqrt(off)


def _packed(parts, finite):
    """The four complex entries (row-major) of ``[part, row, col, cell]``
    parts, NaN in all four where a cell is not ``finite``."""
    G = _complex(parts)
    G[:, :, ~finite] = np.nan
    return G[0, 0], G[0, 1], G[1, 0], G[1, 1]


def _doubled_arcsin(t):
    """``2 arcsin(-i t/2)``: ``eps_F T`` up to its branch, ``Re`` in ``[-pi, pi]``."""
    return 2.0 * np.arcsin(_complex((0.5 * t.imag, -0.5 * t.real)))


def _parity_product(axis: Axis, G):
    """``M = P G_h`` for the parity axis ``P`` of ``G_h``'s drive, on
    ``[part, row, col, cell]`` arrays: ``P`` swaps the rows or negates the second."""
    if axis is Axis.X:
        return G[:, ::-1]
    return G * np.array([1.0, -1.0])[:, None, None]


def _reflected(axis: Axis, A):
    """``S = Q A^T Q A`` for the reflection ``Q`` that flips ``axis`` (see
    :func:`~floqep.model.time_reflection`), on ``[part, row, col, cell]``
    arrays, written over ``A``: one step of the kernel's unfused
    left-multiply."""
    R = A.transpose(0, 2, 1, 3)  # Q = I
    if axis is Axis.Z:  # Q = sigma_x: R[i, j] = A[1 - j, 1 - i]
        R = R[:, ::-1, ::-1]
    elif axis is Axis.X:  # Q = sigma_z: the off-diagonal negated
        R = R * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
    _left_multiply(R, A, np.empty((2, 2, 2, 2, 2, A.shape[-1])))
    return A


@functools.lru_cache(maxsize=32)
def _segment_plan(rows: bytes):
    """``(order, parts, n_groups, groups)`` for the segment rows
    ``(a[l], b[l])``, packed as complex bytes: decided once per row set.

    Rows compare by value, so ``-0.0`` matches ``0.0``.  ``order[l]`` is
    the distinct row of segment ``l``; ``parts`` holds the real and
    imaginary parts of ``a`` and ``b`` on the distinct rows, each
    ``(n_distinct, 3, 1)``.  Two rows whose ``(a_k, b_k)`` agree up to
    sign in each component ``k`` have bitwise-equal ``d.d`` at every
    gamma, since rounding is odd, so they share a group, whose
    transcendental factors are computed once: rows ``0 .. n_groups - 1``
    stand for the groups, and ``groups[j]`` is the group of row ``j``
    (None when every row is its own group, or when all share one, whose
    factors broadcast over the rows).
    """
    segments = [tuple(r) for r in np.frombuffer(rows, dtype=complex).reshape(-1, 6)]
    # each row's (a_k, b_k) up to sign, per component: its group
    keys = [tuple(frozenset({(r[k], r[k + 3]), (-r[k], -r[k + 3])}) for k in range(3)) for r in segments]
    first = list(dict.fromkeys(keys))
    # the distinct rows: the first of each group, in group order, then the rest
    distinct = list(dict.fromkeys([segments[keys.index(key)] for key in first] + segments))
    groups = [first.index(keys[segments.index(r)]) for r in distinct]
    ab = np.array(distinct).reshape(-1, 2, 3, 1)
    parts = tuple(np.ascontiguousarray(x) for x in (ab[:, 0].real, ab[:, 0].imag, ab[:, 1].real, ab[:, 1].imag))
    for x in parts:
        x.flags.writeable = False
    order = tuple(distinct.index(r) for r in segments)
    return order, parts, len(first), None if len(first) in (1, len(distinct)) else np.array(groups)


def _plan(a, b):
    """:func:`_segment_plan` of the segment rows ``(a[l], b[l])``."""
    a, b = (np.asarray(x, dtype=complex) for x in (a, b))
    return _segment_plan(np.concatenate([a, b], axis=1).tobytes())


def _segment_exponentials(parts, n_groups, groups, gammas, taus):
    """The distinct segment exponentials of a batch, as ``E[row, part, i, j, cell]``
    for the distinct rows of :func:`_segment_plan`.

    Lean in memory, with the bits of the plain formulas: ``d = gamma b + a``
    is formed in place (the sum commutes), the cos/sinc factors of one
    group broadcast over the rows, and the entries are written straight
    into ``E``.
    """
    ar, ai, br, bi = parts
    d = np.empty((2, *br.shape[:2], len(gammas)))
    for x, a, b in ((d[0], ar, br), (d[1], ai, bi)):
        np.multiply(gammas, b, out=x)
        x += a
    # d.d as _dot forms it, the three squares at once, then their sum, on
    # the rows that stand for the groups
    lead = d[:, :n_groups]
    sq = _mul(lead, lead)
    factors = _cos_sinc(tuple(s[:, 0] + s[:, 1] + s[:, 2] for s in sq), taus)
    del sq
    if groups is not None:
        factors = [(x[0][groups], x[1][groups]) for x in factors]
    E = np.empty((len(ar), 2, 2, 2, len(gammas)))
    _expm_pauli_elements(d.transpose(2, 0, 1, 3), factors, taus, E.transpose(1, 2, 3, 0, 4))
    return E


def _left_multiply(x, G, prod):
    """``G <- x G`` in place for ``[part, row, col, cell]`` arrays.

    Every product ``x[px] * y[py]`` of ``x[r, k]`` and ``G[k, c]`` at once
    into the buffer ``prod``, then, in place, the ``(real, imag)`` parts
    into ``prod[0]`` and their sum over ``k``: the unfused products and
    sums of :func:`_mul` and :func:`_add`, in their order.
    """
    np.multiply(x[:, None, :, :, None], G[None, :, None], out=prod)
    np.subtract(prod[0, 0], prod[1, 1], out=prod[0, 0])
    np.add(prod[0, 1], prod[1, 0], out=prod[0, 1])
    np.add(prod[0, :, :, 0], prod[0, :, :, 1], out=G)


def _segment_pairs(a, b, gammas, taus):
    """The ordered segment product of a batch as ``[part, row, col, cell]``
    parts, with the distinct exponentials ``E`` and the segment ``order``
    that its rounding bound reads (see :func:`_segment_product`)."""
    gammas = np.asarray(gammas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    order, *plan = _plan(a, b)
    E = _segment_exponentials(*plan, gammas, taus)
    G = E[order[0]].copy()
    prod = np.empty((2, 2, 2, 2, 2, len(gammas)))
    for l in order[1:]:
        _left_multiply(E[l], G, prod)
    return G, E, order


def _product_bound(E, order, reflected: bool):
    """The rounding bound of :func:`_segment_product` on the product ``A``
    of the segments ``order``, ``b = n * 8u * N`` with ``N = prod_l ||E_l||_F``;
    and with ``reflected``, that of ``S = Q A^T Q A``:
    ``(2 N + b) b + 8u (N + b)^2``, since ``Q A^T Q`` has ``A``'s error
    norm and the one product adds ``8u ||A||^2``.

    Each norm sums ``re^2 + im^2`` of the entries in row-major order, one
    entry at a time through a buffer, and ``N`` multiplies the norms in
    ``order``, one at a time."""
    entries = E.reshape(len(E), 2, 4, -1)  # [row, part, entry, cell]
    sq = np.empty((2, len(E), E.shape[-1]))  # one entry's re^2 and im^2
    norms = np.empty_like(sq[0])
    for k in range(4):
        re, im = entries[:, 0, k], entries[:, 1, k]
        np.multiply(re, re, out=sq[0])
        np.multiply(im, im, out=sq[1])
        if k:
            norms += np.add(sq[0], sq[1], out=sq[0])
        else:
            np.add(sq[0], sq[1], out=norms)
    np.sqrt(norms, out=norms)
    N = norms[order[0]].copy()
    for l in order[1:]:
        N *= norms[l]
    b = len(order) * 8.0 * UNIT_ROUNDOFF * N
    return (2.0 * N + b) * b + 8.0 * UNIT_ROUNDOFF * (N + b) ** 2 if reflected else b


def _segment_product(a, b, gammas, taus):
    """Ordered product of the segment exponentials for a batch of cells.

    Cell ``k`` has drive strength ``gammas[k]`` and segment duration
    ``taus[k]``; its segment ``l`` has the Bloch vector
    ``a[l] + gammas[k] * b[l]`` (``a`` and ``b`` are ``(n_seg, 3)``
    complex), and segment 0 is applied first.  The distinct row pairs
    ``(a[l], b[l])`` are stacked on a leading axis (a cached
    :func:`_segment_plan`), and their exponentials for the whole (1-D)
    batch come from one pass over ``(n_distinct, cells)`` arrays.  The
    left-multiplies then run on one ``[part, row, col, cell]`` array
    through a preallocated buffer (:func:`_left_multiply`).  All
    arithmetic is elementwise, so a cell gives the same bits alone or at
    any position of any batch.

    Returns the four entries of ``G`` (row-major) and the forward rounding
    bound ``n_seg * 8u * prod_l ||E_l||_F`` on the half-trace (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3).  Cells whose
    product is not finite come back as NaN in all four entries.  Overflows
    raise no warning: the call holds numpy's error state ignored.
    """
    with _kernel_state():
        G, E, order = _segment_pairs(a, b, gammas, taus)
        return (*_packed(G, np.isfinite(G).all(axis=(0, 1, 2))), _product_bound(E, order, reflected=False))


def _matmul(x, y):
    """Products ``x[:, :, k] @ y[:, :, k]`` of batch-last ``(2, 2, n)`` stacks."""
    return x[:, :1] * y[0] + x[:, 1:] * y[1]


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product ``mats[..., -1] @ ... @ mats[..., 0]`` by deterministic pairwise tree."""
    while mats.shape[-1] > 1:
        n = mats.shape[-1]
        paired = _matmul(mats[..., 1::2], mats[..., :n - 1:2])
        mats = np.concatenate([paired, mats[..., n - 1:]], axis=-1) if n % 2 else paired
    return mats[..., 0]


def _power(mats: np.ndarray, runs: int) -> np.ndarray:
    """Each matrix of a batch-last stack to the power ``runs >= 1``, by binary powering."""
    out = None
    while runs:
        if runs % 2:
            out = mats if out is None else _matmul(out, mats)
        runs //= 2
        mats = _matmul(mats, mats) if runs else mats
    return out


def _rk4_transfer(a_start, a_mid, a_end, h):
    """Per-step RK4 transfer matrices for ``G' = A(t) G`` (batch-last stacks)."""
    k1 = a_start
    k2 = a_mid + (0.5 * h) * _matmul(a_mid, k1)
    k3 = a_mid + (0.5 * h) * _matmul(a_mid, k2)
    k4 = a_end + h * _matmul(a_end, k3)
    return np.eye(2)[:, :, None] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_monodromy(model: ModelSpec, steps_per_period: int) -> np.ndarray:
    """Fixed-step RK4 solution of ``G' = -i H(t) G`` over one period.

    A square model samples ``A = -i H`` at its segment midpoints, each
    run for ``ceil(steps_per_period / n_seg)`` steps so that every jump
    falls on a step boundary; a smooth model at the edges and midpoints of
    ``steps_per_period`` steps, run once.  Both share one tail on
    batch-last ``(2, 2, n)`` stacks: the RK4 transfer, its power by the
    runs and a fixed pairwise tree, so the result is bitwise reproducible.
    """
    if not _is_int(steps_per_period) or steps_per_period < 4:
        raise ValueError("steps_per_period must be an integer >= 4")

    def generators(d):  # contiguous: the products on a transposed view run ~1.7x slower
        return np.ascontiguousarray(np.moveaxis(-1.0j * matrix_from_bloch_vector(d), 0, -1))

    if model.is_square_family:
        starts = mids = ends = generators(segment_hamiltonians(model))
        runs = -(-steps_per_period // mids.shape[-1])
        h = model.period / mids.shape[-1] / runs
    else:
        runs, h = 1, model.period / steps_per_period
        edges = generators(bloch_vector_at(model, np.arange(steps_per_period + 1) * h))
        starts, ends = edges[..., :-1], edges[..., 1:]
        mids = generators(bloch_vector_at(model, (np.arange(steps_per_period) + 0.5) * h))
    return _ordered_product(_power(_rk4_transfer(starts, mids, ends, h), runs))


def piecewise_traces(a, b, gammas, T, parity: Axis | None, reflection: Axis | None) -> Traces:
    """:class:`Traces` for a batch of cells, with the kernel's rounding bound.

    The cells and segments are those of :func:`_segment_product`, with
    periods ``T``.  With a ``parity`` axis (see
    :func:`~floqep.model.half_period_parity`) the span multiplied is the
    first half of the segments, else all of them.  With a ``reflection``
    (see :func:`~floqep.model.time_reflection`) only the first half of
    that span, ``A``, is multiplied, and the span is ``S = Q A^T Q A``,
    since ``U(s, s/2) = Q U(s/2, 0)^T Q``.  The bound is on ``S``: the
    product's own, or, reflected, the composed one of
    :func:`_product_bound`, ``(2 N + b) b + 8u (N + b)^2`` for ``A``'s
    bound ``b`` and norm product ``N``.

    The call enters numpy's state once (:func:`_kernel_state`), and its
    helpers not at all, so an overflow is a non-finite (NaN) cell without
    a warning; the bound and the lazy quantities are formed later, under
    the caller's.  Per cell it holds 8 doubles of ``E`` and 6 of ``d`` for
    each distinct segment row of the span, and 32 of the product buffer,
    each array written in place.
    """
    half = _multiplied(len(a), parity, reflection)
    with _kernel_state():
        G, E, order = _segment_pairs(a[:half], b[:half], gammas, T / len(a))
        if reflection is not None:
            G = _reflected(reflection, G)
        if parity is not None:
            G = _parity_product(parity, G)
        bound = functools.partial(_product_bound, E, order, reflection is not None)
        return Traces(G, T, half_period=parity is not None, bound=bound)


def _multiplied(n_seg: int, parity: Axis | None, reflection: Axis | None) -> int:
    """How many leading segments of ``n_seg`` :func:`piecewise_traces` multiplies."""
    span = n_seg // 2 if parity else n_seg
    return span // 2 if reflection else span


def monodromy(
    model: ModelSpec,
    engine: str = "piecewise",
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
) -> MonodromyResult:
    """One-period propagator of the model.

    ``engine='piecewise'`` multiplies the closed-form segment
    exponentials of a square-family model, on a one-cell batch of the
    grid kernel, so a cell has the same bits here as in a sweep: ``G`` is
    the full-period product, and everything else comes from the route of
    :func:`piecewise_traces`, halved by the parity and the reflection
    where the model has them.
    ``engine='integrate'`` runs the fixed-step RK4 integrator (the oracle
    route, valid for any family).  A propagator that is not finite raises
    :class:`NumericalError` on either route, under any numpy error state.
    """
    T = np.full(1, model.period)
    # an overflow is a non-finite G, checked below, not a trap or warning
    with np.errstate(all="ignore"):
        if engine == "piecewise":
            ds = segment_hamiltonians(model)
            zero, cell = np.zeros_like(ds), np.zeros(1)
            G = np.stack(_segment_product(ds, zero, cell, T / len(ds))[:4])
            if not np.isfinite(G[0, 0]):
                raise NumericalError("non-finite propagator in the segment product")
            traces = piecewise_traces(ds, zero, cell, T, half_period_parity(model), time_reflection(model))
        elif engine == "integrate":
            G = _integrate_monodromy(model, steps_per_period).reshape(2, 2, 1)
            if not np.all(np.isfinite(G.view(float))):
                raise NumericalError("non-finite monodromy matrix")
            traces = Traces(np.stack((G.real, G.imag)), T, half_period=False)
        else:
            raise ValueError(f"unknown engine {engine!r} (use 'piecewise' or 'integrate')")
        eps = complex(traces.eps_F[0])
        return MonodromyResult(
            G=G.reshape(2, 2),
            half_trace=complex(traces.half_trace[0]),
            eps_F=eps,
            max_im_eps=abs(eps.imag),
            defectiveness=float(traces.defectiveness[0]),
        )


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
    deep in the broken phase.  ``c`` counts as real while ``|Im c|`` is
    below ``REAL_TRACE_TOL * max(1, |c|)``: relative to ``|c|``, because
    the rounding noise in ``Im c`` grows with it.  Elementwise over
    arrays; a scalar gives a float.
    """
    c = np.asarray(c, dtype=complex)
    real = np.abs(c.imag) < REAL_TRACE_TOL * np.maximum(1.0, np.abs(c))
    f = np.where(real, np.abs(c.real) - 1.0, np.abs(c.imag))
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
