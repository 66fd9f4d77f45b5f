"""Two-level drive models: Pauli algebra, Bloch decomposition, and presets.

All 2x2 operators are plain ``numpy`` arrays of ``complex128``.  A matrix
``M`` is handled through its Bloch decomposition ``M = d0*I + d . sigma``
with a complex 3-vector ``d``; the real part of ``d`` is the Hermitian
(oscillatory) content and the imaginary part the anti-Hermitian
(gain-loss) content.  Energies are dimensionless, with the static
coupling ``J`` setting the scale (all presets default to ``J = 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class Axis(Enum):
    X = 0
    Y = 1
    Z = 2


class Waveform(Enum):
    CONSTANT = "constant"
    COS = "cos"
    SIN = "sin"
    SQUARE_COS = "square-cos"
    SQUARE_SIN = "square-sin"


class Hermiticity(Enum):
    HERMITIAN = "hermitian"
    ANTI_HERMITIAN = "anti-hermitian"


SMOOTH_WAVEFORMS = frozenset({Waveform.COS, Waveform.SIN})
SQUARE_WAVEFORMS = frozenset({Waveform.SQUARE_COS, Waveform.SQUARE_SIN})


def _is_int(value) -> bool:
    """A Python or numpy integer, not a boolean (``isinstance(True, int)`` holds)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DriveTerm:
    """One additive term ``amplitude * waveform(multiplier*omega*t) * P``.

    ``P`` is the Pauli matrix of ``axis`` for a Hermitian term and
    ``1j`` times it for an anti-Hermitian term.  ``multiplier`` is the
    integer harmonic of the model's base frequency.
    """

    axis: Axis
    amplitude: float
    waveform: Waveform = Waveform.CONSTANT
    multiplier: int = 1
    hermiticity: Hermiticity = Hermiticity.HERMITIAN

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise ValueError("drive amplitude must be finite")
        if not _is_int(self.multiplier):
            raise ValueError("harmonic multiplier must be an integer")
        if self.multiplier < 1:
            raise ValueError("harmonic multiplier must be >= 1")


@dataclass(frozen=True)
class ModelSpec:
    """A time-periodic two-level Hamiltonian as a sum of drive terms.

    The period is ``T = 2*pi/base_omega``; every term is an integer
    harmonic of ``base_omega`` so ``H(t + T) = H(t)``.  All models built
    from :class:`DriveTerm` are traceless by construction.
    """

    terms: tuple[DriveTerm, ...]
    base_omega: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not (math.isfinite(self.base_omega) and self.base_omega > 0):
            raise ValueError("base_omega must be positive and finite")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.base_omega

    @property
    def max_multiplier(self) -> int:
        mults = [t.multiplier for t in self.terms if t.waveform is not Waveform.CONSTANT]
        return max(mults, default=1)

    @property
    def is_square_family(self) -> bool:
        return all(
            t.waveform is Waveform.CONSTANT or t.waveform in SQUARE_WAVEFORMS
            for t in self.terms
        )


def half_period_parity(model: ModelSpec) -> Axis | None:
    """The axis ``P`` (Z, else X) with ``H(t + T/2) = P H(t) P``, or None.

    The half-period shift multiplies a term at harmonic ``k`` (0 for a
    constant) by ``(-1)^k``, a square wave as its sinusoid, and ``P``
    flips every Pauli axis but its own; the two signs must cancel in
    every term.  Amplitudes do not enter, so a preset has the same answer
    at every gamma.  Every preset has it at odd beta: sigma_x for
    ``pt-*``, sigma_z for ``apt-*``.
    """
    terms = [(0 if t.waveform is Waveform.CONSTANT else t.multiplier, t.axis) for t in model.terms]
    return next((p for p in (Axis.Z, Axis.X) if all(k % 2 == (a is not p) for k, a in terms)), None)


def bloch_decompose(matrix) -> tuple[complex, np.ndarray]:
    """Project a 2x2 matrix onto the identity and Pauli basis.

    Returns ``(d0, d)`` with ``d0 = tr(M)/2`` and ``d_k = tr(sigma_k M)/2``,
    so ``M = d0*I + d . sigma``.  The real and imaginary parts of ``d``
    separate the Hermitian and anti-Hermitian drive vectors of a traceless
    Hamiltonian.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    d0 = 0.5 * (m[0, 0] + m[1, 1])
    d = np.array(
        [
            0.5 * (m[0, 1] + m[1, 0]),
            0.5j * (m[0, 1] - m[1, 0]),
            0.5 * (m[0, 0] - m[1, 1]),
        ],
        dtype=complex,
    )
    return complex(d0), d


def bloch_recompose(d0, d) -> np.ndarray:
    """Rebuild the 2x2 matrix ``d0*I + d . sigma``."""
    return d0 * np.eye(2) + matrix_from_bloch_vector(d)


def matrix_from_bloch_vector(d) -> np.ndarray:
    """Matrices ``d . sigma`` (traceless) for complex Bloch vectors of
    shape ``(..., 3)``; the result has shape ``(..., 2, 2)``."""
    d = np.asarray(d, dtype=complex)
    out = np.empty(d.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = d[..., 2]
    out[..., 0, 1] = d[..., 0] - 1.0j * d[..., 1]
    out[..., 1, 0] = d[..., 0] + 1.0j * d[..., 1]
    out[..., 1, 1] = -d[..., 2]
    return out


def _waveform_values(waveform: Waveform, theta):
    """Evaluate a waveform at phase ``theta`` (scalar or array).

    Square waves are the sign of the underlying sinusoid; exactly at a
    zero crossing the right-limit value is used.
    """
    if waveform is Waveform.CONSTANT:
        return np.ones_like(np.asarray(theta, dtype=float))
    if waveform is Waveform.COS:
        return np.cos(theta)
    if waveform is Waveform.SIN:
        return np.sin(theta)
    if waveform is Waveform.SQUARE_COS:
        s = np.sign(np.cos(theta))
        # right-limit at a crossing: cos leaves through the sign of -sin
        return np.where(s == 0.0, -np.sign(np.sin(theta)), s)
    if waveform is Waveform.SQUARE_SIN:
        s = np.sign(np.sin(theta))
        return np.where(s == 0.0, np.sign(np.cos(theta)), s)
    raise ValueError(f"unknown waveform {waveform!r}")


def bloch_vector_at(model: ModelSpec, t):
    """Complex Bloch vector ``d(t)`` of the model Hamiltonian.

    ``t`` may be a scalar or an array; the result has shape
    ``t.shape + (3,)``.  Models assembled from drive terms are traceless,
    so ``d`` fully determines ``H(t) = d(t) . sigma``.
    """
    t_arr = np.asarray(t, dtype=float)
    w = model.base_omega
    return _term_sum(
        model, t_arr, lambda term: _waveform_values(term.waveform, term.multiplier * w * t_arr)
    )


def bloch_phase_derivative(model: ModelSpec, t):
    """Exact derivative ``dd/dtheta`` of the Bloch vector in the drive
    phase ``theta = base_omega*t``, at the times ``t`` (shape as for
    :func:`bloch_vector_at`).

    A term ``cos(m*theta)`` gives ``-m*sin(m*theta)``, a term
    ``sin(m*theta)`` gives ``m*cos(m*theta)`` and a constant term nothing;
    a square-wave term of nonzero amplitude has no derivative (``ValueError``).
    """
    t_arr = np.asarray(t, dtype=float)
    w = model.base_omega

    def values(term):
        if term.waveform is Waveform.CONSTANT:
            return None
        if term.waveform not in SMOOTH_WAVEFORMS:
            raise ValueError(f"a {term.waveform.value} drive has no derivative")
        m = term.multiplier
        if term.waveform is Waveform.COS:
            return -m * np.sin(m * w * t_arr)
        return m * np.cos(m * w * t_arr)

    return _term_sum(model, t_arr, values)


def _term_sum(model: ModelSpec, t_arr, values_of):
    """Sum over the terms of amplitude times ``values_of(term)`` on the
    term's axis.  A term of amplitude 0, or whose values are None, adds
    nothing: the sum starts at +0, so adding a zero would not change a bit."""
    d = np.zeros(t_arr.shape + (3,), dtype=complex)
    for term in model.terms:
        values = values_of(term) if term.amplitude else None
        if values is not None:
            coeff = term.amplitude * values
            if term.hermiticity is Hermiticity.ANTI_HERMITIAN:
                coeff = 1.0j * coeff
            d[..., term.axis.value] += coeff
    return d


def hamiltonian_at(model: ModelSpec, t: float) -> np.ndarray:
    """Evaluate the model Hamiltonian ``H(t)`` as a 2x2 complex matrix."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return matrix_from_bloch_vector(bloch_vector_at(model, float(t)))


def orthogonality_check(model: ModelSpec, samples: int = 128) -> float:
    """Max over sampled times of |A(t) . B(t)| for ``d = A + iB``.

    A valid antilinear-symmetric model keeps the Hermitian and
    anti-Hermitian drive vectors orthogonal at all times, so the result
    is zero up to rounding (<= 1e-14 for the built-in presets).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    ts = np.arange(samples) * (model.period / samples)
    d = bloch_vector_at(model, ts)
    dots = np.einsum("tk,tk->t", d.real, d.imag)
    return float(np.max(np.abs(dots)))


# Every preset as data, per term: axis, hermiticity, waveform slot (the
# family's constant, cos or sin), harmonic (1 or beta) and gamma
# coefficient.  A coefficient of 0 marks the static coupling J; any other
# term has amplitude ``coef * gamma``, so every preset is affine in gamma.
_CONST, _COS, _SIN = range(3)
_BETA = "beta"
_H, _A = Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN
_PRESET_TABLE = {
    "pt-cosy-cosz": (
        (Axis.X, _H, _CONST, 1, 0.0),
        (Axis.Y, _H, _COS, 1, 1.0),
        (Axis.Z, _A, _COS, _BETA, -1.0),
    ),
    "pt-cosy-sinz": (
        (Axis.X, _H, _CONST, 1, 0.0),
        (Axis.Y, _H, _COS, 1, 1.0),
        (Axis.Z, _A, _SIN, _BETA, 1.0),
    ),
    "apt-cosx-cosy": (
        (Axis.X, _A, _COS, 1, 1.0),
        (Axis.Y, _A, _COS, _BETA, 1.0),
        (Axis.Z, _H, _CONST, 1, 0.0),
    ),
    "apt-cosx-siny": (
        (Axis.X, _A, _COS, 1, 1.0),
        (Axis.Y, _A, _SIN, _BETA, 1.0),
        (Axis.Z, _H, _CONST, 1, 0.0),
    ),
}
_FAMILY_WAVEFORMS = {
    "smooth": (Waveform.CONSTANT, Waveform.COS, Waveform.SIN),
    "square": (Waveform.CONSTANT, Waveform.SQUARE_COS, Waveform.SQUARE_SIN),
}

PRESET_NAMES = tuple(sorted(_PRESET_TABLE))


@dataclass(frozen=True)
class PresetTemplate:
    """One of the named two-frequency drive models, everything fixed but
    ``(gamma, omega)``; all four fields are checked here (``ValueError``).

    ``name`` is ``pt-cosy-cosz``, ``pt-cosy-sinz`` (a static X coupling
    ``J``, a Hermitian Y drive and an anti-Hermitian Z drive) or
    ``apt-cosx-cosy``, ``apt-cosx-siny`` (a static Z coupling, two
    anti-Hermitian drives).  The second drive runs at ``beta * omega``
    for an integer ``beta >= 1``; ``family`` is ``smooth`` for sinusoids,
    ``square`` for their sign (piecewise constant).  Sweeps evaluate the
    preset on its gamma split :meth:`parts`, or instantiate one
    :class:`ModelSpec` per grid cell where a route takes a model.
    """

    name: str
    J: float = 1.0
    beta: int = 1
    family: str = "smooth"

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}; known: {', '.join(PRESET_NAMES)}")
        if not _is_int(self.beta) or self.beta < 1:
            raise ValueError("beta must be a positive integer")
        if self.family not in ("smooth", "square"):
            raise ValueError(f"unknown waveform family {self.family!r} (use 'smooth' or 'square')")
        if not math.isfinite(self.J):
            raise ValueError("J must be finite")

    def instantiate(self, gamma: float, omega: float) -> ModelSpec:
        """The model at drive strength ``gamma`` and base frequency ``omega``."""
        waveforms = _FAMILY_WAVEFORMS[self.family]
        terms = tuple(
            DriveTerm(axis, coef * gamma if coef else self.J, waveforms[slot],
                      self.beta if harmonic is _BETA else harmonic, hermiticity)
            for axis, hermiticity, slot, harmonic, coef in _PRESET_TABLE[self.name]
        )
        label = (f"{self.name}[J={self.J:g},gamma={gamma:g},omega={omega:g},"
                 f"beta={self.beta},{self.family}]")
        return ModelSpec(terms=terms, base_omega=omega, label=label)

    def parts(self) -> tuple[ModelSpec, ModelSpec]:
        """The gamma split ``(static, slope)``, both at omega 1: the model
        at gamma 0, and the model at gamma 1 with ``J = 0``, whose drives
        have their table coefficients as amplitudes.  Any quantity linear
        in the amplitudes is then ``q(static) + gamma * q(slope)``."""
        return self.instantiate(0.0, 1.0), replace(self, J=0.0).instantiate(1.0, 1.0)

    @property
    def label(self) -> str:
        return f"{self.name}[J={self.J:g},beta={self.beta},{self.family}]"


def preset(
    name: str,
    J: float = 1.0,
    gamma: float = 0.5,
    omega: float = 1.0,
    beta: int = 1,
    family: str = "smooth",
) -> ModelSpec:
    """Build one of the named drive models at one ``(gamma, omega)``;
    the parameters are those of :class:`PresetTemplate`."""
    return PresetTemplate(name, J, beta, family).instantiate(gamma, omega)
