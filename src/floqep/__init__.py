"""Stability maps, EP contours, and complex geometric phases for driven
two-level non-Hermitian Hamiltonians."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Axis,
    DriveTerm,
    Hermiticity,
    ModelSpec,
    PresetTemplate,
    Waveform,
    bloch_decompose,
    bloch_recompose,
    bloch_vector_at,
    hamiltonian_at,
    orthogonality_check,
    preset,
    PRESET_NAMES,
)
from .propagator import (  # noqa: F401
    EPKind,
    MonodromyResult,
    ep_indicator,
    expm_two_level,
    monodromy,
    quasienergy_from_trace,
    segment_hamiltonians,
)
from .floquet import (  # noqa: F401
    FloquetMatrix,
    QuasienergySpectrum,
    TruncationError,
    build_floquet_matrix,
    complex_eigenvalues,
    convergence_check,
    fold_spectrum,
    fourier_components,
    max_im_quasienergy,
)
from .berry import (  # noqa: F401
    BerryPhaseResult,
    DefectivePointError,
    EPOnPathError,
    SpectralRegion,
    SpectrumRegionScan,
    berry_phase_loop,
    half_solid_angle,
    spectral_phase_loop,
    spectrum_region_scan,
    wilson_loop_phase,
)
from .sweep import (  # noqa: F401
    BerrySweep,
    EPContourSet,
    FailureBudgetExceeded,
    GridSpec,
    PhaseDiagram,
    berry_gamma_sweep,
    instability_window,
    load,
    persist,
    phase_diagram,
    trace_ep_contours,
)
