"""Steady-state quantum correlations of a cavity magnomechanical system driven
through a squeezed magnon mode.

The package computes the steady covariance matrix of the linearized
three-mode dynamics (microwave cavity, magnon, phonon), extracts bipartite
and tripartite entanglement measures, and quantifies how strongly they
depend on the squeezing phase through bidirectional contrast ratios.
"""

from .analysis import (
    ContrastRecord,
    DirectionalPoint,
    Evaluation,
    ModePair,
    PhasePairing,
    SweepResult,
    bipartite_entanglement,
    contrast_ratio,
    directional_measures,
    evaluate,
    steady_state,
    sweep,
    temperature_thresholds,
)
from .errors import (
    ConfigError,
    InvalidInputError,
    InvalidStateError,
    MagsqueezeError,
    NoMeasuresError,
    NoSteadyStateError,
    NumericalError,
    ParametricResonanceError,
)
from .gaussian import (
    CovarianceMatrix,
    Partition,
    PhysicalityReport,
    check_physicality,
    contangle,
    log_negativity,
    min_residual_contangle,
    partial_transpose,
    residual_contangle,
    symplectic_eigenvalues,
    symplectic_form,
    wigner_single_mode,
)
from .model import (
    SystemParams,
    ValidityReport,
    build_diffusion,
    build_drift,
    rabi_frequency,
    thermal_occupation,
    total_spins,
    validity_report,
)
from .solver import StabilityReport, evolve_covariance, solve_lyapunov, stability

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MagsqueezeError",
    "InvalidInputError",
    "InvalidStateError",
    "ConfigError",
    "NoSteadyStateError",
    "ParametricResonanceError",
    "NoMeasuresError",
    "NumericalError",
    "CovarianceMatrix",
    "Partition",
    "PhysicalityReport",
    "symplectic_form",
    "symplectic_eigenvalues",
    "partial_transpose",
    "log_negativity",
    "contangle",
    "residual_contangle",
    "min_residual_contangle",
    "wigner_single_mode",
    "check_physicality",
    "SystemParams",
    "ValidityReport",
    "thermal_occupation",
    "total_spins",
    "rabi_frequency",
    "build_drift",
    "build_diffusion",
    "validity_report",
    "StabilityReport",
    "stability",
    "solve_lyapunov",
    "evolve_covariance",
    "ModePair",
    "PhasePairing",
    "DirectionalPoint",
    "ContrastRecord",
    "SweepResult",
    "bipartite_entanglement",
    "contrast_ratio",
    "directional_measures",
    "Evaluation",
    "evaluate",
    "steady_state",
    "sweep",
    "temperature_thresholds",
]
