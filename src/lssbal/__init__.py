"""Balanced truncation toolkit for continuous-time linear switched systems.

Pipeline: build or load an :class:`LssModel`, solve its coupled Gramian
equations, balance each mode, truncate to per-mode target orders, then
check the guaranteed output-error bound against time-domain simulation.
Dwell-time and exponential-stability certificates quantify when the
guarantees apply.
"""

from .analysis import (
    DwellTimeCertificate,
    EnergyBoundReport,
    RelaxedGramianReport,
    StabilityCertificate,
    certificates,
    dwell_time,
    stability_certificate,
    verify_energy_bounds,
    verify_relaxed_gramians,
)
from .balancing import (
    BalancedRealization,
    ReductionPlan,
    balance,
    balance_average,
    error_bound,
    square_factor,
    truncate,
)
from .errors import (
    AssumptionError,
    BalancingError,
    ConvergenceError,
    DimensionError,
    LssError,
    ModelFormatError,
    SingularMatrixError,
    StabilityError,
)
from .gramians import (
    CoupledSolution,
    ExistenceReport,
    GramianSet,
    check_existence,
    compute_gramians,
    level_k_gramians,
    solve_coupled,
    solve_lyapunov,
    spectral_abscissa,
)
from .model import (
    EquivalenceTransform,
    LssModel,
    ModeSystem,
    SwitchingSignal,
    ValidationReport,
    apply_equivalence,
    normalize_descriptor,
    validate_model,
)
from .modelio import load_model, model_from_dict, model_to_dict, save_model
from .sample_models import random_stable_model, three_mode_model
from .simulation import (
    InputSignal,
    Trajectory,
    frequency_response,
    input_l2,
    output_l2_error,
    random_dwell_signal,
    simulate,
    transfer_eval,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "BalancedRealization",
    "BalancingError",
    "ConvergenceError",
    "CoupledSolution",
    "DimensionError",
    "DwellTimeCertificate",
    "EnergyBoundReport",
    "EquivalenceTransform",
    "ExistenceReport",
    "GramianSet",
    "InputSignal",
    "LssError",
    "LssModel",
    "ModeSystem",
    "ModelFormatError",
    "ReductionPlan",
    "RelaxedGramianReport",
    "SingularMatrixError",
    "StabilityCertificate",
    "StabilityError",
    "SwitchingSignal",
    "Trajectory",
    "ValidationReport",
    "apply_equivalence",
    "balance",
    "balance_average",
    "certificates",
    "check_existence",
    "compute_gramians",
    "dwell_time",
    "error_bound",
    "frequency_response",
    "input_l2",
    "level_k_gramians",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "normalize_descriptor",
    "output_l2_error",
    "random_dwell_signal",
    "random_stable_model",
    "save_model",
    "simulate",
    "solve_coupled",
    "solve_lyapunov",
    "spectral_abscissa",
    "square_factor",
    "stability_certificate",
    "three_mode_model",
    "transfer_eval",
    "truncate",
    "validate_model",
    "verify_energy_bounds",
    "verify_relaxed_gramians",
]
