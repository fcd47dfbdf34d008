"""Balanced truncation toolkit for continuous-time linear switched systems.

Pipeline: build or load an :class:`LssModel`, solve its coupled Gramian
equations, balance each mode, truncate to per-mode target orders, then
check the guaranteed output-error bound against time-domain simulation.
Dwell-time and exponential-stability certificates quantify when the
guarantees apply.
"""

from .analysis import (
    DwellTimeCertificate,
    StabilityCertificate,
    certificates,
    dwell_time,
    stability_certificate,
)
from .balancing import (
    BalancedRealization,
    ReductionPlan,
    balance,
    balance_average,
    error_bound,
    truncate,
)
from .errors import (
    AssumptionError,
    BalancingError,
    ConvergenceError,
    DimensionError,
    LssError,
    ModelFormatError,
    StabilityError,
)
from .gramians import (
    CoupledSolution,
    GramianSet,
    SolveDiagnostics,
    check_existence,
    compute_gramians,
    solve_coupled,
    solve_lyapunov,
)
from .model import (
    LssModel,
    ModeSystem,
    SwitchingSignal,
    ValidationReport,
    validate_model,
)
from .modelio import load_model, model_from_dict, model_to_dict, save_model
from .sample_models import random_stable_model, three_mode_model
from .simulation import (
    InputSignal,
    Trajectory,
    input_l2,
    output_l2_error,
    random_dwell_signal,
    simulate,
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
    "GramianSet",
    "InputSignal",
    "LssError",
    "LssModel",
    "ModeSystem",
    "ModelFormatError",
    "ReductionPlan",
    "SolveDiagnostics",
    "StabilityCertificate",
    "StabilityError",
    "SwitchingSignal",
    "Trajectory",
    "ValidationReport",
    "balance",
    "balance_average",
    "certificates",
    "check_existence",
    "compute_gramians",
    "dwell_time",
    "error_bound",
    "input_l2",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "output_l2_error",
    "random_dwell_signal",
    "random_stable_model",
    "save_model",
    "simulate",
    "solve_coupled",
    "solve_lyapunov",
    "stability_certificate",
    "three_mode_model",
    "truncate",
    "validate_model",
]
