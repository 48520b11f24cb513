"""Memristive Hopfield network simulation and synchronization verification."""

from .model import (
    ActivationSpec,
    HebbianParams,
    MhnnParams,
    NetworkState,
    ParameterError,
    hebbian_rhs,
    mhnn_rhs,
    sigmoid_gamma,
    window_eval,
)
from .constants import (
    DerivedConstants,
    Extremes,
    Threshold,
    absorb_time,
    derive_constants,
    derive_extremes,
    dissipative_envelope,
    gap_envelope,
    gap_residual,
    sync_rate,
    threshold,
)
from .integrate import (
    AttemptLimitError,
    BlowUpError,
    IntegratorConfig,
    StepSizeUnderflowError,
    Trajectory,
    integrate,
)
from .analysis import (
    EnsembleSpec,
    SyncReport,
    UndefinedFitError,
    estimate_sync_degree,
    fit_decay_rate,
    integrate_ensemble,
    pairwise_gap_series,
    sweep_coupling,
    verify_guarantees,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationSpec", "HebbianParams", "MhnnParams", "NetworkState", "ParameterError",
    "hebbian_rhs", "mhnn_rhs", "sigmoid_gamma", "window_eval",
    "DerivedConstants", "Extremes", "Threshold", "absorb_time", "derive_constants",
    "derive_extremes", "dissipative_envelope", "gap_envelope", "gap_residual",
    "sync_rate", "threshold",
    "AttemptLimitError", "BlowUpError", "IntegratorConfig", "StepSizeUnderflowError",
    "Trajectory", "integrate",
    "EnsembleSpec", "SyncReport", "UndefinedFitError", "estimate_sync_degree",
    "fit_decay_rate", "integrate_ensemble", "pairwise_gap_series", "sweep_coupling",
    "verify_guarantees",
]
