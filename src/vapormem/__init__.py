"""Deterministic simulator of a multiplexed random-access vapor memory.

The package is organized as:

* :mod:`vapormem.core`: domain types and calibrated defaults
* :mod:`vapormem.physics`: diffusion, steering, overlap and depletion math
* :mod:`vapormem.engine`: the event-driven memory state machine
* :mod:`vapormem.seqlang`: the sequence file format and its validator
* :mod:`vapormem.harness`: scans, fits, criteria and the Monte Carlo oracle
* :mod:`vapormem.cli`: the ``vapormem`` command-line tool
"""

from .core import (
    DomainError,
    DuplicateRailError,
    FitResult,
    OpKind,
    Operation,
    OutOfBandError,
    ParamError,
    PhysicsParams,
    RailCalibration,
    Sequence,
    SpinWaveComponent,
    TimeOrderError,
    Trace,
    TraceEvent,
    UnknownRailError,
    VaporMemError,
    default_params,
    default_rails,
)
from .engine import Memory, render_waveform, run_sequence
from .harness import (
    CriteriaReport,
    CriterionCheck,
    ScanResult,
    check_criteria,
    extrapolate_efficiency,
    fit_exponential,
    monte_carlo_overlap,
    monte_carlo_overlaps,
    random_access_sequence,
    scan_crosstalk,
    scan_lifetime,
    weighted_mean,
)
from .physics import (
    aod_efficiency,
    depletion_fraction,
    diffusion_coefficient,
    overlap_factor,
    rail_position_um,
    read_sampling_variance_um2,
    spread_variance_um2,
    transit_time_us,
)
from .seqlang import Diagnostic, ParseError, ValidationFailure, format_sequence, parse, validate

__version__ = "0.1.0"

__all__ = [
    "DomainError", "DuplicateRailError", "FitResult", "OpKind", "Operation",
    "OutOfBandError", "ParamError", "PhysicsParams", "RailCalibration",
    "Sequence", "SpinWaveComponent", "TimeOrderError", "Trace", "TraceEvent",
    "UnknownRailError", "VaporMemError", "default_params", "default_rails",
    "Memory", "render_waveform", "run_sequence",
    "CriteriaReport", "CriterionCheck", "ScanResult", "check_criteria",
    "extrapolate_efficiency", "fit_exponential", "monte_carlo_overlap",
    "monte_carlo_overlaps", "random_access_sequence", "scan_crosstalk",
    "scan_lifetime", "weighted_mean", "aod_efficiency", "depletion_fraction",
    "diffusion_coefficient", "overlap_factor",
    "rail_position_um", "read_sampling_variance_um2", "spread_variance_um2",
    "transit_time_us", "Diagnostic", "ParseError",
    "ValidationFailure", "format_sequence", "parse", "validate",
    "__version__",
]
