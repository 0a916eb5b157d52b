"""Simulation and analysis toolkit for time-bin entangled photon pairs.

Analytic state machinery, a pulse-level Monte Carlo of the full
source / fiber / analyzer / detector chain, and the fringe-fit reduction
that turns phase scans into visibilities.
"""

__version__ = "0.1.0"

from .analysis import (
    DegenerateScanError,
    FitResult,
    FringePoint,
    FringeScan,
    bootstrap_visibility_sigma,
    fit_fringe,
    subtract_accidentals,
    visibility_vs_entanglement_curve,
    visibility_vs_mu_curve,
)
from .apparatus import (
    CoincidenceWindows,
    DetectorSpec,
    InterferometerSpec,
)
from .engine import (
    CoincidenceHistogram,
    ConfigurationError,
    ExperimentConfig,
    RunResult,
    expected_tallies,
    fringe_phase,
    run_phase_scan,
    run_pulses,
)
from .fiber import (
    FiberSpec,
    apply_phase_jitter,
    bin_overlap_probability,
    broadened_pulse_width,
    dispersion_spread,
    survival_probability,
)
from .source import (
    PUMP_PULSE_SIGMA_S,
    SourceConfig,
    estimate_mu,
    multipair_visibility,
    state_from_attenuations,
)
from .states import (
    AnalyzerState,
    TimeBinState,
    coincidence_probability,
    entropy_of_entanglement,
    evolve_through_analyzer,
    ideal_visibility,
)

__all__ = [
    "AnalyzerState",
    "CoincidenceHistogram",
    "CoincidenceWindows",
    "ConfigurationError",
    "DegenerateScanError",
    "DetectorSpec",
    "ExperimentConfig",
    "FiberSpec",
    "FitResult",
    "FringePoint",
    "FringeScan",
    "InterferometerSpec",
    "PUMP_PULSE_SIGMA_S",
    "RunResult",
    "SourceConfig",
    "TimeBinState",
    "apply_phase_jitter",
    "bin_overlap_probability",
    "bootstrap_visibility_sigma",
    "broadened_pulse_width",
    "coincidence_probability",
    "dispersion_spread",
    "entropy_of_entanglement",
    "estimate_mu",
    "evolve_through_analyzer",
    "expected_tallies",
    "fit_fringe",
    "fringe_phase",
    "ideal_visibility",
    "multipair_visibility",
    "run_phase_scan",
    "run_pulses",
    "state_from_attenuations",
    "subtract_accidentals",
    "survival_probability",
    "visibility_vs_entanglement_curve",
    "visibility_vs_mu_curve",
]
