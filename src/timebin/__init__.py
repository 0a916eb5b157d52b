"""Simulation and analysis toolkit for time-bin entangled photon pairs.

Analytic state machinery, runs drawn once from the exact per-pulse
outcome law of the source / fiber / analyzer / detector chain, and the
fringe-fit reduction that turns phase scans into visibilities.

Everything is plain Python: the package needs no third-party module.
"""

__version__ = "0.1.0"

from .analysis import (
    DegenerateScanError, FitResult, FringePoint, fit_fringe, subtract_accidentals,
    visibility_vs_entanglement_curve,
)
from .apparatus import DetectorSpec, InterferometerSpec
from .engine import (
    CoincidenceHistogram, ExperimentConfig, RunResult, expected_histograms, expected_tallies,
    fringe_phase, run_histograms, run_phase_scan, run_pulses,
)
from .fiber import (
    FiberSpec, apply_phase_jitter, broadened_pulse_width, dispersion_spread, survival_probability,
)
from .source import SourceConfig, estimate_mu, multipair_visibility, state_from_attenuations
from .states import TimeBinState, entropy_of_entanglement, ideal_visibility

__all__ = [
    "CoincidenceHistogram", "DegenerateScanError", "DetectorSpec", "ExperimentConfig",
    "FiberSpec", "FitResult", "FringePoint", "InterferometerSpec", "RunResult",
    "SourceConfig", "TimeBinState", "apply_phase_jitter", "broadened_pulse_width",
    "dispersion_spread", "entropy_of_entanglement", "estimate_mu", "expected_histograms",
    "expected_tallies", "fit_fringe", "fringe_phase", "ideal_visibility", "multipair_visibility",
    "run_histograms", "run_phase_scan", "run_pulses", "state_from_attenuations",
    "subtract_accidentals", "survival_probability", "visibility_vs_entanglement_curve",
]
