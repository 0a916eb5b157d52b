"""Simulation and analysis toolkit for time-bin entangled photon pairs.

Analytic state machinery, a pulse-level Monte Carlo of the full
source / fiber / analyzer / detector chain, and the fringe-fit reduction
that turns phase scans into visibilities.

Everything is plain Python: the package needs no third-party module.
The exported names are loaded from their submodules on first use
(PEP 562), so ``import timebin`` alone imports no submodule.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "CoincidenceHistogram": "engine",
    "CoincidenceWindows": "apparatus",
    "ConfigurationError": "engine",
    "DegenerateScanError": "analysis",
    "DetectorSpec": "apparatus",
    "ExperimentConfig": "engine",
    "FiberSpec": "fiber",
    "FitResult": "analysis",
    "FringePoint": "analysis",
    "InterferometerSpec": "apparatus",
    "RunResult": "engine",
    "SourceConfig": "source",
    "TimeBinState": "states",
    "apply_phase_jitter": "fiber",
    "broadened_pulse_width": "fiber",
    "dispersion_spread": "fiber",
    "entropy_of_entanglement": "states",
    "estimate_mu": "source",
    "expected_tallies": "engine",
    "fit_fringe": "analysis",
    "fringe_phase": "engine",
    "ideal_visibility": "states",
    "multipair_visibility": "source",
    "run_phase_scan": "engine",
    "run_pulses": "engine",
    "state_from_attenuations": "source",
    "subtract_accidentals": "analysis",
    "survival_probability": "fiber",
    "visibility_vs_entanglement_curve": "analysis",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
