"""Apparatus specifications: analyzer interferometers, detectors, windows.

The analyzer is an unbalanced interferometer whose delay is the pump's
bin separation (``SourceConfig.bin_separation_s``, the one copy of it).
In the folded arrangement both photons traverse the same device and are
detected on its two output ports, one reached through a circulator; in
the independent arrangement each photon gets its own interferometer.  The
number of devices in ``ExperimentConfig.analyzers`` is the arrangement.
Either way each photon reaches its assigned detector through a 50/50
output split, a flat factor of two per photon on post-selected rates.

Detectors click on an arriving photon with their quantum efficiency, fire
spontaneously at the dark rate, and time-stamp with Gaussian jitter.  A
coincidence is two clicks in the central window of the same pump period.
Dead time is not modelled: each detector registers at most one click per
pump period and carries nothing over to the next period.

These classes only describe the apparatus; the detector-gate model that
draws clicks and classifies them into windows lives in ``engine``.  Their
field defaults are the shipped apparatus, and the only copy of it:
``config_io`` fills every key a document leaves out from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class InterferometerSpec:
    """One analyzer interferometer.

    ``circulator_loss_db`` only applies to the circulator-side detector
    path of a folded setup.  Phases are stored modulo 2*pi.
    """

    phi_analyzer: float = 0.0
    excess_loss_db: float = 1.0
    circulator_loss_db: float = 1.0

    def __post_init__(self) -> None:
        if self.excess_loss_db < 0.0 or self.circulator_loss_db < 0.0:
            raise ValueError("losses must be non-negative")
        object.__setattr__(self, "phi_analyzer", self.phi_analyzer % _TWO_PI)


@dataclass(frozen=True)
class DetectorSpec:
    """Geiger-mode avalanche photodiode parameters."""

    efficiency: float = 0.25
    dark_rate_cps: float = 4.5e5
    jitter_rms_s: float = 100e-12

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if min(self.dark_rate_cps, self.jitter_rms_s) < 0.0:
            raise ValueError("detector parameters must be non-negative")


@dataclass(frozen=True)
class CoincidenceWindows:
    """Three half-open windows centred on the expected arrival-time peaks.

    Peaks sit at 0, d and 2*d relative to the pump clock, d being the
    source's bin separation.  Windows are [center - w/2, center + w/2);
    ``ExperimentConfig`` checks that w < d, so they do not overlap.
    """

    window_width_s: float = 400e-12

    def __post_init__(self) -> None:
        if self.window_width_s <= 0.0:
            raise ValueError("window_width_s must be positive")
