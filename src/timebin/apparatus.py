"""Apparatus specifications: analyzer interferometers and detectors.

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
coincidence is two clicks in the central window of the same pump period;
the windows' width is ``ExperimentConfig.window_width_s``, next to the bin
separation it must stay below.  Dead time is not modelled: each detector
registers at most one click per pump period and carries nothing over to
the next period.

These classes only describe the apparatus; the detector-gate model that
draws clicks and classifies them into windows lives in ``engine``.  Their
field defaults are the shipped apparatus, and the only copy of it:
``config_io`` fills every key a document leaves out from them.
"""

from __future__ import annotations

from .record import Fraction, NonNegative, Record
from .states import wrap_phase


class InterferometerSpec(Record):
    """One analyzer interferometer.

    ``circulator_loss_db`` only applies to the circulator-side detector
    path of a folded setup; ``ExperimentConfig`` stores it as 0 in the
    independent one.  Phases are stored modulo 2*pi.
    """

    phi_analyzer: float = 0.0
    excess_loss_db: NonNegative = 1.0
    circulator_loss_db: NonNegative = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi_analyzer", wrap_phase(self.phi_analyzer))


class DetectorSpec(Record):
    """Geiger-mode avalanche photodiode parameters."""

    efficiency: Fraction = 0.25
    dark_rate_cps: NonNegative = 4.5e5
    jitter_rms_s: NonNegative = 100e-12
