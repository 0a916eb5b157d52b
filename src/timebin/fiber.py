"""Fiber transmission effects: loss, dispersive broadening, phase wander.

Loss scales count rates; chromatic dispersion spreads arrival times until
neighbouring time bins overlap (time-bin flips); slow phase drift between
preparation and measurement washes the fringe.  Operating at the
zero-dispersion wavelength leaves only the second-order spread across the
filter passband.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FiberSpec:
    """Single fiber span plus the spectral filter in front of it.

    Units are carried in the field names.  ``phase_jitter_rms`` is the RMS
    relative-phase wander between the two time bins accumulated over one
    integration window; it models interferometer and laser stability
    rather than the fiber itself, so it applies at zero length too.
    """

    length_km: float = 0.0
    attenuation_db_per_km: float = 0.35
    dispersion_slope_ps_nm2_km: float = 0.092
    zero_dispersion_wavelength_nm: float = 1314.0
    center_wavelength_nm: float = 1314.0
    filter_bandwidth_nm: float = 40.0
    phase_jitter_rms: float = 0.23

    def __post_init__(self) -> None:
        if self.length_km < 0.0:
            raise ValueError("length_km must be non-negative")
        if self.attenuation_db_per_km < 0.0:
            raise ValueError("attenuation_db_per_km must be non-negative")
        if self.filter_bandwidth_nm <= 0.0:
            raise ValueError("filter_bandwidth_nm must be positive")
        if self.phase_jitter_rms < 0.0:
            raise ValueError("phase_jitter_rms must be non-negative")
        if not math.isfinite(dispersion_spread(self)):
            raise ValueError("dispersion spread overflows: wavelengths or bandwidth out of range")


def survival_probability(fiber: FiberSpec) -> float:
    """Probability a photon survives the span: 10^(-attenuation*length/10)."""
    return 10.0 ** (-fiber.attenuation_db_per_km * fiber.length_km / 10.0)


def dispersion_spread(fiber: FiberSpec) -> float:
    """RMS arrival-time spread from chromatic dispersion, in seconds.

    The group delay at wavelength offset x from the zero-dispersion point
    is L * S0 * x^2 / 2 for dispersion slope S0 linearised about that
    point.  Averaging over a Gaussian spectrum of RMS width sigma centred
    at offset xc gives an RMS delay spread of

        L * S0 * sigma * sqrt(xc^2 + sigma^2 / 2).

    The mean delay is a common offset removed by detection timing and does
    not broaden anything.
    """
    sigma_nm = fiber.filter_bandwidth_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    xc = fiber.center_wavelength_nm - fiber.zero_dispersion_wavelength_nm
    spread_ps = (
        fiber.length_km
        * fiber.dispersion_slope_ps_nm2_km
        * sigma_nm
        * math.sqrt(xc * xc + 0.5 * sigma_nm * sigma_nm)
    )
    return spread_ps * 1e-12


def broadened_pulse_width(fiber: FiberSpec, input_width_s: float) -> float:
    """RMS arrival-time width after the span: quadrature sum with dispersion."""
    if input_width_s <= 0.0:
        raise ValueError("input_width_s must be positive")
    spread = dispersion_spread(fiber)
    return math.hypot(input_width_s, spread)


def bin_overlap_probability(width_s: float, bin_separation_s: float) -> float:
    """Probability a Gaussian-broadened photon leaks past the bin midpoint.

    Two-sided tail beyond half the bin separation, 2 * Phi(-sep / (2 w)),
    clipped to [0, 1).  This is the time-bin flip probability for a photon
    whose arrival spread has grown to RMS width w.
    """
    if width_s <= 0.0 or bin_separation_s <= 0.0:
        raise ValueError("width and separation must be positive")
    z = bin_separation_s / (2.0 * width_s)
    p = math.erfc(z / math.sqrt(2.0))
    return min(p, math.nextafter(1.0, 0.0))


def apply_phase_jitter(visibility: float, jitter_rms: float) -> float:
    """Visibility left after Gaussian phase wander: V * exp(-sigma^2 / 2)."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if jitter_rms < 0.0:
        raise ValueError("jitter_rms must be non-negative")
    return visibility * math.exp(-0.5 * jitter_rms * jitter_rms)
