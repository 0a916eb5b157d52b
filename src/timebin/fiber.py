"""Fiber transmission effects: loss, dispersive broadening, phase wander.

Loss scales count rates; chromatic dispersion spreads arrival times until
neighbouring time bins overlap (time-bin flips); slow phase drift between
preparation and measurement washes the fringe.  Operating at the
zero-dispersion wavelength leaves only the second-order spread across the
filter passband.
"""

from __future__ import annotations

import math
from .record import NonNegative, Positive, Record, check


class FiberSpec(Record):
    """Single fiber span plus the spectral filter in front of it.

    Units are carried in the field names.  ``phase_jitter_rms`` is the RMS
    relative-phase wander between the two time bins accumulated over one
    integration window; it models interferometer and laser stability
    rather than the fiber itself, so it applies at zero length too.
    """

    length_km: NonNegative = 0.0
    attenuation_db_per_km: NonNegative = 0.35
    dispersion_slope_ps_nm2_km: float = 0.092
    zero_dispersion_wavelength_nm: float = 1314.0
    center_wavelength_nm: float = 1314.0
    filter_bandwidth_nm: Positive = 40.0
    phase_jitter_rms: NonNegative = 0.23

    def __post_init__(self) -> None:
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
    check("Positive", input_width_s=input_width_s)
    return math.hypot(input_width_s, dispersion_spread(fiber))


def apply_phase_jitter(visibility: float, jitter_rms: float) -> float:
    """Visibility left after Gaussian phase wander: V * exp(-sigma^2 / 2)."""
    check("Fraction", visibility=visibility)
    check("NonNegative", jitter_rms=jitter_rms)
    return visibility * math.exp(-0.5 * jitter_rms * jitter_rms)
