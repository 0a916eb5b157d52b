"""Pulsed pair source: pump interferometer, amplitude control, pair statistics.

The source is a pulsed laser driving a nonlinear waveguide through an
unbalanced interferometer.  Attenuating one pump arm reweights the two
time-bin amplitudes without touching the mean pair rate; the number of
pairs per pulse is Poissonian, and multi-pair pulses wash out the
coincidence fringe because only same-pair detections interfere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from .states import TimeBinState

# 100 ps full width at half maximum, expressed as an RMS width.
PUMP_PULSE_SIGMA_S = 100e-12 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

_SERIES_RTOL = 1e-15
_SERIES_MAX_TERMS = 200
_ASYMPTOTIC_MU = 50.0


@dataclass(frozen=True)
class SourceConfig:
    """Pulsed source settings.

    ``mean_pairs`` is the mean number of photon pairs per pump pulse.
    ``arm_attenuation_a`` / ``_b`` are linear power transmissions of the
    short and long pump arms; ``bin_separation_s`` is the pump
    interferometer delay separating the two time bins.
    """

    rep_rate_hz: float = 8.0e7
    mean_pairs: float = 0.005
    arm_attenuation_a: float = 1.0
    arm_attenuation_b: float = 1.0
    phi_pump: float = 0.0
    bin_separation_s: float = 1.2e-9
    pulse_width_s: float = PUMP_PULSE_SIGMA_S

    def __post_init__(self) -> None:
        if self.rep_rate_hz <= 0.0:
            raise ValueError("rep_rate_hz must be positive")
        if self.mean_pairs < 0.0:
            raise ValueError("mean_pairs must be non-negative")
        for t in (self.arm_attenuation_a, self.arm_attenuation_b):
            if not 0.0 <= t <= 1.0:
                raise ValueError("arm attenuations must lie in [0, 1]")
        if self.pulse_width_s <= 0.0:
            raise ValueError("pulse_width_s must be positive")
        if self.pulse_width_s >= self.bin_separation_s:
            raise ValueError("pulse width must be short compared to the bin separation")

    def state(self) -> TimeBinState:
        """Emitted pair state for the configured arm attenuations."""
        return state_from_attenuations(
            self.arm_attenuation_a, self.arm_attenuation_b, self.phi_pump
        )


def state_from_attenuations(t_a: float, t_b: float, phi_pump: float = 0.0) -> TimeBinState:
    """Pair state produced with pump-arm power transmissions t_a, t_b.

    The pair amplitude follows the pump field amplitude, i.e. the square
    root of the transmitted power, renormalised so alpha^2 + beta^2 = 1.
    """
    if not 0.0 <= t_a <= 1.0 or not 0.0 <= t_b <= 1.0:
        raise ValueError("attenuations must lie in [0, 1]")
    total = t_a + t_b
    if total <= 0.0:
        raise ValueError("at least one pump arm must transmit")
    return TimeBinState(
        alpha=math.sqrt(t_a / total),
        beta=math.sqrt(t_b / total),
        phi_pump=phi_pump,
    )


def multipair_visibility(mu: float, v_max: float = 1.0) -> float:
    """Fringe visibility left after Poissonian multi-pair emission.

    Evaluates v_max * exp(-mu)/(1 - exp(-mu)) * sum_{n>=1} mu^n / (n! n),
    which is v_max times the mean of 1/n over pulses with at least one
    pair.  The series is truncated once a term drops below 1e-15 of the
    running sum.  Continuous in mu with limit v_max as mu -> 0+.  From
    mu = 50 on, where the series needs ever more terms and overflows past
    mu ~ 700, the asymptotic expansion sum_k k! / mu^(k+1) is summed
    instead; its smallest term and the dropped exp(-mu) part both lie
    below 1e-20 there.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive; the mu -> 0 limit is v_max")
    if not 0.0 <= v_max <= 1.0:
        raise ValueError("v_max must lie in [0, 1]")
    if mu >= _ASYMPTOTIC_MU:
        term = total = 1.0
        k = 0
        while term >= _SERIES_RTOL * total:
            k += 1
            term *= k / mu
            total += term
        return v_max * total / mu
    term = mu
    total = term
    n = 1
    while n < _SERIES_MAX_TERMS:
        n += 1
        term *= mu * (n - 1) / (n * n)
        total += term
        if term < _SERIES_RTOL * total:
            break
    # total / (1 - exp(-mu)) first: 1 / (1 - exp(-mu)) overflows for subnormal mu.
    return v_max * math.exp(-mu) * (total / -math.expm1(-mu))


def estimate_mu(s1: float, s2: float, rc: float, f: float) -> float:
    """Mean pair number inferred from singles rates and coincidence rate.

    Returns s1 * s2 / (4 * rc * f) for singles rates s1, s2, average
    central-bin coincidence rate rc, and pulse rate f.  Collection and
    detection efficiencies cancel.  The estimate ignores multi-pair and
    dark-count corrections, so treat it as approximate once the true mean
    pair number exceeds roughly 0.3.
    """
    if s1 <= 0.0 or s2 <= 0.0 or rc <= 0.0 or f <= 0.0:
        raise ValueError("all rates must be positive")
    return s1 * s2 / (4.0 * rc * f)
