"""Pulsed pair source: pump interferometer, amplitude control, pair statistics.

The source is a pulsed laser driving a nonlinear waveguide through an
unbalanced interferometer.  Attenuating one pump arm reweights the two
time-bin amplitudes without touching the mean pair rate; the number of
pairs per pulse is Poissonian, and multi-pair pulses wash out the
coincidence fringe because only same-pair detections interfere.
"""

from __future__ import annotations

import math
from .record import Fraction, NonNegative, Positive, Record, check, quote
from .states import TimeBinState, wrap_phase

# 100 ps full width at half maximum as an RMS width, to five digits
# (100 ps / (2 sqrt(2 ln 2)) = 42.46609 ps).
PUMP_PULSE_SIGMA_S = 42.466e-12

_SERIES_RTOL = 1e-15
_SERIES_MAX_TERMS = 200
_ASYMPTOTIC_MU = 50.0


class SourceConfig(Record):
    """Pulsed source settings.

    ``mean_pairs`` is the mean number of photon pairs per pump pulse.
    ``arm_attenuation_a`` / ``_b`` are linear power transmissions of the
    short and long pump arms; ``bin_separation_s`` is the pump
    interferometer delay separating the two time bins.  ``phi_pump`` is
    stored modulo 2*pi, as the analyzer phases are.
    """

    rep_rate_hz: Positive = 8.0e7
    mean_pairs: NonNegative = 0.005
    arm_attenuation_a: Fraction = 1.0
    arm_attenuation_b: Fraction = 1.0
    phi_pump: float = 0.0
    bin_separation_s: float = 1.2e-9
    pulse_width_s: Positive = PUMP_PULSE_SIGMA_S

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi_pump", wrap_phase(self.phi_pump))
        self.state()  # checks that one arm transmits
        if not self.pulse_width_s < self.bin_separation_s:
            raise ValueError(f"pulse_width_s {quote(self.pulse_width_s)} must be below"
                             f" bin_separation_s {quote(self.bin_separation_s)}")

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
    check("Fraction", t_a=t_a, t_b=t_b)
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
    check("Positive", mu=mu)  # the mu -> 0 limit is v_max
    check("Fraction", v_max=v_max)
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
    check("Positive", s1=s1, s2=s2, rc=rc, f=f)
    return s1 * s2 / (4.0 * rc * f)
