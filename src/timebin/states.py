"""Two-photon time-bin states: the pair state and its closed-form measures.

A pulsed pump split over a short and a long interferometer arm produces a
photon pair in a coherent superposition of "both early" and "both late",

    alpha |early, early> + beta * exp(i * phi_pump) |late, late>,

with real non-negative amplitudes normalised to alpha**2 + beta**2 = 1.
After each photon traverses an unbalanced analyzer interferometer whose
delay matches the pump delay, the joint arrival pattern spreads over three
time bins per side; the central bin receives two indistinguishable
contributions whose relative phase drives the coincidence fringe.

The engine's outcome law carries that fringe through the whole apparatus.
This module holds the state the source prepares and two closed-form
measures of it: its entanglement entropy and the fringe visibility of an
ideal apparatus, 2*alpha*beta.  ``wrap_phase`` is the one rule by which
the source and the analyzers store a phase: modulo 2*pi.
"""

from __future__ import annotations

import math
from .record import NonNegative, Record, check

_NORM_TOL = 1e-12
_TWO_PI = 2.0 * math.pi


def wrap_phase(phi: float) -> float:
    """``phi``, a finite number, modulo 2*pi, in [0, 2*pi)."""
    # A tiny negative phase modulo 2*pi rounds up to 2*pi itself; the second modulo takes it to 0.
    return phi % _TWO_PI % _TWO_PI


class TimeBinState(Record):
    """Pure two-photon time-bin qubit pair with real amplitudes.

    alpha and beta weight the early-early and late-late components;
    phi_pump is the relative phase imprinted by the pump interferometer.
    """

    alpha: NonNegative
    beta: NonNegative
    phi_pump: float = 0.0

    def __post_init__(self) -> None:
        norm = self.alpha * self.alpha + self.beta * self.beta  # inf, not OverflowError, if huge
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state not normalised: alpha^2 + beta^2 = {norm!r}")


def entropy_of_entanglement(alpha_sq: float) -> float:
    """Entanglement of the pure pair state, in bits, from the early weight.

    Returns -x*log2(x) - (1-x)*log2(1-x) with the 0*log(0) = 0 convention,
    so both endpoints give exactly 0 and x = 0.5 gives exactly 1.
    """
    check("Fraction", alpha_sq=alpha_sq)
    ent = 0.0
    for p in (alpha_sq, 1.0 - alpha_sq):
        if p > 0.0:
            ent -= p * math.log2(p)
    return ent


def ideal_visibility(state: TimeBinState) -> float:
    """Fringe contrast of the central-bin coincidences: 2*alpha*beta."""
    return 2.0 * state.alpha * state.beta
