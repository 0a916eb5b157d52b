"""Two-photon time-bin states and their closed-form interference observables.

A pulsed pump split over a short and a long interferometer arm produces a
photon pair in a coherent superposition of "both early" and "both late",

    alpha |early, early> + beta * exp(i * phi_pump) |late, late>,

with real non-negative amplitudes normalised to alpha**2 + beta**2 = 1.
After each photon traverses an unbalanced analyzer interferometer whose
delay matches the pump delay, the joint arrival pattern spreads over three
time bins per side; the central bin receives two indistinguishable
contributions whose relative phase drives the coincidence fringe.

Everything here is analytic and serves as the oracle the Monte Carlo
engine is checked against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_NORM_TOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class TimeBinState:
    """Pure two-photon time-bin qubit pair with real amplitudes.

    alpha and beta weight the early-early and late-late components;
    phi_pump is the relative phase imprinted by the pump interferometer.
    """

    alpha: float
    beta: float
    phi_pump: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("amplitudes must be non-negative")
        norm = self.alpha**2 + self.beta**2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalised: alpha^2 + beta^2 = {norm!r}")


@dataclass(frozen=True)
class AnalyzerState:
    """Four-component superposition after the analyzer interferometer.

    ``amplitudes`` holds, in order: both photons in the first bin, the
    central-bin component that picked up twice the analyzer phase, the
    central-bin component carrying the pump phase, and both photons in the
    last bin.  The two central components are kept separate; they only
    interfere when projected onto a central-bin coincidence.  The global
    phase is fixed by making the first-bin amplitude real non-negative.
    """

    amplitudes: tuple[complex, complex, complex, complex]
    phi_analyzer: float

    def __post_init__(self) -> None:
        total = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"analyzer state not normalised: {total!r}")


def entropy_of_entanglement(alpha_sq: float) -> float:
    """Entanglement of the pure pair state, in bits, from the early weight.

    Returns -x*log2(x) - (1-x)*log2(1-x) with the 0*log(0) = 0 convention,
    so both endpoints give exactly 0 and x = 0.5 gives exactly 1.
    """
    if not 0.0 <= alpha_sq <= 1.0:
        raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq!r}")
    ent = 0.0
    for p in (alpha_sq, 1.0 - alpha_sq):
        if p > 0.0:
            ent -= p * math.log2(p)
    return ent


def ideal_visibility(state: TimeBinState) -> float:
    """Fringe contrast of the central-bin coincidences: 2*alpha*beta."""
    return 2.0 * state.alpha * state.beta


def evolve_through_analyzer(state: TimeBinState, phi_analyzer: float) -> AnalyzerState:
    """Propagate the pair through a matched analyzer interferometer.

    Both photons taking short arms leaves the early component in the first
    bin; both taking long arms pushes it to the central bin with phase
    2*phi_analyzer.  The late component reaches the central bin via short
    arms (phase phi_pump) or the last bin via long arms.  Amplitudes are
    normalised to unit total probability; splitting losses are an
    apparatus-level concern, not part of this state map.
    """
    a, b = state.alpha, state.beta
    phi_p = state.phi_pump
    amps = (
        complex(a * _SQRT_HALF),
        a * _SQRT_HALF * cmath.exp(2j * phi_analyzer),
        b * _SQRT_HALF * cmath.exp(1j * phi_p),
        b * _SQRT_HALF * cmath.exp(1j * (2.0 * phi_analyzer - phi_p)),
    )
    return AnalyzerState(amplitudes=amps, phi_analyzer=phi_analyzer)


def coincidence_probability(state: TimeBinState, phi_analyzer: float) -> float:
    """Post-selected probability of a central-bin coincidence.

    Equals 0.5 * [alpha^2 + beta^2 + 2*alpha*beta*cos(phi)] with
    phi = 2*phi_analyzer - phi_pump, i.e. the squared magnitude of the
    coherent sum of the two central-bin amplitudes.  Ranges over
    [0.5*(1 - V), 0.5*(1 + V)] with V = 2*alpha*beta.
    """
    a, b = state.alpha, state.beta
    phi = 2.0 * phi_analyzer - state.phi_pump
    return 0.5 * (a * a + b * b + 2.0 * a * b * math.cos(phi))
