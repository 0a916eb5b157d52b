"""Reference implementations the tests hold the package against.

Each is a second, independent route to a number the package computes:
the pair's amplitudes through a matched analyzer and the central-bin
coincidence probability they give, and a resampling estimate of a fit's
visibility uncertainty.  None is part of ``timebin``; the engine reaches
the same physics through its outcome law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from timebin.analysis import DegenerateScanError, FringePoint, fit_fringe
from timebin.states import _NORM_TOL, TimeBinState

_SQRT_HALF = math.sqrt(0.5)


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


def bootstrap_visibility_sigma(
    scan: tuple[FringePoint, ...],
    *,
    n_resamples: int = 500,
    rng: np.random.Generator | None = None,
    use_net: bool = True,
) -> float:
    """Cross-check of the fit uncertainty by resampling scan points."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(scan)
    values = []
    for _ in range(n_resamples):
        idx = rng.integers(0, n, n)
        resampled = tuple(scan[i] for i in idx)
        try:
            values.append(fit_fringe(resampled, use_net=use_net).visibility_unclamped)
        except DegenerateScanError:
            continue
    if len(values) < 2:
        raise DegenerateScanError("too few valid resamples for a bootstrap estimate")
    return float(np.std(values, ddof=1))
