"""Fringe-scan reduction: background subtraction, sinusoidal fits, theory curves.

A phase scan yields raw central-window coincidence counts plus an estimate
of the chance-coincidence background per point.  Subtracting the estimate
and fitting c(phi) = O * [1 + V cos(phi - phi0)] gives the net visibility
V and its uncertainty dV from the fit covariance.  The fit is linear in
(O, O V cos phi0, O V sin phi0), so it has an exact, deterministic
solution with no starting values or convergence concerns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .grid import linspace

# numpy is imported by the functions that compute, not here: a command that
# only parses, validates or writes a curve never loads it.
if TYPE_CHECKING:
    import numpy as np

_MIN_POINTS = 5
_MIN_DISTINCT_PHASES = 3
_MIN_PHASE_SPAN = math.pi / 2
_SIGMA_FLOOR = 1e-12


class DegenerateScanError(ValueError):
    """Scan cannot constrain a fringe (too few points or phases bunched up)."""


@dataclass(frozen=True)
class FringePoint:
    """One phase-scan sample.

    ``phase_rad`` is the interference phase (the cosine argument), not the
    raw interferometer setting.  ``net_count`` is filled by
    subtract_accidentals; ``clipped`` flags a net count clamped at zero.
    """

    phase_rad: float
    raw_count: int
    accidental_estimate: float
    net_count: float | None = None
    clipped: bool = False

    def __post_init__(self) -> None:
        if self.raw_count < 0:
            raise ValueError("raw_count must be non-negative")
        if self.accidental_estimate < 0.0:
            raise ValueError("accidental_estimate must be non-negative")


@dataclass(frozen=True)
class FringeScan:
    points: tuple[FringePoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("scan has no points")

    @property
    def phases(self) -> np.ndarray:
        import numpy as np

        return np.array([p.phase_rad for p in self.points])

    @property
    def raw_counts(self) -> np.ndarray:
        import numpy as np

        return np.array([p.raw_count for p in self.points], dtype=float)

    @property
    def net_counts(self) -> np.ndarray | None:
        if any(p.net_count is None for p in self.points):
            return None
        import numpy as np

        return np.array([p.net_count for p in self.points])


@dataclass(frozen=True)
class FitResult:
    """Fringe-fit output.

    ``visibility`` is clamped to [0, 1] (noise can push the raw estimate
    outside); ``clamped`` says whether that happened and
    ``visibility_unclamped`` keeps the unmodified value.  The fields are
    in the order of a fit block of the JSON reports.
    """

    visibility: float
    visibility_sigma: float
    visibility_unclamped: float
    clamped: bool
    amplitude: float
    offset: float
    phase_origin_rad: float
    residual_chi2: float
    n_points: int


def subtract_accidentals(scan: FringeScan) -> FringeScan:
    """Fill net counts: raw minus estimated accidentals, clamped at zero."""
    points = []
    for p in scan.points:
        net = p.raw_count - p.accidental_estimate
        clipped = net < 0.0
        points.append(replace(p, net_count=max(net, 0.0), clipped=clipped))
    return FringeScan(points=tuple(points))


def _check_design(phases: np.ndarray) -> None:
    if phases.size < _MIN_POINTS:
        raise DegenerateScanError(
            f"need at least {_MIN_POINTS} points, got {phases.size}"
        )
    n_distinct = _count_distinct(phases)
    if n_distinct < _MIN_DISTINCT_PHASES:
        raise DegenerateScanError(
            f"need at least {_MIN_DISTINCT_PHASES} distinct phases, got {n_distinct}"
        )
    if phases.max() - phases.min() < _MIN_PHASE_SPAN:
        raise DegenerateScanError("phase span below pi/2 cannot constrain a fringe")


def _count_distinct(values: np.ndarray) -> int:
    """Number of distinct numbers in the non-empty ``values``.

    The count ``np.unique`` gives (0.0 and -0.0 are one number, and so are
    all NaNs), without its import of ``numpy.ma``.  Sorting puts the NaNs
    last, so a NaN is new only after a number.
    """
    import numpy as np

    ordered = np.sort(values)
    new = (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1])
    return 1 + int(np.count_nonzero(new))


def fit_fringe(scan: FringeScan, *, use_net: bool = True) -> FitResult:
    """Weighted least-squares fit of O * [1 + V cos(phi - phi0)].

    Counting weights are Poissonian with a one-count variance floor.  The
    fit starts from raw-count weights and then reweights once from the
    fitted predictions, which keeps the quoted uncertainty calibrated down
    to a few counts per point (raw-count weights overweight downward
    fluctuations there).  ``use_net`` fits the net counts, which
    subtract_accidentals fills; otherwise the raw counts are fitted.
    """
    import numpy as np

    phases = scan.phases
    _check_design(phases)
    counts = scan.net_counts if use_net else scan.raw_counts
    if counts is None:
        raise ValueError("scan has no net counts; run subtract_accidentals first")

    # Counting variance of a net point is still the raw count's variance;
    # the subtracted background shifts the mean, not the noise.
    background = (
        np.array([p.accidental_estimate for p in scan.points]) if use_net else 0.0
    )

    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    sigma2 = np.maximum(scan.raw_counts, 1.0)
    for _ in range(2):
        w = 1.0 / np.sqrt(sigma2)
        a_w = design * w[:, None]
        y_w = counts * w
        coef, *_ = np.linalg.lstsq(a_w, y_w, rcond=None)
        sigma2 = np.maximum(design @ coef + background, 1.0)
    resid = y_w - a_w @ coef
    chi2 = float(resid @ resid)
    try:
        cov = np.linalg.inv(a_w.T @ a_w)
    except np.linalg.LinAlgError as exc:
        # distinct-looking phases can still coincide modulo 2*pi
        raise DegenerateScanError(f"singular fit design: {exc}") from exc

    offset = float(coef[0])
    amp = float(np.hypot(coef[1], coef[2]))
    phase_origin = float(math.atan2(coef[2], coef[1]))

    if offset == 0.0:
        raise DegenerateScanError("fitted offset is zero; visibility undefined")
    vis = amp / offset

    # First-order propagation of the linear-parameter covariance to V.
    if amp > 0.0:
        grad = np.array([-amp / offset**2, coef[1] / (amp * offset), coef[2] / (amp * offset)])
    else:
        # At zero amplitude the magnitude is direction-independent.
        grad = np.array([0.0, 1.0 / offset, 1.0 / offset])
    var = float(grad @ cov @ grad)
    sigma = math.sqrt(max(var, 0.0))
    sigma = max(sigma, _SIGMA_FLOOR)

    clamped = not 0.0 <= vis <= 1.0
    return FitResult(
        visibility=min(max(vis, 0.0), 1.0),
        visibility_sigma=sigma,
        visibility_unclamped=vis,
        clamped=clamped,
        amplitude=amp,
        offset=offset,
        phase_origin_rad=phase_origin,
        residual_chi2=chi2,
        n_points=int(phases.size),
    )


def visibility_vs_entanglement_curve(n_points: int) -> list[tuple[float, float]]:
    """Parametric (entanglement, visibility) theory curve.

    Sweeps the early-bin weight from 0.5 (maximally entangled: E = 1,
    V = 1) to 1.0 (product state: E = 0, V = 0).
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    from .states import entropy_of_entanglement

    curve = []
    for a2 in linspace(0.5, 1.0, n_points):
        ent = entropy_of_entanglement(a2)
        vis = 2.0 * math.sqrt(a2 * (1.0 - a2))
        curve.append((ent, vis))
    return curve


def visibility_vs_mu_curve(
    mu_grid: "list[float] | np.ndarray", v_max: float = 1.0
) -> list[tuple[float, float]]:
    """Visibility after multi-pair dilution, tabulated over mean pair numbers."""
    from .source import multipair_visibility

    grid = [float(m) for m in mu_grid]
    if not grid:
        raise ValueError("mu_grid must not be empty")
    if min(grid) <= 0.0:
        raise ValueError("mu_grid values must be positive")
    return [(m, multipair_visibility(m, v_max)) for m in grid]
