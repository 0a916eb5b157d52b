"""Fringe-scan reduction: background subtraction, sinusoidal fits, the V(E) theory curve.

A phase scan yields raw central-window coincidence counts plus an estimate
of the chance-coincidence background per point.  Subtracting the estimate
and fitting c(phi) = O * [1 + V cos(phi - phi0)] gives the net visibility
V and its uncertainty dV from the fit covariance.  The fit is linear in
(O, O V cos phi0, O V sin phi0), so it has an exact, deterministic
solution with no starting values or convergence concerns.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .grid import linspace
from .record import Count, NonNegative, Record, check, replace
from .states import entropy_of_entanglement

_MIN_POINTS = 5
_MIN_DISTINCT_PHASES = 3
_MIN_PHASE_SPAN = math.pi / 2
_TURN = 2.0 * math.pi
_SAME_PHASE = 1e-9  # phases closer than this on the circle are one phase


class DegenerateScanError(ValueError):
    """Scan cannot constrain a fringe (too few points, phases bunched up, no variance)."""


class FringePoint(Record):
    """One phase-scan sample; its fields are the scan's CSV columns.

    ``phase_rad`` is the interference phase (the cosine argument), not the
    raw interferometer setting.  ``net`` is filled by subtract_accidentals.
    A scan is a sequence of points, in scan order.
    """

    phase_rad: float
    raw: Count
    accidental: NonNegative
    net: float | None = None


class FitResult(Record):
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


def subtract_accidentals(scan: Sequence[FringePoint]) -> tuple[FringePoint, ...]:
    """Fill net counts: raw minus estimated accidentals, clamped at zero."""
    return tuple(replace(p, net=max(p.raw - p.accidental, 0.0)) for p in scan)


def _check_design(phases: list[float]) -> None:
    if len(phases) < _MIN_POINTS:
        raise DegenerateScanError(
            f"need at least {_MIN_POINTS} points, got {len(phases)}"
        )
    # Phases are points on the circle: each gap between neighbours wider than
    # _SAME_PHASE ends one distinct phase, and the span is 2*pi less the widest.
    wrapped = sorted(phi % _TURN for phi in phases)
    gaps = [b - a for a, b in zip(wrapped, [*wrapped[1:], wrapped[0] + _TURN])]
    n_distinct = sum(gap > _SAME_PHASE for gap in gaps)
    if n_distinct < _MIN_DISTINCT_PHASES:
        raise DegenerateScanError(
            f"need at least {_MIN_DISTINCT_PHASES} distinct phases modulo 2*pi, got {n_distinct}"
        )
    if _TURN - max(gaps) < _MIN_PHASE_SPAN:
        raise DegenerateScanError("phase span below pi/2 cannot constrain a fringe")


def _inverse(matrix: list[list[float]]) -> list[list[float]]:
    """Inverse of a square matrix by Gauss-Jordan elimination with partial pivoting."""
    n = len(matrix)
    rows = [list(row) + [float(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0.0:
            # guards the division only: _check_design refuses the singular designs
            raise DegenerateScanError("singular fit design: zero pivot")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        scale = 1.0 / top[col]
        top[:] = [v * scale for v in top]
        for r, row in enumerate(rows):
            if r != col and row[col] != 0.0:
                factor = row[col]
                row[:] = [v - factor * t for v, t in zip(row, top)]
    return [row[n:] for row in rows]


def _sum(terms: Iterable[float]) -> float:
    """``terms`` added left to right: ``sum()`` compensates rounding from Python 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


def fit_fringe(scan: Sequence[FringePoint], *, use_net: bool = True) -> FitResult:
    """Weighted least-squares fit of O * [1 + V cos(phi - phi0)] to the points ``scan``.

    Counting weights are Poissonian with a one-count variance floor.  The
    fit starts from raw-count weights and then reweights once from the
    fitted predictions (raw-count weights overweight downward fluctuations
    at low counts).  ``use_net`` fits the net counts, which
    subtract_accidentals fills; otherwise the raw counts are fitted.
    Each fit solves the 3 x 3 weighted normal equations.

    Sigma is the weighted covariance propagated to V at first order, not
    scaled by the residual chi-square, so a misfit does not widen it.  Raw
    fits at about 12 counts per point fall within 3 sigma; net fits quote
    it too wide (pull sd 0.47-0.90), which is ROADMAP item 7.
    """
    phases = [p.phase_rad for p in scan]
    if use_net:
        if any(p.net is None for p in scan):
            raise ValueError("scan has no net counts; run subtract_accidentals first")
        counts = [p.net for p in scan]
        # Counting variance of a net point is still the raw count's variance;
        # the subtracted background shifts the mean, not the noise.
        background = [p.accidental for p in scan]
    else:
        counts = [float(p.raw) for p in scan]
        background = [0.0] * len(phases)
    _check_design(phases)

    design = [(1.0, math.cos(phi), math.sin(phi)) for phi in phases]
    sigma2 = [max(float(p.raw), 1.0) for p in scan]
    for _ in range(2):
        weights = [1.0 / s2 for s2 in sigma2]
        cov = _inverse(
            [
                [_sum(w * x[i] * x[j] for w, x in zip(weights, design)) for j in range(3)]
                for i in range(3)
            ]
        )
        rhs = [_sum(w * x[i] * y for w, x, y in zip(weights, design, counts)) for i in range(3)]
        coef = [_sum(c * b for c, b in zip(row, rhs)) for row in cov]
        predicted = [_sum(c * v for c, v in zip(coef, x)) for x in design]
        sigma2 = [max(f + b, 1.0) for f, b in zip(predicted, background)]
    chi2 = _sum(w * (y - f) ** 2 for w, y, f in zip(weights, counts, predicted))

    offset = coef[0]
    amp = math.hypot(coef[1], coef[2])
    phase_origin = math.atan2(coef[2], coef[1])

    if offset == 0.0:
        raise DegenerateScanError("fitted offset is zero; visibility undefined")
    vis = amp / offset

    # First-order propagation of the linear-parameter covariance to V.
    try:
        if amp == 0.0:  # at zero amplitude the magnitude is direction-independent
            grad = [0.0, 1.0 / offset, 1.0 / offset]
        else:
            grad = [-amp / offset**2, coef[1] / (amp * offset), coef[2] / (amp * offset)]
    except ArithmeticError:  # offset**2 or amp * offset under- or overflows
        raise DegenerateScanError(f"fitted offset {offset!r} is out of range") from None
    var = _sum(g * c * h for g, row in zip(grad, cov) for c, h in zip(row, grad))
    if not 0.0 < var < math.inf:
        raise DegenerateScanError(f"visibility variance {var!r} is not positive and finite")
    sigma = math.sqrt(var)

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
        n_points=len(phases),
    )


def visibility_vs_entanglement_curve(n_points: int) -> list[tuple[float, float]]:
    """Parametric (entanglement, visibility) theory curve.

    Sweeps the early-bin weight from 0.5 (maximally entangled: E = 1,
    V = 1) to 1.0 (product state: E = 0, V = 0).
    """
    check("Count", n_points=n_points)
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return [
        (entropy_of_entanglement(a2), 2.0 * math.sqrt(a2 * (1.0 - a2)))
        for a2 in linspace(0.5, 1.0, n_points)
    ]

