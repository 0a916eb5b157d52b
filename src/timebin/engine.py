"""Exact per-pulse outcome law of the source / fiber / analyzer chain.

One pump pulse.  It carries a Poissonian number n of photon pairs.  Per
pulse and per detector side at most one event is registered (the counting
electronics gate once per pump period), so the registered photons of a
pair pulse belong to one pair with probability 1/n.  Such a pair carries
the full two-photon interference of the matched analyzers: with
f = V*cos(phi), both photons leave by the monitored ports in the bin pairs

    (first,first) (first,mid) (mid,first) : alpha^2 each
    (mid,mid)                             : 1 + f
    (mid,last) (last,mid) (last,last)     : beta^2 each

out of 16, while one photon alone leaves by its monitored port in the
bins with weights alpha^2, 1, beta^2 out of 4, whatever f.  Photons of
different pairs are uncorrelated: each side sees one photon of its own
pair, which follows that marginal; this flat background dilutes the fringe
of multi-pair pulses.  A monitored-port photon survives fiber, analyzer
excess loss and detector efficiency with probability eta, and arrives
Gaussian around its bin, with the broadened pulse width and the detector
jitter in quadrature.  Each detector has at most one dark candidate per
pulse, with probability 1 - (1 - min(r*w, 1))^3 and uniform over the three
windows (events elsewhere can never classify nor coincide); the earlier of
photon and dark candidate is the click.  Its time cells are cut at the
``_window_edges`` of the three ``window_width_s`` windows and at the 50 ps
histogram bins; clicks beyond the histogram pile into its edge bins.

The law.  Pulses are i.i.d., and every count of a run is a sum over
pulses of one function of the pulse's outcome: side a's click cell, side
b's click cell and, for two central-window clicks, whether both are
photons of one pair.  The cells are the histogram bins split at the window
edges, plus "no click".  A run of n pulses is therefore exactly one
multinomial draw over these outcomes (Devroye, Non-Uniform Random Variate
Generation, 1986, ch. X), and the mean of every count is n times a sum of
outcome probabilities (``expected_tallies``, ``expected_histograms``).
The law is built in three steps:

- Photon states.  W[x, y] is the source's law at the monitored ports:
  the probability that side a's photon leaves by its monitored port in
  bin x = 0, 1, 2 (3: none there) and side b's in bin y.  It holds no
  loss, and f enters one entry of one pair's law, so a Gaussian phase
  jitter of total RMS sigma averages exactly to
  f = V*cos(phi)*exp(-sigma^2/2).  A pair pulse's photons come from one
  pair with probability E[1/n | n >= 1], which is
  ``source.multipair_visibility(mu)``; otherwise the two sides follow the
  product of their single-photon marginals.
- The click laws.  Per side, C[x, cell] is the click law given the photon
  state; it carries the side's losses, jitter, dark counts and windows.  A
  lost photon leaves the dark candidate alone.  The dark candidate's CDF D
  is piecewise linear, so the photon clicks in cell I with probability
  eta int_I phi(t) (1 - D(t)) dt and the dark candidate with
  int_I D'(t) (1 - Phi(t)) dt, closed forms in erfc.
- The joint law is C_a^T W C_b.  In its central-window block, the part
  where both photons of one pair beat their dark candidates is split off;
  the rest of that block are the accidental coincidences.

Runs.  Every count of a RunResult depends on a pulse's outcome
only through its class: each side clicks in the central window, clicks
elsewhere or does not click, and a central-central coincidence is one-pair
or accidental, ten classes in all.  The cells of each side class are
decided once, as ``_cells``' side groups.  ``_Law._resolve`` takes the
product with each side's click law summed over its groups, as it does for
the outcomes, its floats added left to right on every Python.  Summing the
outcomes of a multinomial by class gives a multinomial, so a run draws its
ten class counts, as conditional binomials on ``random.Random(rng_seed)``,
and its tallies have the law of one draw over all outcomes, for any
n_pulses up to 2**63 - 1; ``run_histograms`` goes on along that stream to
split each class count over its outcomes, which completes the draw.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterable
from functools import cached_property, lru_cache
from itertools import accumulate, product
from operator import mul

from .analysis import FringePoint, _sum
from .apparatus import DetectorSpec, InterferometerSpec
from .fiber import FiberSpec, broadened_pulse_width, survival_probability
from .record import Record, replace
from .source import SourceConfig, multipair_visibility

_HIST_BINS_PER_DELAY = 24  # 50 ps bins for the default 1.2 ns delay
# The binomial sampler's exact range: no run, and no count of one, exceeds it.
MAX_PULSES = 2**63 - 1


class ExperimentConfig(Record):
    """Complete apparatus description for one run.

    ``ExperimentConfig()`` is the shipped default experiment.  One analyzer
    is the folded arrangement (both photons through one device), two are
    the independent one (side a's device first), which has no circulator:
    its analyzers' ``circulator_loss_db`` is stored as 0.  The analyzers'
    delay is the source's bin separation.

    The three half-open coincidence windows, ``window_width_s`` wide, are
    centred on the arrival-time peaks at 0, d and 2*d after the pump clock,
    d being the bin separation; the width must be below d, so that they do
    not overlap.  ``_window_edges`` gives their edges.
    """

    source: SourceConfig = SourceConfig()
    fiber_a: FiberSpec = FiberSpec()
    fiber_b: FiberSpec = FiberSpec()
    analyzers: tuple[InterferometerSpec, ...] = (InterferometerSpec(),)
    detector_a: DetectorSpec = DetectorSpec()
    detector_b: DetectorSpec = DetectorSpec()
    window_width_s: float = 400e-12
    n_pulses: int = 100_000_000
    rng_seed: int = 20260808

    def __post_init__(self) -> None:
        if not 0.0 < self.window_width_s < math.inf:
            raise ValueError("window_width_s must be positive")
        if self.window_width_s >= self.source.bin_separation_s:
            raise ValueError("window_width_s must be smaller than the bin separation")
        # The last window is the first to round away.
        start, end = _window_edges(self.window_width_s, self.source.bin_separation_s)[-2:]
        if not start < end:
            raise ValueError(
                "the coincidence window at twice the bin separation is empty in floating"
                " point: window_width_s is too small for so large a bin_separation_s"
            )
        if type(self.n_pulses) is not int:  # refuses bool too
            raise ValueError(f"n_pulses must be an integer, got {self.n_pulses!r}")
        if not 0 < self.n_pulses <= MAX_PULSES:
            raise ValueError(f"n_pulses must be positive and at most {MAX_PULSES}")
        if not math.isfinite(self.n_pulses / self.source.rep_rate_hz):
            raise ValueError("rep_rate_hz is too small: n_pulses / rep_rate_hz overflows")
        if type(self.rng_seed) is not int or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        if len(self.analyzers) not in (1, 2):
            raise ValueError(f"one or two analyzers are required, got {len(self.analyzers)}")
        if len(self.analyzers) == 2:  # only the folded arrangement has a circulator
            bare = tuple(replace(a, circulator_loss_db=0.0) for a in self.analyzers)
            object.__setattr__(self, "analyzers", bare)


class CoincidenceHistogram(Record):
    """Pump-referenced arrival-time histogram (counts per fixed-width bin)."""

    bin_edges_s: tuple[float, ...]
    counts: tuple[float, ...]  # integers in a run, means in ``expected_histograms``

    @property
    def bin_centers_s(self) -> tuple[float, ...]:
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.bin_edges_s, self.bin_edges_s[1:]))


class RunResult(Record):
    """Tallies of one run.

    ``accidental_coincidences`` counts the central-window coincidences
    whose two clicks did not originate from one photon pair (dark counts
    involved, or photons of different pairs in a multi-pair pulse) - the
    noise floor an experimenter estimates with a shifted coincidence
    window, known exactly here.  The fields, in order, are the ``#`` tally
    lines of ``timebin run``'s CSV.
    """

    n_pulses: int
    duration_s: float
    singles_a: int
    singles_b: int
    middle_singles_a: int
    middle_singles_b: int
    triple_coincidences: int
    accidental_coincidences: int

    def __post_init__(self) -> None:
        if self.triple_coincidences > min(self.singles_a, self.singles_b):
            raise ValueError("more coincidences than singles")
        if self.accidental_coincidences > self.triple_coincidences:
            raise ValueError("more accidental coincidences than coincidences")

    def singles_product_estimate(self) -> float:
        """Chance-coincidence estimate from the measured singles alone.

        Product of the two per-pulse central-window click probabilities,
        times the number of pulses; the pulse-gated counterpart of the
        singles-rates-times-window estimate.  Exact for independent click
        streams (dark-count dominated runs), an overestimate when the
        singles are dominated by correlated pair photons.
        """
        if self.n_pulses == 0:
            return 0.0
        return self.middle_singles_a * self.middle_singles_b / self.n_pulses


def _window_edges(width_s: float, delay_s: float) -> tuple[float, ...]:
    """The edges of the three coincidence windows, in time order.

    Window k is the half-open [edges[2k], edges[2k + 1]), centred on the
    arrival-time peak k * delay_s.  This is the one statement of the rule.
    """
    half = 0.5 * width_s
    return tuple(c + sign * half for c in (0.0, delay_s, 2.0 * delay_s) for sign in (-1.0, 1.0))


@lru_cache(maxsize=32)
def _cells(width_s: float, delay_s: float):
    """Time cells of the outcome law: the histogram bins split at the window edges.

    Returns the histogram's bin edges, the cell edges (from -inf to inf:
    the outer cells belong to the edge bins), which cells lie in a window,
    the side groups (central-window cells, every other time cell, and "no
    click") and the bin of every cell ("no click" is one past the last bin),
    as tuples shared between calls: a click's class and bin are decided here.
    """
    nbins = 3 * _HIST_BINS_PER_DELAY
    step = 3.0 * delay_s / nbins
    bin_edges = tuple(-0.5 * delay_s + step * i for i in range(nbins + 1))
    cuts = _window_edges(width_s, delay_s)
    # A window edge that meets a bin edge up to rounding replaces it.
    tol = 1e-9 * (bin_edges[1] - bin_edges[0])
    inner = [e for e in bin_edges[1:-1] if min(abs(e - cut) for cut in cuts) > tol]
    edges = (-math.inf, *sorted([*inner, *cuts]), math.inf)
    # n window edges at or before a cell's start: odd n is window (n - 1) // 2, 3 the central one.
    below = [bisect_right(cuts, lo) for lo in edges[:-1]]
    central = tuple(i for i, n in enumerate(below) if n == 3)
    other = tuple(i for i, n in enumerate(below) if n != 3)
    groups = (central, other, (len(below),))  # "no click" is the last column
    # A cell's bin is the number of interior bin edges at or before its start, up to rounding.
    starts = [e - tol for e in bin_edges[1:-1]]
    bin_of = (*(bisect_right(starts, lo) for lo in edges[:-1]), nbins)
    return bin_edges, edges, tuple(n % 2 == 1 for n in below), groups, bin_of


@lru_cache(maxsize=32)
def _click_law(
    width_s: float, delay_s: float, dark_rate_cps: float, sigma_s: float, eta: float
):
    """Click law of one detector for each photon state, by cell and by class.

    It carries the side's losses, jitter, dark counts and windows.  Returns
    the cell law ``(clicks, photon_first)``: ``clicks`` has 4 rows of
    cells + 1, row x < 3 for a photon at the monitored port in bin x, which
    survives with probability ``eta`` (a lost one leaves the dark candidate
    alone) and arrives around x * delay with Gaussian spread ``sigma_s``,
    row 3 for none there, the last column for no click; ``photon_first``
    has 3 rows of central-window cells, the part of rows 0-2 where the
    photon survived and beat the dark candidate.  Then the class law, the
    same pair with each row of ``clicks`` summed over each of ``_cells``'
    side groups and each row of ``photon_first`` summed over the central
    group.  All are tuples, shared between calls.
    """
    _, edges, in_window, groups, _ = _cells(width_s, delay_s)
    p_dark = 1.0 - (1.0 - min(dark_rate_cps * width_s, 1.0)) ** 3
    density = p_dark / (3.0 * width_s)
    cells = list(zip(edges[:-1], edges[1:], in_window))
    dark = [density * (hi - lo) if inside else 0.0 for lo, hi, inside in cells]
    no_dark_yet = [1.0 - before for before in accumulate(dark[:-1], initial=0.0)]
    no_photon = (*dark, 1.0 - _sum(dark))
    root_half, root_two_pi = math.sqrt(0.5), math.sqrt(2.0 * math.pi)

    clicks, photon_first = [], []
    for x in range(3):
        mean = delay_s * x
        z = [(edge - mean) / sigma_s for edge in edges]
        tail = [0.5 * math.erfc(abs(zi) * root_half) for zi in z]
        pdf = [math.exp(-0.5 * zi * zi) / root_two_pi for zi in z]
        # Dark candidate first: its density times P(photon later), integrated
        # with the antiderivative sigma * (z * P(Z > z) - pdf(z)).
        antider = [
            (zi if math.isfinite(zi) else 0.0) * (t if zi >= 0.0 else 1.0 - t) - g
            for zi, t, g in zip(z, tail, pdf)
        ]
        photon, click = [], []
        for i, (lo, _, inside) in enumerate(cells):
            z_lo, z_hi, t_lo, t_hi = z[i], z[i + 1], tail[i], tail[i + 1]
            # Photon mass per cell from the smaller Gaussian tails, accurate far out.
            if z_lo >= 0.0:
                mass = t_lo - t_hi
            elif z_hi <= 0.0:
                mass = t_hi - t_lo
            else:
                mass = 1.0 - t_lo - t_hi
            # Photon first: its density times P(no dark candidate yet), which
            # falls linearly inside a window.
            q = density if inside else 0.0
            first = no_dark_yet[i] * mass - q * (
                (mean - (lo if inside else 0.0)) * mass + sigma_s * (pdf[i] - pdf[i + 1])
            )
            photon.append(first)
            click.append(first + q * sigma_s * (antider[i + 1] - antider[i]))
        photon_first.append(tuple(eta * photon[i] for i in groups[0]))
        clicks.append(tuple(eta * c + (1.0 - eta) * d for c, d in zip((*click, 0.0), no_photon)))
    clicks.append(no_photon)

    classes = tuple(tuple(_sum(row[i] for i in group) for group in groups) for row in clicks)
    photon_central = tuple((_sum(row),) for row in photon_first)
    return (tuple(clicks), tuple(photon_first)), (classes, photon_central)


def _product(left, matrix, right) -> list[list[float]]:
    """The rows of left^T matrix right, each entry's terms added left to right."""
    matrix_cols, right_cols = list(zip(*matrix)), list(zip(*right))
    through = ([_sum(map(mul, row, col)) for col in matrix_cols] for row in zip(*left))
    return [[_sum(map(mul, row, col)) for col in right_cols] for row in through]


class _Law:
    """The per-pulse outcome law of one configured run.

    ``sides`` holds the ``_click_law`` of detectors a and b, each with its
    own side's losses; ``weights`` is the source's photon-state law W
    (4 x 4) at the monitored ports and ``pair`` its part where both sides'
    photons come from one pair (3 x 3).  ``class_probs`` resolves the law
    with the class laws of the two sides, ``outcomes`` with their cell
    laws; both go through ``_resolve``.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        src, width = config.source, config.window_width_s
        state = src.state()
        delay = src.bin_separation_s
        self.bin_edges_s, _, _, self.groups, self.bin_of = _cells(width, delay)

        first, last = config.analyzers[0], config.analyzers[-1]
        losses_db = (first.excess_loss_db + first.circulator_loss_db, last.excess_loss_db)
        self.sides = []
        for fib, det, loss_db in zip(
            (config.fiber_a, config.fiber_b), (config.detector_a, config.detector_b), losses_db
        ):
            eta = survival_probability(fib) * 10.0 ** (-loss_db / 10.0) * det.efficiency
            sigma = math.hypot(broadened_pulse_width(fib, src.pulse_width_s), det.jitter_rms_s)
            self.sides.append(_click_law(width, delay, det.dark_rate_cps, sigma, eta))

        # Photon states of the two sides: bin 0, 1, 2 at the monitored port,
        # 3 for none there.  joint is one pair at both monitored ports, the
        # only place f enters; marginal is one photon alone; same is one
        # pair, joint filled out to its marginals.
        a2, b2 = state.alpha**2, state.beta**2
        sigma_phase = math.hypot(config.fiber_a.phase_jitter_rms, config.fiber_b.phase_jitter_rms)
        f = (
            2.0 * state.alpha * state.beta
            * math.cos(fringe_phase(config))
            * math.exp(-0.5 * sigma_phase * sigma_phase)
        )
        joint = [
            [w / 16.0 for w in row]
            for row in ((a2, a2, 0.0), (a2, max(1.0 + f, 0.0), b2), (0.0, b2, b2))
        ]
        marginal = [a2 / 4.0, 0.25, b2 / 4.0, 0.5]
        same = [row + [m - _sum(row)] for row, m in zip(joint, marginal)]
        same.append([m - _sum(col) for col, m in zip(zip(*joint), marginal)] + [0.0])
        same[3][3] = 1.0 - _sum(map(_sum, same))
        mu = src.mean_pairs
        self.p_same = multipair_visibility(mu) if mu > 0.0 else 1.0
        p_pair = -math.expm1(-mu)
        self.weights = [
            [
                p_pair * (self.p_same * s + (1.0 - self.p_same) * (u * v))
                for s, v in zip(row, marginal)
            ]
            for row, u in zip(same, marginal)
        ]
        self.weights[3][3] += math.exp(-mu)
        self.pair = [[p_pair * self.p_same * w for w in row] for row in joint]

    def _resolve(self, laws, groups) -> list[tuple[list[tuple[int, int]], list[float]]]:
        """Every outcome's (side a cell, side b cell) and probability, per class.

        ``laws`` are the two sides' (clicks, photon_first) and ``groups``
        the columns of ``clicks`` in each side class; ``photon_first``'s
        columns are those of the central group.  An outcome is a cell of
        C_a^T W C_b, except in the central-central block: there the part
        where both photons of one pair beat their dark candidates is class
        0, and the rest of the cell is class 1.  The other eight pairs of
        side classes follow in row-major order, "none, none" last.
        """
        (clicks_a, first_a), (clicks_b, first_b) = laws
        joint = _product(clicks_a, self.weights, clicks_b)
        one_pair = [p for row in _product(first_a, self.pair, first_b) for p in row]
        classes = []
        for a, b in product(range(3), repeat=2):
            cells = list(product(groups[a], groups[b]))
            probs = [joint[i][j] for i, j in cells]
            if a == b == 0:
                classes.append((cells, [max(p, 0.0) for p in one_pair]))
                probs = [p - q for p, q in zip(probs, one_pair)]
            classes.append((cells, [max(p, 0.0) for p in probs]))
        return classes

    def class_probs(self) -> list[float]:
        """Probabilities of the ten outcome classes, in the order of ``_from_classes``."""
        laws = [classes for _, classes in self.sides]
        return [p for _, (p,) in self._resolve(laws, ((0,), (1,), (2,)))]

    @cached_property
    def outcomes(self) -> list[tuple[list[tuple[int, int]], list[float]]]:
        """Every outcome's (side a cell, side b cell) and probability, per class."""
        return self._resolve([cells for cells, _ in self.sides], self.groups)


def _multinomial(rng: random.Random, n: int, probs: list[float]) -> list[int]:
    """One Multinomial(n, probs) draw; ``probs`` need not sum to 1.

    Category i is a binomial draw from the n that categories 0 to i-1
    left, at its share of the probability they left; the last category
    takes the rest.
    """
    from .binomial import binomial  # only commands that draw load it

    counts = [0] * len(probs)
    rests = list(accumulate(reversed(probs)))[::-1]  # of category i and those after it
    for i, (p, rest) in enumerate(zip(probs[:-1], rests)):
        if n == 0:
            break
        if rest > 0.0:
            counts[i] = binomial(rng, n, p / rest)
            n -= counts[i]
    counts[-1] = n
    return counts


def _histograms(
    law: _Law, per_outcome: list[list[float]]
) -> tuple[CoincidenceHistogram, CoincidenceHistogram]:
    """Both sides' histograms of per-outcome counts (or means), listed as in ``law.outcomes``."""
    edges, bin_of = law.bin_edges_s, law.bin_of
    sides = [[0] * len(edges), [0] * len(edges)]  # every bin, then "no click"
    for (cells, _), values in zip(law.outcomes, per_outcome):
        for (i, j), value in zip(cells, values):
            sides[0][bin_of[i]] += value
            sides[1][bin_of[j]] += value
    for side in sides:
        side.pop()  # "no click"
    return tuple(CoincidenceHistogram(bin_edges_s=edges, counts=tuple(side)) for side in sides)


def _from_classes(config: ExperimentConfig, counts: list[float]) -> RunResult:
    """The RunResult with these class counts (or their means)."""
    pair, accidental, co, cn, oc, oo, on, nc, no, _ = counts
    middle_a, middle_b = pair + accidental + co + cn, pair + accidental + oc + nc
    return RunResult(
        n_pulses=config.n_pulses,
        duration_s=config.n_pulses / config.source.rep_rate_hz,
        singles_a=middle_a + oc + oo + on,
        singles_b=middle_b + co + oo + no,
        middle_singles_a=middle_a,
        middle_singles_b=middle_b,
        triple_coincidences=pair + accidental,
        accidental_coincidences=accidental,
    )


def expected_tallies(config: ExperimentConfig) -> RunResult:
    """Exact mean of every count of ``run_pulses(config)``, as floats, from its class law."""
    law, n = _Law(config), config.n_pulses
    return _from_classes(config, [n * p for p in law.class_probs()])


def expected_histograms(
    config: ExperimentConfig,
) -> tuple[CoincidenceHistogram, CoincidenceHistogram]:
    """Exact mean of every histogram count of a run, as floats, from every outcome."""
    law, n = _Law(config), config.n_pulses
    return _histograms(law, [[n * p for p in probs] for _, probs in law.outcomes])


def _split(law: _Law, counts: list[int], rng: random.Random) -> list[list[int]]:
    """Per-outcome counts: each class count split over its outcomes by a multinomial."""
    per_outcome = []
    for count, (_, probs) in zip(counts, law.outcomes):
        # Rounding can leave a class above zero in the class law and at
        # zero in every one of its outcomes.
        if count and not any(probs):
            probs = [1.0] * len(probs)
        per_outcome.append(_multinomial(rng, count, probs))
    return per_outcome


def run_pulses(config: ExperimentConfig) -> RunResult:
    """Simulate the configured number of pump pulses: their ten class counts, drawn once."""
    rng = random.Random(config.rng_seed)
    return _from_classes(config, _multinomial(rng, config.n_pulses, _Law(config).class_probs()))


def run_histograms(
    config: ExperimentConfig,
) -> tuple[RunResult, CoincidenceHistogram, CoincidenceHistogram]:
    """``run_pulses(config)``'s run and side a's and side b's arrival-time histograms.

    The stream that drew the class counts goes on to split them over the outcomes.
    """
    law, rng = _Law(config), random.Random(config.rng_seed)
    counts = _multinomial(rng, config.n_pulses, law.class_probs())
    return (_from_classes(config, counts), *_histograms(law, _split(law, counts, rng)))


def _with_analyzer_phase(config: ExperimentConfig, phi: float, seed: int) -> ExperimentConfig:
    analyzers = (replace(config.analyzers[0], phi_analyzer=phi),) + config.analyzers[1:]
    return replace(config, analyzers=analyzers, rng_seed=seed)


def fringe_phase(config: ExperimentConfig) -> float:
    """Interference phase of the configured apparatus (cosine argument).

    Each photon picks up its own device's phase; in the folded arrangement
    both photons pass the one device.
    """
    first, last = config.analyzers[0], config.analyzers[-1]
    return first.phi_analyzer + last.phi_analyzer - config.source.phi_pump


def run_phase_scan(config: ExperimentConfig, phases: Iterable[float]) -> tuple[FringePoint, ...]:
    """Scan the (first) analyzer phase and record one fringe point per value.

    Each point runs the config's n_pulses pulses.  Point k's seed is the
    k-th 64-bit word of ``random.Random(rng_seed)`` for any number of
    phases, so a scan begins with the points of its prefixes.
    Points store the interference phase, the raw central-window
    coincidence count, and the accidental-coincidence count (clicks not
    originating from one photon pair).
    """
    phases = list(phases)
    if not phases:
        raise ValueError("at least one phase is required")
    seeds = random.Random(config.rng_seed)
    points = []
    for phi in phases:
        cfg = _with_analyzer_phase(config, phi, seeds.getrandbits(64))
        result = run_pulses(cfg)
        points.append(
            FringePoint(
                phase_rad=fringe_phase(cfg),
                raw=result.triple_coincidences,
                accidental=float(result.accidental_coincidences),
            )
        )
    return tuple(points)
