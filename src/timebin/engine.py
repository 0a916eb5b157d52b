"""Exact per-pulse outcome law of the source / fiber / analyzer chain.

One pump pulse.  It carries a Poissonian number n of photon pairs.  Per
pulse and per detector side at most one event is registered (the counting
electronics gate once per pump period), so the registered photons of a
pair pulse belong to one pair with probability 1/n.  Such a pair carries
the full two-photon interference of the matched analyzers: with
f = V*cos(phi) the four output-port patterns - (detector, detector),
(detector, unmonitored), (unmonitored, detector), (unmonitored,
unmonitored) - weigh (4+f, 4-f, 4-f, 4+f)/16, and within a pattern the
seven reachable bin pairs weigh

    (first,first) (first,mid) (mid,first) : alpha^2 each
    (mid,mid)                             : 1 +/- f
    (mid,last) (last,mid) (last,last)     : beta^2 each

out of 4 +/- f, the sign following the pattern.  Photons of different
pairs are uncorrelated: each side sees one photon of its own pair, which
reaches the monitored port with probability 1/2 and the bins with weights
alpha^2, 1, beta^2 (out of 2); this flat background dilutes the fringe of
multi-pair pulses.  Monitored-port photons face fiber survival, analyzer
excess loss and detector efficiency as one thinning, and arrive Gaussian
around their bin, with the broadened pulse width and the detector jitter
in quadrature.  Each detector has at most one dark candidate per pulse,
with probability 1 - (1 - min(r*w, 1))^3 and uniform over the three
windows (events elsewhere can never classify nor coincide); the earlier of
photon and dark candidate is the click.  Clicks are classified against the
three half-open windows and histogrammed in 50 ps bins; clicks beyond the
histogram pile into its edge bins.

The law.  Pulses are i.i.d., and every count of a RunResult is a sum over
pulses of one function of the pulse's outcome: side a's click cell, side
b's click cell and, for two central-window clicks, whether both are
photons of one pair.  The cells are the histogram bins split at the window
edges, plus "no click".  A batch of n pulses is therefore exactly one
multinomial draw over these outcomes (Devroye, Non-Uniform Random Variate
Generation, 1986, ch. X), and the mean of every count is n times a sum of
outcome probabilities (``expected_tallies``).  The law is built in three
steps:

- Photon states.  W[x, y] is the probability that side a holds a photon
  in bin x = 0, 1, 2 (3: none) and side b one in bin y.  The port and bin
  weights are affine in f, so a Gaussian phase jitter of total RMS sigma
  averages exactly to f = V*cos(phi)*exp(-sigma^2/2).  A pair pulse's
  photons come from one pair with probability E[1/n | n >= 1], which is
  ``source.multipair_visibility(mu)``; otherwise the two sides follow the
  product of their single-photon marginals.
- The race.  Per side, C[x, cell] is the click law given the photon
  state.  The dark candidate's CDF D is piecewise linear, so the photon
  clicks in cell I with probability int_I phi(t) (1 - D(t)) dt and the
  dark candidate with int_I D'(t) (1 - Phi(t)) dt, closed forms in erfc.
- The joint law is C_a^T W C_b.  In its central-window block, the part
  where both photons of one pair beat their dark candidates is split off;
  the rest of that block are the accidental coincidences.

Runs.  A run draws each batch's outcome counts from the law on its own
counter-derived random stream, sums the count vectors and tallies the sum
once.  Results depend only on (rng_seed, n_pulses, batch_size): the sum
does not depend on the order the batches finish in, so any thread count
gives bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .analysis import FringePoint, FringeScan
from .apparatus import CoincidenceWindows, DetectorSpec, InterferometerSpec
from .fiber import FiberSpec, broadened_pulse_width, survival_probability
from .source import SourceConfig, multipair_visibility

_HIST_BINS_PER_DELAY = 24  # 50 ps bins for the default 1.2 ns delay


class ConfigurationError(ValueError):
    """Raised when an experiment description is internally inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete apparatus description for one run.

    ``ExperimentConfig()`` is the shipped default experiment.  One analyzer
    is the folded arrangement (both photons through one device), two are
    the independent one (side a's device first).  The analyzers' delay is
    the source's bin separation.
    """

    source: SourceConfig = SourceConfig()
    fiber_a: FiberSpec = FiberSpec()
    fiber_b: FiberSpec = FiberSpec()
    analyzers: tuple[InterferometerSpec, ...] = (InterferometerSpec(),)
    detector_a: DetectorSpec = DetectorSpec()
    detector_b: DetectorSpec = DetectorSpec()
    windows: CoincidenceWindows = CoincidenceWindows()
    n_pulses: int = 100_000_000
    rng_seed: int = 20260808
    batch_size: int = 50_000_000

    def __post_init__(self) -> None:
        if self.windows.window_width_s >= self.source.bin_separation_s:
            raise ConfigurationError("window_width_s must be smaller than the bin separation")
        if self.n_pulses <= 0:
            raise ConfigurationError("n_pulses must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be non-negative")
        if len(self.analyzers) not in (1, 2):
            raise ConfigurationError(
                f"one or two analyzers are required, got {len(self.analyzers)}"
            )


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Pump-referenced arrival-time histogram (counts per fixed-width bin)."""

    bin_edges_s: np.ndarray
    counts: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoincidenceHistogram):
            return NotImplemented
        return np.array_equal(self.bin_edges_s, other.bin_edges_s) and np.array_equal(
            self.counts, other.counts
        )

    @property
    def bin_centers_s(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_s[:-1] + self.bin_edges_s[1:])


@dataclass(frozen=True)
class RunResult:
    """Tallies of one run.

    ``accidental_coincidences`` counts the central-window coincidences
    whose two clicks did not originate from one photon pair (dark counts
    involved, or photons of different pairs in a multi-pair pulse) - the
    noise floor an experimenter estimates with a shifted coincidence
    window, known exactly here.
    """

    singles_a: int
    singles_b: int
    middle_singles_a: int
    middle_singles_b: int
    triple_coincidences: int
    accidental_coincidences: int
    histogram_a: CoincidenceHistogram
    histogram_b: CoincidenceHistogram
    n_pulses: int
    duration_s: float

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


def _centers(delay_s: float) -> tuple[float, float, float]:
    """Window centres: the three arrival-time peaks, one bin separation apart."""
    return (0.0, delay_s, 2.0 * delay_s)


def _classify(windows: CoincidenceWindows, delay_s: float, times: np.ndarray) -> np.ndarray:
    """Window index per click time: 0, 1, 2, or 3 for none."""
    half = 0.5 * windows.window_width_s
    cls = np.full(times.shape, 3, dtype=np.int8)
    for k, c in enumerate(_centers(delay_s)):
        cls[(times >= c - half) & (times < c + half)] = k
    return cls


@lru_cache(maxsize=32)
def _cells(windows: CoincidenceWindows, delay_s: float):
    """Time cells of the outcome law: the histogram bins split at the window edges.

    Returns the histogram's bin edges, the cell edges (from -inf to inf:
    the outer cells belong to the edge bins), which cells lie in a window,
    the slice of central-window cells and the first cell of every bin.
    The arrays are shared between calls and read-only.
    """
    nbins = 3 * _HIST_BINS_PER_DELAY
    bin_edges = -0.5 * delay_s + 3.0 * delay_s / nbins * np.arange(nbins + 1)
    half = 0.5 * windows.window_width_s
    cuts = np.array([c + sign * half for c in _centers(delay_s) for sign in (-1.0, 1.0)])
    # A window edge that meets a bin edge up to rounding replaces it.
    tol = 1e-9 * (bin_edges[1] - bin_edges[0])
    inner = bin_edges[1:-1]
    inner = inner[np.abs(inner[:, None] - cuts).min(axis=1) > tol]
    edges = np.concatenate(([-np.inf], np.sort(np.concatenate((inner, cuts))), [np.inf]))
    window = _classify(windows, delay_s, edges[:-1])
    mid = np.flatnonzero(window == 1)
    bin_starts = np.searchsorted(edges, bin_edges[:-1] - tol)
    bin_starts[0] = 0
    in_window = window < 3
    for a in (bin_edges, edges, in_window, bin_starts):
        a.flags.writeable = False
    mid = slice(mid[0], mid[-1] + 1) if mid.size else slice(0, 0)  # empty below float resolution
    return bin_edges, edges, in_window, mid, bin_starts


@lru_cache(maxsize=32)
def _click_law(
    windows: CoincidenceWindows, delay_s: float, dark_rate_cps: float, sigma_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Click-cell law of one detector for each photon state.

    Returns ``clicks`` (4 x cells+1): row x < 3 for a photon arriving
    around x * delay with Gaussian spread ``sigma_s``, row 3 for no
    photon, the last column for no click; and ``photon_first``
    (3 x cells), the part of rows 0-2 where the photon beat the dark
    candidate.  The arrays are shared between calls and read-only.
    """
    _, edges, in_window, _, _ = _cells(windows, delay_s)
    width = windows.window_width_s
    p_dark = 1.0 - (1.0 - min(dark_rate_cps * width, 1.0)) ** 3
    density = p_dark / (3.0 * width)
    lo, hi = edges[:-1], edges[1:]
    q = density * in_window
    dark = density * np.where(in_window, hi - lo, 0.0)
    no_dark_yet = 1.0 - np.concatenate(([0.0], np.cumsum(dark)[:-1]))

    mean = delay_s * np.arange(3.0)[:, None]
    z = (edges - mean) / sigma_s
    scaled = (np.abs(z) * math.sqrt(0.5)).ravel().tolist()
    tail = 0.5 * np.fromiter(map(math.erfc, scaled), np.float64, len(scaled)).reshape(z.shape)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    t_lo, t_hi = tail[:, :-1], tail[:, 1:]
    # Photon mass per cell from the smaller Gaussian tails, accurate far out.
    mass = np.where(
        z[:, :-1] >= 0.0, t_lo - t_hi, np.where(z[:, 1:] <= 0.0, t_hi - t_lo, 1.0 - t_lo - t_hi)
    )
    # Photon first: its density times P(no dark candidate yet), which falls
    # linearly inside a window.
    photon = no_dark_yet * mass - q * (
        (mean - np.where(in_window, lo, 0.0)) * mass + sigma_s * (pdf[:, :-1] - pdf[:, 1:])
    )
    # Dark candidate first: its density times P(photon later), integrated
    # with the antiderivative sigma * (z * P(Z > z) - pdf(z)).
    upper = np.where(z >= 0.0, tail, 1.0 - tail)
    antider = np.where(np.isfinite(z), z, 0.0) * upper - pdf
    dark_first = q * sigma_s * (antider[:, 1:] - antider[:, :-1])

    clicks = np.zeros((4, lo.size + 1))
    clicks[:3, :-1] = photon + dark_first
    clicks[3, :-1] = dark
    clicks[3, -1] = 1.0 - dark.sum()
    clicks.flags.writeable = photon.flags.writeable = False
    return clicks, photon


class _PulseLaw:
    """Probability of every per-pulse outcome of one configured run.

    ``probs`` lists the outcome probabilities: first the cells x cells
    joint law of the two click cells, whose central-window block holds
    only the one-pair part, then that block's accidental part.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        src, windows = config.source, config.windows
        state = src.state()
        delay = src.bin_separation_s
        self.rep_rate_hz = src.rep_rate_hz
        bin_edges, _, _, self._mid, self._bin_starts = _cells(windows, delay)
        self.bin_edges_s = bin_edges.copy()  # handed to callers, unlike the cached array

        first, last = config.analyzers[0], config.analyzers[-1]
        losses_db = [first.excess_loss_db, last.excess_loss_db]
        if len(config.analyzers) == 1:
            losses_db[0] += first.circulator_loss_db
        detect, sides = [], []
        for fib, det, loss_db in zip(
            (config.fiber_a, config.fiber_b), (config.detector_a, config.detector_b), losses_db
        ):
            detect.append(survival_probability(fib) * 10.0 ** (-loss_db / 10.0) * det.efficiency)
            sigma = math.hypot(broadened_pulse_width(fib, src.pulse_width_s), det.jitter_rms_s)
            sides.append(_click_law(windows, delay, det.dark_rate_cps, sigma))
        (clicks_a, first_a), (clicks_b, first_b) = sides

        # Photon states (bin 0, 1, 2, none) of the two sides.  A pair's
        # pattern-and-bins weights are w/16 with w affine in f.
        a2, b2 = state.alpha**2, state.beta**2
        sigma_phase = math.hypot(config.fiber_a.phase_jitter_rms, config.fiber_b.phase_jitter_rms)
        f = (
            2.0 * state.alpha * state.beta
            * math.cos(fringe_phase(config))
            * math.exp(-0.5 * sigma_phase * sigma_phase)
        )
        both, crossed = (
            np.maximum([[a2, a2, 0.0], [a2, 1.0 + sign * f, b2], [0.0, b2, b2]], 0.0) / 16.0
            for sign in (1.0, -1.0)
        )
        eta_a, eta_b = detect
        same = np.zeros((4, 4))
        same[:3, :3] = eta_a * eta_b * both
        same[:3, 3] = eta_a * ((1.0 - eta_b) * both.sum(axis=1) + crossed.sum(axis=1))
        same[3, :3] = eta_b * ((1.0 - eta_a) * both.sum(axis=0) + crossed.sum(axis=0))
        same[3, 3] = 1.0 - same.sum()
        apart = np.outer(
            *(np.array([eta * a2, eta, eta * b2, 4.0 - 2.0 * eta]) / 4.0 for eta in detect)
        )
        mu = src.mean_pairs
        self.p_same = multipair_visibility(mu) if mu > 0.0 else 1.0
        p_pair = -math.expm1(-mu)
        weights = p_pair * (self.p_same * same + (1.0 - self.p_same) * apart)
        weights[3, 3] += math.exp(-mu)

        mid = self._mid
        joint = clicks_a.T @ weights @ clicks_b
        one_pair = first_a[:, mid].T @ (p_pair * self.p_same * same[:3, :3]) @ first_b[:, mid]
        accidental = joint[mid, mid] - one_pair
        joint[mid, mid] = one_pair
        probs = np.maximum(np.concatenate((joint.ravel(), accidental.ravel())), 0.0)
        self.probs = probs / probs.sum()
        self._possible = np.flatnonzero(self.probs)

    def tally(self, per_outcome: np.ndarray, n_pulses: int) -> RunResult:
        """Every RunResult field from per-outcome counts (or their means)."""
        mid = self._mid
        m = mid.stop - mid.start
        k = per_outcome.size - m * m
        cells = math.isqrt(k)
        joint = per_outcome[:k].reshape(cells, cells)
        accidental = per_outcome[k:].reshape(m, m)
        sides = [joint.sum(axis=1), joint.sum(axis=0)]
        sides[0][mid] += accidental.sum(axis=1)
        sides[1][mid] += accidental.sum(axis=0)
        singles = [side[:-1].sum().item() for side in sides]
        middle = [side[mid].sum().item() for side in sides]
        hists = [
            CoincidenceHistogram(self.bin_edges_s, np.add.reduceat(side[:-1], self._bin_starts))
            for side in sides
        ]
        return RunResult(
            singles_a=singles[0],
            singles_b=singles[1],
            middle_singles_a=middle[0],
            middle_singles_b=middle[1],
            triple_coincidences=(joint[mid, mid].sum() + accidental.sum()).item(),
            accidental_coincidences=accidental.sum().item(),
            histogram_a=hists[0],
            histogram_b=hists[1],
            n_pulses=n_pulses,
            duration_s=n_pulses / self.rep_rate_hz,
        )


def expected_tallies(config: ExperimentConfig) -> RunResult:
    """Exact mean of every count of ``run_pulses(config)``, as floats.

    Built from the same per-pulse outcome law the runs are drawn from.
    """
    law = _PulseLaw(config)
    return law.tally(config.n_pulses * law.probs, config.n_pulses)


def run_pulses(config: ExperimentConfig, *, threads: int = 1) -> RunResult:
    """Simulate the configured number of pump pulses.

    Deterministic for a given (rng_seed, n_pulses, batch_size) regardless
    of thread count: each batch is one multinomial draw of its pulses'
    outcome counts on an independent derived random stream, and the run
    tallies the sum of these counts.
    """
    law = _PulseLaw(config)
    n_batches = -(-config.n_pulses // config.batch_size)
    sizes = [config.batch_size] * (n_batches - 1)
    sizes.append(config.n_pulses - config.batch_size * (n_batches - 1))
    children = np.random.SeedSequence(config.rng_seed).spawn(n_batches)
    possible = law._possible
    probs = law.probs[possible]

    def draw(i: int) -> np.ndarray:
        return np.random.Generator(np.random.PCG64(children[i])).multinomial(sizes[i], probs)

    counts = np.zeros(law.probs.size, dtype=np.int64)
    if threads > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for batch in pool.map(draw, range(n_batches)):
                counts[possible] += batch
    else:
        for i in range(n_batches):
            counts[possible] += draw(i)
    return law.tally(counts, config.n_pulses)


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


def run_phase_scan(
    config: ExperimentConfig,
    phases: "list[float] | np.ndarray",
    *,
    n_pulses_per_point: int | None = None,
    threads: int = 1,
) -> FringeScan:
    """Scan the (first) analyzer phase and record one fringe point per value.

    Each point runs ``n_pulses_per_point`` pulses (default: the config's
    n_pulses) on an independent random stream derived from the run seed.
    Points store the interference phase, the raw central-window
    coincidence count, and the accidental-coincidence count (clicks not
    originating from one photon pair).
    """
    phases = list(phases)
    if not phases:
        raise ValueError("at least one phase is required")
    n_point = config.n_pulses if n_pulses_per_point is None else int(n_pulses_per_point)
    base = replace(config, n_pulses=n_point)
    point_seeds = [
        int(ss.generate_state(1, dtype=np.uint64)[0])
        for ss in np.random.SeedSequence(config.rng_seed).spawn(len(phases))
    ]
    points = []
    for phi, seed in zip(phases, point_seeds):
        cfg = _with_analyzer_phase(base, phi, seed)
        result = run_pulses(cfg, threads=threads)
        points.append(
            FringePoint(
                phase_rad=fringe_phase(cfg),
                raw_count=result.triple_coincidences,
                accidental_estimate=float(result.accidental_coincidences),
            )
        )
    return FringeScan(points=tuple(points))
