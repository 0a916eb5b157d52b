"""Pulse-by-pulse Monte Carlo of the full source / fiber / analyzer chain.

Each pump pulse carries a Poissonian number of photon pairs.  Per pulse
and per detector side at most one event is registered (the counting
electronics gate once per pump period), so when several pairs are present
the registered photons on the two sides belong to the same pair with
probability 1/n.  A same-pair registration carries the full two-photon
interference of the matched analyzers; photons from different pairs are
uncorrelated and contribute a flat background, which reproduces the 1/n
fringe dilution of multi-pair pulses.

The joint outcome of one pair is sampled from the exact port-resolved
distribution behind the analyzer: with f = V*cos(phi) the four output-port
patterns - (detector, detector), (detector, unmonitored), (unmonitored,
detector), (unmonitored, unmonitored) - have weights
(4+f, 4-f, 4-f, 4+f)/16, and within a pattern the seven reachable bin
pairs weight as

    (first,first) (first,mid) (mid,first) : alpha^2 each
    (mid,mid)                             : 1 +/- f
    (mid,last) (last,mid) (last,last)     : beta^2 each,

the sign following the pattern.  Monitored-port photons then face fiber
survival, analyzer excess loss and detector efficiency as one Bernoulli
thinning; arrival times are smeared by the broadened pulse width and
detector jitter and classified against the three coincidence windows, so
dispersion-induced bin flips and window acceptance emerge on their own.

Dark counts are generated only inside the three windows (events elsewhere
can never classify nor coincide); within a gate the earliest of photon and
dark event wins.  Pulses with neither pairs nor dark candidates are
accounted for in bulk, never materialised.

Determinism: results depend only on (rng_seed, n_pulses, batch_size).
Batches draw from independent counter-derived streams and merge
additively, so any batch execution order (or thread count) gives
bit-identical results.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .analysis import FringePoint, FringeScan
from .apparatus import CoincidenceWindows, DetectorSpec, InterferometerSpec
from .fiber import FiberSpec, broadened_pulse_width, survival_probability
from .source import SourceConfig

_DELAY_MATCH_TOL_S = 1e-15
_HIST_BINS_PER_DELAY = 24  # 50 ps bins for the default 1.2 ns delay


class ConfigurationError(ValueError):
    """Raised when an experiment description is internally inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete apparatus description for one run."""

    source: SourceConfig
    fiber_a: FiberSpec
    fiber_b: FiberSpec
    analyzers: tuple[InterferometerSpec, ...]
    detector_a: DetectorSpec
    detector_b: DetectorSpec
    windows: CoincidenceWindows
    n_pulses: int
    rng_seed: int
    batch_size: int = 50_000_000

    def __post_init__(self) -> None:
        if self.n_pulses <= 0:
            raise ConfigurationError("n_pulses must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if not self.analyzers:
            raise ConfigurationError("at least one analyzer is required")
        arrangement = self.analyzers[0].arrangement
        expected = 1 if arrangement == "folded" else 2
        if len(self.analyzers) != expected:
            raise ConfigurationError(
                f"{arrangement} arrangement needs {expected} analyzer(s), "
                f"got {len(self.analyzers)}"
            )
        if any(a.arrangement != arrangement for a in self.analyzers):
            raise ConfigurationError("analyzers disagree on the arrangement")
        for a in self.analyzers:
            if abs(a.delay_s - self.source.bin_separation_s) > _DELAY_MATCH_TOL_S:
                raise ConfigurationError(
                    "analyzer delay must match the source bin separation"
                )
        if abs(self.windows.delay_s - self.source.bin_separation_s) > _DELAY_MATCH_TOL_S:
            raise ConfigurationError(
                "window spacing must match the source bin separation"
            )


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Pump-referenced arrival-time histogram (counts per fixed-width bin)."""

    bin_edges_s: np.ndarray
    counts: np.ndarray

    def __add__(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        if not np.array_equal(self.bin_edges_s, other.bin_edges_s):
            raise ValueError("histograms have different binnings")
        return CoincidenceHistogram(self.bin_edges_s, self.counts + other.counts)

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
    """Tallies of one run; merging two results adds them bin by bin.

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

    def __add__(self, other: "RunResult") -> "RunResult":
        return RunResult(
            singles_a=self.singles_a + other.singles_a,
            singles_b=self.singles_b + other.singles_b,
            middle_singles_a=self.middle_singles_a + other.middle_singles_a,
            middle_singles_b=self.middle_singles_b + other.middle_singles_b,
            triple_coincidences=self.triple_coincidences + other.triple_coincidences,
            accidental_coincidences=(
                self.accidental_coincidences + other.accidental_coincidences
            ),
            histogram_a=self.histogram_a + other.histogram_a,
            histogram_b=self.histogram_b + other.histogram_b,
            n_pulses=self.n_pulses + other.n_pulses,
            duration_s=self.duration_s + other.duration_s,
        )

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


class _Side:
    """Per-detector precomputed sampling constants."""

    __slots__ = ("detect_prob", "sigma_click_s", "p_dark_win", "p_dark_any")

    def __init__(self, detect_prob, sigma_click_s, p_dark_win):
        self.detect_prob = detect_prob
        self.sigma_click_s = sigma_click_s
        self.p_dark_win = min(p_dark_win, 1.0)
        self.p_dark_any = 1.0 - (1.0 - self.p_dark_win) ** 3


class _Context:
    """Everything the batch kernel needs, derived once per run."""

    def __init__(self, config: ExperimentConfig) -> None:
        src = config.source
        state = src.state()
        self.alpha2 = state.alpha**2
        self.beta2 = state.beta**2
        self.vhat = 2.0 * state.alpha * state.beta
        self.mu = src.mean_pairs
        self.p_pair = -math.expm1(-self.mu)
        self.delay_s = src.bin_separation_s
        self.rep_rate_hz = src.rep_rate_hz

        analyzers = config.analyzers
        if analyzers[0].arrangement == "folded":
            total_phase = 2.0 * analyzers[0].phi_analyzer
            excess_a = excess_b = analyzers[0].excess_loss_db
            circ_a, circ_b = analyzers[0].circulator_loss_db, 0.0
        else:
            total_phase = analyzers[0].phi_analyzer + analyzers[1].phi_analyzer
            excess_a, excess_b = (a.excess_loss_db for a in analyzers)
            circ_a = circ_b = 0.0
        self.phi_fringe = total_phase - state.phi_pump
        self.sigma_phase = math.hypot(
            config.fiber_a.phase_jitter_rms, config.fiber_b.phase_jitter_rms
        )

        w = config.windows
        self.window_w_s = w.window_width_s
        self.centers_s = np.array(w.centers_s)

        self.sides: list[_Side] = []
        for fib, det, excess, circ in (
            (config.fiber_a, config.detector_a, excess_a, circ_a),
            (config.fiber_b, config.detector_b, excess_b, circ_b),
        ):
            detect = (
                survival_probability(fib)
                * 10.0 ** (-(excess + circ) / 10.0)
                * det.efficiency
            )
            sigma = math.hypot(
                broadened_pulse_width(fib, src.pulse_width_s), det.jitter_rms_s
            )
            self.sides.append(
                _Side(detect, sigma, det.dark_rate_cps * w.window_width_s)
            )

        # Zero-truncated Poisson lookup for the pair count of a pair pulse.
        if self.mu > 0.0:
            n_max = max(20, int(self.mu + 12.0 * math.sqrt(self.mu) + 25.0))
            ns = np.arange(1, n_max + 1, dtype=np.float64)
            log_p = ns * math.log(self.mu) - self.mu - np.cumsum(np.log(ns))
            probs = np.exp(log_p)
            probs /= probs.sum()
            self.pair_count_cum = np.cumsum(probs)
        else:
            self.pair_count_cum = np.array([1.0])

        # Histogram binning spanning all reachable click times.
        nbins = 3 * _HIST_BINS_PER_DELAY
        self.hist_lo = -0.5 * self.delay_s
        self.hist_binw = 3.0 * self.delay_s / nbins
        self.hist_nbins = nbins
        self.bin_edges_s = self.hist_lo + self.hist_binw * np.arange(nbins + 1)

    def empty_histogram_counts(self) -> np.ndarray:
        return np.zeros(self.hist_nbins, dtype=np.int64)


# Bin-pair lookup for the seven reachable joint outcomes, one table per side.
_JOINT_BINS = (
    np.array([0, 0, 1, 1, 1, 2, 2], dtype=np.int8),
    np.array([0, 1, 0, 1, 2, 1, 2], dtype=np.int8),
)


def _classify(ctx: _Context, times: np.ndarray) -> np.ndarray:
    """Window index per click time: 0, 1, 2, or 3 for none."""
    half = 0.5 * ctx.window_w_s
    cls = np.full(times.shape, 3, dtype=np.int8)
    for k in range(3):
        c = ctx.centers_s[k]
        cls[(times >= c - half) & (times < c + half)] = k
    return cls


def _hist_add(ctx: _Context, hist: np.ndarray, times: np.ndarray) -> None:
    idx = ((times - ctx.hist_lo) / ctx.hist_binw).astype(np.int64)
    np.clip(idx, 0, ctx.hist_nbins - 1, out=idx)
    hist += np.bincount(idx, minlength=ctx.hist_nbins)


def _sample_joint_bins(
    ctx: _Context, f: np.ndarray, rng: np.random.Generator
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Port pattern and joint bins for same-pair registrations.

    ``f`` is the per-row fringe term V*cos(phi).  Returns the boolean
    monitored-port flags and the bin indices, each as a pair of arrays
    indexed by side.
    """
    m = f.size
    r = rng.random(m) * 16.0
    pattern = (
        (r >= 4.0 + f).astype(np.int8)
        + (r >= 8.0)
        + (r >= 12.0 - f)
    )
    sign_f = np.where((pattern == 0) | (pattern == 3), f, -f)

    a2, b2 = ctx.alpha2, ctx.beta2
    total = 4.0 + sign_f
    r2 = rng.random(m) * total
    c3 = 3.0 * a2 + 1.0 + sign_f
    k = (
        (r2 >= a2).astype(np.int8)
        + (r2 >= 2.0 * a2)
        + (r2 >= 3.0 * a2)
        + (r2 >= c3)
        + (r2 >= c3 + b2)
        + (r2 >= c3 + 2.0 * b2)
    )
    monitored = (pattern <= 1, (pattern == 0) | (pattern == 2))
    return monitored, (_JOINT_BINS[0][k], _JOINT_BINS[1][k])


def _dark_candidates(
    ctx: _Context, side: _Side, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-row dark-event time, +inf where no dark candidate fires."""
    t = np.full(m, np.inf)
    if side.p_dark_any <= 0.0 or m == 0:
        return t
    mask = rng.random(m) < side.p_dark_any
    n = int(mask.sum())
    if n:
        win = rng.integers(0, 3, n)
        offs = (rng.random(n) - 0.5) * ctx.window_w_s
        t[mask] = ctx.centers_s[win] + offs
    return t


def _run_batch(ctx: _Context, n_pulses: int, rng: np.random.Generator) -> RunResult:
    singles = [0, 0]
    mid = [0, 0]
    hist = [ctx.empty_histogram_counts(), ctx.empty_histogram_counts()]
    triples = accidentals = 0

    m_pair = int(rng.binomial(n_pulses, ctx.p_pair)) if ctx.p_pair > 0.0 else 0

    if m_pair:
        n_pairs = np.searchsorted(ctx.pair_count_cum, rng.random(m_pair)) + 1
        phi = np.full(m_pair, ctx.phi_fringe)
        if ctx.sigma_phase > 0.0:
            phi += rng.normal(0.0, ctx.sigma_phase, m_pair)
        fringe = ctx.vhat * np.cos(phi)

        same = rng.random(m_pair) < 1.0 / n_pairs
        det = np.zeros((2, m_pair), dtype=bool)
        bins = np.zeros((2, m_pair), dtype=np.int8)

        idx_same = np.flatnonzero(same)
        if idx_same.size:
            monitored, joint_bins = _sample_joint_bins(ctx, fringe[idx_same], rng)
            for s, side in enumerate(ctx.sides):
                det[s, idx_same] = monitored[s] & (rng.random(idx_same.size) < side.detect_prob)
                bins[s, idx_same] = joint_bins[s]

        idx_diff = np.flatnonzero(~same)
        if idx_diff.size:
            a2 = ctx.alpha2
            for s, side in enumerate(ctx.sides):
                det[s, idx_diff] = rng.random(idx_diff.size) < 0.5 * side.detect_prob
                u = rng.random(idx_diff.size)
                bins[s, idx_diff] = (u >= 0.5 * a2).astype(np.int8) + (u >= 0.5 * a2 + 0.5)

        triple = np.ones(m_pair, dtype=bool)
        correlated = same
        for s, side in enumerate(ctx.sides):
            t_photon = np.full(m_pair, np.inf)
            hit = det[s]
            n_hit = int(hit.sum())
            if n_hit:
                t_photon[hit] = bins[s, hit] * ctx.delay_s + rng.normal(
                    0.0, side.sigma_click_s, n_hit
                )
            t_dark = _dark_candidates(ctx, side, m_pair, rng)
            t_click = np.minimum(t_photon, t_dark)
            correlated = correlated & np.isfinite(t_photon) & (t_photon <= t_dark)
            fired = np.isfinite(t_click)
            times = t_click[fired]
            in_mid = np.zeros(m_pair, dtype=bool)
            in_mid[fired] = _classify(ctx, times) == 1
            singles[s] += times.size
            mid[s] += int(in_mid.sum())
            _hist_add(ctx, hist[s], times)
            triple &= in_mid
        triples += int(triple.sum())
        accidentals += int(triple.sum()) - int((triple & correlated).sum())

    # Pulses without pairs: dark-only activity, drawn in bulk.
    n_rest = n_pulses - m_pair
    p_a, p_b = ctx.sides[0].p_dark_any, ctx.sides[1].p_dark_any
    if n_rest and (p_a > 0.0 or p_b > 0.0):
        p_ab = p_a * p_b
        counts = rng.multinomial(
            n_rest,
            [p_ab, p_a - p_ab, p_b - p_ab, 1.0 - p_a - p_b + p_ab],
        )
        # Both sides dark, side a only, side b only.
        for n, sides in zip(counts[:3].tolist(), ((0, 1), (0,), (1,))):
            if not n:
                continue
            in_mid = np.ones(n, dtype=bool)
            for s in sides:
                win = rng.integers(0, 3, n)
                t = ctx.centers_s[win] + (rng.random(n) - 0.5) * ctx.window_w_s
                singles[s] += n
                mid[s] += int((win == 1).sum())
                _hist_add(ctx, hist[s], t)
                in_mid &= win == 1
            if len(sides) == 2:
                dark_triples = int(in_mid.sum())
                triples += dark_triples
                accidentals += dark_triples

    return RunResult(
        singles_a=singles[0],
        singles_b=singles[1],
        middle_singles_a=mid[0],
        middle_singles_b=mid[1],
        triple_coincidences=triples,
        accidental_coincidences=accidentals,
        histogram_a=CoincidenceHistogram(ctx.bin_edges_s, hist[0]),
        histogram_b=CoincidenceHistogram(ctx.bin_edges_s, hist[1]),
        n_pulses=n_pulses,
        duration_s=n_pulses / ctx.rep_rate_hz,
    )


def run_pulses(config: ExperimentConfig, *, threads: int = 1) -> RunResult:
    """Simulate the configured number of pump pulses.

    Deterministic for a given (rng_seed, n_pulses, batch_size) regardless
    of thread count; batches use independent derived random streams and
    their results add.
    """
    ctx = _Context(config)
    n_batches = -(-config.n_pulses // config.batch_size)
    sizes = [config.batch_size] * (n_batches - 1)
    sizes.append(config.n_pulses - config.batch_size * (n_batches - 1))
    children = np.random.SeedSequence(config.rng_seed).spawn(n_batches)

    def one(i: int) -> RunResult:
        return _run_batch(ctx, sizes[i], np.random.Generator(np.random.PCG64(children[i])))

    if threads > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(n_batches)))
    else:
        results = [one(i) for i in range(n_batches)]

    # Summed batch durations can differ from the run's in the last bit.
    return replace(
        reduce(operator.add, results),
        duration_s=config.n_pulses / config.source.rep_rate_hz,
    )


def _with_analyzer_phase(config: ExperimentConfig, phi: float, seed: int) -> ExperimentConfig:
    analyzers = (replace(config.analyzers[0], phi_analyzer=phi),) + config.analyzers[1:]
    return replace(config, analyzers=analyzers, rng_seed=seed)


def fringe_phase(config: ExperimentConfig) -> float:
    """Interference phase of the configured apparatus (cosine argument)."""
    return _Context(config).phi_fringe


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
                integration_s=result.duration_s,
            )
        )
    return FringeScan(points=tuple(points))
