import json
import math
from bisect import bisect_right

import numpy as np
import pytest

import timebin as tb
from timebin.cli import main
from timebin.engine import _cells
from timebin.record import replace
from .conftest import ideal_experiment

Z = 4.0  # bound on |observed - expected| / sigma for the seeded statistical checks


def detector_experiment(det_a, det_b=None, pulse_width_s=None, **kwargs):
    """Lossless apparatus with the given detectors and pump pulse width."""
    cfg = ideal_experiment(**kwargs)
    source = cfg.source if pulse_width_s is None else replace(
        cfg.source, pulse_width_s=pulse_width_s
    )
    return replace(cfg, source=source, detector_a=det_a, detector_b=det_b or det_a)


def assert_binomial(observed, n, p):
    sigma = math.sqrt(n * p * (1.0 - p))
    assert abs(observed - n * p) <= Z * sigma


def window_of(t, width, delay):
    """The half-open window rule: k if c - w/2 <= t < c + w/2 for c = k * delay, else 3."""
    half = 0.5 * width
    centres = (0.0, delay, 2.0 * delay)
    return next((k for k, c in enumerate(centres) if c - half <= t < c + half), 3)


def outside_window_counts(hist, cfg):
    """Histogram counts outside the three windows; 50 ps bins share the window edges."""
    width, delay = cfg.window_width_s, cfg.source.bin_separation_s
    window = np.array([window_of(t, width, delay) for t in hist.bin_centers_s])
    return np.asarray(hist.counts)[window == 3].sum()


class TestSpecs:
    def test_analyzer_phase_stored_modulo_two_pi(self):
        interferometer = tb.InterferometerSpec(phi_analyzer=2.0 * math.pi + 0.3)
        assert interferometer.phi_analyzer == pytest.approx(0.3, abs=1e-12)

    def test_tiny_negative_phase_wraps_below_two_pi(self):
        # -5e-324 % (2 pi) is 2 pi itself in floating point.
        interferometer = tb.InterferometerSpec(phi_analyzer=-5e-324)
        assert 0.0 <= interferometer.phi_analyzer < 2.0 * math.pi
        again = tb.InterferometerSpec(phi_analyzer=interferometer.phi_analyzer)
        assert again == interferometer

    def test_windows_must_not_overlap(self):
        # 1.3 ns windows around peaks 1.2 ns apart
        with pytest.raises(ValueError, match="^window_width_s 1.3e-09 must be below the bin"):
            replace(ideal_experiment(), window_width_s=1.3e-9)

    def test_detector_bounds(self):
        with pytest.raises(ValueError):
            tb.DetectorSpec(efficiency=1.2)
        with pytest.raises(ValueError):
            tb.DetectorSpec(dark_rate_cps=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "record, field",
        [
            pytest.param(record, field, id=f"{record.__name__}.{field}")
            for record in (
                tb.SourceConfig, tb.FiberSpec, tb.InterferometerSpec, tb.DetectorSpec,
                tb.ExperimentConfig,
            )
            for field, default in record._defaults.items()
            if isinstance(default, float)
        ],
    )
    def test_non_finite_input_refused(self, record, field, value):
        with pytest.raises(ValueError):
            record(**{field: value})

    def test_unknown_arrangement(self, tmp_path, capsys):
        path = tmp_path / "stacked.json"
        path.write_text(json.dumps({"analyzer": {"arrangement": "stacked"}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert "analyzer.arrangement: unknown value 'stacked'" in capsys.readouterr().err


class TestDetectClick:
    """The engine's detector gate, checked against exact expectations."""

    def test_perfect_detector_clicks_at_arrival(self):
        # 1 fs pump pulse, no jitter: every click sits in a 50 ps histogram
        # bin bordering its photon's arrival time 0, delay or 2*delay.
        det = tb.DetectorSpec(efficiency=1.0, dark_rate_cps=0.0, jitter_rms_s=0.0)
        cfg = detector_experiment(det, pulse_width_s=1e-15, mu=0.05, n_pulses=10**6, seed=71)
        result = tb.run_pulses(cfg)
        assert result.singles_a > 0
        for hist in tb.run_histograms(cfg)[1:]:
            centres = np.asarray(hist.bin_centers_s)[np.asarray(hist.counts) > 0]
            offset = np.abs(centres[:, None] - np.array([0.0, 1.2e-9, 2.4e-9])).min(axis=1)
            assert offset.max() <= 25e-12 + 1e-15

    def test_dead_detector_never_clicks(self):
        # zero efficiency and no dark counts on side a: no singles there even
        # with photons arriving, hence no coincidence although side b clicks
        dead = tb.DetectorSpec(efficiency=0.0, dark_rate_cps=0.0, jitter_rms_s=0.0)
        live = tb.DetectorSpec(efficiency=1.0, dark_rate_cps=0.0, jitter_rms_s=0.0)
        result = tb.run_pulses(detector_experiment(dead, live, mu=0.1, n_pulses=10**6, seed=72))
        assert result.singles_a == result.middle_singles_a == 0
        assert result.triple_coincidences == 0
        assert result.singles_b > 0

    def test_dark_click_frequency(self):
        # dark counts only: one candidate chance per window, r * w each, the
        # registered click in a uniformly chosen window and never outside one
        rate = 2.5e6
        det = tb.DetectorSpec(efficiency=0.0, dark_rate_cps=rate, jitter_rms_s=0.0)
        n = 4 * 10**6
        cfg = detector_experiment(det, mu=0.05, n_pulses=n, seed=73)
        result = tb.run_pulses(cfg)
        p_any = 1.0 - (1.0 - rate * 400e-12) ** 3
        assert_binomial(result.singles_a, n, p_any)
        assert_binomial(result.middle_singles_a, n, p_any / 3.0)
        assert outside_window_counts(tb.run_histograms(cfg)[1], cfg) == 0
        expected = tb.expected_tallies(cfg)
        assert expected.singles_a == pytest.approx(n * p_any, rel=1e-9)
        assert expected.middle_singles_a == pytest.approx(n * p_any / 3.0, rel=1e-9)
        assert outside_window_counts(tb.expected_histograms(cfg)[0], cfg) == 0

    def test_jitter_spreads_click_times(self):
        # a click lands inside its window with probability erf(w / (2 sqrt2 sigma))
        jitter = 150e-12
        det = tb.DetectorSpec(efficiency=1.0, dark_rate_cps=0.0, jitter_rms_s=jitter)
        cfg = detector_experiment(det, mu=0.1, n_pulses=2 * 10**6, seed=74)
        result = tb.run_pulses(cfg)
        sigma_click = math.hypot(cfg.source.pulse_width_s, jitter)
        p_in = math.erf(400e-12 / (2.0 * math.sqrt(2.0) * sigma_click))
        for hist, singles in zip(tb.run_histograms(cfg)[1:], (result.singles_a, result.singles_b)):
            assert_binomial(singles - outside_window_counts(hist, cfg), singles, p_in)
        expected = tb.expected_tallies(cfg)
        for hist, singles in zip(
            tb.expected_histograms(cfg), (expected.singles_a, expected.singles_b)
        ):
            inside = singles - outside_window_counts(hist, cfg)
            assert inside / singles == pytest.approx(p_in, rel=1e-9)

    def test_earliest_event_wins(self):
        # Zero jitter (1 fs pulse), so photons land at 0, delay, 2*delay.  A
        # dark candidate in window 0 beats photons in bins 1 and 2, one in
        # window 1 beats a photon in bin 2.  A central-window click therefore
        # needs a window-1 dark candidate with no bin-0 photon, or a bin-1
        # photon with no dark candidate in window 0 or 1.
        rate = 5e8  # 0.2 dark candidates per 400 ps window
        det = tb.DetectorSpec(efficiency=1.0, dark_rate_cps=rate, jitter_rms_s=0.0)
        mu, n = 1.0, 10**6
        cfg = detector_experiment(det, pulse_width_s=1e-15, mu=mu, n_pulses=n, seed=75)
        result = tb.run_pulses(cfg)
        p_dark = 1.0 - (1.0 - rate * 400e-12) ** 3
        p_photon = -math.expm1(-mu) / 2.0  # photon at side a's monitored port
        bin_share = (0.25, 0.5, 0.25)  # (alpha^2 / 2, 1 / 2, beta^2 / 2)
        p_mid = (p_dark / 3.0) * (1.0 - p_photon * bin_share[0]) + p_photon * bin_share[1] * (
            1.0 - 2.0 * p_dark / 3.0
        )
        assert_binomial(result.middle_singles_a, n, p_mid)
        assert tb.expected_tallies(cfg).middle_singles_a == pytest.approx(n * p_mid, rel=1e-9)
        # the law if photons always won the race is excluded
        p_photon_first = (p_dark / 3.0) * (1.0 - p_photon) + p_photon * bin_share[1]
        sigma = math.sqrt(n * p_mid * (1.0 - p_mid))
        assert abs(result.middle_singles_a - n * p_photon_first) > 10.0 * sigma


class TestClassifyBin:
    """The window engine._cells gives the time cell that holds a click at t.

    Windows of 400 ps centred on 0, 1.2 and 2.4 ns; 3 is "no window".
    """

    WIDTH = 400e-12
    DELAY = 1.2e-9

    def window(self, t):
        _, edges, in_window, (central, _, _), _ = _cells(self.WIDTH, self.DELAY)
        i = bisect_right(edges, t) - 1
        if not in_window[i]:
            return 3
        if i in central:
            return 1
        return 0 if i < central[0] else 2

    def test_window_centres(self):
        assert self.window(0.0) == 0
        assert self.window(1.2e-9) == 1
        assert self.window(2.4e-9) == 2

    def test_half_open_boundaries(self):
        half = 200e-12
        assert self.window(1.2e-9 + 400e-12) == 3
        assert self.window(1.2e-9 + half) == 3
        assert self.window(1.2e-9 - half) == 1

    def test_inside_last_window(self):
        assert self.window(2.4e-9 - 100e-12) == 2

    def test_between_windows(self):
        assert self.window(0.6e-9) == 3


class TestCellWindows:
    """engine._cells puts each time cell in the window of its lower edge.

    Window edges that meet the 50 ps bin edges (400 ps), that meet none
    (333 ps) and windows that nearly touch (1190 ps), at 1.2 ns.
    """

    DELAY = 1.2e-9
    WIDTHS = pytest.mark.parametrize(
        "width", [400e-12, 333e-12, 1190e-12], ids=["400ps", "333ps", "1190ps"]
    )

    def cells(self, width):
        return _cells(width, self.DELAY)

    @WIDTHS
    def test_every_cell_follows_the_half_open_rule(self, width):
        _, edges, in_window, groups, _ = self.cells(width)
        window = [window_of(lo, width, self.DELAY) for lo in edges[:-1]]
        assert list(in_window) == [k < 3 for k in window]
        assert groups == (
            tuple(i for i, k in enumerate(window) if k == 1),
            tuple(i for i, k in enumerate(window) if k != 1),
            (len(window),),
        )

    @WIDTHS
    def test_a_window_starts_a_cell_and_its_end_starts_the_next(self, width):
        _, edges, in_window, (central, _, _), _ = self.cells(width)
        half = 0.5 * width
        for k, c in enumerate((0.0, self.DELAY, 2.0 * self.DELAY)):
            start, end = edges.index(c - half), edges.index(c + half)
            assert all(in_window[start:end]) and not in_window[end]
            assert (start in central) == (k == 1) and end not in central
        # the three windows' cells add up to three window widths
        inside = [hi - lo for lo, hi, i in zip(edges, edges[1:], in_window) if i]
        assert sum(inside) == pytest.approx(3.0 * width, rel=1e-12)


class TestCellBins:
    """engine._cells gives every time cell the histogram bin that holds it.

    The widths of ``TestCellWindows``; "no click" is one past the last bin.
    """

    DELAY = TestCellWindows.DELAY
    WIDTHS = TestCellWindows.WIDTHS

    @WIDTHS
    def test_every_cell_lies_in_its_bin(self, width):
        bin_edges, edges, _, _, bin_of = _cells(width, self.DELAY)
        tol = 1e-9 * (bin_edges[1] - bin_edges[0])  # a window edge this near a bin edge replaces it
        # the outer cells reach to -inf and inf and belong to the edge bins
        assert bin_of[0] == 0 and bin_of[len(edges) - 2] == len(bin_edges) - 2
        for lo, hi, k in zip(edges, edges[1:], bin_of):
            assert lo == -math.inf or bin_edges[k] - tol <= lo, (lo, k)
            assert hi == math.inf or hi <= bin_edges[k + 1] + tol, (hi, k)

    @WIDTHS
    def test_bins_never_decrease_and_hold_one_or_two_cells(self, width):
        bin_edges, edges, _, _, bin_of = _cells(width, self.DELAY)
        time_cells = list(bin_of[: len(edges) - 1])
        assert time_cells == sorted(time_cells)
        per_bin = [time_cells.count(k) for k in range(len(bin_edges) - 1)]
        assert set(per_bin) <= {1, 2} and sum(per_bin) == len(time_cells), per_bin

    @WIDTHS
    def test_no_click_is_one_past_the_last_bin(self, width):
        bin_edges, edges, _, (_, _, (no_click,)), bin_of = _cells(width, self.DELAY)
        assert no_click == len(bin_of) - 1 == len(edges) - 1
        assert bin_of[no_click] == len(bin_edges) - 1


class TestAccidentalRate:
    def test_darks_only_run_matches_product_estimate(self):
        # photons off: every middle-window coincidence is accidental, and the
        # per-pulse product of measured middle singles predicts their number
        cfg = ideal_experiment(mu=0.0, n_pulses=4 * 10**7, seed=9)
        dark = tb.DetectorSpec(efficiency=0.0, dark_rate_cps=3e6, jitter_rms_s=0.0)
        cfg = replace(cfg, detector_a=dark, detector_b=dark)
        result = tb.run_pulses(cfg)
        assert result.accidental_coincidences == result.triple_coincidences
        predicted = result.singles_product_estimate()
        assert predicted > 20
        assert abs(result.triple_coincidences - predicted) <= 3.0 * math.sqrt(predicted)
