import json
import math
from dataclasses import replace

import numpy as np
import pytest

import timebin as tb
from timebin.cli import main
from timebin.engine import _classify
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


def outside_window_counts(hist, cfg):
    """Histogram counts outside the three windows; 50 ps bins share the window edges."""
    window = _classify(cfg.windows, cfg.source.bin_separation_s, hist.bin_centers_s)
    return hist.counts[window == 3].sum()


class TestSpecs:
    def test_analyzer_phase_stored_modulo_two_pi(self):
        interferometer = tb.InterferometerSpec(phi_analyzer=2.0 * math.pi + 0.3)
        assert interferometer.phi_analyzer == pytest.approx(0.3, abs=1e-12)

    def test_windows_must_not_overlap(self):
        # 1.3 ns windows around peaks 1.2 ns apart
        with pytest.raises(ValueError):
            replace(ideal_experiment(), windows=tb.CoincidenceWindows(window_width_s=1.3e-9))

    def test_detector_bounds(self):
        with pytest.raises(ValueError):
            tb.DetectorSpec(efficiency=1.2)
        with pytest.raises(ValueError):
            tb.DetectorSpec(dark_rate_cps=-1.0)

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
        for hist in (result.histogram_a, result.histogram_b):
            centres = hist.bin_centers_s[hist.counts > 0]
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
        assert outside_window_counts(result.histogram_a, cfg) == 0
        expected = tb.expected_tallies(cfg)
        assert expected.singles_a == pytest.approx(n * p_any, rel=1e-9)
        assert expected.middle_singles_a == pytest.approx(n * p_any / 3.0, rel=1e-9)
        assert outside_window_counts(expected.histogram_a, cfg) == 0

    def test_jitter_spreads_click_times(self):
        # a click lands inside its window with probability erf(w / (2 sqrt2 sigma))
        jitter = 150e-12
        det = tb.DetectorSpec(efficiency=1.0, dark_rate_cps=0.0, jitter_rms_s=jitter)
        cfg = detector_experiment(det, mu=0.1, n_pulses=2 * 10**6, seed=74)
        result = tb.run_pulses(cfg)
        sigma_click = math.hypot(cfg.source.pulse_width_s, jitter)
        p_in = math.erf(400e-12 / (2.0 * math.sqrt(2.0) * sigma_click))
        for hist, singles in ((result.histogram_a, result.singles_a),
                              (result.histogram_b, result.singles_b)):
            assert_binomial(singles - outside_window_counts(hist, cfg), singles, p_in)
        expected = tb.expected_tallies(cfg)
        for hist, singles in ((expected.histogram_a, expected.singles_a),
                              (expected.histogram_b, expected.singles_b)):
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
    """The half-open window rule, [centre - w/2, centre + w/2), in engine._classify."""

    WINDOWS = ideal_experiment(window_width_s=400e-12).windows
    DELAY = 1.2e-9

    def classify(self, *times):
        return _classify(self.WINDOWS, self.DELAY, np.array(times)).tolist()

    def test_window_centres(self):
        assert self.classify(0.0, 1.2e-9, 2.4e-9) == [0, 1, 2]

    def test_half_open_boundaries(self):
        half = 0.5 * self.WINDOWS.window_width_s
        for k, c in enumerate((0.0, self.DELAY, 2.0 * self.DELAY)):
            assert self.classify(c - half, c + half) == [k, 3]
            assert self.classify(np.nextafter(c + half, -np.inf)) == [k]
            assert self.classify(np.nextafter(c - half, -np.inf)) == [3]
        assert self.classify(1.2e-9 + 400e-12) == [3]

    def test_inside_last_window(self):
        assert self.classify(2.4e-9 - 100e-12) == [2]

    def test_between_windows(self):
        assert self.classify(0.6e-9) == [3]


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
