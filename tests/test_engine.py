import json
import math
from dataclasses import replace

import numpy as np
import pytest

import timebin as tb
from timebin.cli import main
from timebin.config_io import build_experiment, default_config_dict
from .conftest import analyzer_phases, ideal_experiment, truncated_mean_inverse

COUNT_FIELDS = (
    "singles_a", "singles_b", "middle_singles_a", "middle_singles_b",
    "triple_coincidences", "accidental_coincidences",
)
IDEAL_DETECTOR = {"efficiency": 1.0, "dark_rate_cps": 0.0, "jitter_ps": 0.0}
# Overrides of the shipped defaults, spanning every branch of the outcome law.
LAW_GRID = {
    "default_0km": {},
    "default_11km": {"fiber_a": {"length_km": 11.0}, "fiber_b": {"length_km": 11.0}},
    "default_25km": {"fiber_a": {"length_km": 25.0}, "fiber_b": {"length_km": 25.0}},
    "lossless_mu0.4": {
        "source": {"mean_pairs": 0.4},
        "fiber_a": {"phase_jitter_rad": 0.0},
        "fiber_b": {"phase_jitter_rad": 0.0},
        "analyzer": {"excess_loss_db": 0.0, "circulator_loss_db": 0.0},
        "detector_a": IDEAL_DETECTOR,
        "detector_b": IDEAL_DETECTOR,
    },
    "mu1_asymmetric": {
        "source": {"mean_pairs": 1.0, "arm_attenuation_a": 0.8, "arm_attenuation_b": 0.2},
        "fiber_a": {"length_km": 20.0, "phase_jitter_rad": 0.5},
        "fiber_b": {"length_km": 5.0, "center_wavelength_nm": 1330.0, "phase_jitter_rad": 0.2},
        "analyzer": {"phase_rad": 0.4},
        "detector_a": {"efficiency": 0.6, "dark_rate_cps": 5e8, "jitter_ps": 150.0},
        "detector_b": {"efficiency": 0.3, "dark_rate_cps": 1e8, "jitter_ps": 150.0},
    },
    "independent_333ps": {
        "source": {"mean_pairs": 0.2},
        "analyzer": {"arrangement": "independent", "phase_rad": 0.3, "phase_b_rad": 0.5},
        "windows": {"window_width_ps": 333.0},
        "detector_a": {"dark_rate_cps": 2e7, "jitter_ps": 300.0},
        "detector_b": {"dark_rate_cps": 2e7, "jitter_ps": 300.0},
    },
    "dark_only": {
        "source": {"mean_pairs": 0.0},
        "detector_a": {"dark_rate_cps": 5e6},
        "detector_b": {"dark_rate_cps": 5e6},
    },
}


def chi2_z(observed, expected):
    """z of Pearson's chi-square; categories expecting under 5 counts are pooled."""
    small = expected < 5.0
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    if expected[-1] == 0.0:
        assert observed[-1] == 0
        observed, expected = observed[:-1], expected[:-1]
    dof = expected.size - 1
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return (chi2 - dof) / math.sqrt(2.0 * dof)


class TestConfigValidation:
    def test_delay_must_match_bin_separation(self, tmp_path, capsys):
        path = tmp_path / "delay.json"
        path.write_text(json.dumps({"analyzer": {"delay_ns": 1.3}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "analyzer delay must match the source bin separation" in capsys.readouterr().err

    def test_independent_arrangement_needs_two_analyzers(self):
        # one analyzer is the folded arrangement, two the independent one
        cfg = ideal_experiment()
        for analyzers in ((), cfg.analyzers * 3):
            with pytest.raises(tb.ConfigurationError):
                replace(cfg, analyzers=analyzers)

    def test_positive_pulse_count(self):
        with pytest.raises(tb.ConfigurationError):
            replace(ideal_experiment(), n_pulses=0)


class TestRunPulses:
    def test_empty_source_and_dark_free_detectors_yield_zeros(self):
        cfg = ideal_experiment(mu=0.0, n_pulses=10**6, seed=3)
        result = tb.run_pulses(cfg)
        assert result.singles_a == result.singles_b == 0
        assert result.triple_coincidences == 0
        assert result.accidental_coincidences == 0
        assert result.histogram_a.counts.sum() == 0

    def test_deterministic_given_seed(self):
        cfg = ideal_experiment(mu=0.05, n_pulses=10**6, seed=11)
        assert tb.run_pulses(cfg) == tb.run_pulses(cfg)

    def test_thread_count_does_not_change_result(self):
        cfg = replace(ideal_experiment(mu=0.05, n_pulses=10**6, seed=11), batch_size=200_000)
        assert tb.run_pulses(cfg) == tb.run_pulses(cfg, threads=3)

    def test_histogram_totals_equal_singles(self):
        cfg = ideal_experiment(mu=0.05, n_pulses=10**6, seed=7)
        result = tb.run_pulses(cfg)
        assert result.histogram_a.counts.sum() == result.singles_a
        assert result.histogram_b.counts.sum() == result.singles_b

    def test_windows_below_float_resolution_stay_empty(self):
        # a 1e-312 s window vanishes around the 1.2 ns and 2.4 ns centres
        result = tb.run_pulses(ideal_experiment(mu=0.1, n_pulses=10**5, window_width_s=1e-312))
        assert result.singles_a > 0
        assert result.middle_singles_a == result.triple_coincidences == 0

    def test_duration_reflects_rep_rate(self):
        cfg = ideal_experiment(n_pulses=8 * 10**6)
        assert tb.run_pulses(cfg).duration_s == pytest.approx(0.1, rel=1e-12)

    def test_full_contrast_between_fringe_extremes(self):
        r_max = tb.run_pulses(ideal_experiment(phi_analyzer=0.0, seed=21))
        r_min = tb.run_pulses(ideal_experiment(phi_analyzer=math.pi / 2, seed=22))
        assert r_max.triple_coincidences >= 50 * max(r_min.triple_coincidences, 1)

    def test_side_peak_asymmetry_tracks_amplitudes(self):
        cfg = ideal_experiment(alpha_sq=0.8, n_pulses=2 * 10**7, seed=13)
        result = tb.run_pulses(cfg)
        thirds = result.histogram_a.counts.reshape(3, -1).sum(axis=1)
        ratio = thirds[0] / thirds[2]
        sigma = ratio * math.sqrt(1.0 / thirds[0] + 1.0 / thirds[2])
        assert abs(ratio - 4.0) <= 3.0 * sigma

    def test_singles_linear_coincidences_quadratic_in_survival(self):
        # halve the per-photon survival via a 3.0103 dB span at zero dispersion
        lossless = replace(
            ideal_experiment(mu=0.02, n_pulses=4 * 10**6, seed=17),
            fiber_a=tb.FiberSpec(length_km=0.0, dispersion_slope_ps_nm2_km=0.0,
                                 phase_jitter_rms=0.0),
            fiber_b=tb.FiberSpec(length_km=0.0, dispersion_slope_ps_nm2_km=0.0,
                                 phase_jitter_rms=0.0),
        )
        half = replace(
            lossless,
            fiber_a=replace(lossless.fiber_a, length_km=1.0, attenuation_db_per_km=3.0103),
            fiber_b=replace(lossless.fiber_b, length_km=1.0, attenuation_db_per_km=3.0103),
            rng_seed=18,
        )
        r1, r2 = tb.run_pulses(lossless), tb.run_pulses(half)
        singles_ratio = r1.singles_a / r2.singles_a
        assert singles_ratio == pytest.approx(2.0, rel=0.05)
        product_ratio = r1.singles_product_estimate() / r2.singles_product_estimate()
        assert product_ratio == pytest.approx(4.0, rel=0.15)
        triples_ratio = r1.triple_coincidences / r2.triple_coincidences
        assert triples_ratio == pytest.approx(4.0, rel=0.15)


class TestOutcomeLaw:
    @pytest.mark.parametrize("name", sorted(LAW_GRID))
    def test_run_follows_expected_tallies(self, name):
        cfg = default_config_dict()
        for section, values in LAW_GRID[name].items():
            cfg[section].update(values)
        cfg["run"].update(n_pulses=10**9, seed=4321)
        experiment, _ = build_experiment(cfg)
        result, expected = tb.run_pulses(experiment), tb.expected_tallies(experiment)
        n = result.n_pulses
        for field in COUNT_FIELDS:
            observed, mean = getattr(result, field), getattr(expected, field)
            assert mean > 0.0
            sigma = math.sqrt(mean * (1.0 - mean / n))
            assert abs(observed - mean) <= 4.0 * sigma, field
        for run_hist, mean_hist, singles in (
            (result.histogram_a, expected.histogram_a, result.singles_a),
            (result.histogram_b, expected.histogram_b, result.singles_b),
        ):
            observed = np.append(run_hist.counts, n - singles)
            mean = np.append(mean_hist.counts, n - mean_hist.counts.sum())
            assert abs(chi2_z(observed, mean)) <= 4.0


class TestPhaseScan:
    def test_scan_records_fringe_phase_and_integration(self):
        cfg = ideal_experiment(n_pulses=10**5, phi_pump=0.4)
        scan = tb.run_phase_scan(cfg, [0.0, 0.5])
        assert scan.points[0].phase_rad == pytest.approx(-0.4, abs=1e-12)
        assert scan.points[1].phase_rad == pytest.approx(2 * 0.5 - 0.4, abs=1e-12)

    def test_single_point_scan_counts_follow_probability(self):
        cfg = ideal_experiment(n_pulses=10**6, seed=5)
        scan = tb.run_phase_scan(cfg, [0.0])
        norm = 1.0 - math.exp(-0.01)
        expected = 10**6 * norm * (1 + truncated_mean_inverse(0.01)) / 16.0
        assert abs(scan.points[0].raw_count - expected) <= 4.0 * math.sqrt(expected)

    def test_scan_is_deterministic(self):
        cfg = ideal_experiment(n_pulses=10**5, seed=6)
        s1 = tb.run_phase_scan(cfg, analyzer_phases(4))
        s2 = tb.run_phase_scan(cfg, analyzer_phases(4))
        assert s1 == s2

    def test_fringe_phase_for_arrangements(self):
        folded = ideal_experiment(phi_analyzer=0.7, phi_pump=0.2)
        assert tb.fringe_phase(folded) == pytest.approx(2 * 0.7 - 0.2, abs=1e-12)
        pair = (
            replace(folded.analyzers[0], phi_analyzer=0.7),
            replace(folded.analyzers[0], phi_analyzer=0.3, circulator_loss_db=0.0),
        )
        independent = replace(folded, analyzers=pair)
        assert tb.fringe_phase(independent) == pytest.approx(0.7 + 0.3 - 0.2, abs=1e-12)

    def test_requires_phases(self):
        with pytest.raises(ValueError):
            tb.run_phase_scan(ideal_experiment(n_pulses=10**5), [])


class TestAgainstClosedForms:
    def test_fitted_visibility_tracks_analytic_over_states(self):
        # near-single-pair regime: the fitted net visibility is the ideal one
        phases = analyzer_phases(12)
        for alpha_sq, seed in ((0.5, 31), (0.6, 32), (0.7, 33), (0.8, 34), (0.99, 35)):
            cfg = ideal_experiment(alpha_sq=alpha_sq, mu=0.005, n_pulses=6 * 10**6, seed=seed)
            scan = tb.subtract_accidentals(tb.run_phase_scan(cfg, phases))
            fit = tb.fit_fringe(scan)
            expected = 2.0 * math.sqrt(alpha_sq * (1.0 - alpha_sq))
            assert abs(fit.visibility_unclamped - expected) <= 3.0 * fit.visibility_sigma

    def test_loss_does_not_touch_net_visibility(self):
        phases = analyzer_phases(12)
        fits = []
        for km, seed in ((0.0, 41), (11.0, 42)):
            cfg = ideal_experiment(alpha_sq=0.7, mu=0.01, n_pulses=2 * 10**7, seed=seed)
            fiber = tb.FiberSpec(length_km=km, dispersion_slope_ps_nm2_km=0.0,
                                 phase_jitter_rms=0.0)
            cfg = replace(cfg, fiber_a=fiber, fiber_b=fiber)
            scan = tb.subtract_accidentals(tb.run_phase_scan(cfg, phases))
            fits.append(tb.fit_fringe(scan))
        delta = abs(fits[0].visibility_unclamped - fits[1].visibility_unclamped)
        combined = math.hypot(fits[0].visibility_sigma, fits[1].visibility_sigma)
        assert delta <= 3.0 * combined

    def test_folded_and_independent_arrangements_agree(self):
        phases = analyzer_phases(12)
        folded = ideal_experiment(mu=0.01, n_pulses=10**7, seed=51)
        fiber_short = tb.FiberSpec(length_km=2.4, phase_jitter_rms=0.0)
        pair = (folded.analyzers[0], folded.analyzers[0])
        independent = replace(
            folded, analyzers=pair, fiber_a=fiber_short, fiber_b=fiber_short, rng_seed=52
        )
        fits = [
            tb.fit_fringe(tb.subtract_accidentals(tb.run_phase_scan(cfg, phases)))
            for cfg in (folded, independent)
        ]
        delta = abs(fits[0].visibility_unclamped - fits[1].visibility_unclamped)
        combined = math.hypot(fits[0].visibility_sigma, fits[1].visibility_sigma)
        assert delta <= 3.0 * combined

    def test_phase_jitter_washes_fringe_by_gaussian_factor(self):
        phases = analyzer_phases(12)
        jitter = 0.5
        cfg = ideal_experiment(mu=0.005, n_pulses=2 * 10**7, seed=61)
        fiber = tb.FiberSpec(length_km=0.0, phase_jitter_rms=jitter)
        cfg = replace(cfg, fiber_a=fiber, fiber_b=replace(fiber, phase_jitter_rms=0.0))
        fit = tb.fit_fringe(tb.subtract_accidentals(tb.run_phase_scan(cfg, phases)))
        expected = tb.apply_phase_jitter(1.0, jitter)
        assert abs(fit.visibility_unclamped - expected) <= 3.0 * fit.visibility_sigma
