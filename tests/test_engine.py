import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import timebin as tb
from timebin import engine
from timebin.engine import _Law, _multinomial
from timebin.config_io import build_experiment, default_config_dict
from timebin.record import replace
from .conftest import analyzer_phases, chi2_z, ideal_experiment, truncated_mean_inverse

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


class TestConfigValidation:
    def test_independent_arrangement_needs_two_analyzers(self):
        # one analyzer is the folded arrangement, two the independent one
        cfg = ideal_experiment()
        for analyzers in ((), cfg.analyzers * 3):
            with pytest.raises(ValueError, match="one or two analyzers are required"):
                replace(cfg, analyzers=analyzers)

    def test_independent_arrangement_has_no_circulator(self):
        # the record stores its circulator loss as 0, so the loss moves nothing
        configs = [
            tb.ExperimentConfig(analyzers=(tb.InterferometerSpec(circulator_loss_db=loss),) * 2)
            for loss in (0.0, 1.0, 7.0)
        ]
        assert configs[0] == configs[1] == configs[2]
        assert len({hash(cfg) for cfg in configs}) == 1
        tallies = [tb.expected_tallies(cfg) for cfg in configs]
        assert tallies[0] == tallies[1] == tallies[2]

    def test_positive_pulse_count(self):
        with pytest.raises(ValueError, match="n_pulses must be positive"):
            replace(ideal_experiment(), n_pulses=0)

    @pytest.mark.parametrize(
        "section, change, message",
        [
            (None, {"window_width_s": 0.0}, "window_width_s must be positive"),
            (None, {"window_width_s": -1e-12}, "window_width_s must be positive"),
            # a 1e-312 s window vanishes around the 2.4 ns centre
            (None, {"window_width_s": 1e-312}, "coincidence window at twice the bin"),
            # and 400 ps around 4e6 s
            ("source", {"bin_separation_s": 2e6}, "coincidence window at twice the bin"),
            # past the binomial sampler's exact range
            (None, {"n_pulses": 2**63}, f"n_pulses must be positive and at most {2**63 - 1}"),
            # the counts are ints: no fraction, no float tallies, no bool
            (None, {"n_pulses": 1.5}, "n_pulses must be an integer, got 1.5"),
            (None, {"n_pulses": 1e6}, "n_pulses must be an integer, got 1000000.0"),
            (None, {"n_pulses": True}, "n_pulses must be an integer, got True"),
            (None, {"rng_seed": 1.5}, "rng_seed must be a non-negative integer, got 1.5"),
            (None, {"rng_seed": True}, "rng_seed must be a non-negative integer, got True"),
        ],
        ids=["window_width_zero", "window_width_negative", "window_width", "bin_separation",
             "n_pulses", "n_pulses_fraction", "n_pulses_float", "n_pulses_bool",
             "rng_seed_fraction", "rng_seed_bool"],
    )
    def test_engine_limits_refused(self, section, change, message):
        cfg = ideal_experiment()
        if section is not None:
            change = {section: replace(getattr(cfg, section), **change)}
        with pytest.raises(ValueError, match=message):
            replace(cfg, **change)


class TestRunPulses:
    def test_empty_source_and_dark_free_detectors_yield_zeros(self):
        cfg = ideal_experiment(mu=0.0, n_pulses=10**6, seed=3)
        result = tb.run_pulses(cfg)
        assert result.singles_a == result.singles_b == 0
        assert result.triple_coincidences == 0
        assert result.accidental_coincidences == 0
        assert np.asarray(tb.run_histograms(cfg)[1].counts).sum() == 0

    def test_deterministic_given_seed(self):
        cfg = ideal_experiment(mu=0.05, n_pulses=10**6, seed=11)
        first, second = tb.run_pulses(cfg), tb.run_pulses(cfg)
        assert first == second
        assert tb.run_histograms(cfg) == tb.run_histograms(cfg)

    def test_histogram_totals_equal_singles(self):
        cfg = ideal_experiment(mu=0.05, n_pulses=10**6, seed=7)
        result, (_, hist_a, hist_b) = tb.run_pulses(cfg), tb.run_histograms(cfg)
        assert np.asarray(hist_a.counts).sum() == result.singles_a
        assert np.asarray(hist_b.counts).sum() == result.singles_b

    def test_duration_reflects_rep_rate(self):
        cfg = ideal_experiment(n_pulses=8 * 10**6)
        assert tb.run_pulses(cfg).duration_s == pytest.approx(0.1, rel=1e-12)

    def test_full_contrast_between_fringe_extremes(self):
        r_max = tb.run_pulses(ideal_experiment(phi_analyzer=0.0, seed=21))
        r_min = tb.run_pulses(ideal_experiment(phi_analyzer=math.pi / 2, seed=22))
        assert r_max.triple_coincidences >= 50 * max(r_min.triple_coincidences, 1)

    def test_side_peak_asymmetry_tracks_amplitudes(self):
        cfg = ideal_experiment(alpha_sq=0.8, n_pulses=2 * 10**7, seed=13)
        thirds = np.asarray(tb.run_histograms(cfg)[1].counts).reshape(3, -1).sum(axis=1)
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


def law_grid_experiment(name, phase_rad=None, n_pulses=10**9, seed=4321):
    """The shipped defaults with the overrides of ``LAW_GRID[name]``."""
    cfg = default_config_dict()
    for section, values in LAW_GRID[name].items():
        cfg[section].update(values)
    if phase_rad is not None:
        cfg["analyzer"]["phase_rad"] = phase_rad
    cfg["run"].update(n_pulses=n_pulses, seed=seed)
    experiment, _ = build_experiment(cfg)
    return experiment


FRINGE_PHASES = (0.4, 1.3, 2.2, 2.9)


def at_fringe_phase(name, theta):
    """``law_grid_experiment(name)`` with its first analyzer set for fringe phase ``theta``.

    Anchored on ``fringe_phase``: the folded arrangement counts the
    analyzer phase twice, the independent one once.
    """
    experiment = law_grid_experiment(name)

    def at(phi):
        return engine._with_analyzer_phase(experiment, phi, experiment.rng_seed)

    offset = engine.fringe_phase(at(0.0))
    return at((theta - offset) / (engine.fringe_phase(at(1.0)) - offset))


class TestRunResult:
    FIELDS = dict(
        n_pulses=100, duration_s=1e-6, singles_a=10, singles_b=12, middle_singles_a=5,
        middle_singles_b=6, triple_coincidences=3, accidental_coincidences=1,
    )

    @pytest.mark.parametrize("side", ["singles_a", "singles_b"])
    def test_more_coincidences_than_singles_refused(self, side):
        with pytest.raises(ValueError, match="more coincidences than singles"):
            tb.RunResult(**{**self.FIELDS, side: 2})

    def test_singles_product_estimate_of_no_pulses_is_zero(self):
        zeros = dict.fromkeys(self.FIELDS, 0)
        assert tb.RunResult(**{**zeros, "duration_s": 0.0}).singles_product_estimate() == 0.0
        assert tb.RunResult(**self.FIELDS).singles_product_estimate() == 5 * 6 / 100


class TestOutcomeLaw:
    @pytest.mark.parametrize("name", sorted(LAW_GRID))
    def test_run_follows_expected_tallies(self, name):
        experiment = law_grid_experiment(name)
        result, expected = tb.run_pulses(experiment), tb.expected_tallies(experiment)
        n = result.n_pulses
        for field in COUNT_FIELDS:
            observed, mean = getattr(result, field), getattr(expected, field)
            assert mean > 0.0
            sigma = math.sqrt(mean * (1.0 - mean / n))
            assert abs(observed - mean) <= 4.0 * sigma, field
        for run_hist, mean_hist, singles in zip(
            tb.run_histograms(experiment)[1:],
            tb.expected_histograms(experiment),
            (result.singles_a, result.singles_b),
        ):
            observed = np.append(run_hist.counts, n - singles)
            mean = np.append(mean_hist.counts, n - np.asarray(mean_hist.counts).sum())
            assert abs(chi2_z(observed, mean)) <= 4.0


    @pytest.mark.parametrize("name", sorted(LAW_GRID))
    def test_class_law_is_the_outcome_law_summed_by_class(self, name):
        for phase in (0.0, 0.4, 1.3, 2.9):
            law = _Law(law_grid_experiment(name, phase))
            blocks = [math.fsum(probs) for _, probs in law.outcomes]
            summed = [block / math.fsum(blocks) for block in blocks]
            classes = law.class_probs()
            total = sum(classes)
            for mine, theirs in zip(classes, summed):
                assert abs(mine / total - theirs) <= 1e-12 * theirs, (phase, classes, summed)

    @pytest.mark.parametrize("name", sorted(LAW_GRID))
    def test_outcomes_are_the_matrix_product(self, name):
        # numpy as the reference: C_a^T W C_b from the same lists, its
        # central block split into the one-pair part and the rest
        experiment = law_grid_experiment(name)
        delay, half = experiment.source.bin_separation_s, 0.5 * experiment.window_width_s
        _, edges, _, (central, _, _), _ = engine._cells(experiment.window_width_s, delay)
        assert central == tuple(
            i for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
            if delay - half <= lo and hi <= delay + half
        )
        for phase in (0.0, 0.4, 1.3, 2.2, 2.9):
            law = _Law(law_grid_experiment(name, phase))
            ((clicks_a, first_a), _), ((clicks_b, first_b), _) = law.sides
            joint = np.array(clicks_a).T @ np.array(law.weights) @ np.array(clicks_b)
            block = np.ix_(law.groups[0], law.groups[0])
            one_pair = np.zeros_like(joint)
            # photon_first holds the central-window cells only
            one_pair[block] = np.array(first_a).T @ np.array(law.pair) @ np.array(first_b)
            side = {i: group for group, cells in enumerate(law.groups) for i in cells}
            seen = np.zeros(joint.shape, dtype=int)
            for cls, (cells, probs) in enumerate(law.outcomes):
                for (i, j), p in zip(cells, probs):
                    pair_class = 3 * side[i] + side[j]
                    assert (0 if cls == 1 else cls) == pair_class + (pair_class > 0)
                    reference = {0: one_pair[i, j], 1: joint[i, j] - one_pair[i, j]}.get(
                        cls, joint[i, j]
                    )
                    assert abs(p - max(reference, 0.0)) <= 1e-12 * abs(reference), (cls, i, j)
                    seen[i, j] += cls != 0
            assert (seen == 1).all()  # every cell once; class 0 splits cells of class 1

    @pytest.mark.parametrize("alpha_sq, mu", [(0.5, 0.01), (0.8, 0.01), (0.5, 0.4), (0.7, 0.1)])
    def test_law_fringe_is_the_closed_form(self, alpha_sq, mu):
        # On the ideal apparatus the coincidence probability is proportional
        # to 1 + E[1/n | n >= 1] * 2 alpha beta cos(phi): no draws, no fit.
        # Folded, the fringe phase is twice the analyzer phase.
        coincidence = [
            sum(_Law(ideal_experiment(alpha_sq, mu, phi_analyzer=phi)).class_probs()[:2])
            for phi in (0.0, math.pi / 2)
        ]
        visibility = (coincidence[0] - coincidence[1]) / (coincidence[0] + coincidence[1])
        expected = 2.0 * math.sqrt(alpha_sq * (1.0 - alpha_sq)) * tb.multipair_visibility(mu)
        assert abs(visibility - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("name", sorted(LAW_GRID))
    def test_law_is_affine_in_the_fringe(self, name):
        # Every probability is P(0) and P(pi) mixed by cos(theta): the law
        # is affine in f, which only the fringe phase moves.
        def probs(theta):
            law = _Law(at_fringe_phase(name, theta))
            return law.class_probs() + [p for _, ps in law.outcomes for p in ps]

        zero, pi = probs(0.0), probs(math.pi)
        for theta in FRINGE_PHASES:
            c = math.cos(theta)
            for p, p0, p_pi in zip(probs(theta), zero, pi):
                affine = 0.5 * (p0 + p_pi) + 0.5 * c * (p0 - p_pi)
                assert abs(p - affine) <= 1e-12 * (p0 + p_pi), (theta, p, p0, p_pi)

    @pytest.mark.parametrize("name", sorted(LAW_GRID))
    def test_one_sides_counts_do_not_move_with_the_fringe(self, name):
        def counts(theta):
            experiment = at_fringe_phase(name, theta)
            tallies = tb.expected_tallies(experiment)
            hist_a, hist_b = tb.expected_histograms(experiment)
            singles = [getattr(tallies, f) for f in COUNT_FIELDS if "singles" in f]
            return singles + list(hist_a.counts + hist_b.counts)

        zero = counts(0.0)
        for theta in FRINGE_PHASES:
            for value, base in zip(counts(theta), zero):
                assert abs(value - base) <= 1e-12 * abs(base), (theta, value, base)

    @pytest.mark.parametrize("name", sorted(LAW_GRID))
    def test_photon_state_law_is_the_sources_alone(self, name):
        # The link and the detectors change the click laws, never W.
        experiment = law_grid_experiment(name)
        lossy = replace(
            experiment,
            fiber_a=replace(experiment.fiber_a, length_km=experiment.fiber_a.length_km + 40.0),
            fiber_b=replace(experiment.fiber_b, length_km=3.0),
            analyzers=tuple(
                replace(a, excess_loss_db=a.excess_loss_db + 2.5, circulator_loss_db=4.0)
                for a in experiment.analyzers
            ),
            detector_a=replace(experiment.detector_a, efficiency=0.05),
            detector_b=replace(experiment.detector_b, efficiency=1.0),
        )
        law, lossy_law = _Law(experiment), _Law(lossy)
        assert lossy_law.sides != law.sides
        assert (lossy_law.weights, lossy_law.pair) == (law.weights, law.pair)

    def test_swapping_the_sides_transposes_the_law(self):
        # Independent arrangement: the fibers, detectors and analyzers of the
        # two sides trade places, and so do the sides in every outcome.
        rng = random.Random(2027)
        for _ in range(50):
            experiment = random_independent_experiment(rng)
            swapped = replace(
                experiment,
                fiber_a=experiment.fiber_b,
                fiber_b=experiment.fiber_a,
                detector_a=experiment.detector_b,
                detector_b=experiment.detector_a,
                analyzers=experiment.analyzers[::-1],
            )
            probs, swapped_probs = _Law(experiment).class_probs(), _Law(swapped).class_probs()
            for p, k in zip(probs, SWAPPED_CLASSES):
                assert abs(swapped_probs[k] - p) <= 1e-12 * p, (experiment, k)
            swapped_hists = tb.expected_histograms(swapped)[::-1]
            for hist, other in zip(tb.expected_histograms(experiment), swapped_hists):
                assert hist.bin_edges_s == other.bin_edges_s
                for c, d in zip(hist.counts, other.counts):
                    assert abs(d - c) <= 1e-12 * c, experiment

    def test_lost_photons_leave_the_dark_candidate_alone(self):
        experiment = law_grid_experiment("independent_333ps")
        (clicks, photon_first), (classes, photon_central) = engine._click_law(
            experiment.window_width_s, experiment.source.bin_separation_s, 2e7, 300e-12, 0.0
        )
        assert clicks[:3] == (clicks[3],) * 3 and classes[:3] == (classes[3],) * 3
        assert not any(map(any, photon_first + photon_central))

    @pytest.mark.parametrize("name", ["default_11km", "independent_333ps", "dark_only"])
    def test_drawn_histograms_complete_the_class_draw(self, name):
        experiment = law_grid_experiment(name, n_pulses=10**7, seed=77)
        drawn = tb.run_histograms(experiment)
        result, histograms = drawn[0], drawn[1:]
        assert result == tb.run_pulses(experiment)
        law = _Law(experiment)
        rng = random.Random(experiment.rng_seed)
        counts = _multinomial(rng, experiment.n_pulses, law.class_probs())
        per_outcome = engine._split(law, counts, rng)
        assert [sum(c) for c in per_outcome] == counts
        assert tally_by_cell(law, per_outcome, experiment) == (result, histograms)
        assert sum(histograms[0].counts) == result.singles_a
        assert sum(histograms[1].counts) == result.singles_b


# The class of each class with sides a and b swapped: pair, accidental,
# oo and none-none stay, co <-> oc, cn <-> nc, on <-> no.
SWAPPED_CLASSES = (0, 1, 4, 7, 2, 5, 8, 3, 6, 9)


def random_independent_experiment(rng):
    """An independent-arrangement experiment, each side's parameters drawn on ``rng``."""

    def fiber():
        return tb.FiberSpec(
            length_km=rng.uniform(0.0, 30.0),
            center_wavelength_nm=rng.uniform(1290.0, 1340.0),
            phase_jitter_rms=rng.uniform(0.0, 0.6),
        )

    def analyzer():
        return tb.InterferometerSpec(
            phi_analyzer=rng.uniform(0.0, 2.0 * math.pi), excess_loss_db=rng.uniform(0.0, 3.0)
        )

    def detector():
        return tb.DetectorSpec(
            efficiency=rng.uniform(0.05, 1.0),
            dark_rate_cps=10.0 ** rng.uniform(3.0, 8.0),
            jitter_rms_s=rng.uniform(20e-12, 300e-12),
        )

    return tb.ExperimentConfig(
        source=tb.SourceConfig(
            mean_pairs=rng.uniform(0.001, 1.0),
            arm_attenuation_a=rng.uniform(0.1, 1.0),
            arm_attenuation_b=rng.uniform(0.1, 1.0),
            phi_pump=rng.uniform(0.0, 2.0 * math.pi),
        ),
        fiber_a=fiber(),
        fiber_b=fiber(),
        analyzers=(analyzer(), analyzer()),
        detector_a=detector(),
        detector_b=detector(),
        window_width_s=rng.uniform(200e-12, 800e-12),
    )


def tally_by_cell(law, per_outcome, experiment):
    """The RunResult and histograms of per-outcome counts, read off each outcome's two cells."""
    mid, _, (none,) = law.groups
    tally = dict.fromkeys(COUNT_FIELDS, 0)
    for cls, ((cells, _), counts) in enumerate(zip(law.outcomes, per_outcome)):
        for (i, j), count in zip(cells, counts):
            tally["singles_a"] += count * (i != none)
            tally["singles_b"] += count * (j != none)
            tally["middle_singles_a"] += count * (i in mid)
            tally["middle_singles_b"] += count * (j in mid)
            tally["triple_coincidences"] += count * (i in mid and j in mid)
            tally["accidental_coincidences"] += count * (cls == 1)
    result = tb.RunResult(
        **tally,
        n_pulses=experiment.n_pulses,
        duration_s=experiment.n_pulses / experiment.source.rep_rate_hz,
    )
    return result, engine._histograms(law, per_outcome)


def dark_free_experiment(overrides, jitter_ps=100.0):
    """The shipped defaults with ``overrides`` and dark-free detectors of efficiency 0.25."""
    cfg = default_config_dict()
    for section, values in overrides.items():
        cfg[section].update(values)
    detector = {"efficiency": 0.25, "dark_rate_cps": 0.0, "jitter_ps": jitter_ps}
    cfg["detector_a"].update(detector)
    cfg["detector_b"].update(detector)
    return build_experiment(cfg)[0]


class TestEachSide:
    """Each side's counts carry that side's losses and the source's amplitudes."""

    @pytest.mark.parametrize("mu", [0.005, 0.1, 0.4])
    @pytest.mark.parametrize("circulator_loss_db", [0.0, 1.0, 3.0, 7.5])
    def test_folded_circulator_loss_is_side_as_alone(self, circulator_loss_db, mu):
        experiment = dark_free_experiment({
            "source": {"mean_pairs": mu},
            "fiber_a": {"length_km": 11.0},
            "fiber_b": {"length_km": 11.0},
            "analyzer": {"circulator_loss_db": circulator_loss_db},
        })
        tallies = tb.expected_tallies(experiment)
        transmission = 10.0 ** (-circulator_loss_db / 10.0)
        assert tallies.singles_a / tallies.singles_b == pytest.approx(transmission, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.005, 0.1, 0.4])
    def test_independent_excess_losses_are_each_sides_own(self, mu):
        experiment = dark_free_experiment({
            "source": {"mean_pairs": mu},
            "analyzer": {"arrangement": "independent", "excess_loss_db": 1.0,
                         "excess_loss_b_db": 2.5},
        })
        tallies = tb.expected_tallies(experiment)
        ratio = 10.0 ** (-(1.0 - 2.5) / 10.0)
        assert tallies.singles_a / tallies.singles_b == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.005, 0.4])
    @pytest.mark.parametrize("alpha_sq", [0.5, 0.7, 0.9])
    def test_side_peaks_weigh_alpha_and_beta_squared(self, alpha_sq, mu):
        # Jitter-free detectors: the middle peak's tails stay out of the side peaks.
        experiment = dark_free_experiment(
            {"source": {"mean_pairs": mu, "arm_attenuation_a": alpha_sq,
                        "arm_attenuation_b": 1.0 - alpha_sq}},
            jitter_ps=0.0,
        )
        state, d = experiment.source.state(), experiment.source.bin_separation_s
        for hist in tb.expected_histograms(experiment):
            peaks = list(zip(hist.bin_centers_s, hist.counts))
            early = math.fsum(c for t, c in peaks if t < 0.5 * d)
            late = math.fsum(c for t, c in peaks if t >= 1.5 * d)
            assert early / late == pytest.approx(state.alpha**2 / state.beta**2, rel=1e-12)


class TestMultinomial:
    PROBS = [0.0, 0.3, 1e-7, 0.0, 0.05, 0.2, 0.0, 0.45, 1e-3, 0.0]

    @pytest.mark.parametrize("n", [0, 1, 7, 10**6, 10**15])
    def test_counts_sum_to_n(self, n):
        counts = _multinomial(random.Random(n), n, self.PROBS)
        assert sum(counts) == n
        assert all(c >= 0 for c in counts)

    def test_zero_probability_categories_get_nothing(self):
        for seed in range(20):
            counts = _multinomial(random.Random(seed), 10**9, self.PROBS)
            assert [c for c, p in zip(counts, self.PROBS) if p == 0.0] == [0] * 4

    def test_largest_count(self):
        n = 2**63 - 1
        counts = _multinomial(random.Random(5), n, self.PROBS)
        assert sum(counts) == n
        total = sum(self.PROBS)
        for count, p in zip(counts, self.PROBS):
            share = p / total
            assert abs(count - n * share) <= 5.0 * math.sqrt(n * share * (1.0 - share))

    @pytest.mark.parametrize("seed", range(5))
    def test_chi_square_against_the_probabilities(self, seed):
        probs = [1.0 + math.sin(k) for k in range(60)]  # unnormalised, one near zero
        n = 10**6
        counts = _multinomial(random.Random(seed), n, probs)
        mean = n * np.array(probs) / sum(probs)
        assert abs(chi2_z(np.array(counts), mean)) <= 4.0

    def test_class_with_no_outcome_left_is_split_evenly(self):
        # the class law is above zero, but every outcome rounded to zero
        law = SimpleNamespace(outcomes=[([(0, 0), (0, 1), (1, 0), (1, 1)], [0.0] * 4)])
        per_outcome = engine._split(law, [10**4], random.Random(9))[0]
        assert sum(per_outcome) == 10**4
        sigma = math.sqrt(10**4 * 0.25 * 0.75)
        assert all(abs(c - 2500) <= 4.0 * sigma for c in per_outcome)


class TestPhaseScan:
    def test_scan_records_fringe_phase_and_integration(self):
        cfg = ideal_experiment(n_pulses=10**5, phi_pump=0.4)
        scan = tb.run_phase_scan(cfg, [0.0, 0.5])
        assert scan[0].phase_rad == pytest.approx(-0.4, abs=1e-12)
        assert scan[1].phase_rad == pytest.approx(2 * 0.5 - 0.4, abs=1e-12)

    def test_single_point_scan_counts_follow_probability(self):
        cfg = ideal_experiment(n_pulses=10**6, seed=5)
        scan = tb.run_phase_scan(cfg, [0.0])
        norm = 1.0 - math.exp(-0.01)
        expected = 10**6 * norm * (1 + truncated_mean_inverse(0.01)) / 16.0
        assert abs(scan[0].raw - expected) <= 4.0 * math.sqrt(expected)

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

    def test_each_point_is_one_run_pulses_call(self, monkeypatch):
        # The trace contract: one engine.run_pulses call per point, in order.
        original, calls = engine.run_pulses, []

        def recording(config):
            calls.append((config, original(config)))
            return calls[-1][1]

        monkeypatch.setattr(engine, "run_pulses", recording)
        cfg = ideal_experiment(mu=0.4, n_pulses=10**4, seed=29, phi_pump=0.3)
        phases = analyzer_phases(5)
        scan = tb.run_phase_scan(cfg, phases)
        seeds = random.Random(cfg.rng_seed)
        assert len(calls) == len(scan) == len(phases)
        for phi, point, (config, result) in zip(phases, scan, calls):
            assert config.analyzers[0].phi_analyzer == phi
            assert config.rng_seed == seeds.getrandbits(64)
            assert tb.fringe_phase(config) == point.phase_rad
            assert point.raw == result.triple_coincidences
            assert point.accidental == result.accidental_coincidences
        assert any(point.accidental for point in scan)  # so the accidental check can fail


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


class TestModelVisibility:
    """The default apparatus' exact visibilities, from the law at fringe phases 0 and pi."""

    @staticmethod
    def visibilities(km):
        base = tb.ExperimentConfig()
        fiber = replace(base.fiber_a, length_km=km)
        means = []
        for phi in (0.0, 0.5 * math.pi):  # folded: fringe phases 0 and pi
            cfg = replace(base, fiber_a=fiber, fiber_b=fiber,
                          analyzers=(replace(base.analyzers[0], phi_analyzer=phi),))
            tallies = tb.expected_tallies(cfg)
            raw, accidental = tallies.triple_coincidences, tallies.accidental_coincidences
            means.append((raw, raw - accidental))
        (raw_max, net_max), (raw_min, net_min) = means
        return (raw_max - raw_min) / (raw_max + raw_min), (net_max - net_min) / (net_max + net_min)

    @pytest.mark.parametrize(
        "km, v_raw, v_net",
        [
            (0.0, 0.9357093912, 0.9484748552),
            (11.0, 0.8729540467, 0.9484465180),
            (25.0, 0.3045694031, 0.8551530475),
        ],
    )
    def test_pinned(self, km, v_raw, v_net):
        assert self.visibilities(km) == pytest.approx((v_raw, v_net), abs=1e-9)

    def test_net_visibility_survives_11_km(self):
        # the paper's claim, in the model
        assert abs(self.visibilities(11.0)[1] - self.visibilities(0.0)[1]) < 1e-4
