"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite is deterministic (fixed seeds) and sized for a desktop.
"""

import functools
import math
import time

import numpy as np
import pytest

import timebin as tb
from timebin.config_io import build_experiment, default_config_dict
from timebin.record import replace
from .conftest import (
    analyzer_phases,
    default_experiment,
    exact_fringe_scan,
    ideal_experiment,
    truncated_mean_inverse,
)
from .reference import coincidence_probability


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} [{label}]: FAIL")
                raise
            print(f"\nACCEPTANCE {number} [{label}]: PASS")

        return wrapper

    return decorate


def fit_scan(config, phases):
    scan = tb.run_phase_scan(config, phases)
    scan = tb.subtract_accidentals(scan)
    return tb.fit_fringe(scan, use_net=False), tb.fit_fringe(scan, use_net=True)


@criterion(1, "analytic visibility-vs-entanglement curve")
def test_curve_against_brute_force():
    start = time.perf_counter()
    curve = tb.visibility_vs_entanglement_curve(101)
    elapsed = time.perf_counter() - start
    assert curve[0] == (1.0, 1.0)
    assert curve[-1] == (0.0, 0.0)
    for k, (ent, vis) in enumerate(curve):
        a2 = 0.5 + 0.5 * k / 100.0
        expected_v = 2.0 * math.sqrt(a2 * (1.0 - a2))
        expected_e = 0.0
        for p in (a2, 1.0 - a2):
            if p > 0.0:
                expected_e -= p * math.log(p) / math.log(2.0)
        assert abs(vis - expected_v) <= 1e-12
        assert abs(ent - expected_e) <= 1e-12
    assert elapsed < 1.0


@criterion(2, "end-to-end visibility vs entanglement")
def test_monte_carlo_reproduces_entanglement_curve():
    phases = analyzer_phases(16)
    for alpha_sq, seed in ((0.5, 47), (0.6, 48), (0.7, 49), (0.8, 50), (0.9, 51)):
        cfg = ideal_experiment(alpha_sq=alpha_sq, mu=0.01, n_pulses=10**7, seed=seed)
        _, net = fit_scan(cfg, phases)
        theory = 2.0 * math.sqrt(alpha_sq * (1.0 - alpha_sq))
        assert abs(net.visibility_unclamped - theory) <= 3.0 * net.visibility_sigma, (
            f"alpha_sq={alpha_sq}: {net.visibility_unclamped:.4f} "
            f"vs {theory:.4f} +- {net.visibility_sigma:.4f}"
        )


@criterion(3, "raw degrades with distance, net does not")
def test_distance_robustness_over_repetitions():
    phases = analyzer_phases(12)
    n_reps = 20
    ordering_holds = 0
    net0, net11, sig0, sig11 = [], [], [], []
    for rep in range(n_reps):
        raw_fits, net_fits = {}, {}
        for km in (0.0, 11.0):
            cfg = default_experiment(length_km=km, seed=3000 + 97 * rep + int(km))
            raw_fits[km], net_fits[km] = fit_scan(replace(cfg, n_pulses=2 * 10**8), phases)
        if raw_fits[11.0].visibility_unclamped < raw_fits[0.0].visibility_unclamped:
            ordering_holds += 1
        net0.append(net_fits[0.0].visibility_unclamped)
        net11.append(net_fits[11.0].visibility_unclamped)
        sig0.append(net_fits[0.0].visibility_sigma)
        sig11.append(net_fits[11.0].visibility_sigma)
    assert ordering_holds >= 19, f"raw ordering held in only {ordering_holds}/20 repetitions"
    mean_gap = abs(np.mean(net0) - np.mean(net11))
    combined = np.mean(sig0) + np.mean(sig11)
    assert mean_gap < combined, (
        f"net visibilities differ: {np.mean(net0):.4f} vs {np.mean(net11):.4f}, "
        f"combined 1-sigma {combined:.4f}"
    )


@criterion(4, "noise-subtraction magnitude within published bounds")
def test_subtraction_improvement_bounds():
    phases = analyzer_phases(12)
    improvements = {}
    for km in (0.0, 11.0):
        cfg = default_experiment(length_km=km, seed=777)
        raw, net = fit_scan(replace(cfg, n_pulses=2 * 10**8), phases)
        improvements[km] = net.visibility - raw.visibility
        assert net.visibility >= raw.visibility
    assert improvements[0.0] < 0.05, f"0 km improvement {improvements[0.0]:.3f}"
    assert improvements[11.0] < 0.09, f"11 km improvement {improvements[11.0]:.3f}"


@criterion(5, "multi-pair visibility dilution")
def test_multipair_dilution_curve():
    # series evaluation against an independent truncated-series oracle
    assert abs(tb.multipair_visibility(1.0, 1.0) - truncated_mean_inverse(1.0)) <= 1e-6
    # event-level runs against the closed-form curve
    phases = analyzer_phases(16)
    for mu, seed in ((0.05, 105), (0.1, 110), (0.2, 120), (0.4, 140), (0.8, 180)):
        per_point = max(int(4e4 * 16.0 / -math.expm1(-mu)) // 16, 10**6)
        cfg = ideal_experiment(alpha_sq=0.5, mu=mu, n_pulses=per_point, seed=seed)
        scan = tb.run_phase_scan(cfg, phases)
        fit = tb.fit_fringe(scan, use_net=False)
        theory = tb.multipair_visibility(mu, 1.0)
        assert abs(fit.visibility_unclamped - theory) <= 3.0 * fit.visibility_sigma, (
            f"mu={mu}: {fit.visibility_unclamped:.4f} vs {theory:.4f} "
            f"+- {fit.visibility_sigma:.4f}"
        )


@criterion(6, "mean-pair-number estimator closed loop")
def test_pair_number_estimator_closed_loop():
    mu_true = 0.02
    src = tb.SourceConfig(mean_pairs=mu_true)
    fiber = tb.FiberSpec(length_km=2.0, phase_jitter_rms=0.0)
    det = tb.DetectorSpec(efficiency=0.25, dark_rate_cps=0.0, jitter_rms_s=50e-12)
    base = tb.ExperimentConfig(
        source=src, fiber_a=fiber, fiber_b=fiber,
        analyzers=(tb.InterferometerSpec(),),
        detector_a=det, detector_b=det,
        window_width_s=400e-12,
        n_pulses=3 * 10**7, rng_seed=606,
    )
    singles_a = singles_b = triples = 0
    phases = analyzer_phases(8)
    for k, phi in enumerate(phases):
        cfg = replace(
            base,
            analyzers=(replace(base.analyzers[0], phi_analyzer=phi),),
            rng_seed=base.rng_seed + k,
        )
        result = tb.run_pulses(cfg)
        singles_a += result.singles_a
        singles_b += result.singles_b
        triples += result.triple_coincidences
    duration = len(phases) * base.n_pulses / src.rep_rate_hz
    mu_est = tb.estimate_mu(
        singles_a / duration, singles_b / duration, triples / duration, src.rep_rate_hz
    )
    assert abs(mu_est - mu_true) <= 0.15 * mu_true, f"mu_e={mu_est:.5f}"


@criterion(7, "fringe-fit calibration")
def test_fit_calibration():
    # noiseless: exact recovery
    noiseless = tb.fit_fringe(exact_fringe_scan(10000, 0.942), use_net=False)
    assert abs(noiseless.visibility - 0.942) <= 1e-10

    # noisy: coverage of the quoted uncertainty at dV ~ 0.05
    rng = np.random.default_rng(424242)
    phases = np.array([math.pi * k / 8.0 for k in range(16)])
    v_true, offset = 0.942, 12.0
    covered, sigmas = 0, []
    for _ in range(100):
        counts = rng.poisson(offset * (1.0 + v_true * np.cos(phases)))
        scan = tuple(
            tb.FringePoint(phase_rad=float(p), raw=int(c), accidental=0.0)
            for p, c in zip(phases, counts)
        )
        fit = tb.fit_fringe(scan, use_net=False)
        sigmas.append(fit.visibility_sigma)
        if abs(fit.visibility_unclamped - v_true) <= 3.0 * fit.visibility_sigma:
            covered += 1
    assert covered >= 99, f"covered {covered}/100"
    assert 0.02 <= float(np.median(sigmas)) <= 0.08


@criterion(8, "module invariants")
def test_property_suite_digest():
    # state normalisation through the attenuation map
    for t_a in (1.0, 0.7, 0.3, 0.05):
        state = tb.state_from_attenuations(t_a, 1.0 - t_a, 0.3)
        assert abs(state.alpha**2 + state.beta**2 - 1.0) <= 1e-12

    # entropy symmetry and coincidence periodicity
    for x in (0.1, 0.25, 0.4):
        assert abs(
            tb.entropy_of_entanglement(x) - tb.entropy_of_entanglement(1.0 - x)
        ) <= 1e-12
    state = tb.state_from_attenuations(0.7, 0.3)
    for phi in (0.0, 0.4, 1.9):
        assert abs(
            coincidence_probability(state, phi)
            - coincidence_probability(state, phi + math.pi)
        ) <= 1e-9

    # multi-pair visibility decreases monotonically
    values = [tb.multipair_visibility(m, 1.0) for m in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a > b for a, b in zip(values, values[1:]))

    # fit is invariant under count scaling
    v1 = tb.fit_fringe(exact_fringe_scan(40, 0.5), use_net=False).visibility
    v2 = tb.fit_fringe(exact_fringe_scan(400, 0.5), use_net=False).visibility
    assert abs(v1 - v2) <= 1e-10

    # runs are reproducible
    cfg = ideal_experiment(mu=0.02, n_pulses=10**6, seed=31337)
    assert tb.run_pulses(cfg) == tb.run_pulses(cfg)
