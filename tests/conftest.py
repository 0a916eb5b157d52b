import math
import zlib

import numpy as np
import pytest

import timebin as tb
from timebin.config_io import build_experiment, default_config_dict


def ideal_experiment(
    alpha_sq=0.5,
    mu=0.01,
    n_pulses=10**7,
    seed=1,
    phi_analyzer=0.0,
    phi_pump=0.0,
    window_width_s=400e-12,
):
    """Lossless, noiseless apparatus: only the analyzer physics remains."""
    src = tb.SourceConfig(
        mean_pairs=mu,
        arm_attenuation_a=alpha_sq,
        arm_attenuation_b=1.0 - alpha_sq,
        phi_pump=phi_pump,
    )
    fib = tb.FiberSpec(length_km=0.0, phase_jitter_rms=0.0)
    ana = tb.InterferometerSpec(
        phi_analyzer=phi_analyzer, excess_loss_db=0.0, circulator_loss_db=0.0
    )
    det = tb.DetectorSpec(efficiency=1.0, dark_rate_cps=0.0, jitter_rms_s=0.0)
    return tb.ExperimentConfig(
        source=src,
        fiber_a=fib,
        fiber_b=fib,
        analyzers=(ana,),
        detector_a=det,
        detector_b=det,
        window_width_s=window_width_s,
        n_pulses=n_pulses,
        rng_seed=seed,
    )


def built_in_spellings():
    """Documents that spell the built-in run differently: each describes the same run."""
    with_batch_size = default_config_dict()
    with_batch_size["run"]["batch_size"] = 1000
    as_linspace = default_config_dict()
    del as_linspace["scan"]["phases_rad"]
    as_linspace["scan"]["phase_linspace"] = {"start_rad": 0.0, "stop_rad": math.pi, "num": 12}
    return {"empty": {}, "built_in": default_config_dict(), "batch_size": with_batch_size,
            "linspace": as_linspace}


def default_experiment(length_km=0.0, seed=20260808, n_pulses=None):
    """The shipped defaults, optionally with both fiber spools stretched."""
    cfg = default_config_dict()
    cfg["fiber_a"]["length_km"] = length_km
    cfg["fiber_b"]["length_km"] = length_km
    cfg["run"]["seed"] = seed
    if n_pulses is not None:
        cfg["run"]["n_pulses"] = n_pulses
    experiment, _ = build_experiment(cfg)
    return experiment


def analyzer_phases(n):
    """Analyzer settings whose fringe phases cover one full period."""
    return [math.pi * k / n for k in range(n)]


def truncated_mean_inverse(mu, n_terms=60):
    """Independent oracle: mean of 1/n over Poisson(mu) given n >= 1."""
    weights = [mu**n * math.exp(-mu) / math.factorial(n) for n in range(1, n_terms)]
    total = sum(weights)
    return sum(w / (n + 1) for n, w in enumerate(weights)) / total


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


def exact_fringe_scan(offset, visibility, repeats=1, background=0.0):
    """Noiseless scan with integer counts: cosine sampled at rational values.

    Uses phases whose cosines are exact binary fractions so that
    offset * (1 + V cos phi) is an exact integer for suitable offsets.
    """
    cosines = [1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0]
    points = []
    for _ in range(repeats):
        for c in cosines:
            lam = offset * (1.0 + visibility * c) + background
            if abs(lam - round(lam)) > 1e-9:
                raise AssertionError("test construction must give integer counts")
            points.append(
                tb.FringePoint(
                    phase_rad=math.acos(c),
                    raw=int(round(lam)),
                    accidental=background,
                )
            )
    return tuple(points)


@pytest.fixture()
def rng(request):
    # fresh, per-test deterministic stream: results independent of test order
    digest = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(digest)
