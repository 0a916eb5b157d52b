import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from timebin import (
    FiberSpec,
    apply_phase_jitter,
    broadened_pulse_width,
    dispersion_spread,
    survival_probability,
)


def spread_by_quadrature(fiber):
    """Independent oracle: RMS of the dispersive group delay over the spectrum.

    Integrates delay(lambda) = L * S0 * (lambda - lambda0)^2 / 2 against the
    Gaussian spectral density and returns the standard deviation.
    """
    sigma_nm = fiber.filter_bandwidth_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    x0 = fiber.center_wavelength_nm - fiber.zero_dispersion_wavelength_nm
    a = fiber.length_km * fiber.dispersion_slope_ps_nm2_km / 2.0

    def density(x):
        return math.exp(-0.5 * ((x - x0) / sigma_nm) ** 2) / (sigma_nm * math.sqrt(2 * math.pi))

    lo, hi = x0 - 10 * sigma_nm, x0 + 10 * sigma_nm
    mean, _ = integrate.quad(lambda x: a * x * x * density(x), lo, hi, limit=200)
    second, _ = integrate.quad(lambda x: (a * x * x) ** 2 * density(x), lo, hi, limit=200)
    return math.sqrt(second - mean * mean) * 1e-12


class TestSurvivalProbability:
    def test_zero_length(self):
        assert survival_probability(FiberSpec(length_km=0.0)) == 1.0

    def test_eleven_km_default_attenuation(self):
        expected = 10.0 ** (-0.35 * 11.0 / 10.0)
        assert survival_probability(FiberSpec(length_km=11.0)) == pytest.approx(
            expected, abs=1e-15
        )

    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_exponential_composition(self, attenuation):
        one = survival_probability(FiberSpec(length_km=1.0, attenuation_db_per_km=attenuation))
        eleven = survival_probability(
            FiberSpec(length_km=11.0, attenuation_db_per_km=attenuation)
        )
        assert eleven == pytest.approx(one**11, rel=1e-12)


class TestBroadenedPulseWidth:
    def test_zero_length_identity(self):
        fiber = FiberSpec(length_km=0.0)
        assert broadened_pulse_width(fiber, 42e-12) == 42e-12

    def test_zero_dispersion_wavelength_still_spreads(self):
        fiber = FiberSpec(length_km=11.0)  # centred exactly on lambda0
        assert dispersion_spread(fiber) > 0.0
        assert broadened_pulse_width(fiber, 42e-12) > 42e-12

    def test_default_eleven_km_against_quadrature(self):
        fiber = FiberSpec(length_km=11.0)
        assert dispersion_spread(fiber) == pytest.approx(
            spread_by_quadrature(fiber), rel=1e-6
        )

    def test_offset_wavelength_against_quadrature(self):
        fiber = FiberSpec(length_km=5.0, center_wavelength_nm=1330.0)
        assert dispersion_spread(fiber) == pytest.approx(
            spread_by_quadrature(fiber), rel=1e-6
        )

    def test_quadrature_combination(self):
        fiber = FiberSpec(length_km=7.0)
        combined = broadened_pulse_width(fiber, 50e-12)
        assert combined == pytest.approx(
            math.hypot(50e-12, dispersion_spread(fiber)), rel=1e-12
        )

    def test_requires_positive_width(self):
        with pytest.raises(ValueError):
            broadened_pulse_width(FiberSpec(), 0.0)


class TestApplyPhaseJitter:
    def test_no_jitter_identity(self):
        assert apply_phase_jitter(0.87, 0.0) == 0.87

    def test_one_radian_value(self):
        assert apply_phase_jitter(1.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_one_radian_against_monte_carlo(self, rng):
        # fringe amplitude surviving N(0,1) phase wander
        delta = rng.normal(0.0, 1.0, 1_000_000)
        phi = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        amplitudes = np.cos(phi[:, None] + delta[None, :]).mean(axis=1)
        observed = 2.0 * np.abs(np.mean(amplitudes * np.cos(phi)))
        se = 3.0 / math.sqrt(delta.size)
        assert abs(observed - math.exp(-0.5)) <= 3.0 * se + 1e-3

    def test_large_jitter_kills_fringe(self):
        assert apply_phase_jitter(1.0, 50.0) < 1e-12

    @pytest.mark.parametrize(
        "visibility, jitter, message",
        [(-0.1, 0.0, "visibility"), (1.1, 0.0, "visibility"), (0.5, -0.1, "jitter_rms")],
    )
    def test_domain_error(self, visibility, jitter, message):
        with pytest.raises(ValueError, match=message):
            apply_phase_jitter(visibility, jitter)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_never_increases(self, vis, jitter):
        assert apply_phase_jitter(vis, jitter) <= vis
