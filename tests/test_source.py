import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timebin as tb
from timebin import (
    SourceConfig,
    estimate_mu,
    multipair_visibility,
    state_from_attenuations,
)
from timebin.engine import _Law
from .conftest import ideal_experiment, truncated_mean_inverse


class TestStateFromAttenuations:
    def test_equal_arms(self):
        state = state_from_attenuations(1.0, 1.0, 0.0)
        assert state.alpha == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert state.beta == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_one_arm_blocked(self):
        state = state_from_attenuations(1.0, 0.0, 0.0)
        assert (state.alpha, state.beta) == (1.0, 0.0)

    def test_partial_split(self):
        state = state_from_attenuations(0.8, 0.2, 0.0)
        assert state.alpha**2 == pytest.approx(0.8, abs=1e-12)

    def test_both_blocked_rejected(self):
        with pytest.raises(ValueError):
            state_from_attenuations(0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            state_from_attenuations(1.5, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=-7.0, max_value=7.0),
    )
    def test_always_normalised(self, t_a, t_b, phi):
        state = state_from_attenuations(t_a, t_b, phi)
        assert abs(state.alpha**2 + state.beta**2 - 1.0) <= 1e-12
        assert state.phi_pump == phi


class TestSamplePairCount:
    """Poissonian pair numbers as the engine draws them."""

    def test_mean_converges(self):
        # ideal detectors: a pair pulse sends a photon to side a's monitored
        # port with probability 1/2, so singles_a ~ Bin(n, (1 - exp(-mu)) / 2)
        mu, n = 0.1, 2 * 10**6
        result = tb.run_pulses(ideal_experiment(mu=mu, n_pulses=n, seed=81))
        p = -math.expm1(-mu) / 2.0
        assert abs(result.singles_a - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
        expected = tb.expected_tallies(ideal_experiment(mu=mu, n_pulses=n))
        assert expected.singles_a == pytest.approx(n * p, rel=1e-9)

    def test_multi_pair_tail(self):
        # pair number of a pair pulse: Poisson(mu) conditioned on n >= 1; the
        # registered photons come from one pair with probability E[1/n | n >= 1]
        for mu in (0.1, 1.0):
            p_same = _Law(ideal_experiment(mu=mu)).p_same
            assert p_same == pytest.approx(truncated_mean_inverse(mu), abs=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            SourceConfig(mean_pairs=-0.5)


class TestMultipairVisibility:
    def test_single_pair_limit(self):
        assert multipair_visibility(1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)
        assert multipair_visibility(5e-324, 1.0) == 1.0

    def test_unit_mean_against_series_oracle(self):
        assert multipair_visibility(1.0, 1.0) == pytest.approx(
            truncated_mean_inverse(1.0), abs=1e-9
        )

    def test_unit_mean_against_monte_carlo_oracle(self, rng):
        draws = rng.poisson(1.0, 1_000_000)
        inv = 1.0 / draws[draws >= 1]
        se = inv.std(ddof=1) / math.sqrt(inv.size)
        assert abs(multipair_visibility(1.0, 1.0) - inv.mean()) <= 3.0 * se

    def test_large_mean_against_log_space_sum(self):
        # beyond mu ~ 150 the plain series needs more than its 200 terms
        for mu in (49.9, 50.0, 150.0, 300.0, 800.0):
            oracle = sum(
                math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)) / n for n in range(1, 2000)
            )
            assert multipair_visibility(mu, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_strictly_decreasing(self):
        grid = [0.01, 0.05, 0.2, 0.5, 1.0, 2.0]
        values = [multipair_visibility(m, 1.0) for m in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(
        st.floats(min_value=1e-4, max_value=3.0),
        st.floats(min_value=1e-4, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_monotone_and_scaled(self, mu, v_max):
        v = multipair_visibility(mu, v_max)
        assert 0.0 < v <= v_max
        assert v == pytest.approx(v_max * multipair_visibility(mu, 1.0), rel=1e-12)
        assert multipair_visibility(mu * 1.5, v_max) < v

    def test_domain_error(self):
        with pytest.raises(ValueError):
            multipair_visibility(0.0, 1.0)
        with pytest.raises(ValueError):
            multipair_visibility(-0.1, 1.0)

    @pytest.mark.parametrize("v_max", [-0.1, 1.1])
    def test_v_max_outside_unit_interval_refused(self, v_max):
        with pytest.raises(ValueError, match="v_max"):
            multipair_visibility(0.1, v_max)


class TestEstimateMu:
    def test_reference_values(self):
        assert estimate_mu(4000.0, 4000.0, 10.0, 8.0e7) == pytest.approx(0.005, abs=1e-15)

    def test_bilinear_in_singles(self):
        base = estimate_mu(1000.0, 2000.0, 5.0, 8.0e7)
        assert estimate_mu(2000.0, 4000.0, 5.0, 8.0e7) == pytest.approx(4.0 * base, rel=1e-12)

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_zero_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            estimate_mu(*bad)


class TestSourceConfig:
    def test_pulse_must_fit_in_bin(self):
        message = "pulse_width_s 1.3e-09 must be below bin_separation_s 1.2e-09"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SourceConfig(pulse_width_s=1.3e-9)

    def test_attenuation_bounds(self):
        with pytest.raises(ValueError, match=r"^arm_attenuation_a: expected .*, got 1\.2$"):
            SourceConfig(arm_attenuation_a=1.2)

    def test_power_split_does_not_touch_pair_rate(self):
        even = SourceConfig(arm_attenuation_a=1.0, arm_attenuation_b=1.0)
        skew = SourceConfig(arm_attenuation_a=0.8, arm_attenuation_b=0.2)
        assert even.mean_pairs == skew.mean_pairs
        assert skew.state().alpha**2 == pytest.approx(0.8, abs=1e-12)
