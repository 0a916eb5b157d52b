import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timebin import TimeBinState, entropy_of_entanglement, ideal_visibility
from .reference import coincidence_probability, evolve_through_analyzer

amplitude_sq = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
phase = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def state_from_alpha_sq(alpha_sq, phi_pump=0.0):
    return TimeBinState(
        alpha=math.sqrt(alpha_sq), beta=math.sqrt(1.0 - alpha_sq), phi_pump=phi_pump
    )


class TestTimeBinState:
    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            TimeBinState(alpha=-0.5, beta=math.sqrt(0.75))

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            TimeBinState(alpha=0.9, beta=0.9)
        # an amplitude whose square overflows is refused too, not an OverflowError
        with pytest.raises(ValueError, match="not normalised"):
            TimeBinState(alpha=1e200, beta=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_amplitudes(self, value):
        with pytest.raises(ValueError):
            TimeBinState(alpha=value, beta=0.5)

    @given(amplitude_sq, phase)
    def test_accepts_any_normalised_split(self, alpha_sq, phi):
        state = state_from_alpha_sq(alpha_sq, phi)
        assert abs(state.alpha**2 + state.beta**2 - 1.0) <= 1e-12


class TestEntropyOfEntanglement:
    def test_balanced_is_exactly_one(self):
        assert entropy_of_entanglement(0.5) == 1.0

    def test_product_state_is_exactly_zero(self):
        assert entropy_of_entanglement(1.0) == 0.0
        assert entropy_of_entanglement(0.0) == 0.0

    def test_partial_value(self):
        # independent evaluation of -x log2 x - (1-x) log2 (1-x) at x = 0.8
        x = 0.8
        expected = -(x * math.log(x) + (1 - x) * math.log(1 - x)) / math.log(2)
        assert entropy_of_entanglement(0.8) == pytest.approx(expected, abs=1e-14)
        assert entropy_of_entanglement(0.8) == pytest.approx(0.7219280948873623, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            entropy_of_entanglement(bad)

    @given(amplitude_sq)
    def test_symmetric(self, x):
        assert entropy_of_entanglement(x) == pytest.approx(
            entropy_of_entanglement(1.0 - x), abs=1e-12
        )

    @given(amplitude_sq)
    def test_bounded_and_maximal_only_at_half(self, x):
        e = entropy_of_entanglement(x)
        assert 0.0 <= e <= 1.0
        if abs(x - 0.5) > 1e-3:
            assert e < 1.0


class TestIdealVisibility:
    def test_maximally_entangled(self):
        state = state_from_alpha_sq(0.5)
        assert ideal_visibility(state) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert ideal_visibility(TimeBinState(alpha=1.0, beta=0.0)) == 0.0

    def test_partial(self):
        assert ideal_visibility(state_from_alpha_sq(0.8)) == pytest.approx(
            2.0 * math.sqrt(0.8 * 0.2), abs=1e-14
        )
        assert ideal_visibility(state_from_alpha_sq(0.8)) == pytest.approx(0.8, abs=1e-12)

    @given(amplitude_sq)
    def test_maximal_only_for_equal_amplitudes(self, x):
        v = ideal_visibility(state_from_alpha_sq(x))
        assert 0.0 <= v <= 1.0 + 1e-12
        if abs(x - 0.5) > 1e-3:
            assert v < 1.0


class TestEvolveThroughAnalyzer:
    def test_single_pulse_populates_two_bins(self):
        out = evolve_through_analyzer(TimeBinState(alpha=1.0, beta=0.0), 0.0)
        a = out.amplitudes
        assert a[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert a[1] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert a[2] == 0.0 and a[3] == 0.0

    def test_balanced_middle_amplitudes_in_phase(self):
        out = evolve_through_analyzer(state_from_alpha_sq(0.5), 0.0)
        assert out.amplitudes[1] == pytest.approx(out.amplitudes[2], abs=1e-12)

    @given(amplitude_sq, phase, phase)
    def test_unitarity(self, alpha_sq, phi_p, phi_i):
        out = evolve_through_analyzer(state_from_alpha_sq(alpha_sq, phi_p), phi_i)
        total = sum(abs(a) ** 2 for a in out.amplitudes)
        assert abs(total - 1.0) <= 1e-12

    @given(amplitude_sq, phase, phase)
    def test_middle_bin_phases(self, alpha_sq, phi_p, phi_i):
        out = evolve_through_analyzer(state_from_alpha_sq(alpha_sq, phi_p), phi_i)
        a = out.amplitudes
        if abs(a[1]) > 1e-6:
            assert cmath.phase(a[1] * cmath.exp(-2j * phi_i)) == pytest.approx(0.0, abs=1e-9)
        if abs(a[2]) > 1e-6:
            assert cmath.phase(a[2] * cmath.exp(-1j * phi_p)) == pytest.approx(0.0, abs=1e-9)

    def test_first_bin_amplitude_real_non_negative(self):
        out = evolve_through_analyzer(state_from_alpha_sq(0.3, 1.7), 2.9)
        assert out.amplitudes[0].imag == 0.0
        assert out.amplitudes[0].real >= 0.0


class TestCoincidenceProbability:
    def test_destructive(self):
        # fringe phase 2*phi_I - phi_P = pi
        state = state_from_alpha_sq(0.5)
        assert coincidence_probability(state, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_no_interference_for_product_state(self):
        state = TimeBinState(alpha=1.0, beta=0.0)
        for phi in (0.0, 0.5, 2.0):
            assert coincidence_probability(state, phi) == pytest.approx(0.5, abs=1e-12)

    def test_partial_constructive(self):
        assert coincidence_probability(state_from_alpha_sq(0.8), 0.0) == pytest.approx(
            0.9, abs=1e-12
        )

    @given(amplitude_sq, phase, phase)
    def test_matches_coherent_middle_sum(self, alpha_sq, phi_p, phi_i):
        state = state_from_alpha_sq(alpha_sq, phi_p)
        out = evolve_through_analyzer(state, phi_i)
        coherent = abs(out.amplitudes[1] + out.amplitudes[2]) ** 2
        assert coincidence_probability(state, phi_i) == pytest.approx(coherent, abs=1e-12)

    @given(amplitude_sq, phase)
    def test_extremes_reproduce_visibility(self, alpha_sq, phi_p):
        state = state_from_alpha_sq(alpha_sq, phi_p)
        # extrema sit where the fringe phase is 0 and pi
        p_max = coincidence_probability(state, phi_p / 2.0)
        p_min = coincidence_probability(state, phi_p / 2.0 + math.pi / 2.0)
        contrast = (p_max - p_min) / (p_max + p_min)
        assert contrast == pytest.approx(ideal_visibility(state), abs=1e-10)

    @given(amplitude_sq, phase, phase)
    @settings(max_examples=60)
    def test_periodic_in_analyzer_phase_with_period_pi(self, alpha_sq, phi_p, phi_i):
        state = state_from_alpha_sq(alpha_sq, phi_p)
        assert coincidence_probability(state, phi_i) == pytest.approx(
            coincidence_probability(state, phi_i + math.pi), abs=1e-9
        )
