import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timebin as tb
from timebin.analysis import DegenerateScanError
from timebin.record import replace
from .conftest import exact_fringe_scan
from .reference import bootstrap_visibility_sigma


def poisson_scan(rng, offset, visibility, n_points=16, background=0.0):
    phases = np.array([math.pi * k / (n_points / 2) for k in range(n_points)])
    lam = offset * (1.0 + visibility * np.cos(phases)) + background
    counts = rng.poisson(lam)
    return tuple(
        tb.FringePoint(phase_rad=float(p), raw=int(c), accidental=background)
        for p, c in zip(phases, counts)
    )


class TestFringePoint:
    @pytest.mark.parametrize("raw", [1.5, 10.0, True, -1])
    def test_raw_is_a_non_negative_integer(self, raw):
        # one field rule refuses what is not an int and a negative count
        message = f"raw: expected an integer >= 0, got {raw!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tb.FringePoint(phase_rad=0.0, raw=raw, accidental=0.0)


class TestSubtractAccidentals:
    def test_zero_background_is_identity(self):
        scan = exact_fringe_scan(200, 0.5)
        net = tb.subtract_accidentals(scan)
        assert all(p.net == p.raw for p in net)

    def test_uniform_background_restores_visibility(self):
        # fringe 1000*(1 + 0.5 cos) sitting on 200 flat background counts
        scan = tb.subtract_accidentals(exact_fringe_scan(1000, 0.5, background=200))
        fit_raw = tb.fit_fringe(scan, use_net=False)
        fit_net = tb.fit_fringe(scan, use_net=True)
        assert fit_raw.visibility == pytest.approx(0.5 * 1000 / 1200, abs=1e-10)
        assert fit_net.visibility == pytest.approx(0.5, abs=1e-10)

    def test_closed_form_relation_between_raw_and_net(self):
        scan = tb.subtract_accidentals(exact_fringe_scan(800, 0.25, background=120))
        fit_raw = tb.fit_fringe(scan, use_net=False)
        fit_net = tb.fit_fringe(scan, use_net=True)
        restored = fit_raw.visibility * fit_raw.offset / (fit_raw.offset - 120.0)
        assert fit_net.visibility == pytest.approx(restored, abs=1e-10)

    def test_clamps_negative_net_counts(self):
        point = tb.FringePoint(phase_rad=0.0, raw=3, accidental=5.0)
        filler = [
            tb.FringePoint(phase_rad=p, raw=10, accidental=0.0) for p in (0.8, 1.6, 2.4, 3.1)
        ]
        net = tb.subtract_accidentals((point, *filler))
        assert net[0].net == 0.0


class TestFitFringe:
    def test_exact_recovery(self):
        fit = tb.fit_fringe(exact_fringe_scan(100, 0.8, repeats=2), use_net=False)
        assert fit.visibility == pytest.approx(0.8, abs=1e-12)
        assert fit.visibility_sigma > 0.0
        assert fit.offset == pytest.approx(100.0, rel=1e-12)

    def test_scale_invariance(self):
        small = tb.fit_fringe(exact_fringe_scan(100, 0.8), use_net=False)
        large = tb.fit_fringe(exact_fringe_scan(700, 0.8), use_net=False)
        assert small.visibility == pytest.approx(large.visibility, abs=1e-10)

    def test_null_fringe_consistent_with_zero(self, rng):
        scan = poisson_scan(rng, offset=400, visibility=0.0)
        fit = tb.fit_fringe(scan, use_net=False)
        assert fit.visibility_unclamped <= 3.0 * fit.visibility_sigma

    def test_phase_origin_recovered(self):
        phases = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        lam = 10000 * (1 + 0.6 * np.cos(phases - 1.1))
        scan = tuple(
            tb.FringePoint(phase_rad=float(p), raw=int(round(c)), accidental=0.0)
            for p, c in zip(phases, lam)
        )
        fit = tb.fit_fringe(scan, use_net=False)
        assert fit.phase_origin_rad == pytest.approx(1.1, abs=1e-3)

    def test_visibility_clamped_with_flag(self, rng):
        scan = poisson_scan(rng, offset=8, visibility=0.99)
        for _ in range(50):
            fit = tb.fit_fringe(scan, use_net=False)
            if fit.clamped:
                assert fit.visibility in (0.0, 1.0)
                assert fit.visibility_unclamped != fit.visibility
                break
            scan = poisson_scan(rng, offset=8, visibility=0.99)
        else:
            pytest.skip("no clamped draw produced")

    def test_too_few_points_rejected(self):
        points = tuple(tb.FringePoint(phase_rad=p, raw=5, accidental=0.0) for p in (0.0, 1.0, 2.0))
        with pytest.raises(DegenerateScanError):
            tb.fit_fringe(points, use_net=False)

    def test_two_distinct_phases_rejected(self):
        points = tuple(
            tb.FringePoint(phase_rad=p, raw=5, accidental=0.0) for p in (0.0, 0.0, 2.0, 2.0, 2.0)
        )
        with pytest.raises(DegenerateScanError):
            tb.fit_fringe(points, use_net=False)

    def test_phases_coinciding_modulo_two_pi_rejected(self):
        points = tuple(
            tb.FringePoint(phase_rad=2.0 * math.pi * k, raw=5, accidental=0.0) for k in range(5)
        )
        with pytest.raises(DegenerateScanError):
            tb.fit_fringe(points, use_net=False)

    def test_phases_coinciding_up_to_rounding_rejected(self):
        # 1.6 + 2*pi wraps back to 1.6 only up to rounding: two phases on the circle
        phases = (0.0, 2.0 * math.pi, 4.0 * math.pi, 1.6, 1.6 + 2.0 * math.pi)
        points = tuple(
            tb.FringePoint(phase_rad=p, raw=r, accidental=0.0)
            for p, r in zip(phases, (10, 20, 30, 40, 50))
        )
        with pytest.raises(DegenerateScanError, match="distinct"):
            tb.fit_fringe(points, use_net=False)

    def test_non_positive_variance_rejected(self):
        # Counts 17 decades apart: the covariance rounds to a negative variance of V.
        phases = (5.150937592472614, 0.09597788867333497, 4.059983454595468,
                  4.497066670490688, 0.44277292870160007)
        raws = (10**15, 10**17, 2, 1, 10**16)
        points = tuple(
            tb.FringePoint(phase_rad=p, raw=r, accidental=0.0) for p, r in zip(phases, raws)
        )
        with pytest.raises(DegenerateScanError, match="variance"):
            tb.fit_fringe(points, use_net=False)

    def test_narrow_span_rejected(self):
        # The span is measured on the circle: the second scan crosses 2*pi and
        # has the first's design matrix.
        for phases in (
            [0.3 * k / 4 for k in range(5)],
            [2.0 * math.pi - 0.2, 2.0 * math.pi - 0.1, 0.0, 0.1, 0.2],
        ):
            points = tuple(tb.FringePoint(phase_rad=p, raw=5, accidental=0.0) for p in phases)
            with pytest.raises(DegenerateScanError, match="span"):
                tb.fit_fringe(points, use_net=False)

    @pytest.mark.parametrize(
        "phases, field",
        [
            ((0.0, 1.0, 2.0, 3.0, 4.0), "phase_rad"),
            ((0.0, 1.0, 2.0, 3.0, 4.0), "accidental"),
            ((0.0, 1.0, 2.0, 3.0, 4.0), "net"),
            # the point refuses a non-finite phase before any fit sees the scan
            ((0.0, math.nan, math.nan, math.nan, math.nan), None),
            ((0.0, 1.0, 2.0, math.nan, math.nan), None),
        ],
        ids=["phase_rad", "accidental_estimate", "net", "nan_phases", "nan_among_distinct"],
    )
    def test_non_finite_input_rejected(self, phases, field):
        if field is None:
            with pytest.raises(ValueError, match="phase_rad: expected a finite number, got nan"):
                [tb.FringePoint(phase_rad=p, raw=10, accidental=1.0) for p in phases]
            return
        point = tb.FringePoint(phase_rad=phases[2], raw=10, accidental=1.0, net=9.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field}: expected a finite number"):
                replace(point, **{field: value})

    def test_default_fits_net_counts_only(self):
        # the default is the net fit; an unsubtracted scan has nothing to fit
        with pytest.raises(ValueError, match="no net counts"):
            tb.fit_fringe(exact_fringe_scan(100, 0.8))

    @pytest.mark.parametrize(
        "phases",
        [
            [0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
            [0.0, -0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
            [-0.0, 0.0, 2.0, 2.0, 2.0],
        ],
    )
    def test_repeated_phases_counted_as_np_unique_counts(self, phases):
        scan = tuple(tb.FringePoint(phase_rad=p, raw=10, accidental=0.0) for p in phases)
        if np.unique(phases).size < 3:
            with pytest.raises(DegenerateScanError, match="distinct"):
                tb.fit_fringe(scan, use_net=False)
        else:
            tb.fit_fringe(scan, use_net=False)

    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance_property(self, k):
        base = tb.fit_fringe(exact_fringe_scan(40, 0.5), use_net=False)
        scaled = tb.fit_fringe(exact_fringe_scan(40 * k, 0.5), use_net=False)
        assert scaled.visibility == pytest.approx(base.visibility, abs=1e-10)

    def test_bootstrap_sigma_comparable_to_covariance_sigma(self, rng):
        scan = poisson_scan(rng, offset=300, visibility=0.7)
        fit = tb.fit_fringe(scan, use_net=False)
        boot = bootstrap_visibility_sigma(scan, n_resamples=300, rng=rng, use_net=False)
        assert 0.3 * fit.visibility_sigma <= boot <= 3.0 * fit.visibility_sigma


class TestCurves:
    def test_entanglement_curve_endpoints(self):
        curve = tb.visibility_vs_entanglement_curve(101)
        assert curve[0] == (1.0, 1.0)
        assert curve[-1] == (0.0, 0.0)

    def test_entanglement_curve_interior_point(self):
        curve = tb.visibility_vs_entanglement_curve(101)
        ent, vis = curve[60]  # early weight 0.8
        assert ent == pytest.approx(0.7219280948873623, abs=1e-12)
        assert vis == pytest.approx(0.8, abs=1e-12)

    def test_entanglement_curve_needs_two_points(self):
        with pytest.raises(ValueError):
            tb.visibility_vs_entanglement_curve(1)
