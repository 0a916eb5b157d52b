"""The plain-Python grid against ``numpy.linspace``, bit for bit."""

import math
import sys

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from timebin.config_io import MAX_SCAN_POINTS, build_experiment
from timebin.grid import linspace

from .conftest import built_in_spellings

ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, sys.float_info.max]),
    # Two ends this close give subnormal spans, and steps that underflow to zero.
    st.floats(-1e-305, 1e-305),
    st.floats(-1e308, 1e308),
)


def bits(values):
    return [float(x).hex() for x in values]


@settings(max_examples=80, deadline=None)
@given(ENDS, ENDS, st.integers(1, MAX_SCAN_POINTS), st.booleans())
@example(0.0, 5e-324, 3, False)  # step underflows to zero
@example(-0.0, 1.0, 1, True)  # no step: 0 * span + start is +0.0
@example(-0.0, -0.0, 4, False)  # -0.0 ends give +0.0 points, as in numpy
@example(-sys.float_info.max, 0.0, MAX_SCAN_POINTS, True)
@example(0.0, sys.float_info.max, 49, True)  # 48 * step overflows
@example(0.5, 1.0, 101, True)  # the grid of ``curve v_vs_e``
@example(0.0, math.pi, 12, False)  # the default scan
def test_grid_is_numpy_linspace(start, stop, num, endpoint):
    assume(math.isfinite(stop - start))
    grid = linspace(start, stop, num, endpoint=endpoint)
    assert all(type(x) is float for x in grid)
    # i * step may pass the largest float; the endpoint replaces it.
    with np.errstate(over="ignore"):
        expected = np.linspace(start, stop, num, endpoint=endpoint)
    assert bits(grid) == bits(expected)


def test_linspace_spelling_builds_the_default_grid():
    default = np.linspace(0.0, math.pi, 12, endpoint=False)
    for doc in ({}, built_in_spellings()["linspace"]):
        _, scan = build_experiment(doc)
        assert bits(scan.analyzer_phases_rad) == bits(default)
