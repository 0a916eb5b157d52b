"""Fuzz of ``timebin run`` and ``timebin scan`` over mutated config documents, and of the fit.

Keys of the physics sections and the scan's phases take extreme values,
wrong types, bools, NaN and infinities; whole sections go missing or turn
into non-objects.  Every call must end with a documented exit code (0-4)
instead of raising.  The run stays small (at most 1e6 pulses, at most 8
phases and 2 repetitions), so each example costs milliseconds.  A document
that builds must build the same run from its complete document, the one
``run`` and ``scan`` hash.  ``fit_fringe`` of any scan the points accept
returns a fit or refuses the design, since a fit result refuses a field
that is not finite.
"""

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import timebin as tb
from timebin.analysis import _MIN_PHASE_SPAN, _SAME_PHASE
from timebin.cli import main
from timebin.config_io import (
    ConfigFormatError,
    ConfigValidationError,
    build_experiment,
    default_config_dict,
    effective_config_dict,
)
from timebin.engine import MAX_PULSES

PHYSICS = ("source", "fiber_a", "fiber_b", "analyzer", "detector_a", "detector_b", "windows")
DEFAULTS = default_config_dict()
KEYS = [(section, key) for section in PHYSICS for key in DEFAULTS[section]]
KEYS += [("analyzer", "phase_b_rad"), ("analyzer", "excess_loss_b_db")]

EXTREMES = st.sampled_from([
    0, 1, -1, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
    sys.float_info.max, -sys.float_info.max, 10**400, math.nan, math.inf, -math.inf,
    True, False, None, "1.0", [], {}, "folded", "independent",
])
VALUES = st.one_of(EXTREMES, st.floats(allow_nan=True, allow_infinity=True), st.integers())
PHASES = st.one_of(EXTREMES, st.floats(-10.0, 10.0))
SCANS = st.one_of(
    st.fixed_dictionaries({"phases_rad": st.one_of(st.lists(PHASES, max_size=8), EXTREMES)}),
    st.fixed_dictionaries({
        "phase_linspace": st.fixed_dictionaries({
            "start_rad": PHASES,
            "stop_rad": PHASES,
            "num": st.one_of(st.integers(-1, 8), st.sampled_from([True, 2.0, "4", None])),
        }),
    }),
)


@st.composite
def documents(draw):
    cfg = copy.deepcopy({section: DEFAULTS[section] for section in PHYSICS})
    # A value shared between keys reaches combinations such as two zero arm attenuations.
    shared = draw(VALUES)
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=4)):
        action = draw(st.sampled_from(["shared", "own", "drop"]))
        if action == "drop":
            cfg[section].pop(key, None)
        else:
            cfg[section][key] = shared if action == "shared" else draw(VALUES)
    for section in draw(st.lists(st.sampled_from(PHYSICS), max_size=2)):
        if draw(st.booleans()):
            cfg.pop(section, None)
        else:
            cfg[section] = draw(st.sampled_from([None, [], 1.0, "x"]))
    n_pulses = draw(st.integers(1, 10**6))
    cfg["run"] = {"n_pulses": n_pulses, "seed": draw(st.integers(0, 99))}
    if draw(st.booleans()):
        cfg["scan"] = draw(SCANS)
        cfg["scan"]["repetitions"] = draw(st.integers(1, 2))
    return cfg


SMALL_RUN = {"run": {"n_pulses": 1000}}


# Inputs that once raised: no transmitting pump arm, an int too large for a
# float, and a phase grid whose span overflows.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(documents())
@example({"source": {"arm_attenuation_a": 0, "arm_attenuation_b": 0.0}, **SMALL_RUN})
@example({"fiber_a": {"length_km": 10**400}, **SMALL_RUN})
@example({
    "scan": {"phase_linspace": {"start_rad": -1e308, "stop_rad": 1e308, "num": 4}}, **SMALL_RUN
})
def test_run_and_scan_exit_with_a_documented_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        for command in ("run", "scan"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", os.path.join(tmp, "out.csv")])
            assert code in range(5), (command, code, err.getvalue())
            assert "Traceback" not in err.getvalue()


# A tiny negative analyzer phase once wrapped to 2 pi, and then to 0 when rebuilt.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(documents(), st.one_of(st.none(), st.integers(0, 2**64)))
@example({"analyzer": {"phase_rad": -5e-324}}, None)
def test_complete_document_builds_the_same_run(cfg, seed):
    try:
        built = build_experiment(cfg, seed)
    except (ConfigFormatError, ConfigValidationError):
        assume(False)
    assert build_experiment(effective_config_dict(cfg, seed)) == built


# Phases at the design check's limits: neighbours one _SAME_PHASE apart or
# just within it, a span of pi/2 or just under, a full turn less a hair.
EDGE_PHASES = st.sampled_from([
    0.0, 0.5 * _SAME_PHASE, _SAME_PHASE, 1.5 * _SAME_PHASE, 3.0 * _SAME_PHASE,
    _MIN_PHASE_SPAN - _SAME_PHASE, _MIN_PHASE_SPAN, _MIN_PHASE_SPAN + _SAME_PHASE,
    math.pi, 2.0 * math.pi - _SAME_PHASE, 2.0 * math.pi, -1e-300,
])
POINTS = st.builds(
    tb.FringePoint,
    phase_rad=st.one_of(EDGE_PHASES, st.floats(-10.0, 10.0)),
    raw=st.one_of(st.integers(0, 20), st.integers(0, MAX_PULSES), st.just(MAX_PULSES)),
    accidental=st.one_of(st.just(0.0), st.floats(0.0, 1e300), st.just(1e300)),
)


def _points(*rows):
    return [tb.FringePoint(phase_rad=phase, raw=raw, accidental=acc) for phase, raw, acc in rows]


# An offset whose square underflows once raised ZeroDivisionError.
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(POINTS, min_size=5, max_size=12), st.booleans())
@example(_points((0.0, 0, 0.0), (0.0, 0, 0.0), (_MIN_PHASE_SPAN + _SAME_PHASE, 0, 0.0),
                 (1.0, MAX_PULSES, 1e300), (2e-233, 1, 0.0)), True)
def test_fit_returns_a_fit_or_refuses_the_design(scan, use_net):
    try:
        fit = tb.fit_fringe(tb.subtract_accidentals(scan), use_net=use_net)
    except tb.DegenerateScanError:
        return
    assert isinstance(fit, tb.FitResult)
