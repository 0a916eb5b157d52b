import copy
import inspect
import json
import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import timebin
from timebin.config_io import ScanSettings
from timebin.record import _RULES, QUOTE_CHARS, Record, asdict, replace

from .conftest import built_in_spellings

SRC = os.path.dirname(os.path.dirname(os.path.abspath(timebin.__file__)))


def run_python(code):
    """Standard output of ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_every_exported_name_resolves():
    assert [name for name in timebin.__all__ if not hasattr(timebin, name)] == []


def test_public_surface_is_what_the_law_cli_and_benchmark_use():
    assert sorted(timebin.__all__) == [
        "CoincidenceHistogram", "DegenerateScanError",
        "DetectorSpec", "ExperimentConfig", "FiberSpec", "FitResult", "FringePoint",
        "InterferometerSpec", "RunResult", "SourceConfig", "TimeBinState",
        "apply_phase_jitter", "broadened_pulse_width",
        "dispersion_spread", "entropy_of_entanglement", "estimate_mu", "expected_histograms",
        "expected_tallies", "fit_fringe", "fringe_phase", "ideal_visibility",
        "multipair_visibility", "run_histograms", "run_phase_scan", "run_pulses",
        "state_from_attenuations", "subtract_accidentals",
        "survival_probability", "visibility_vs_entanglement_curve",
    ]
    # Test references (tests/reference.py), a deleted model, a constant that
    # is only SourceConfig's default, an error type now plain ValueError and a
    # record now ExperimentConfig.window_width_s.
    for name in (
        "AnalyzerState",
        "CoincidenceWindows",
        "ConfigurationError",
        "PUMP_PULSE_SIGMA_S",
        "bin_overlap_probability",
        "bootstrap_visibility_sigma",
        "coincidence_probability",
        "evolve_through_analyzer",
    ):
        with pytest.raises(AttributeError):
            getattr(timebin, name)


def test_import_loads_no_numpy():
    assert run_python("import sys, timebin; print('numpy' in sys.modules)") == "False"


def test_no_command_loads_numpy(tmp_path):
    """Every command works without numpy.

    Parsing, validation, the config build, every error exit, ``curve``,
    ``run``, ``scan`` and ``fit`` run in one interpreter that never loads
    numpy, numpy's masked arrays or a thread pool.
    """
    config, negative, bad_csv = tmp_path / "c.json", tmp_path / "n.json", tmp_path / "bad.csv"
    config.write_text(json.dumps(built_in_spellings()["linspace"]))
    negative.write_text(json.dumps({"source": {"mean_pairs": -1}}))
    bad_csv.write_text("phase_rad,raw,accidental\n0.0,x,0.0\n")
    out, scan_csv = str(tmp_path / "out"), str(tmp_path / "s.csv")

    def exits(code, *argv):
        return f"assert main({[str(arg) for arg in argv]!r}) == {code}"

    def numpy_loaded(steps):
        """Whether numpy is loaded after each step, all run in one fresh interpreter."""
        code = (
            "import json, sys\n"
            "from timebin.cli import main\n"
            "loaded = {}\n"
            f"for name, statement in {steps!r}.items():\n"
            "    exec(statement)\n"
            "    loaded[name] = 'numpy' in sys.modules\n"
            "print(json.dumps([loaded,"
            " sorted(m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules)]))"
        )
        loaded, heavy = json.loads(run_python(code).splitlines()[-1])
        assert heavy == []
        return loaded

    steps = {
        "import": (
            "from timebin.cli import build_experiment, build_parser, config_hash,"
            " effective_config_dict, load_config_file"
        ),
        # The five calls of perfbench/setup_probe.py.
        "setup probe": (
            f"args = build_parser().parse_args({['scan', '--config', str(config), '--out', out]})\n"
            "cfg = load_config_file(args.config)\n"
            "build_experiment(cfg, seed_override=args.seed)\n"
            "config_hash(effective_config_dict(cfg, seed_override=args.seed))"
        ),
        "help": exits(0, "--help"),
        "malformed CSV": exits(1, "fit", bad_csv, "--out", out),
        "negative mean_pairs": exits(2, "scan", "--config", negative, "--out", out),
        "missing config": exits(3, "run", "--config", tmp_path / "none.json", "--out", out),
        "curve v_vs_e": exits(0, "curve", "v_vs_e", "--out", out),
        "curve v_vs_mu": exits(0, "curve", "v_vs_mu", "--out", out),
        "run": exits(0, "run", "--out", out),
        "scan": exits(0, "scan", "--out", scan_csv),
        "fit": exits(0, "fit", scan_csv, "--out", out),
    }
    assert numpy_loaded(steps) == {name: False for name in steps}


def test_commands_load_no_dataclasses_inspect_typing_or_openssl(tmp_path):
    """``import timebin.cli`` and every command leave these modules unloaded.

    Measured as what the work adds to ``sys.modules``, since an
    interpreter's start-up may load some of them itself.  ``_hashlib`` is
    OpenSSL's: the one sha256 a command takes comes from the interpreter.
    """
    out, scan_csv = str(tmp_path / "out"), str(tmp_path / "s.csv")
    commands = [
        ["scan", "--out", scan_csv],
        ["run", "--out", out],
        ["fit", scan_csv, "--out", out],
        ["curve", "v_vs_e", "--out", out],
        ["curve", "v_vs_mu", "--out", out],
    ]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from timebin.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "unwanted = {'dataclasses', 'inspect', 'typing', '_hashlib'}\n"
        "print(sorted(unwanted & (set(sys.modules) - before)))"
    )
    assert run_python(code) == "[]"


def test_commands_load_no_further_package_module(tmp_path):
    """``import timebin.cli`` loads every module a command needs but one.

    Each command in a fresh interpreter: what it adds to the ``timebin``
    modules ``import timebin.cli`` loaded.  Only the commands that draw
    load the sampler, ``timebin.binomial``.
    """
    scan_csv, out = tmp_path / "s.csv", str(tmp_path / "out")
    scan_csv.write_text(
        "phase_rad,raw,accidental\n0.0,100,1\n0.5,80,1\n1.0,50,1\n1.5,20,1\n2.0,5,1\n"
    )
    draws = ["timebin.binomial"]
    commands = [
        (["run", "--out", out], draws),
        (["scan", "--out", out], draws),
        (["fit", str(scan_csv), "--out", out], []),
        (["curve", "v_vs_e", "--out", out], []),
        (["curve", "v_vs_mu", "--out", out], []),
    ]
    for argv, modules in commands:
        code = (
            "import sys\n"
            "from timebin.cli import main\n"
            "before = set(sys.modules)\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('timebin')))"
        )
        assert run_python(code) == str(modules), argv


def _run_result(**changes):
    fields = dict(
        singles_a=10, singles_b=12, middle_singles_a=5, middle_singles_b=6,
        triple_coincidences=3, accidental_coincidences=1, n_pulses=100, duration_s=1e-6,
    )
    return timebin.RunResult(**{**fields, **changes})


_POINT = timebin.FringePoint(phase_rad=0.5, raw=10, accidental=1.0)
# Each record: an instance, a valid change of one field, and a change its
# validation refuses (None for records that accept any values).
RECORDS = {
    "TimeBinState": (
        timebin.TimeBinState(alpha=0.6, beta=0.8), {"phi_pump": 0.5}, {"alpha": -0.6}
    ),
    "SourceConfig": (timebin.SourceConfig(), {"mean_pairs": 0.1}, {"mean_pairs": -1}),
    "FiberSpec": (timebin.FiberSpec(), {"length_km": 11.0}, {"length_km": -1.0}),
    "InterferometerSpec": (
        timebin.InterferometerSpec(), {"excess_loss_db": 2.0}, {"excess_loss_db": -1.0}
    ),
    "DetectorSpec": (timebin.DetectorSpec(), {"efficiency": 0.5}, {"efficiency": 1.5}),
    "ExperimentConfig": (timebin.ExperimentConfig(), {"n_pulses": 5}, {"n_pulses": 0}),
    "CoincidenceHistogram": (
        timebin.CoincidenceHistogram(bin_edges_s=(0.0, 1.0, 2.0), counts=(3, 4)),
        {"counts": (4, 3)},
        None,
    ),
    "RunResult": (_run_result(), {"singles_a": 11}, {"accidental_coincidences": 4}),
    "FringePoint": (_POINT, {"raw": 11}, {"raw": -1}),
    "FitResult": (
        timebin.FitResult(
            visibility=0.9,
            visibility_sigma=0.01,
            visibility_unclamped=0.9,
            clamped=False,
            amplitude=10.0,
            offset=100.0,
            phase_origin_rad=0.1,
            residual_chi2=1.5,
            n_points=12,
        ),
        {"visibility": 0.8},
        None,
    ),
    "ScanSettings": (
        ScanSettings(analyzer_phases_rad=(0.0, 1.0), n_pulses_per_point=1000),
        {"repetitions": 2},
        None,
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_every_record_is_listed():
    exported = {name for name in timebin.__all__ if isinstance(getattr(timebin, name), type)}
    records = {name for name in exported if issubclass(getattr(timebin, name), Record)}
    assert records | {"ScanSettings"} == set(RECORDS)


def test_record_equality_and_hash(record):
    rec, change, _ = record
    same, other = replace(rec), replace(rec, **change)
    assert same is not rec and same == rec and hash(same) == hash(rec)
    assert other != rec and not other == rec
    assert type(rec)(**asdict(rec)) == rec


def test_record_is_frozen(record):
    rec, change, _ = record
    (name, value), = change.items()
    with pytest.raises(AttributeError):
        setattr(rec, name, value)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert replace(rec, **change) != rec  # the instance kept its value


def test_record_never_equals_another_class(record):
    rec = record[0]
    twin_class = type(type(rec).__name__, (Record,), {"__annotations__": type(rec).__annotations__})
    twin = twin_class(**asdict(rec))
    assert twin != rec and rec != twin
    assert asdict(twin) == asdict(rec)


@pytest.mark.parametrize("name", [name for name in sorted(RECORDS) if RECORDS[name][2]])
def test_replace_validates_again(name):
    rec, _, invalid = RECORDS[name]
    with pytest.raises(ValueError):
        replace(rec, **invalid)


def test_wrong_arguments_raise_type_error(record):
    rec = record[0]
    cls, fields = type(rec), asdict(rec)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):  # keyword arguments only
        cls(*fields.values())
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        replace(rec, bogus=1)
    required = [name for name in fields if name not in cls.__dict__]
    for name in required:
        given = {key: value for key, value in fields.items() if key != name}
        with pytest.raises(TypeError, match=f"missing required argument.*'{name}'"):
            cls(**given)
        # One field missing and one unknown: as many arguments as fields.
        with pytest.raises(TypeError):
            cls(**given, bogus=1)


def test_records_have_docstrings_and_reprs(record):
    rec = record[0]
    assert type(rec).__doc__
    assert repr(rec).startswith(type(rec).__name__ + "(")


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace(record):
    rec, change, invalid = record
    assert copy.replace(rec, **change) == replace(rec, **change)
    if invalid is not None:
        with pytest.raises(ValueError):
            copy.replace(rec, **invalid)


# What the field rule refuses, by annotation: each range kind refuses what its
# type refuses, and the nearest values past its bound.  An int too large for a
# float is a valid int, and an ``int`` field has no bound of its own.
_NOT_NUMBERS = {"true": True, "str": "3", "complex": 0.1j, "inf": math.inf, "-inf": -math.inf,
                "nan": math.nan}
_NOT_FLOATS = {**_NOT_NUMBERS, "huge_int": 10**400, "numpy_float32": np.float32(1.0)}
_NOT_INTS = {**_NOT_NUMBERS, "none": None, "fraction": 1.5, "numpy_int": np.int64(1)}
_NOT_NON_NEGATIVE = {**_NOT_FLOATS, "none": None, "negative": -1e-300, "-huge": -sys.float_info.max}
_FLOAT_KINDS = {
    "float": {**_NOT_FLOATS, "none": None},
    "float | None": _NOT_FLOATS,
    "NonNegative": _NOT_NON_NEGATIVE,
    "Positive": {**_NOT_NON_NEGATIVE, "zero": 0.0, "negative_zero": -0.0},
    "Fraction": {**_NOT_NON_NEGATIVE, "above_one": 1.0000000000000002, "two": 2},
}
_REFUSED = {
    **_FLOAT_KINDS,
    "int": _NOT_INTS,
    "Count": {**_NOT_INTS, "negative": -1, "-huge": -(10**400)},
    "bool": {"int": 1, "str": "3", "none": None, "numpy_bool": np.bool_(True)},
}
# Every checked field of every record, from an instance with its optional fields filled.
_FILLED = {name: rec for name, (rec, _, _) in RECORDS.items()} | {
    "FringePoint": replace(_POINT, net=9.0)
}
_CHECKED = [
    pytest.param(rec, field, kind, id=f"{name}.{field}")
    for name, rec in sorted(_FILLED.items())
    for field, kind in type(rec).__annotations__.items()
    if kind in _REFUSED
]


def test_every_record_with_a_number_has_checked_fields():
    # CoincidenceHistogram holds tuples alone; ExperimentConfig's records are not checked.
    checked = {type(param.values[0]).__name__ for param in _CHECKED}
    assert checked == set(RECORDS) - {"CoincidenceHistogram"}
    assert len(_CHECKED) == 49
    # Every kind is refused somewhere, and every kind the rule knows is tested.
    assert {param.values[2] for param in _CHECKED} == set(_REFUSED) == set(_RULES)


@pytest.mark.parametrize("rec, field, kind", _CHECKED)
def test_field_rule_refuses_what_is_not_its_type(rec, field, kind):
    for label, value in {**_REFUSED[kind], "long_str": "x" * 10**6}.items():
        with pytest.raises(ValueError, match=f"^{field}: expected ") as refused:
            replace(rec, **{field: value})
        assert len(str(refused.value)) <= QUOTE_CHARS, label


_FLOAT_CHECKED = [param for param in _CHECKED if param.values[2] in _FLOAT_KINDS]


@pytest.mark.parametrize("rec, field, kind", _FLOAT_CHECKED)
def test_field_rule_takes_ints_and_numpy_floats_as_floats(rec, field, kind):
    value = getattr(rec, field)
    assert replace(rec, **{field: np.float64(value)}) == rec
    whole = int(value)
    try:
        replace(rec, **{field: float(whole)})
    except ValueError:  # a fraction that truncates out of its field's range: so is the int
        with pytest.raises(ValueError):
            replace(rec, **{field: whole})
    else:
        assert getattr(replace(rec, **{field: whole}), field) == whole


# Every numeric argument of a public function follows the field rule, and is refused by its
# own name: argument -> (function, the argument's kind, valid keyword arguments).
_ATTENUATIONS = {"t_a": 0.8, "t_b": 0.2, "phi_pump": 0.3}
_RATES = {"s1": 4e3, "s2": 4e3, "rc": 10.0, "f": 8e7}
_JITTER = {"visibility": 0.9, "jitter_rms": 0.2}
_ARGUMENTS = {
    "t_a": (timebin.state_from_attenuations, "Fraction", _ATTENUATIONS),
    "t_b": (timebin.state_from_attenuations, "Fraction", _ATTENUATIONS),
    "phi_pump": (timebin.state_from_attenuations, "float", _ATTENUATIONS),  # TimeBinState's field
    "mu": (timebin.multipair_visibility, "Positive", {"mu": 0.4, "v_max": 0.9}),
    "v_max": (timebin.multipair_visibility, "Fraction", {"mu": 0.4, "v_max": 0.9}),
    **{name: (timebin.estimate_mu, "Positive", _RATES) for name in _RATES},
    "input_width_s": (
        partial(timebin.broadened_pulse_width, timebin.FiberSpec()), "Positive",
        {"input_width_s": 4e-11},
    ),
    "visibility": (timebin.apply_phase_jitter, "Fraction", _JITTER),
    "jitter_rms": (timebin.apply_phase_jitter, "NonNegative", _JITTER),
    "alpha_sq": (timebin.entropy_of_entanglement, "Fraction", {"alpha_sq": 0.8}),
    "n_points": (timebin.visibility_vs_entanglement_curve, "Count", {"n_points": 5}),
}


def test_every_numeric_argument_of_a_public_function_is_checked():
    numeric = {
        (name, kind)
        for function in map(vars(timebin).get, timebin.__all__)
        if inspect.isfunction(function)
        for name, kind in function.__annotations__.items()
        if name != "return" and kind in ("float", "int")
    }
    # A range kind is a float or an int to a type checker.
    types = {name: "int" if row[1] == "Count" else "float" for name, row in _ARGUMENTS.items()}
    assert numeric == set(types.items())


@pytest.mark.parametrize("name", sorted(_ARGUMENTS))
def test_function_argument_refused_as_a_field_of_its_kind(name):
    # nan, +-inf, True, "3" and, for the float kinds, 10**400 among them
    function, kind, valid = _ARGUMENTS[name]
    for label, value in {**_REFUSED[kind], "long_str": "x" * 10**6}.items():
        with pytest.raises(ValueError, match=f"^{name}: expected ") as refused:
            function(**{**valid, name: value})
        assert len(str(refused.value)) <= QUOTE_CHARS, label


@pytest.mark.parametrize("name", sorted(_ARGUMENTS))
def test_function_argument_takes_ints_and_numpy_floats(name):
    function, kind, valid = _ARGUMENTS[name]
    if kind == "Count":  # an int, as a Count field
        assert len(function(**valid)) == valid[name]
        return
    assert function(**{**valid, name: np.float64(valid[name])}) == function(**valid)
    assert function(**{**valid, name: 1}) == function(**{**valid, name: 1.0})  # 1 is in range


# Values each function once let through, returning nan, inf, a number or a state.
_LET_THROUGH = [("mu", math.nan), ("mu", math.inf), ("mu", True), ("s1", math.nan),
                ("jitter_rms", math.nan), ("input_width_s", math.inf), ("alpha_sq", True),
                ("t_a", True)]


@pytest.mark.parametrize("name, value", _LET_THROUGH, ids=[f"{n}={v}" for n, v in _LET_THROUGH])
def test_function_argument_once_let_through_is_refused(name, value):
    function, _, valid = _ARGUMENTS[name]
    with pytest.raises(ValueError, match=f"^{name}: expected "):
        function(**{**valid, name: value})
