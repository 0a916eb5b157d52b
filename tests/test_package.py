import json
import os
import subprocess
import sys

import pytest

import timebin

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
        "CoincidenceHistogram", "CoincidenceWindows", "ConfigurationError",
        "DegenerateScanError", "DetectorSpec", "ExperimentConfig", "FiberSpec",
        "FitResult", "FringePoint", "FringeScan", "InterferometerSpec", "RunResult",
        "SourceConfig", "TimeBinState", "apply_phase_jitter", "broadened_pulse_width",
        "dispersion_spread", "entropy_of_entanglement", "estimate_mu", "expected_tallies",
        "fit_fringe", "fringe_phase", "ideal_visibility", "multipair_visibility",
        "run_phase_scan", "run_pulses", "state_from_attenuations", "subtract_accidentals",
        "survival_probability", "visibility_vs_entanglement_curve", "visibility_vs_mu_curve",
    ]
    # Test references (tests/reference.py), a deleted model, and a constant
    # that is only SourceConfig's default.
    for name in (
        "AnalyzerState",
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
