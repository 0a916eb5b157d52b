import json
import math
import re

import pytest

import timebin as tb
from timebin.cli import main
from timebin.config_io import (
    _ANALYZER_B,
    _SCAN,
    _SECTIONS,
    ConfigFormatError,
    ConfigValidationError,
    build_experiment,
    config_hash,
    default_config_dict,
    effective_config_dict,
    load_config_file,
)
from timebin.record import _RULES

from .conftest import built_in_spellings


def _spellings():
    """The built-in run's spellings and a two-interferometer document."""
    independent = {
        "analyzer": {"arrangement": "independent", "phase_rad": 7.0, "phase_b_rad": 0.25},
        "fiber_a": {"length_km": 11.0},
        "scan": {"phases_rad": [0.0, 1.0, 2.0], "repetitions": 3},
    }
    return {**built_in_spellings(), "independent": independent}


def _rows():
    """(section, key, field, factor or reader) of every key-table row that fills a field."""
    tables = [(name, table) for name, (_, _, table) in _SECTIONS.items()]
    tables += [("analyzer", _ANALYZER_B), ("scan", _SCAN)]
    return [
        pytest.param(name, key, field, unit, id=f"{name}.{key}")
        for name, table in tables
        for key, (field, unit) in table.items()
        if field
    ]


class TestDefaultConfig:
    def test_builds_and_converts_units(self):
        experiment, scan = build_experiment(default_config_dict())
        assert experiment.source.bin_separation_s == pytest.approx(1.2e-9, rel=1e-12)
        assert experiment.window_width_s == pytest.approx(400e-12, rel=1e-12)
        assert experiment.detector_a.jitter_rms_s == pytest.approx(100e-12, rel=1e-12)
        assert len(experiment.analyzers) == 1  # the folded arrangement
        assert scan is not None
        assert len(scan.analyzer_phases_rad) == 12
        assert scan.analyzer_phases_rad[0] == 0.0
        # an empty document falls back to the same defaults, section by section
        assert build_experiment({}) == (experiment, scan)

    def test_one_set_of_defaults(self):
        # the empty document, the built-in one and the dataclasses describe one experiment
        empty, _ = build_experiment({})
        assert empty == build_experiment(default_config_dict())[0] == tb.ExperimentConfig()
        assert empty.source == tb.SourceConfig()
        assert empty.fiber_a == empty.fiber_b == tb.FiberSpec()
        assert empty.analyzers == (tb.InterferometerSpec(),)
        assert empty.detector_a == empty.detector_b == tb.DetectorSpec()
        assert empty.window_width_s == tb.ExperimentConfig.window_width_s

    def test_default_document_hash(self):
        # the provenance line of every run without --config
        assert config_hash(default_config_dict()) == "4688626638e2b0f8"

    @pytest.mark.parametrize("seed", [None, 99])
    @pytest.mark.parametrize("name", sorted(_spellings()))
    def test_complete_document_builds_the_same_run(self, name, seed):
        cfg = _spellings()[name]
        document = effective_config_dict(cfg, seed)
        assert build_experiment(document) == build_experiment(cfg, seed)
        assert effective_config_dict(document) == document
        if seed is not None:
            assert document["run"]["seed"] == seed

    def test_hash_is_order_insensitive(self):
        cfg = default_config_dict()
        reordered = json.loads(json.dumps(cfg, sort_keys=True))
        assert config_hash(cfg) == config_hash(reordered)

    def test_hash_changes_with_content(self):
        cfg = default_config_dict()
        other = default_config_dict()
        other["run"]["seed"] += 1
        assert config_hash(cfg) != config_hash(other)


def _base(key):
    """The document a key is set in: the second interferometer's keys need two of them."""
    return {"analyzer": {"arrangement": "independent"}} if key in _ANALYZER_B else {}


def _with(section, key, value):
    base = _base(key)
    return {**base, section: {**base.get(section, {}), key: value}}


def _record_of(section, key, experiment, scan):
    """The record that ``section.key`` fills, of a built experiment and scan."""
    if section == "scan":
        return scan
    if section == "analyzer":
        return experiment.analyzers[key in _ANALYZER_B]
    attr = _SECTIONS[section][0]  # None for the sections that fill ExperimentConfig
    return getattr(experiment, attr) if attr else experiment


def _run(tmp_path, document):
    """The exit code of ``timebin run`` on ``document``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    return main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")])


# A value past the bound of each range kind.
_OUT_OF_RANGE = {"NonNegative": -1, "Positive": 0, "Fraction": 1.5, "Count": -1}


def _bounded_rows():
    """(section, key, kind) of every key-table row whose field has a range kind."""
    rows = []
    for param in _rows():
        section, key, field, _ = param.values
        record = _record_of(section, key, *build_experiment(_base(key)))
        kind = type(record).__annotations__[field]
        if kind in _OUT_OF_RANGE:
            rows.append(pytest.param(section, key, kind, id=param.id))
    return rows


class TestKeyTables:
    @pytest.mark.parametrize("section, key, field, unit", _rows())
    def test_every_row_round_trips(self, section, key, field, unit):
        default = effective_config_dict(_base(key))[section][key]
        value = default + 1 if isinstance(default, int) else default * 0.5 + 0.25
        cfg = _with(section, key, value)
        record = _record_of(section, key, *build_experiment(cfg))
        assert getattr(record, field) == (value * unit if isinstance(unit, float) else value)
        assert effective_config_dict(cfg)[section][key] == pytest.approx(value, rel=1e-15)

    def test_every_range_kind_bounds_a_row(self):
        assert {param.values[2] for param in _bounded_rows()} == set(_OUT_OF_RANGE)

    @pytest.mark.parametrize("section, key, kind", _bounded_rows())
    def test_every_bounded_row_refuses_by_its_key(self, tmp_path, capsys, section, key, kind):
        # the value as the document wrote it, before any unit conversion
        value = _OUT_OF_RANGE[kind]
        assert _run(tmp_path, _with(section, key, value)) == 2
        refusal = f"{section}.{key}: expected {_RULES[kind][1]}, got {value!r}"
        assert capsys.readouterr().err == f"invalid configuration: {refusal}\n"

    @pytest.mark.parametrize(
        "document, refusal",
        [
            # one of two detectors, named by its section
            ({"detector_b": {"efficiency": 1.5}},
             "detector_b.efficiency: expected a finite number in [0, 1], got 1.5"),
            # a key in picoseconds, quoted as written, not as the field's seconds
            ({"windows": {"window_width_ps": -5}},
             "windows.window_width_ps: expected a finite number > 0, got -5"),
            ({"source": {"arm_attenuation_b": 1.5}},
             "source.arm_attenuation_b: expected a finite number in [0, 1], got 1.5"),
            ({"run": {"seed": -1}}, "run.seed: expected an integer >= 0, got -1"),
        ],
        ids=["detector_b.efficiency", "windows.window_width_ps", "source.arm_attenuation_b",
             "run.seed"],
    )
    def test_refusal_names_the_key_and_quotes_the_document(self, tmp_path, capsys, document,
                                                           refusal):
        assert _run(tmp_path, document) == 2
        assert capsys.readouterr().err == f"invalid configuration: {refusal}\n"
        with pytest.raises(ConfigValidationError, match=f"^{re.escape(refusal)}$"):
            build_experiment(document)

    def test_row_without_field_is_accepted_and_never_written(self):
        document = effective_config_dict({"run": {"batch_size": 3}})
        assert "batch_size" not in document["run"]
        assert config_hash(document) == config_hash(default_config_dict())


class TestValidation:
    def test_unknown_section_rejected(self):
        cfg = default_config_dict()
        cfg["detectors"] = {}
        with pytest.raises(ConfigFormatError):
            build_experiment(cfg)

    def test_unknown_key_rejected_with_section_name(self):
        cfg = default_config_dict()
        cfg["source"]["rep_rate"] = 8e7
        with pytest.raises(ConfigFormatError, match="source"):
            build_experiment(cfg)

    def test_window_wider_than_bin_rejected(self):
        cfg = default_config_dict()
        cfg["windows"]["window_width_ps"] = 1300.0
        message = "window_width_s 1.3e-09 must be below the bin separation 1.2e-09"
        with pytest.raises(ConfigValidationError, match=f"^{re.escape(message)}$"):
            build_experiment(cfg)

    @pytest.mark.parametrize(
        "section, key, refused, accepted",
        [("source", "bin_separation_ns", 2e15, 1e15), ("windows", "window_width_ps", 1e-300, 1e-3)],
    )
    def test_window_below_float_resolution_rejected(self, section, key, refused, accepted):
        # 400 ps around 4e6 s, or 1e-300 ps around 2.4 ns, rounds to no width.
        with pytest.raises(ConfigValidationError, match="coincidence window at twice"):
            build_experiment({section: {key: refused}})
        build_experiment({section: {key: accepted}})

    def test_non_numeric_value_rejected(self):
        cfg = default_config_dict()
        cfg["source"]["mean_pairs"] = "lots"
        with pytest.raises(ConfigFormatError):
            build_experiment(cfg)

    def test_scan_requires_exactly_one_phase_spec(self):
        cfg = default_config_dict()
        cfg["scan"]["phase_linspace"] = {"start_rad": 0.0, "stop_rad": 1.0, "num": 2}
        with pytest.raises(ConfigFormatError):
            build_experiment(cfg)

    @pytest.mark.parametrize(
        "scan",
        [
            lambda n: {"phase_linspace": {"start_rad": 0.0, "stop_rad": 1.0, "num": n}},
            lambda n: {"phases_rad": [0.0], "repetitions": n},
        ],
        ids=["linspace", "repetitions"],
    )
    def test_scan_points_bounded(self, scan):
        _, settings = build_experiment({"scan": scan(10**5)})
        assert len(settings.analyzer_phases_rad) * settings.repetitions == 10**5
        with pytest.raises(ConfigFormatError, match="100000"):
            build_experiment({"scan": scan(10**5 + 1)})

    def test_phase_list_accepted(self):
        cfg = default_config_dict()
        cfg["scan"] = {"phases_rad": [0.0, 0.5, 1.0]}
        _, scan = build_experiment(cfg)
        assert scan.analyzer_phases_rad == (0.0, 0.5, 1.0)

    def test_independent_arrangement_gets_two_interferometers(self):
        cfg = default_config_dict()
        cfg["analyzer"]["arrangement"] = "independent"
        cfg["analyzer"]["phase_b_rad"] = 0.25
        experiment, _ = build_experiment(cfg)
        assert len(experiment.analyzers) == 2
        assert experiment.analyzers[1].phi_analyzer == pytest.approx(0.25)
        # the second device takes the first one's excess loss unless given its own
        assert experiment.analyzers[1].excess_loss_db == experiment.analyzers[0].excess_loss_db

    def test_folded_rejects_second_interferometer_keys(self):
        cfg = default_config_dict()
        cfg["analyzer"]["phase_b_rad"] = 0.25
        with pytest.raises(ConfigFormatError):
            build_experiment(cfg)

    def test_seed_override(self):
        experiment, _ = build_experiment(default_config_dict(), seed_override=99)
        assert experiment.rng_seed == 99

    # Documents JSON cannot carry, built through the library: an int past the
    # interpreter's digit limit has no repr, and keys of two types do not sort.
    @pytest.mark.parametrize(
        "cfg, where",
        [
            ({"source": {"mean_pairs": 10**5000}}, "source.mean_pairs"),
            ({"scan": {"repetitions": 10**5000}}, "repetitions"),
            ({"scan": {"phases_rad": [10**5000]}}, "scan.phases_rad"),
            ({"analyzer": {"arrangement": 10**5000}}, "analyzer.arrangement"),
            ({"source": {1: 0, "a": 0}}, "source: unknown key"),
        ],
        ids=["long_number", "long_repetitions", "long_phase", "long_arrangement", "mixed_keys"],
    )
    def test_message_is_formatted_for_any_value(self, cfg, where):
        with pytest.raises(ConfigFormatError, match=where):
            build_experiment(cfg)

    @pytest.mark.parametrize("cfg", [[], "x", {"scan": None}], ids=["list", "str", "null_section"])
    def test_document_and_sections_must_be_objects(self, cfg):
        with pytest.raises(ConfigFormatError, match="expected an object"):
            build_experiment(cfg)


class TestLoadConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(default_config_dict()))
        cfg = load_config_file(str(path))
        experiment, _ = build_experiment(cfg)
        assert experiment.source.rep_rate_hz == 8.0e7

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigFormatError):
            load_config_file(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigFormatError):
            load_config_file(str(path))
