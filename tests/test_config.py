import json
import math

import pytest

import timebin as tb
from timebin.config_io import (
    ConfigFormatError,
    ConfigValidationError,
    build_experiment,
    config_hash,
    default_config_dict,
    effective_config_dict,
    load_config_file,
)

from .conftest import built_in_spellings


def _spellings():
    """The built-in run's spellings and a two-interferometer document."""
    independent = {
        "analyzer": {"arrangement": "independent", "phase_rad": 7.0, "phase_b_rad": 0.25},
        "fiber_a": {"length_km": 11.0},
        "scan": {"phases_rad": [0.0, 1.0, 2.0], "repetitions": 3},
    }
    return {**built_in_spellings(), "independent": independent}


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
        with pytest.raises(ConfigValidationError, match="window_width"):
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
