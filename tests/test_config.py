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
    load_config_file,
)


class TestDefaultConfig:
    def test_builds_and_converts_units(self):
        experiment, scan = build_experiment(default_config_dict())
        assert experiment.source.bin_separation_s == pytest.approx(1.2e-9, rel=1e-12)
        assert experiment.windows.window_width_s == pytest.approx(400e-12, rel=1e-12)
        assert experiment.detector_a.jitter_rms_s == pytest.approx(100e-12, rel=1e-12)
        assert len(experiment.analyzers) == 1  # the folded arrangement
        assert scan is not None
        assert len(scan.analyzer_phases_rad) == 12
        assert scan.analyzer_phases_rad[0] == 0.0
        # an empty document falls back to the same defaults, section by section
        assert build_experiment({}) == (experiment, None)

    def test_one_set_of_defaults(self):
        # the empty document, the built-in one and the dataclasses describe one experiment
        empty, _ = build_experiment({})
        assert empty == build_experiment(default_config_dict())[0] == tb.ExperimentConfig()
        assert empty.source == tb.SourceConfig()
        assert empty.fiber_a == empty.fiber_b == tb.FiberSpec()
        assert empty.analyzers == (tb.InterferometerSpec(),)
        assert empty.detector_a == empty.detector_b == tb.DetectorSpec()
        assert empty.windows == tb.CoincidenceWindows()

    def test_default_document_hash(self):
        # the provenance line of every run without --config
        assert config_hash(default_config_dict()) == "dcf810d371bd533f"

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

    def test_non_numeric_value_rejected(self):
        cfg = default_config_dict()
        cfg["source"]["mean_pairs"] = "lots"
        with pytest.raises(ConfigFormatError):
            build_experiment(cfg)

    def test_scan_requires_exactly_one_phase_spec(self):
        cfg = default_config_dict()
        cfg["scan"]["phases_rad"] = [0.0, 1.0]
        with pytest.raises(ConfigFormatError):
            build_experiment(cfg)

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
