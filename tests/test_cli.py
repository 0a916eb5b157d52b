import codecs
import hashlib
import json
import math

import numpy as np
import pytest

from timebin import engine
from timebin.cli import main
from timebin.config_io import (
    MAX_SCAN_POINTS, config_hash, default_config_dict, effective_config_dict,
)
from timebin.source import multipair_visibility

from .conftest import built_in_spellings


def small_config(**overrides):
    """Default document scaled down to CLI-test size."""
    cfg = default_config_dict()
    cfg["run"]["n_pulses"] = 2_000_000
    cfg["scan"] = {
        "phase_linspace": {"start_rad": 0.0, "stop_rad": math.pi, "num": 8},
        "n_pulses_per_point": 500_000,
    }
    for key, value in overrides.items():
        section, _, name = key.partition(".")
        cfg[section][name] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        lines = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


class TestRun:
    def test_histogram_with_three_peaks(self, tmp_path):
        cfg = small_config()
        cfg["source"]["mean_pairs"] = 0.05
        out = tmp_path / "hist.csv"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["time_ns", "counts_a", "counts_b"]
        times = np.array([float(r[0]) for r in rows])
        counts = np.array([int(r[1]) for r in rows])
        peak_windows = []
        for centre in (0.0, 1.2, 2.4):
            mask = np.abs(times - centre) < 0.2
            peak_windows.append(counts[mask].sum())
        between = counts[(times > 0.4) & (times < 0.8)].sum()
        assert all(p > 50 * max(between, 1) for p in peak_windows)

    def test_run_resolves_one_law(self, tmp_path, monkeypatch):
        # The tally lines and the histograms are one draw from one outcome law.
        original, laws = engine._Law, []

        def recording(config):
            laws.append(original(config))
            return laws[-1]

        monkeypatch.setattr(engine, "_Law", recording)
        out = str(tmp_path / "run.csv")
        assert main(["run", "--config", write_config(tmp_path, small_config()), "--out", out]) == 0
        assert len(laws) == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_results_depend_on_seed_and_pulses_alone(self, tmp_path):
        # run.batch_size and --threads are accepted but change nothing.
        bodies = []
        for batch_size in (None, 1_000_000, 2_000_000):
            cfg = small_config()
            if batch_size is not None:
                cfg["run"]["batch_size"] = batch_size
            cfg_path = write_config(tmp_path, cfg, f"{batch_size}.json")
            outs = [tmp_path / f"{batch_size}_t{threads}.csv" for threads in (1, 2)]
            for threads, out in zip((1, 2), outs):
                assert main(["run", "--config", cfg_path, "--out", str(out),
                             "--threads", str(threads)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()
            bodies.append(outs[0].read_bytes())
        assert bodies[0] == bodies[1] == bodies[2]

    @pytest.mark.parametrize("command, suffixes", [("run", [""]), ("scan", ["", ".fit.json"])])
    def test_built_in_document_without_config(self, tmp_path, command, suffixes):
        built_in, saved = tmp_path / "built_in.csv", tmp_path / "saved.csv"
        assert main([command, "--out", str(built_in)]) == 0
        assert main([command, "--config", write_config(tmp_path, default_config_dict()),
                     "--out", str(saved)]) == 0
        assert built_in.read_text().splitlines()[0] == "# config_hash=4688626638e2b0f8"
        for suffix in suffixes:
            assert (tmp_path / f"built_in.csv{suffix}").read_bytes() == (
                tmp_path / f"saved.csv{suffix}"
            ).read_bytes()

    @pytest.mark.parametrize("command, suffixes", [("run", [""]), ("scan", ["", ".fit.json"])])
    def test_spellings_of_one_experiment_share_one_output(self, tmp_path, command, suffixes):
        spellings = built_in_spellings()
        for cfg in spellings.values():
            assert effective_config_dict(cfg) == default_config_dict()
        for name, cfg in spellings.items():
            assert main([command, "--config", write_config(tmp_path, cfg, f"{name}.json"),
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        for suffix in suffixes:
            outputs = {(tmp_path / f"{name}.csv{suffix}").read_bytes() for name in spellings}
            assert len(outputs) == 1

    @pytest.mark.parametrize("command, suffixes", [("run", [""]), ("scan", ["", ".fit.json"])])
    def test_independent_arrangement_ignores_circulator_loss(self, tmp_path, command, suffixes):
        """Only the folded arrangement has a circulator: its loss moves no byte and no hash."""
        docs = {
            f"loss{loss:g}": {"analyzer": {"arrangement": "independent", "circulator_loss_db": loss}}
            for loss in (1.0, 7.0)
        }
        assert len({config_hash(effective_config_dict(doc)) for doc in docs.values()}) == 1
        for name, doc in docs.items():
            assert main([command, "--config", write_config(tmp_path, doc, f"{name}.json"),
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        for suffix in suffixes:
            outputs = {(tmp_path / f"{name}.csv{suffix}").read_bytes() for name in docs}
            assert len(outputs) == 1

    def test_largest_pulse_count_runs(self, tmp_path):
        n_pulses = 2**63 - 1
        out = tmp_path / "huge.csv"
        cfg = small_config(**{"run.n_pulses": n_pulses})
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header = dict(l[2:].split("=") for l in out.read_text().splitlines() if l.startswith("# "))
        assert int(header["n_pulses"]) == n_pulses
        assert 0 < int(header["singles_a"]) <= n_pulses
        assert 0 < int(header["singles_b"]) <= n_pulses

    def test_seed_override_changes_output_and_header(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", cfg_path, "--out", str(out1)])
        main(["run", "--config", cfg_path, "--out", str(out2), "--seed", "4242"])
        assert out1.read_bytes() != out2.read_bytes()
        assert "# seed=4242" in out2.read_text()

    def test_quiet_config_gives_all_zero_counts(self, tmp_path):
        cfg = small_config()
        cfg["source"]["mean_pairs"] = 0.0
        cfg["detector_a"]["dark_rate_cps"] = 0.0
        cfg["detector_b"]["dark_rate_cps"] = 0.0
        out = tmp_path / "zero.csv"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert all(int(r[1]) == 0 and int(r[2]) == 0 for r in rows)
        assert "# triple_coincidences=0" in out.read_text()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        # An integer past Python's 4300-digit limit (a float key, so that it
        # still exits 1 where there is no limit), and arrays nested too deep.
        texts = ["{nope", '{"source": {"mean_pairs": 1%s}}' % ("0" * 5000),
                 "[" * 100_000 + "]" * 100_000]
        for text in texts:
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            for command in ("run", "scan"):
                assert main([command, "--config", str(bad),
                             "--out", str(tmp_path / "x.csv")]) == 1
                assert "Traceback" not in capsys.readouterr().err

    def test_validation_error_exit_code_names_invariant(self, tmp_path, capsys):
        cfg = small_config()
        cfg["windows"]["window_width_ps"] = 2000.0
        code = main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "window_width" in capsys.readouterr().err

    @pytest.mark.parametrize("width_ps", [0, -5])
    @pytest.mark.parametrize("command", ["run", "scan"])
    def test_window_width_must_be_positive(self, tmp_path, capsys, command, width_ps):
        config = write_config(tmp_path, {"windows": {"window_width_ps": width_ps}})
        assert main([command, "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "window_width_s must be positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("separation_ns, code", [(1e15, 0), (1e16, 2)])
    def test_bin_separation_past_float_resolution(self, tmp_path, capsys, separation_ns, code):
        """At 1e16 ns the central window and the one at twice the separation
        round to no width: no coincidence could be counted."""
        config = write_config(tmp_path, {"source": {"bin_separation_ns": separation_ns}})
        for command in ("run", "scan"):
            assert main([command, "--config", config, "--out", str(tmp_path / "x.csv")]) == code
            assert ("coincidence window" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"source": {"rep_rate_hz": 1e-310}, "run": {"n_pulses": 1000}},
            {"source": {"rep_rate_hz": 1e-300}, "scan": {"n_pulses_per_point": 10_000_000_000}},
        ],
        ids=["run", "scan_point"],
    )
    def test_duration_overflow_refused(self, tmp_path, capsys, cfg):
        """A run or scan point whose n_pulses / rep_rate_hz overflows has no duration."""
        config = write_config(tmp_path, cfg)
        for command in ("run", "scan"):
            assert main([command, "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert "rep_rate_hz" in err
            assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_byte_order_mark_in_config_is_accepted(self, tmp_path):
        """A UTF-8 byte-order mark before ``{}`` is the built-in document."""
        bom = tmp_path / "bom.json"
        bom.write_bytes(codecs.BOM_UTF8 + b"{}")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        assert main(["scan", "--out", str(plain)]) == 0
        assert main(["scan", "--config", str(bom), "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()
        assert (tmp_path / "marked.csv.fit.json").read_bytes() == (
            tmp_path / "plain.csv.fit.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("run.out", "hist.csv"),
            ("detector_a.dead_time_us", 10.0),
            ("scan.out", "scan.csv"),
            ("analyzer.delay_ns", 1.2),
        ],
    )
    def test_removed_keys_rejected(self, tmp_path, capsys, key, value):
        code = main(["run", "--config", write_config(tmp_path, small_config(**{key: value})),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert repr(key.partition(".")[2]) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"run": {"n_pulses": 1000}, "run": {"seed": 5}}', "run"),
            ('{"run": {"n_pulses": 1000, "seed": 5, "seed": 6}}', "seed"),
        ],
        ids=["section", "key_in_section"],
    )
    def test_key_given_twice_rejected(self, tmp_path, capsys, text, key):
        # json keeps the last of the two, which would run 1e8 pulses at seed 5
        path = tmp_path / "twice.json"
        path.write_text(text)
        for command in ("run", "scan"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
            assert f"{key!r} given twice" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "config, out, code",
        [
            ("config.json", "no/such/dir/out.csv", 3),
            ("no/such.json", "x.csv", 3),
            (".", "x.csv", 3),
            ("latin1.json", "x.csv", 1),
        ],
        ids=["unwritable_out", "missing_config", "config_directory", "non_utf8_config"],
    )
    def test_io_error_exit_code(self, tmp_path, config, out, code):
        write_config(tmp_path, small_config())
        (tmp_path / "latin1.json").write_bytes('{"run": {"seed": 7}} \u00e9'.encode("latin-1"))
        assert main(["run", "--config", str(tmp_path / config),
                     "--out", str(tmp_path / out)]) == code


# The paper's 11 km link, scanned three times.
_ELEVEN_KM_REPEATED = {
    "fiber_a": {"length_km": 11}, "fiber_b": {"length_km": 11}, "scan": {"repetitions": 3}
}


class TestScan:
    @pytest.mark.parametrize(
        "command, document, output, digest",
        [
            ("scan", None, "out.csv",
             "542ddceeea323e36d50efa577e8f2cb905e8e17424c5af75c808732414d18e5c"),
            ("scan", None, "out.csv.fit.json",
             "dd22d1d1604af079df81ba15ddd6b0c7a5bc40cf33f3256cf777e0f95388bebd"),
            ("run", None, "out.csv",
             "605a57febbe503ef53fa2d5f577000ae17debc300dea7cb3263cf267050e8dfd"),
            ("fit", None, "fit.json",
             "92965bb00a68d77577141ffcfbaf903e48c5b3f3b99c2aa62a1630fee401e4c6"),
            ("scan", _ELEVEN_KM_REPEATED, "out.csv",
             "e490e5d263c93a8e735d499cf960fd0d8eb86c55f99e5a0d95a4b6cd048133c5"),
            ("scan", _ELEVEN_KM_REPEATED, "out.csv.fit.json",
             "3fe98d36989d4931e1b70cf0b372c4e37effe91e0decdc7d2338337262f56dbd"),
        ],
        ids=["built_in_scan_csv", "built_in_scan_report", "built_in_run_csv",
             "built_in_scan_refit", "repeated_scan_csv", "repeated_scan_report"],
    )
    def test_output_is_pinned(self, tmp_path, command, document, output, digest):
        """The bytes of a scan and its fit report, a run, a refit and a repeated scan
        (with its ``rep`` column).  The streams are plain Python and the fit adds its
        floats left to right, so the bytes are the same on every supported version; a
        change that moves a stream must update its digests."""
        config = [] if document is None else ["--config", write_config(tmp_path, document)]
        out = str(tmp_path / "out.csv")
        if command == "fit":
            assert main(["scan", *config, "--out", out]) == 0
            assert main(["fit", out, "--out", str(tmp_path / "fit.json")]) == 0
        else:
            assert main([command, *config, "--out", out]) == 0
        assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("pump_phase", [1e16, 1e308])
    def test_large_pump_phase_keeps_every_point(self, tmp_path, pump_phase):
        """The pump phase is stored modulo 2*pi, so adding it cannot round
        the scan's twelve fringe phases together."""
        out = tmp_path / "scan.csv"
        config = write_config(tmp_path, {"source": {"pump_phase_rad": pump_phase}})
        assert main(["scan", "--config", config, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len({float(row[0]) for row in rows}) == len(rows) == 12

    def test_scan_writes_csv_and_report(self, tmp_path):
        cfg = small_config()
        cfg["source"]["mean_pairs"] = 0.05
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["phase_rad", "raw", "accidental", "net"]
        assert len(rows) == 8
        report = json.loads((tmp_path / "scan.csv.fit.json").read_text())
        assert 0.0 <= report["v_net"]["visibility"] <= 1.0
        assert report["v_net"]["visibility_sigma"] > 0.0
        assert report["v_raw"]["visibility"] <= report["v_net"]["visibility"] + 0.2
        assert "config_hash" in report and "seed" in report

    def test_default_setup_net_visibility_in_expected_band(self, tmp_path):
        # near-maximally entangled source with the shipped noise figures
        cfg = small_config()
        cfg["scan"] = {
            "phase_linspace": {"start_rad": 0.0, "stop_rad": math.pi, "num": 8},
            "n_pulses_per_point": 100_000_000,
        }
        out = tmp_path / "default_scan.csv"
        assert main(["scan", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--seed", "1551"]) == 0
        report = json.loads((tmp_path / "default_scan.csv.fit.json").read_text())
        assert 0.9 <= report["v_net"]["visibility"] <= 1.0
        assert report["v_raw"]["visibility"] < report["v_net"]["visibility"]

    def test_scan_reruns_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["scan", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["scan", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        r1 = json.loads((tmp_path / "s1.csv.fit.json").read_text())
        r2 = json.loads((tmp_path / "s2.csv.fit.json").read_text())
        assert r1 == r2

    def test_config_without_scan_uses_default_grid(self, tmp_path):
        bare = small_config()
        del bare["scan"]
        bare["run"]["n_pulses"] = 100_000
        with_grid = small_config()
        with_grid["scan"] = {
            "phases_rad": default_config_dict()["scan"]["phases_rad"],
            "n_pulses_per_point": 100_000,
        }
        no_grid = small_config()
        no_grid["scan"] = {"n_pulses_per_point": 100_000}
        tables = []
        for name, cfg in (("bare", bare), ("grid", with_grid), ("no_grid", no_grid)):
            out = tmp_path / f"{name}.csv"
            assert main(["scan", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            tables.append(read_rows(out))
        assert len(tables[0][1]) == 12
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize(
        "key, value, code, name",
        [
            ("source.mean_pairs", math.nan, 1, "mean_pairs"),
            ("fiber_a.length_km", math.inf, 1, "length_km"),
            ("fiber_a.center_wavelength_nm", 1e300, 2, "dispersion spread"),
            ("run.n_pulses", True, 1, "n_pulses"),
            ("run.seed", -1, 2, "seed"),
            ("--seed", -1, 2, "seed"),
            ("scan.phase_linspace", {"start_rad": "0", "stop_rad": 1.0, "num": 8}, 1, "start_rad"),
            ("--threads", "abc", 1, "--threads"),
            ("--points", 5, 1, "unrecognized arguments: --points"),
            ("run.n_pulses", 10**20, 1, "run.n_pulses"),
            pytest.param("scan.n_pulses_per_point", 10**400, 1, "scan.n_pulses_per_point",
                         id="scan.n_pulses_per_point-1e400-1-n_pulses_per_point"),
            ("scan.phase_linspace", {"start_rad": 0.0, "stop_rad": 1.0, "num": 10**400},
             1, "phase_linspace.num"),
            ("scan.phase_linspace", {"start_rad": 0.0, "stop_rad": 1.0, "num": 2**62},
             1, "phase_linspace.num"),
            ("scan.phase_linspace", {"start_rad": 0.0, "stop_rad": 1.0, "num": 2**63 - 1},
             1, "phase_linspace.num"),
            ("--threads", 0, 1, "--threads"),
            ("run.batch_size", 0, 1, "run.batch_size: expected a positive integer, got 0"),
            ("run.batch_size", True, 1, "run.batch_size"),
            ("run.batch_size", 1.5, 1, "run.batch_size"),
            ("scan.phase_linspace", {"start_rad": 0.0, "stop_rad": 1.0, "num": 10**5 + 1},
             1, "phase_linspace.num"),
            # 8 phases x 12 501 repetitions: the first count above 1e5 points
            ("scan.repetitions", 12_501, 1, "repetitions is more than 100000 points"),
            ("scan.repetitions", 0, 1, "scan.repetitions: expected a positive integer"),
            ("scan.n_pulses_per_point", 0, 1,
             "scan.n_pulses_per_point: expected a positive integer"),
            ("scan.phase_linspace", [], 1, "scan.phase_linspace: expected an object"),
            ("scan.phase_linspace", {"start_rad": 0.0, "stop_rad": 1.0}, 1,
             "missing key(s) ['num']"),
            # Every count message names the value it got.
            ("scan.repetitions", True, 1,
             "scan.repetitions: expected a positive integer, got True"),
            ("scan.repetitions", 1.5, 1, "scan.repetitions: expected a positive integer, got 1.5"),
            ("scan.n_pulses_per_point", "5", 1,
             "scan.n_pulses_per_point: expected a positive integer, got '5'"),
            ("--threads", -3, 1, "--threads: expected a positive integer, got -3"),
            ("run.n_pulses", 0, 1, "run.n_pulses: expected a positive integer"),
            ("run.n_pulses", -5, 1, "run.n_pulses: expected a positive integer"),
            ("run.batch_size", -5, 1, "run.batch_size: expected a positive integer, got -5"),
            ("run.batch_size", "5", 1, "run.batch_size: expected a positive integer, got '5'"),
        ],
    )
    def test_inputs_rejected_at_parse_time(self, tmp_path, capsys, key, value, code, name):
        if key.startswith("--"):
            cfg, extra = small_config(), [key, str(value)]
        else:
            cfg, extra = small_config(**{key: value}), []
        assert main(["scan", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "s.csv"), *extra]) == code
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert main(["scan", "--help"]) == 0
        assert "--threads" in capsys.readouterr().out

    def test_largest_pulse_count_per_point_scans(self, tmp_path):
        n_pulses = 2**63 - 1
        cfg = small_config()
        cfg["scan"] = {
            "phase_linspace": {"start_rad": 0.0, "stop_rad": math.pi, "num": 5},
            "n_pulses_per_point": n_pulses,
        }
        out = tmp_path / "huge.csv"
        assert main(["scan", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        raw = [int(r[header.index("raw")]) for r in rows]
        assert len(raw) == 5
        assert all(0 < count <= n_pulses for count in raw)

    def test_two_phase_scan_is_degenerate(self, tmp_path):
        cfg = small_config()
        cfg["scan"] = {"phases_rad": [0.0, 1.5], "n_pulses_per_point": 200_000}
        code = main(["scan", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 4

    def test_quarter_turn_folded_scan_is_degenerate(self, tmp_path, capsys):
        # The folded fringe advances at twice the analyzer phase: every point
        # lands at fringe phase 0 or pi, two phases on the circle.
        cfg = small_config()
        cfg["scan"] = {
            "phases_rad": [math.pi / 2 * k for k in range(5)],
            "n_pulses_per_point": 10_000,
        }
        code = main(["scan", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 4
        assert "distinct phases" in capsys.readouterr().err

    def test_repetitions_add_rep_column(self, tmp_path):
        cfg = small_config()
        cfg["scan"]["repetitions"] = 2
        out = tmp_path / "reps.csv"
        assert main(["scan", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        header, rows = read_rows(out)
        assert header[0] == "rep"
        assert {r[0] for r in rows} == {"0", "1"}
        report = json.loads((tmp_path / "reps.csv.fit.json").read_text())
        assert len(report["repetitions"]) == 2

        single_path = write_config(tmp_path, small_config(), "single.json")
        singles = {}
        for seed in (5, 6):
            single = tmp_path / f"single{seed}.csv"
            assert main(["scan", "--config", single_path, "--out", str(single),
                         "--seed", str(seed)]) == 0
            singles[seed] = read_rows(single)[1]
        single_report = json.loads((tmp_path / "single5.csv.fit.json").read_text())
        # Repetition 0 is the one-repetition scan at the same seed ...
        assert [r[1:] for r in rows if r[0] == "0"] == singles[5]
        assert report["repetitions"][0] == {
            key: single_report[key] for key in ("v_raw", "v_net", "points")
        }
        # ... and repetition 1 is not the next seed's scan.
        assert [r[1:] for r in rows if r[0] == "1"] != singles[6]

    def test_missing_out_and_scan_out(self, tmp_path):
        cfg = small_config()
        code = main(["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 1


class TestCurve:
    def test_entanglement_curve_endpoints(self, tmp_path):
        out = tmp_path / "ve.csv"
        assert main(["curve", "v_vs_e", "--points", "101", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["entanglement_bits", "visibility"]
        assert [float(x) for x in rows[0]] == [1.0, 1.0]
        assert [float(x) for x in rows[-1]] == [0.0, 0.0]
        head = out.read_text().splitlines()[:3]
        assert head[0].startswith("# config_hash=")
        assert head[1].startswith("# seed=")
        assert head[2].startswith("# version=")

    def test_mu_curve_reference_value(self, tmp_path):
        out = tmp_path / "vmu.csv"
        assert main(["curve", "v_vs_mu", "--mu", "0.5,1.0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[1][0]) == 1.0
        assert float(rows[1][1]) == pytest.approx(0.767, abs=5e-4)

    def test_mu_curve_from_list(self, tmp_path):
        out = tmp_path / "vmu.csv"
        assert main(["curve", "v_vs_mu", "--mu", "0.05,0.1,0.2,0.4,0.8",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["mu", "visibility"]
        mus = [float(r[0]) for r in rows]
        assert mus == [0.05, 0.1, 0.2, 0.4, 0.8]
        assert [float(r[1]) for r in rows] == [multipair_visibility(mu) for mu in mus]

    def test_default_mu_grid_ends_exactly_at_one(self, tmp_path):
        out = tmp_path / "vmu.csv"
        assert main(["curve", "v_vs_mu", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 101
        assert rows[0][0] == "0.01"
        assert rows[-1][0] == "1"

    def test_bad_params_exit_one(self, tmp_path, capsys):
        bad = [
            ["v_vs_mu", "--mu", "-1.0"],
            ["v_vs_e", "--points", "1"],
            ["v_vs_e", "--points", "100001"],
            ["v_vs_mu", "--points", "100001"],
            ["v_vs_e", "--scale", "1.5"],
            ["v_vs_mu", "--mu-min", "0.5", "--mu-max", "0.5"],
            ["v_vs_mu", "--mu", "0.1", "--v-max", "0"],
            ["v_vs_e", "--mu", "0.1", "--v-max", "0.5"],
            ["v_vs_mu", "--mu", "0.1,0.2", "--scale", "0.5", "--points", "3"],
            ["v_vs_mu", "--mu", "0.1,0.2", "--mu-min", "nan"],
            ["v_vs_mu", "--mu", "0.1,0.2", "--mu-max", "0.5"],
            ["v_vs_mu", "--mu", "0.1,0.2", "--points", "3"],
            ["v_vs_mu", "--mu", "abc"],
        ]
        for args in bad:
            out = tmp_path / "x.csv"
            assert main(["curve", *args, "--out", str(out)]) == 1, args
            assert "Traceback" not in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["v_vs_e"],
             "efa3a337608eb494829e2bddedd1b64a3b66ae03d0c3a779591b181cec535590"),
            (["v_vs_mu"],
             "8d30f2555a03c04a508b6a9649d4430a123ea69df550199ae1c664610b4c9610"),
            (["v_vs_mu", "--mu", "0.05,0.1,0.4,60"],
             "c5360eb3f48b225c781787424f58e4896720110180284a8d85ee376a1640c8ba"),
        ],
        ids=["v_vs_e_default", "v_vs_mu_default", "v_vs_mu_list_with_asymptotic"],
    )
    def test_output_is_pinned(self, tmp_path, argv, digest):
        """The bytes of each curve kind; mu = 60 takes the asymptotic branch."""
        out = tmp_path / "curve.csv"
        assert main(["curve", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_mu_grid_has_at_most_max_scan_points(self, tmp_path, capsys):
        out = tmp_path / "vmu.csv"
        at_cap = ",".join(["0.1"] * MAX_SCAN_POINTS)
        assert main(["curve", "v_vs_mu", "--mu", at_cap, "--out", str(out)]) == 0
        assert len(read_rows(out)[1]) == MAX_SCAN_POINTS
        out.unlink()
        assert main(["curve", "v_vs_mu", "--mu", at_cap + ",0.2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--mu" in err and str(MAX_SCAN_POINTS) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--mu", "nan"), ("--mu", "0.1,inf"), ("--mu-min", "nan"), ("--mu-max", "inf")],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, option, value):
        out = tmp_path / "vmu.csv"
        assert main(["curve", "v_vs_mu", option, value, "--out", str(out)]) == 1
        assert option in capsys.readouterr().err
        assert not out.exists()


# Five good rows spanning half a fringe: a malformed CSV adds a bad row or has a bad header.
_SCAN_HEADER = b"phase_rad,raw,accidental\n"
_GOOD_ROWS = b"0.0,100,1\n0.5,80,1\n1.0,50,1\n1.5,20,1\n2.0,5,1\n"


class TestFit:
    def test_round_trip_matches_inline_fit(self, tmp_path):
        cfg = small_config()
        cfg["source"]["mean_pairs"] = 0.05
        out = tmp_path / "scan.csv"
        main(["scan", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        fit_out = tmp_path / "refit.json"
        assert main(["fit", str(out), "--out", str(fit_out)]) == 0
        inline = json.loads((tmp_path / "scan.csv.fit.json").read_text())
        refit = json.loads(fit_out.read_text())
        assert refit["v_net"] == inline["v_net"]
        assert refit["v_raw"] == inline["v_raw"]

    def test_noiseless_csv_recovers_visibility(self, tmp_path):
        cosines = [1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0]
        lines = ["phase_rad,raw,accidental,net"]
        for c in cosines:
            count = int(round(400 * (1 + 0.5 * c)))
            lines.append(f"{math.acos(c)!r},{count},0,{count}")
        csv = tmp_path / "hand.csv"
        csv.write_text("\n".join(lines) + "\n")
        fit_out = tmp_path / "hand.json"
        assert main(["fit", str(csv), "--out", str(fit_out)]) == 0
        report = json.loads(fit_out.read_text())
        assert report["v_net"]["visibility"] == pytest.approx(0.5, abs=1e-10)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        """A scan CSV led by a UTF-8 byte-order mark, as spreadsheets write it,
        gives the same fits; the report's hash is that of the bytes read."""
        plain, marked = tmp_path / "scan.csv", tmp_path / "marked.csv"
        assert main(["scan", "--out", str(plain)]) == 0
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        reports = []
        for csv in (plain, marked):
            out = tmp_path / f"{csv.stem}.json"
            assert main(["fit", str(csv), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report.pop("config_hash") == hashlib.sha256(csv.read_bytes()).hexdigest()[:16]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_negative_count_reports_row(self, tmp_path, capsys):
        csv = tmp_path / "neg.csv"
        csv.write_text("phase_rad,raw,accidental,net\n0.0,-3,0,0\n")
        assert main(["fit", str(csv), "--out", str(tmp_path / "r.json")]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "contents, message",
        [
            (b"phase_rad,raw\n0.0,1\n", "line 1: header must contain"),
            (_SCAN_HEADER + _GOOD_ROWS + b"\xe9,10,1\n", "not UTF-8"),
            (_SCAN_HEADER + _GOOD_ROWS + b"nan,10,1\n", "line 7: expected finite"),
            (_SCAN_HEADER + _GOOD_ROWS + b"2.5,10,inf\n", "line 7: expected finite"),
            (_SCAN_HEADER + _GOOD_ROWS + b"2.5," + b"9" * 401 + b",1\n", "line 7: count above"),
            (_SCAN_HEADER + _GOOD_ROWS + b"2.5,10,1,4\n", "line 7: expected 3 fields, got 4"),
            (
                b"phase_rad,raw,accidental,raw\n" + _GOOD_ROWS.replace(b"\n", b",0\n"),
                "line 1: header names raw more than once",
            ),
            (b"", "no data rows\n"),
            (_SCAN_HEADER, "no data rows after header"),
            (_SCAN_HEADER + _GOOD_ROWS + b"2.5,10,-1\n", "line 7: negative accidental -1.0"),
            (_SCAN_HEADER + _GOOD_ROWS + b"2.5,x,1\n", "line 7: invalid literal for int()"),
        ],
        ids=[
            "missing_column",
            "non_utf8",
            "nan_phase",
            "inf_accidental",
            "oversized_count",
            "extra_field",
            "duplicate_column",
            "empty",
            "header_only",
            "negative_accidental",
            "non_integer_count",
        ],
    )
    def test_malformed_csv(self, tmp_path, capsys, contents, message):
        csv = tmp_path / "mal.csv"
        csv.write_bytes(contents)
        assert main(["fit", str(csv), "--out", str(tmp_path / "r.json")]) == 1
        assert message in capsys.readouterr().err

    def test_missing_csv_is_an_io_error(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r.json")]) == 3
        assert "cannot read" in capsys.readouterr().err


def _run_argv(tmp_path, document):
    return ["run", "--config", write_config(tmp_path, document)]


def _file(tmp_path, text):
    """The path of a file under ``tmp_path`` that holds ``text``."""
    path = tmp_path / "input"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "make_argv, name",
    [
        pytest.param(
            lambda tmp: ["curve", "v_vs_mu", "--mu", ",".join(["0.1"] * 99_999 + ["nan"])],
            "--mu: expected positive finite numbers, got nan",
            id="mu_list_with_one_nan",
        ),
        pytest.param(
            lambda tmp: ["curve", "v_vs_mu", "--mu", "1" * 10**6], "--mu", id="mu_long_number"
        ),
        pytest.param(
            lambda tmp: ["curve", "v_vs_mu", "--mu", "x" * 10**6], "--mu", id="mu_long_word"
        ),
        pytest.param(
            lambda tmp: _run_argv(tmp, {"source": {"mean_pairs": [0] * 200_000}}),
            "source.mean_pairs",
            id="long_list_for_a_number",
        ),
        pytest.param(
            lambda tmp: _run_argv(tmp, {"analyzer": {"arrangement": "x" * 10**6}}),
            "analyzer.arrangement",
            id="long_arrangement",
        ),
        pytest.param(
            lambda tmp: _run_argv(tmp, {"source": {f"k{i}": 0 for i in range(100_000)}}),
            "source: unknown key(s)",
            id="many_unknown_keys",
        ),
        pytest.param(
            lambda tmp: ["fit", _file(tmp, "phase_rad,raw,accidental\n" + "x" * 10**6 + ",1,0")],
            "line 2: could not convert string to float",
            id="fit_long_phase",
        ),
        pytest.param(
            lambda tmp: _run_argv(tmp, {"scan": {"repetitions": 10**4000}}),
            "scan: 12 phases x 1000",
            id="many_repetitions",
        ),
        pytest.param(
            lambda tmp: [
                "run", "--config", _file(tmp, '{"k": 1, "k": 2}'.replace("k", "k" * 10**5))
            ],
            "given twice",
            id="long_key_given_twice",
        ),
        pytest.param(lambda tmp: ["run", "--seed", "9" * 5000], "--seed", id="long_seed"),
        pytest.param(
            lambda tmp: ["run", "--bogus", "y" * 10**5],
            "unrecognized arguments",
            id="long_argument",
        ),
        # The arrangement is checked by value, whatever its JSON type.
        pytest.param(
            lambda tmp: _run_argv(tmp, {"analyzer": {"arrangement": 1}}),
            "analyzer.arrangement: unknown value 1",
            id="arrangement_number",
        ),
        pytest.param(
            lambda tmp: _run_argv(tmp, {"analyzer": {"arrangement": ["folded"]}}),
            "analyzer.arrangement: unknown value ['folded']",
            id="arrangement_list",
        ),
        pytest.param(
            lambda tmp: _run_argv(tmp, {"analyzer": {"arrangement": {}}}),
            "analyzer.arrangement: unknown value {}",
            id="arrangement_object",
        ),
    ],
)
def test_error_quotes_a_bounded_part_of_the_input(tmp_path, capsys, make_argv, name):
    """A bad input exits 1 with a short message that names it, however long the input."""
    out = tmp_path / "out"
    assert main([*make_argv(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err
    assert len(err) < 1000
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("long_config, message", [(True, "cannot read"), (False, "cannot write")])
def test_io_error_quotes_a_bounded_part_of_the_path(tmp_path, capsys, long_config, message):
    """A path the system refuses as too long exits 3 with a short message."""
    too_long = str(tmp_path / ("m" * 100_000))
    config = too_long if long_config else write_config(tmp_path, small_config())
    out = str(tmp_path / "x.csv") if long_config else too_long
    assert main(["run", "--config", config, "--out", out]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert len(err) < 1000
