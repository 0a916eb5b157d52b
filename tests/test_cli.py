import json
import math

import numpy as np
import pytest

from timebin.cli import main
from timebin.config_io import default_config_dict


def small_config(**overrides):
    """Default document scaled down to CLI-test size."""
    cfg = default_config_dict()
    cfg["run"]["n_pulses"] = 2_000_000
    cfg["run"]["batch_size"] = 1_000_000
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

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1

    def test_validation_error_exit_code_names_invariant(self, tmp_path, capsys):
        cfg = small_config()
        cfg["windows"]["window_width_ps"] = 2000.0
        code = main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "window_width" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("run.out", "hist.csv"), ("detector_a.dead_time_us", 10.0)]
    )
    def test_removed_keys_rejected(self, tmp_path, capsys, key, value):
        code = main(["run", "--config", write_config(tmp_path, small_config(**{key: value})),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert repr(key.partition(".")[2]) in capsys.readouterr().err

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


class TestScan:
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

    def test_scan_out_key_used_when_flag_absent(self, tmp_path):
        cfg = small_config()
        cfg["scan"]["n_pulses_per_point"] = 200_000
        cfg["scan"]["out"] = str(tmp_path / "from_config.csv")
        assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_config_without_scan_uses_default_grid(self, tmp_path):
        bare = small_config()
        del bare["scan"]
        bare["run"]["n_pulses"] = 100_000
        with_grid = small_config()
        with_grid["scan"] = {
            "phase_linspace": default_config_dict()["scan"]["phase_linspace"],
            "n_pulses_per_point": 100_000,
        }
        columns = []
        for name, cfg in (("bare", bare), ("grid", with_grid)):
            out = tmp_path / f"{name}.csv"
            assert main(["scan", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            header, rows = read_rows(out)
            columns.append([r[header.index("phase_rad")] for r in rows])
        assert len(columns[0]) == 12
        assert columns[0] == columns[1]

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

    def test_two_phase_scan_is_degenerate(self, tmp_path):
        cfg = small_config()
        cfg["scan"] = {"phases_rad": [0.0, 1.5], "n_pulses_per_point": 200_000}
        code = main(["scan", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 4

    def test_repetitions_add_rep_column(self, tmp_path):
        cfg = small_config()
        cfg["scan"]["repetitions"] = 2
        out = tmp_path / "reps.csv"
        assert main(["scan", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[0] == "rep"
        assert {r[0] for r in rows} == {"0", "1"}
        report = json.loads((tmp_path / "reps.csv.fit.json").read_text())
        assert len(report["repetitions"]) == 2

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

    def test_scaled_column_peaks_at_scale(self, tmp_path):
        out = tmp_path / "ve95.csv"
        assert main(["curve", "v_vs_e", "--points", "51", "--scale", "0.95",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[-1] == "visibility_scaled"
        assert max(float(r[-1]) for r in rows) == pytest.approx(0.95, abs=1e-12)

    def test_mu_curve_reference_value(self, tmp_path):
        out = tmp_path / "vmu.csv"
        assert main(["curve", "v_vs_mu", "--mu", "0.5,1.0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[1][0]) == 1.0
        assert float(rows[1][1]) == pytest.approx(0.767, abs=5e-4)

    def test_bad_params_exit_one(self, tmp_path):
        assert main(["curve", "v_vs_mu", "--mu", "-1.0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["curve", "v_vs_e", "--points", "1",
                     "--out", str(tmp_path / "y.csv")]) == 1


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

    def test_negative_count_reports_row(self, tmp_path, capsys):
        csv = tmp_path / "neg.csv"
        csv.write_text("phase_rad,raw,accidental,net\n0.0,-3,0,0\n")
        assert main(["fit", str(csv), "--out", str(tmp_path / "r.json")]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "last_row, message",
        [
            (None, "line 1: header must contain"),
            (b"\xe9,10,1", "not UTF-8"),
            (b"nan,10,1", "line 7: expected finite"),
            (b"2.5,10,inf", "line 7: expected finite"),
        ],
        ids=["missing_column", "non_utf8", "nan_phase", "inf_accidental"],
    )
    def test_malformed_csv(self, tmp_path, capsys, last_row, message):
        csv = tmp_path / "mal.csv"
        if last_row is None:
            csv.write_text("phase_rad,raw\n0.0,1\n")
        else:
            # five good rows spanning half a fringe, then the bad one
            good = b"0.0,100,1\n0.5,80,1\n1.0,50,1\n1.5,20,1\n2.0,5,1\n"
            csv.write_bytes(b"phase_rad,raw,accidental\n" + good + last_row + b"\n")
        assert main(["fit", str(csv), "--out", str(tmp_path / "r.json")]) == 1
        assert message in capsys.readouterr().err
