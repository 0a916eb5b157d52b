"""JSON experiment description: parsing, validation, canonical hashing.

Every physical quantity carries its unit in the key name (delay_ns,
window_width_ps, dark_rate_cps, ...) and is converted to SI on load.
Unknown keys are rejected so typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .apparatus import CoincidenceWindows, DetectorSpec, InterferometerSpec
from .engine import ExperimentConfig
from .fiber import FiberSpec
from .source import SourceConfig

NS, PS = 1e-9, 1e-12


class ConfigFormatError(ValueError):
    """The document cannot be read at all (bad JSON, wrong types, bad CSV)."""


class ConfigValidationError(ValueError):
    """The document parses but describes an inconsistent experiment."""


@dataclass(frozen=True)
class ScanSettings:
    """Phase-scan description attached to a config."""

    analyzer_phases_rad: tuple[float, ...]
    n_pulses_per_point: int | None = None
    repetitions: int = 1
    out: str | None = None


def default_config_dict() -> dict[str, Any]:
    """Built-in experiment description.

    Noise and loss figures are tuned so that accidental subtraction
    improves the fitted visibility by a few points at zero distance and
    somewhat under nine points at 11 km, while the net visibility tops out
    near 0.95; see README for the knobs.
    """
    fiber = {
        "length_km": 0.0,
        "attenuation_db_per_km": 0.35,
        "dispersion_slope_ps_nm2_km": 0.092,
        "zero_dispersion_wavelength_nm": 1314.0,
        "center_wavelength_nm": 1314.0,
        "filter_bandwidth_nm": 40.0,
        "phase_jitter_rad": 0.23,
    }
    detector = {
        "efficiency": 0.25,
        "dark_rate_cps": 450000.0,
        "jitter_ps": 100.0,
    }
    return {
        "source": {
            "rep_rate_hz": 8.0e7,
            "mean_pairs": 0.005,
            "arm_attenuation_a": 1.0,
            "arm_attenuation_b": 1.0,
            "pump_phase_rad": 0.0,
            "bin_separation_ns": 1.2,
            "pulse_width_ps": 42.466,
        },
        "fiber_a": dict(fiber),
        "fiber_b": dict(fiber),
        "analyzer": {
            "arrangement": "folded",
            "delay_ns": 1.2,
            "phase_rad": 0.0,
            "excess_loss_db": 1.0,
            "circulator_loss_db": 1.0,
        },
        "detector_a": dict(detector),
        "detector_b": dict(detector),
        "windows": {"window_width_ps": 400.0},
        "run": {"n_pulses": 100_000_000, "seed": 20260808, "batch_size": 50_000_000},
        "scan": {
            "phase_linspace": {"start_rad": 0.0, "stop_rad": math.pi, "num": 12},
            "n_pulses_per_point": 100_000_000,
            "repetitions": 1,
        },
    }


def config_hash(cfg: dict[str, Any]) -> str:
    """Stable hash of a config document (canonical JSON, sorted keys)."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigFormatError(f"{path}: top level must be an object")
    return cfg


def _require_keys(section: str, given: dict, allowed: set[str], required: set[str]) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigFormatError(
            f"{section}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    missing = required - set(given)
    if missing:
        raise ConfigFormatError(f"{section}: missing key(s) {sorted(missing)}")


def _num(section: str, given: dict, key: str, default: float | None = None) -> float:
    if key not in given:
        if default is None:
            raise ConfigFormatError(f"{section}: missing key {key!r}")
        return default
    val = given[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ConfigFormatError(f"{section}.{key}: expected a finite number, got {val!r}")
    return float(val)


def _is_int(val: Any) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _build_source(sec: dict) -> SourceConfig:
    allowed = {
        "rep_rate_hz", "mean_pairs", "arm_attenuation_a", "arm_attenuation_b",
        "pump_phase_rad", "bin_separation_ns", "pulse_width_ps",
    }
    _require_keys("source", sec, allowed, set())
    d = default_config_dict()["source"]
    return SourceConfig(
        rep_rate_hz=_num("source", sec, "rep_rate_hz", d["rep_rate_hz"]),
        mean_pairs=_num("source", sec, "mean_pairs", d["mean_pairs"]),
        arm_attenuation_a=_num("source", sec, "arm_attenuation_a", d["arm_attenuation_a"]),
        arm_attenuation_b=_num("source", sec, "arm_attenuation_b", d["arm_attenuation_b"]),
        phi_pump=_num("source", sec, "pump_phase_rad", d["pump_phase_rad"]),
        bin_separation_s=_num("source", sec, "bin_separation_ns", d["bin_separation_ns"]) * NS,
        pulse_width_s=_num("source", sec, "pulse_width_ps", d["pulse_width_ps"]) * PS,
    )


def _build_fiber(name: str, sec: dict) -> FiberSpec:
    allowed = {
        "length_km", "attenuation_db_per_km", "dispersion_slope_ps_nm2_km",
        "zero_dispersion_wavelength_nm", "center_wavelength_nm",
        "filter_bandwidth_nm", "phase_jitter_rad",
    }
    _require_keys(name, sec, allowed, set())
    d = default_config_dict()["fiber_a"]
    return FiberSpec(
        length_km=_num(name, sec, "length_km", d["length_km"]),
        attenuation_db_per_km=_num(name, sec, "attenuation_db_per_km", d["attenuation_db_per_km"]),
        dispersion_slope_ps_nm2_km=_num(
            name, sec, "dispersion_slope_ps_nm2_km", d["dispersion_slope_ps_nm2_km"]
        ),
        zero_dispersion_wavelength_nm=_num(
            name, sec, "zero_dispersion_wavelength_nm", d["zero_dispersion_wavelength_nm"]
        ),
        center_wavelength_nm=_num(name, sec, "center_wavelength_nm", d["center_wavelength_nm"]),
        filter_bandwidth_nm=_num(name, sec, "filter_bandwidth_nm", d["filter_bandwidth_nm"]),
        phase_jitter_rms=_num(name, sec, "phase_jitter_rad", d["phase_jitter_rad"]),
    )


def _build_analyzers(sec: dict) -> tuple[InterferometerSpec, ...]:
    allowed = {
        "arrangement", "delay_ns", "phase_rad", "excess_loss_db",
        "circulator_loss_db", "phase_b_rad", "excess_loss_b_db",
    }
    _require_keys("analyzer", sec, allowed, set())
    d = default_config_dict()["analyzer"]
    arrangement = sec.get("arrangement", d["arrangement"])
    if arrangement not in ("folded", "independent"):
        raise ConfigFormatError(f"analyzer.arrangement: unknown value {arrangement!r}")
    delay_s = _num("analyzer", sec, "delay_ns", d["delay_ns"]) * NS
    excess_loss_db = _num("analyzer", sec, "excess_loss_db", d["excess_loss_db"])
    first = InterferometerSpec(
        delay_s=delay_s,
        phi_analyzer=_num("analyzer", sec, "phase_rad", d["phase_rad"]),
        excess_loss_db=excess_loss_db,
        arrangement=arrangement,
        circulator_loss_db=_num("analyzer", sec, "circulator_loss_db", d["circulator_loss_db"]),
    )
    if arrangement == "folded":
        if "phase_b_rad" in sec or "excess_loss_b_db" in sec:
            raise ConfigFormatError(
                "analyzer: phase_b_rad/excess_loss_b_db only apply to the "
                "independent arrangement"
            )
        return (first,)
    second = InterferometerSpec(
        delay_s=delay_s,
        phi_analyzer=_num("analyzer", sec, "phase_b_rad", d["phase_rad"]),
        excess_loss_db=_num("analyzer", sec, "excess_loss_b_db", excess_loss_db),
        arrangement=arrangement,
        circulator_loss_db=0.0,
    )
    return (first, second)


def _build_detector(name: str, sec: dict) -> DetectorSpec:
    allowed = {"efficiency", "dark_rate_cps", "jitter_ps"}
    _require_keys(name, sec, allowed, set())
    d = default_config_dict()["detector_a"]
    return DetectorSpec(
        efficiency=_num(name, sec, "efficiency", d["efficiency"]),
        dark_rate_cps=_num(name, sec, "dark_rate_cps", d["dark_rate_cps"]),
        jitter_rms_s=_num(name, sec, "jitter_ps", d["jitter_ps"]) * PS,
    )


def _build_scan(sec: dict) -> ScanSettings:
    allowed = {"phases_rad", "phase_linspace", "n_pulses_per_point", "repetitions", "out"}
    _require_keys("scan", sec, allowed, set())
    if ("phases_rad" in sec) == ("phase_linspace" in sec):
        raise ConfigFormatError("scan: give exactly one of phases_rad or phase_linspace")
    if "phases_rad" in sec:
        raw = sec["phases_rad"]
        if not isinstance(raw, list) or not raw:
            raise ConfigFormatError("scan.phases_rad: expected a non-empty list")
        phases = tuple(_num("scan.phases_rad", {"v": v}, "v") for v in raw)
    else:
        lin = sec["phase_linspace"]
        if not isinstance(lin, dict):
            raise ConfigFormatError("scan.phase_linspace: expected an object")
        _require_keys(
            "scan.phase_linspace", lin, {"start_rad", "stop_rad", "num"},
            {"start_rad", "stop_rad", "num"},
        )
        num = lin["num"]
        if not _is_int(num) or num < 1:
            raise ConfigFormatError("scan.phase_linspace.num: expected a positive integer")
        start, stop = (_num("scan.phase_linspace", lin, k) for k in ("start_rad", "stop_rad"))
        phases = tuple(float(x) for x in np.linspace(start, stop, num, endpoint=False))
    n_point = sec.get("n_pulses_per_point")
    if n_point is not None and (not _is_int(n_point) or n_point <= 0):
        raise ConfigFormatError("scan.n_pulses_per_point: expected a positive integer")
    reps = sec.get("repetitions", 1)
    if not _is_int(reps) or reps < 1:
        raise ConfigFormatError("scan.repetitions: expected a positive integer")
    out = sec.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigFormatError("scan.out: expected a string path")
    return ScanSettings(
        analyzer_phases_rad=phases, n_pulses_per_point=n_point, repetitions=reps, out=out
    )


def build_experiment(
    cfg: dict[str, Any], seed_override: int | None = None
) -> tuple[ExperimentConfig, ScanSettings | None]:
    """Turn a parsed document into an ExperimentConfig (+ scan settings)."""
    allowed_sections = {
        "source", "fiber_a", "fiber_b", "analyzer",
        "detector_a", "detector_b", "windows", "run", "scan",
    }
    _require_keys("config", cfg, allowed_sections, set())
    for name in allowed_sections:
        if name in cfg and not isinstance(cfg[name], dict):
            raise ConfigFormatError(f"{name}: expected an object")

    run_sec = cfg.get("run", {})
    _require_keys("run", run_sec, {"n_pulses", "seed", "batch_size"}, set())
    defaults = default_config_dict()
    n_pulses = run_sec.get("n_pulses", defaults["run"]["n_pulses"])
    seed = run_sec.get("seed", defaults["run"]["seed"])
    batch = run_sec.get("batch_size", defaults["run"]["batch_size"])
    for key, val in (("n_pulses", n_pulses), ("seed", seed), ("batch_size", batch)):
        if not _is_int(val):
            raise ConfigFormatError(f"run.{key}: expected an integer, got {val!r}")
    if seed_override is not None:
        seed = seed_override

    try:
        source = _build_source(cfg.get("source", {}))
        windows_sec = cfg.get("windows", {})
        _require_keys("windows", windows_sec, {"window_width_ps"}, set())
        windows = CoincidenceWindows(
            window_width_s=_num(
                "windows", windows_sec, "window_width_ps", defaults["windows"]["window_width_ps"]
            ) * PS,
            delay_s=source.bin_separation_s,
        )
        experiment = ExperimentConfig(
            source=source,
            fiber_a=_build_fiber("fiber_a", cfg.get("fiber_a", {})),
            fiber_b=_build_fiber("fiber_b", cfg.get("fiber_b", {})),
            analyzers=_build_analyzers(cfg.get("analyzer", {})),
            detector_a=_build_detector("detector_a", cfg.get("detector_a", {})),
            detector_b=_build_detector("detector_b", cfg.get("detector_b", {})),
            windows=windows,
            n_pulses=n_pulses,
            rng_seed=seed,
            batch_size=batch,
        )
    except ConfigFormatError:
        raise
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc

    scan = _build_scan(cfg["scan"]) if "scan" in cfg else None
    return experiment, scan


def effective_config_dict(
    cfg: dict[str, Any], seed_override: int | None = None
) -> dict[str, Any]:
    """Config document with any seed override applied (what the run used)."""
    if seed_override is None:
        return cfg
    out = json.loads(json.dumps(cfg))
    out.setdefault("run", {})["seed"] = seed_override
    return out
