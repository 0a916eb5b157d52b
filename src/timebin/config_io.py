"""JSON experiment description: parsing, validation, hashing.

Every physical quantity carries its unit in the key name (delay_ns,
window_width_ps, dark_rate_cps, ...) and is converted to SI on load.  One
table per section maps each document key to its dataclass field and SI
factor; the allowed keys, the unit conversions and the built-in document
all come from these tables.  A key left out takes its dataclass's own
default, so every default is written once, in the dataclasses.  Unknown
keys are rejected so typos fail loudly instead of silently falling back
to defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any, Iterable

import numpy as np

from .apparatus import CoincidenceWindows, DetectorSpec, InterferometerSpec
from .engine import ExperimentConfig
from .fiber import FiberSpec
from .source import SourceConfig

NS, PS = 1e-9, 1e-12
# The engine counts pulses as int64, and np.linspace holds a phase grid in
# one float64 array.
_MAX_PULSES = 2**63 - 1
_MAX_PHASES = int(np.iinfo(np.intp).max) // 8
# Index + 1 is the number of interferometers.
_ARRANGEMENTS = ("folded", "independent")
_DELAY_MATCH_TOL_S = 1e-15

# Document key -> (dataclass field, factor to SI).  The factor ``int``
# marks an integer key, ``str`` a string its section's builder checks.
_SOURCE = {
    "rep_rate_hz": ("rep_rate_hz", 1.0),
    "mean_pairs": ("mean_pairs", 1.0),
    "arm_attenuation_a": ("arm_attenuation_a", 1.0),
    "arm_attenuation_b": ("arm_attenuation_b", 1.0),
    "pump_phase_rad": ("phi_pump", 1.0),
    "bin_separation_ns": ("bin_separation_s", NS),
    "pulse_width_ps": ("pulse_width_s", PS),
}
_FIBER = {
    "length_km": ("length_km", 1.0),
    "attenuation_db_per_km": ("attenuation_db_per_km", 1.0),
    "dispersion_slope_ps_nm2_km": ("dispersion_slope_ps_nm2_km", 1.0),
    "zero_dispersion_wavelength_nm": ("zero_dispersion_wavelength_nm", 1.0),
    "center_wavelength_nm": ("center_wavelength_nm", 1.0),
    "filter_bandwidth_nm": ("filter_bandwidth_nm", 1.0),
    "phase_jitter_rad": ("phase_jitter_rms", 1.0),
}
# ``arrangement`` and ``delay_ns`` fill no field: the first sets the number
# of interferometers, the second must repeat the source's bin separation.
_ANALYZER = {
    "arrangement": ("arrangement", str),
    "delay_ns": ("delay_s", NS),
    "phase_rad": ("phi_analyzer", 1.0),
    "excess_loss_db": ("excess_loss_db", 1.0),
    "circulator_loss_db": ("circulator_loss_db", 1.0),
}
# The second interferometer of the independent arrangement.
_ANALYZER_B = {"phase_b_rad": ("phi_analyzer", 1.0), "excess_loss_b_db": ("excess_loss_db", 1.0)}
_DETECTOR = {
    "efficiency": ("efficiency", 1.0),
    "dark_rate_cps": ("dark_rate_cps", 1.0),
    "jitter_ps": ("jitter_rms_s", PS),
}
_WINDOWS = {"window_width_ps": ("window_width_s", PS)}
_RUN = {"n_pulses": ("n_pulses", int), "seed": ("rng_seed", int), "batch_size": ("batch_size", int)}

# Section -> (ExperimentConfig field, dataclass, key table), in build order.
_SECTIONS = {
    "source": ("source", SourceConfig, _SOURCE),
    "windows": ("windows", CoincidenceWindows, _WINDOWS),
    "fiber_a": ("fiber_a", FiberSpec, _FIBER),
    "fiber_b": ("fiber_b", FiberSpec, _FIBER),
    "analyzer": ("analyzers", InterferometerSpec, _ANALYZER),
    "detector_a": ("detector_a", DetectorSpec, _DETECTOR),
    "detector_b": ("detector_b", DetectorSpec, _DETECTOR),
}


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


def _document(fields: dict[str, Any], table: dict) -> dict[str, Any]:
    """The document section holding ``fields`` (SI values by field name), in its units."""
    return {
        key: fields[field] if unit in (int, str) else fields[field] / unit
        for key, (field, unit) in table.items()
    }


def default_config_dict() -> dict[str, Any]:
    """Built-in experiment description: ``ExperimentConfig()`` as a document.

    Noise and loss figures are tuned so that accidental subtraction adds a
    few points of fitted visibility at zero distance and somewhat under
    nine at 11 km, with the net visibility near 0.95; see README.
    """
    default = ExperimentConfig()
    analyzer = {
        **vars(default.analyzers[0]),
        "arrangement": _ARRANGEMENTS[len(default.analyzers) - 1],
        "delay_s": default.source.bin_separation_s,
    }
    cfg = {
        name: _document(analyzer if name == "analyzer" else vars(getattr(default, field)), table)
        for name, (field, _, table) in _SECTIONS.items()
    }
    cfg["run"] = _document(vars(default), _RUN)
    cfg["scan"] = {
        "phase_linspace": {"start_rad": 0.0, "stop_rad": math.pi, "num": 12},
        "n_pulses_per_point": default.n_pulses,
        "repetitions": ScanSettings.repetitions,
    }
    return cfg


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
    except UnicodeDecodeError as exc:
        raise ConfigFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigFormatError(f"{path}: top level must be an object")
    return cfg


def _require_keys(section: str, given: dict, allowed: set, required: frozenset = frozenset()):
    unknown = set(given) - allowed
    if unknown:
        raise ConfigFormatError(
            f"{section}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    missing = required - set(given)
    if missing:
        raise ConfigFormatError(f"{section}: missing key(s) {sorted(missing)}")


def _number(where: str, val: Any) -> float:
    numeric = isinstance(val, (int, float)) and not isinstance(val, bool)
    # abs(val) <= max also rejects NaN, and ints too large for a float.
    if not numeric or not abs(val) <= sys.float_info.max:
        raise ConfigFormatError(f"{where}: expected a finite number, got {val!r}")
    return float(val)


def _is_int(val: Any) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _convert(section: str, given: dict, table: dict, extra: Iterable[str] = ()) -> dict[str, Any]:
    """Dataclass keyword arguments, in SI units, for the keys of ``table`` in ``given``.

    ``given`` may also hold the ``extra`` keys, which are converted elsewhere.
    """
    _require_keys(section, given, {*table, *extra})
    kwargs = {}
    for key, (field, unit) in table.items():
        if key not in given:
            continue
        val = given[key]
        if unit is int:
            if not _is_int(val):
                raise ConfigFormatError(f"{section}.{key}: expected an integer, got {val!r}")
        elif unit is not str:
            val = _number(f"{section}.{key}", val) * unit
        kwargs[field] = val
    return kwargs


def _build_analyzers(sec: dict) -> tuple[float | None, tuple[InterferometerSpec, ...]]:
    """The document's analyzer delay (None if not given) and interferometers."""
    kwargs = _convert("analyzer", sec, _ANALYZER, _ANALYZER_B)
    arrangement = kwargs.pop("arrangement", _ARRANGEMENTS[0])
    if arrangement not in _ARRANGEMENTS:
        raise ConfigFormatError(f"analyzer.arrangement: unknown value {arrangement!r}")
    delay_s = kwargs.pop("delay_s", None)
    if delay_s is not None and delay_s <= 0.0:
        raise ValueError("delay_s must be positive")
    first = InterferometerSpec(**kwargs)
    if arrangement == "folded":
        if sec.keys() & _ANALYZER_B.keys():
            raise ConfigFormatError(
                f"analyzer: {'/'.join(_ANALYZER_B)} only apply to the independent arrangement"
            )
        return delay_s, (first,)
    # The second device has no circulator and takes the first one's excess loss.
    second = replace(first, phi_analyzer=InterferometerSpec.phi_analyzer, circulator_loss_db=0.0)
    return delay_s, (first, replace(second, **_convert("analyzer", sec, _ANALYZER_B, _ANALYZER)))


def _build_scan(sec: dict) -> ScanSettings:
    allowed = {"phases_rad", "phase_linspace", "n_pulses_per_point", "repetitions", "out"}
    _require_keys("scan", sec, allowed)
    if ("phases_rad" in sec) == ("phase_linspace" in sec):
        raise ConfigFormatError("scan: give exactly one of phases_rad or phase_linspace")
    if "phases_rad" in sec:
        raw = sec["phases_rad"]
        if not isinstance(raw, list) or not raw:
            raise ConfigFormatError("scan.phases_rad: expected a non-empty list")
        phases = tuple(_number("scan.phases_rad", v) for v in raw)
    else:
        lin = sec["phase_linspace"]
        if not isinstance(lin, dict):
            raise ConfigFormatError("scan.phase_linspace: expected an object")
        keys = frozenset(("start_rad", "stop_rad", "num"))
        _require_keys("scan.phase_linspace", lin, keys, keys)
        num = lin["num"]
        if not _is_int(num) or num < 1:
            raise ConfigFormatError("scan.phase_linspace.num: expected a positive integer")
        if num > _MAX_PHASES:
            raise ConfigFormatError(f"scan.phase_linspace.num: at most {_MAX_PHASES} phases")
        start, stop = (
            _number(f"scan.phase_linspace.{k}", lin[k]) for k in ("start_rad", "stop_rad")
        )
        if not math.isfinite(stop - start):
            raise ConfigFormatError("scan.phase_linspace: stop_rad - start_rad overflows")
        phases = tuple(float(x) for x in np.linspace(start, stop, num, endpoint=False))
    n_point = sec.get("n_pulses_per_point")
    if n_point is not None and (not _is_int(n_point) or n_point <= 0):
        raise ConfigFormatError("scan.n_pulses_per_point: expected a positive integer")
    if n_point is not None and n_point > _MAX_PULSES:
        raise ConfigFormatError(f"scan.n_pulses_per_point: at most {_MAX_PULSES} pulses")
    reps = sec.get("repetitions", ScanSettings.repetitions)
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
    _require_keys("config", cfg, {*_SECTIONS, "run", "scan"})
    for name, sec in cfg.items():
        if not isinstance(sec, dict):
            raise ConfigFormatError(f"{name}: expected an object")
    run = _convert("run", cfg.get("run", {}), _RUN)
    if seed_override is not None:
        run["rng_seed"] = seed_override

    try:
        parts = {}
        for name, (field, cls, table) in _SECTIONS.items():
            if name == "analyzer":
                delay_s, parts[field] = _build_analyzers(cfg.get(name, {}))
            else:
                parts[field] = cls(**_convert(name, cfg.get(name, {}), table))
        experiment = ExperimentConfig(**parts, **run)
        bin_separation_s = experiment.source.bin_separation_s
        if delay_s is not None and abs(delay_s - bin_separation_s) > _DELAY_MATCH_TOL_S:
            raise ValueError("analyzer delay must match the source bin separation")
    except ConfigFormatError:
        raise
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc

    scan = _build_scan(cfg["scan"]) if "scan" in cfg else None
    if experiment.n_pulses > _MAX_PULSES:
        raise ConfigFormatError(f"run.n_pulses: at most {_MAX_PULSES} pulses")
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
