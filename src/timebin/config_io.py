"""JSON experiment description: parsing, validation, hashing.

Every physical quantity carries its unit in the key name (bin_separation_ns,
window_width_ps, dark_rate_cps, ...) and is converted to SI on load.  One
table per section maps each document key to its record field and SI
factor; the allowed keys, the unit conversions and the built-in document
all come from these tables.  A key left out takes its record's own
default, so every default is written once, in the records.  Unknown
keys are rejected so typos fail loudly instead of silently falling back
to defaults, and so is a key given twice in one object.  The scan
follows the same rule: a document without a grid scans the default one,
and without ``n_pulses_per_point`` each point runs ``run.n_pulses``
pulses, so ``build_experiment`` always returns complete scan settings.
``effective_config_dict`` writes what was built back out as a complete
document, which is what ``config_hash`` covers: documents that describe
the same run share one hash.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable

# The interpreter's own sha256, as random.py takes its sha512: hashlib would
# load OpenSSL for the one digest a command takes.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from .apparatus import DetectorSpec, InterferometerSpec
from .engine import MAX_PULSES, ExperimentConfig
from .fiber import FiberSpec
from .grid import linspace
from .record import Record, replace
from .source import SourceConfig

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

NS, PS = 1e-9, 1e-12
# An error message quotes at most QUOTE_CHARS characters of the input at fault.
QUOTE_CHARS = 200
# Every grid the program allocates (a scan's phases times its repetitions,
# a curve's points) has at most MAX_SCAN_POINTS points; a scan that long
# takes about 18 s on one core.
MAX_SCAN_POINTS = 10**5
# The phase grid of a document that gives none: one fringe period of the
# folded arrangement.
_DEFAULT_PHASE_LINSPACE = {"start_rad": 0.0, "stop_rad": math.pi, "num": 12}
# The values of ``analyzer.arrangement``, a key that fills no record field:
# index + 1 is the number of interferometers.
_ARRANGEMENTS = ("folded", "independent")

# Document key -> (record field, factor to SI).  The factor ``int`` marks an integer key.
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
# The analyzers' delay is the source's bin separation.
_ANALYZER = {
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
_RUN = {"n_pulses": ("n_pulses", int), "seed": ("rng_seed", int)}

# Section -> (ExperimentConfig field, record, key table), in build order.
# The windows' keys fill ExperimentConfig's own fields, as the run's do.
_SECTIONS = {
    "source": ("source", SourceConfig, _SOURCE),
    "windows": (None, None, _WINDOWS),
    "fiber_a": ("fiber_a", FiberSpec, _FIBER),
    "fiber_b": ("fiber_b", FiberSpec, _FIBER),
    "analyzer": ("analyzers", InterferometerSpec, _ANALYZER),
    "detector_a": ("detector_a", DetectorSpec, _DETECTOR),
    "detector_b": ("detector_b", DetectorSpec, _DETECTOR),
}


def clip(text: str) -> str:
    """``text``, an input or a message that quotes one, cut to QUOTE_CHARS characters."""
    return text if len(text) <= QUOTE_CHARS else text[: QUOTE_CHARS - 3] + "..."


def quote(value: Any) -> str:
    """``repr(value)`` for an error message, clipped; it never raises on a document's value.

    A value with no repr, an int past the interpreter's digit limit or lists
    nested past the recursion limit, alone or in a list, shows as a stand-in.
    """
    try:
        return clip(repr(value))
    except (ValueError, RecursionError):
        return f"<unprintable {type(value).__name__}>"


class ConfigFormatError(ValueError):
    """The document cannot be read at all (bad JSON, wrong types, bad CSV)."""


class ConfigValidationError(ValueError):
    """The document parses but describes an inconsistent experiment."""


class ScanSettings(Record):
    """Phase-scan description attached to a config."""

    analyzer_phases_rad: tuple[float, ...]
    n_pulses_per_point: int
    repetitions: int = 1


def _document(fields: dict[str, Any], table: dict) -> dict[str, Any]:
    """The document section holding ``fields`` (SI values by field name), in its units."""
    return {
        key: fields[field] if unit is int else fields[field] / unit
        for key, (field, unit) in table.items()
    }


def _written(experiment: ExperimentConfig, scan: ScanSettings) -> dict[str, Any]:
    """The inverse of ``build_experiment``: every key written, the scan as ``phases_rad``."""
    first, *rest = experiment.analyzers
    doc = {}
    for name, (field, _, table) in _SECTIONS.items():
        record = getattr(experiment, field) if field else experiment
        doc[name] = _document(vars(first if name == "analyzer" else record), table)
    doc["analyzer"] = {"arrangement": _ARRANGEMENTS[len(rest)], **doc["analyzer"]}
    for second in rest:
        doc["analyzer"].update(_document(vars(second), _ANALYZER_B))
    doc["run"] = _document(vars(experiment), _RUN)
    doc["scan"] = {
        "phases_rad": list(scan.analyzer_phases_rad),
        "n_pulses_per_point": scan.n_pulses_per_point,
        "repetitions": scan.repetitions,
    }
    return doc


def default_config_dict() -> dict[str, Any]:
    """Built-in experiment description: ``ExperimentConfig()`` and the default scan.

    Noise and loss figures are tuned so that accidental subtraction adds a
    few points of fitted visibility at zero distance and somewhat under
    nine at 11 km, with the net visibility near 0.95; see README.
    """
    return effective_config_dict({})


def digest(data: bytes) -> str:
    """The hash an output's provenance carries: the first 16 hex digits of sha256."""
    return _sha256(data).hexdigest()[:16]


def config_hash(cfg: dict[str, Any]) -> str:
    """Stable hash of a config document (canonical JSON, sorted keys)."""
    return digest(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode())


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object, refused if it names a key twice: json would keep the last."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigFormatError(f"key {quote(key)} given twice")
        obj[key] = value
    return obj


def load_config_file(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            cfg = json.load(fh, object_pairs_hook=_object)
        except ConfigFormatError as exc:
            raise ConfigFormatError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        # ValueError covers JSONDecodeError and integer literals past Python's
        # digit limit; RecursionError, arrays or objects nested too deep.
        except (ValueError, RecursionError) as exc:
            raise ConfigFormatError(f"{path}: invalid JSON: {exc}") from exc
    _require_object(path, cfg)
    return cfg


def _require_object(where: str, given: Any) -> None:
    if not isinstance(given, dict):
        raise ConfigFormatError(f"{where}: expected an object")


def _require_keys(section: str, given: Any, allowed: set, required: frozenset = frozenset()):
    """Refuse ``given`` unless an object of ``allowed`` keys, ``required`` ones among them."""
    _require_object(section, given)
    unknown = set(given) - allowed
    if unknown:
        # A document built in Python may have keys that are not strings: they sort by quote.
        shown = quote(sorted(unknown, key=lambda k: k if isinstance(k, str) else quote(k)))
        raise ConfigFormatError(f"{section}: unknown key(s) {shown}; allowed: {sorted(allowed)}")
    missing = required - set(given)
    if missing:
        raise ConfigFormatError(f"{section}: missing key(s) {sorted(missing)}")


def _number(where: str, val: Any) -> float:
    numeric = isinstance(val, (int, float)) and not isinstance(val, bool)
    # abs(val) <= max also rejects NaN, and ints too large for a float.
    if not numeric or not abs(val) <= sys.float_info.max:
        raise ConfigFormatError(f"{where}: expected a finite number, got {quote(val)}")
    return float(val)


def _is_int(val: Any) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def count(where: str, val: Any, most: int | None = None, unit: str = "") -> int:
    """``val``, refused unless a positive integer, and unless at most ``most`` if given."""
    if not _is_int(val) or val < 1:
        raise ConfigFormatError(f"{where}: expected a positive integer, got {quote(val)}")
    if most is not None and val > most:
        raise ConfigFormatError(f"{where}: at most {most} {unit}, got {quote(val)}")
    return val


def _convert(section: str, given: dict, table: dict, extra: Iterable[str] = ()) -> dict[str, Any]:
    """Record keyword arguments, in SI units, for the keys of ``table`` in ``given``.

    ``given`` may also hold the ``extra`` keys, which are converted elsewhere.
    """
    _require_keys(section, given, {*table, *extra})
    kwargs = {}
    for key, (field, unit) in table.items():
        if key not in given:
            continue
        val = given[key]
        if unit is not int:
            val = _number(f"{section}.{key}", val) * unit
        elif not _is_int(val):
            raise ConfigFormatError(f"{section}.{key}: expected an integer, got {quote(val)}")
        kwargs[field] = val
    return kwargs


def _build_analyzers(sec: dict) -> tuple[InterferometerSpec, ...]:
    """The document's interferometers."""
    keys = ("arrangement", *_ANALYZER, *_ANALYZER_B)  # every key the section may hold
    kwargs = _convert("analyzer", sec, _ANALYZER, keys)
    arrangement = sec.get("arrangement", _ARRANGEMENTS[0])
    if arrangement not in _ARRANGEMENTS:
        raise ConfigFormatError(f"analyzer.arrangement: unknown value {quote(arrangement)}")
    first = InterferometerSpec(**kwargs)
    if arrangement == "folded":
        if sec.keys() & _ANALYZER_B.keys():
            raise ConfigFormatError(
                f"analyzer: {'/'.join(_ANALYZER_B)} only apply to the independent arrangement"
            )
        return (first,)
    # The second device takes the first one's excess loss.
    second = replace(first, phi_analyzer=InterferometerSpec.phi_analyzer)
    return (first, replace(second, **_convert("analyzer", sec, _ANALYZER_B, keys)))


def _build_scan(sec: dict, n_pulses: int) -> ScanSettings:
    """The scan of section ``sec``; points run ``n_pulses`` pulses unless it says otherwise."""
    allowed = {"phases_rad", "phase_linspace", "n_pulses_per_point", "repetitions"}
    _require_keys("scan", sec, allowed)
    if "phases_rad" in sec and "phase_linspace" in sec:
        raise ConfigFormatError("scan: give at most one of phases_rad or phase_linspace")
    if "phases_rad" in sec:
        raw = sec["phases_rad"]
        if not isinstance(raw, list) or not raw:
            raise ConfigFormatError("scan.phases_rad: expected a non-empty list")
        phases = tuple(_number("scan.phases_rad", v) for v in raw)
    else:
        lin = sec.get("phase_linspace", _DEFAULT_PHASE_LINSPACE)
        keys = frozenset(("start_rad", "stop_rad", "num"))
        _require_keys("scan.phase_linspace", lin, keys, keys)
        num = count("scan.phase_linspace.num", lin["num"], MAX_SCAN_POINTS, "phases")
        start, stop = (
            _number(f"scan.phase_linspace.{k}", lin[k]) for k in ("start_rad", "stop_rad")
        )
        if not math.isfinite(stop - start):
            raise ConfigFormatError("scan.phase_linspace: stop_rad - start_rad overflows")
        phases = tuple(linspace(start, stop, num, endpoint=False))
    n_point = sec.get("n_pulses_per_point", n_pulses)
    n_point = count("scan.n_pulses_per_point", n_point, MAX_PULSES, "pulses")
    reps = count("scan.repetitions", sec.get("repetitions", ScanSettings.repetitions))
    if len(phases) * reps > MAX_SCAN_POINTS:
        raise ConfigFormatError(
            f"scan: {len(phases)} phases x {quote(reps)} repetitions is more than"
            f" {MAX_SCAN_POINTS} points"
        )
    return ScanSettings(analyzer_phases_rad=phases, n_pulses_per_point=n_point, repetitions=reps)


def build_experiment(
    cfg: dict[str, Any], seed_override: int | None = None
) -> tuple[ExperimentConfig, ScanSettings]:
    """Turn a parsed document into an ExperimentConfig and its scan settings."""
    _require_keys("config", cfg, {*_SECTIONS, "run", "scan"})
    # ``batch_size`` fills no field (a run is one draw), but a perfbench workload sets it.
    run = _convert("run", cfg.get("run", {}), {**_RUN, "batch_size": ("batch_size", int)})
    batch_size = run.pop("batch_size", None)
    count("run.n_pulses", run.get("n_pulses", ExperimentConfig.n_pulses), MAX_PULSES, "pulses")
    if seed_override is not None:
        run["rng_seed"] = seed_override

    try:
        parts = {}
        for name, (field, cls, table) in _SECTIONS.items():
            if name == "analyzer":
                parts[field] = _build_analyzers(cfg.get(name, {}))
            elif field is None:
                parts.update(_convert(name, cfg.get(name, {}), table))
            else:
                parts[field] = cls(**_convert(name, cfg.get(name, {}), table))
        experiment = ExperimentConfig(**parts, **run)
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        scan = _build_scan(cfg.get("scan", {}), experiment.n_pulses)
        replace(experiment, n_pulses=scan.n_pulses_per_point)  # every scan point is valid too
    except ConfigFormatError:
        raise
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc
    return experiment, scan


def effective_config_dict(
    cfg: dict[str, Any], seed_override: int | None = None
) -> dict[str, Any]:
    """The complete document of the experiment and scan that ``cfg`` describes.

    Every key is filled in and any seed override applied, so documents that
    describe the same run give the same document, and the same hash.
    """
    return _written(*build_experiment(cfg, seed_override))
