"""Command-line front end: run, scan, curve, fit.

All outputs are CSV with ``#`` provenance headers (config hash, seed,
version) or JSON fit reports carrying the same provenance, so identical
config + seed reproduce byte-identical files.

Exit codes: 0 success, 1 parse error (config, CSV, parameters or command
line), 2 config validation error, 3 I/O error, 4 degenerate fit design.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, replace
from typing import Any

from . import __version__
from .analysis import (
    DegenerateScanError,
    FringePoint,
    FringeScan,
    fit_fringe,
    subtract_accidentals,
    visibility_vs_entanglement_curve,
    visibility_vs_mu_curve,
)
from .config_io import (
    ConfigFormatError,
    ConfigValidationError,
    _build_scan,
    build_experiment,
    config_hash,
    default_config_dict,
    effective_config_dict,
    load_config_file,
)
from .engine import run_phase_scan, run_pulses

EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_IO, EXIT_DEGENERATE = 0, 1, 2, 3, 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _provenance_lines(cfg_hash: str, seed: Any) -> list[str]:
    return [
        f"# config_hash={cfg_hash}",
        f"# seed={seed}",
        f"# version={__version__}",
    ]


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc}") from exc


class _IoFailure(Exception):
    pass


def _load(args: argparse.Namespace):
    """The experiment, scan settings and config hash of a ``run`` or ``scan``."""
    if args.threads < 1:
        raise ConfigFormatError(f"--threads: expected a positive integer, got {args.threads}")
    if args.config:
        try:
            cfg = load_config_file(args.config)
        except OSError as exc:
            raise _IoFailure(f"cannot read {args.config}: {exc}") from exc
    else:
        cfg = default_config_dict()
    experiment, scan = build_experiment(cfg, seed_override=args.seed)
    effective = effective_config_dict(cfg, seed_override=args.seed)
    return experiment, scan, config_hash(effective)


def _cmd_run(args: argparse.Namespace) -> int:
    experiment, _, cfg_hash = _load(args)
    result = run_pulses(experiment, threads=args.threads)
    lines = _provenance_lines(cfg_hash, experiment.rng_seed)
    lines += [
        f"# n_pulses={result.n_pulses}",
        f"# duration_s={_fmt(result.duration_s)}",
        f"# singles_a={result.singles_a}",
        f"# singles_b={result.singles_b}",
        f"# middle_singles_a={result.middle_singles_a}",
        f"# middle_singles_b={result.middle_singles_b}",
        f"# triple_coincidences={result.triple_coincidences}",
        f"# accidental_coincidences={result.accidental_coincidences}",
        "time_ns,counts_a,counts_b",
    ]
    centers_ns = result.histogram_a.bin_centers_s * 1e9
    for t, ca, cb in zip(centers_ns, result.histogram_a.counts, result.histogram_b.counts):
        lines.append(f"{_fmt(t)},{int(ca)},{int(cb)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _scan_report(net_scan: FringeScan) -> dict[str, Any]:
    """Raw and net fits and the points of a scan with its net counts filled."""
    fit_raw = fit_fringe(net_scan, use_net=False)
    fit_net = fit_fringe(net_scan, use_net=True)
    return {
        "v_raw": asdict(fit_raw),
        "v_net": asdict(fit_net),
        "points": [
            {
                "phase_rad": p.phase_rad,
                "raw": p.raw_count,
                "accidental": p.accidental_estimate,
                "net": p.net_count,
            }
            for p in net_scan.points
        ],
    }


def _cmd_scan(args: argparse.Namespace) -> int:
    experiment, scan_settings, cfg_hash = _load(args)
    if scan_settings is None:
        # The default phase grid; run.n_pulses sets the pulses per point.
        scan_settings = _build_scan(
            {"phase_linspace": default_config_dict()["scan"]["phase_linspace"]}
        )
    out_path = args.out or scan_settings.out
    if out_path is None:
        raise ConfigFormatError("no output path: pass --out or set scan.out")

    reports = []
    all_rows: list[tuple[int, FringePoint]] = []
    for rep in range(scan_settings.repetitions):
        cfg_rep = replace(experiment, rng_seed=experiment.rng_seed + rep)
        scan = run_phase_scan(
            cfg_rep,
            list(scan_settings.analyzer_phases_rad),
            n_pulses_per_point=scan_settings.n_pulses_per_point,
            threads=args.threads,
        )
        scan = subtract_accidentals(scan)
        reports.append(_scan_report(scan))
        all_rows.extend((rep, p) for p in scan.points)

    multi = scan_settings.repetitions > 1
    lines = _provenance_lines(cfg_hash, experiment.rng_seed)
    lines.append(("rep," if multi else "") + "phase_rad,raw,accidental,net")
    for rep, p in all_rows:
        prefix = f"{rep}," if multi else ""
        lines.append(
            prefix
            + f"{_fmt(p.phase_rad)},{p.raw_count},{_fmt(p.accidental_estimate)},{_fmt(p.net_count)}"
        )
    _write_text(out_path, "\n".join(lines) + "\n")

    report: dict[str, Any] = {
        "config_hash": cfg_hash,
        "seed": experiment.rng_seed,
        "version": __version__,
    }
    if multi:
        report["repetitions"] = reports
    else:
        report.update(reports[0])
    _write_text(_report_path(out_path), json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _report_path(out_path: str) -> str:
    return out_path + ".fit.json"


def _cmd_curve(args: argparse.Namespace) -> int:
    if args.kind == "v_vs_e":
        if args.points < 2:
            raise ConfigFormatError("--points must be at least 2")
        rows = visibility_vs_entanglement_curve(args.points)
        header = "entanglement_bits,visibility"
        if args.scale is not None:
            if not 0.0 < args.scale <= 1.0:
                raise ConfigFormatError("--scale must lie in (0, 1]")
            scaled = visibility_vs_entanglement_curve(args.points, scale=args.scale)
            header += ",visibility_scaled"
            rows = [(e, v, sv) for (e, v), (_, sv) in zip(rows, scaled)]
        params = {"kind": args.kind, "points": args.points, "scale": args.scale}
    else:
        if args.mu:
            try:
                grid = [float(tok) for tok in args.mu.split(",") if tok.strip()]
            except ValueError as exc:
                raise ConfigFormatError(f"--mu: {exc}") from exc
        else:
            if args.points < 2 or args.mu_min <= 0 or args.mu_max <= args.mu_min:
                raise ConfigFormatError("bad mu grid parameters")
            step = (args.mu_max - args.mu_min) / (args.points - 1)
            grid = [args.mu_min + step * i for i in range(args.points)]
        if not grid or min(grid) <= 0.0:
            raise ConfigFormatError("mu values must be positive")
        if not 0.0 < args.v_max <= 1.0:
            raise ConfigFormatError("--v-max must lie in (0, 1]")
        rows = visibility_vs_mu_curve(grid, v_max=args.v_max)
        header = "mu,visibility"
        params = {"kind": args.kind, "mu": grid, "v_max": args.v_max}

    params_hash = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()[:16]
    lines = _provenance_lines(params_hash, "none")
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_scan_csv(path: str, data: bytes) -> FringeScan:
    """The scan in ``data``, the contents of the CSV file ``path``."""
    try:
        raw_lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    except UnicodeDecodeError as exc:
        raise ConfigFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(raw_lines)
        if line.strip() and not line.startswith("#")
    ]
    if not rows:
        raise ConfigFormatError(f"{path}: no data rows")
    header_no, header = rows[0]
    cols = [c.strip() for c in header.split(",")]
    try:
        i_phase, i_raw, i_acc = cols.index("phase_rad"), cols.index("raw"), cols.index("accidental")
    except ValueError:
        raise ConfigFormatError(
            f"{path}: line {header_no}: header must contain phase_rad, raw, accidental"
        ) from None
    points = []
    for line_no, line in rows[1:]:
        parts = [c.strip() for c in line.split(",")]
        if len(parts) < len(cols):
            raise ConfigFormatError(f"{path}: line {line_no}: expected {len(cols)} fields")
        try:
            phase = float(parts[i_phase])
            raw_count = int(parts[i_raw])
            acc = float(parts[i_acc])
        except ValueError as exc:
            raise ConfigFormatError(f"{path}: line {line_no}: {exc}") from exc
        if raw_count < 0:
            raise ConfigFormatError(f"{path}: line {line_no}: negative count {raw_count}")
        if acc < 0.0:
            raise ConfigFormatError(f"{path}: line {line_no}: negative accidental {acc}")
        if not (math.isfinite(phase) and math.isfinite(acc)):
            raise ConfigFormatError(
                f"{path}: line {line_no}: expected finite phase_rad and accidental"
            )
        points.append(FringePoint(phase_rad=phase, raw_count=raw_count, accidental_estimate=acc))
    if not points:
        raise ConfigFormatError(f"{path}: no data rows after header")
    return FringeScan(points=tuple(points))


def _cmd_fit(args: argparse.Namespace) -> int:
    try:
        with open(args.scan_csv, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _IoFailure(f"cannot read {args.scan_csv}: {exc}") from exc
    scan = subtract_accidentals(_parse_scan_csv(args.scan_csv, data))
    report = {
        "config_hash": hashlib.sha256(data).hexdigest()[:16],
        "seed": "none",
        "version": __version__,
    }
    report.update(_scan_report(scan))
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebin",
        description="Simulate and analyse time-bin entangled photon-pair experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
        p.add_argument("--config", help="JSON experiment description (default: built-in)")
        p.add_argument("--out", required=out_required, help="output CSV path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads for batches")

    p_run = sub.add_parser("run", help="simulate pulses, write the arrival histogram")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="phase scan, subtraction and fringe fit")
    common(p_scan, out_required=False)
    p_scan.set_defaults(func=_cmd_scan)

    p_curve = sub.add_parser("curve", help="write an analytic theory curve")
    p_curve.add_argument("kind", choices=["v_vs_e", "v_vs_mu"])
    p_curve.add_argument("--out", required=True)
    p_curve.add_argument("--points", type=int, default=101)
    p_curve.add_argument("--scale", type=float, help="extra scaled column (v_vs_e)")
    p_curve.add_argument("--mu", help="comma-separated mean pair numbers (v_vs_mu)")
    p_curve.add_argument("--mu-min", type=float, default=0.01)
    p_curve.add_argument("--mu-max", type=float, default=1.0)
    p_curve.add_argument("--v-max", type=float, default=1.0)
    p_curve.set_defaults(func=_cmd_curve)

    p_fit = sub.add_parser("fit", help="fit an existing scan CSV")
    p_fit.add_argument("scan_csv", help="CSV with phase_rad, raw, accidental columns")
    p_fit.add_argument("--out", required=True, help="output JSON report path")
    p_fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (exit status 2) or the --help text (0).
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _IoFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DegenerateScanError as exc:
        print(f"degenerate scan: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
