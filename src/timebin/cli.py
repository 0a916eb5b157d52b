"""Command-line front end: run, scan, curve, fit.

All outputs are CSV with ``#`` provenance headers (config hash, seed,
version) or JSON fit reports carrying the same provenance, so identical
config + seed reproduce byte-identical files.

Exit codes: 0 success, 1 parse error (config, CSV, parameters or command
line), 2 config validation error, 3 I/O error, 4 degenerate fit design.
An error message quotes at most ``record.QUOTE_CHARS`` characters of the
value at fault.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from collections.abc import Iterable
from contextlib import contextmanager

from . import __version__
from .analysis import (
    DegenerateScanError,
    FringePoint,
    fit_fringe,
    subtract_accidentals,
    visibility_vs_entanglement_curve,
)
from .config_io import (
    MAX_SCAN_POINTS,
    ConfigFormatError,
    ConfigValidationError,
    build_experiment,
    config_hash,
    count,
    digest,
    effective_config_dict,
    load_config_file,
)
from .engine import MAX_PULSES, run_histograms, run_phase_scan
from .grid import linspace
from .record import asdict, clip, replace
from .source import multipair_visibility

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_IO, EXIT_DEGENERATE = 0, 1, 2, 3, 4


def _fmt(x: Any) -> str:
    """``x`` as CSV text: a float to 17 significant digits, anything else with ``str``."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _provenance(cfg_hash: str, seed: Any) -> dict[str, Any]:
    """What every output starts with: the config hash, the seed and the version."""
    return {"config_hash": cfg_hash, "seed": seed, "version": __version__}


@contextmanager
def _output(path: str):
    """The output file ``path``, open for writing text; any OSError becomes an _IoFailure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise _IoFailure(f"cannot write {clip(path)}: {clip(str(exc))}") from exc


def _write_csv(path: str, meta: dict[str, Any], header: Iterable[str], rows: Iterable) -> None:
    """Write one ``# key=value`` line per ``meta`` item, then the CSV ``header`` and ``rows``."""
    with _output(path) as fh:
        fh.writelines(f"# {key}={_fmt(value)}\n" for key, value in meta.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_report(path: str, report: dict[str, Any]) -> None:
    """Write ``report`` as indented JSON, streamed to the file rather than built in memory."""
    with _output(path) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


class _IoFailure(Exception):
    pass


def _load(args: argparse.Namespace):
    """The experiment, scan settings and config hash of a ``run`` or ``scan``."""
    count("--threads", args.threads)
    if args.config is not None:  # '', an unset $CFG, is a path too
        try:
            cfg = load_config_file(args.config)
        except OSError as exc:
            raise _IoFailure(f"cannot read {clip(args.config)}: {clip(str(exc))}") from exc
    else:
        cfg = {}
    # The hash covers the complete document, and that document is what runs.
    document = effective_config_dict(cfg, seed_override=args.seed)
    return (*build_experiment(document), config_hash(document))


def _cmd_run(args: argparse.Namespace) -> int:
    experiment, _, cfg_hash = _load(args)
    result, hist_a, hist_b = run_histograms(experiment)
    # The tally lines are the result's fields, in order.
    meta = {**_provenance(cfg_hash, experiment.rng_seed), **asdict(result)}
    rows = [
        (t * 1e9, ca, cb) for t, ca, cb in zip(hist_a.bin_centers_s, hist_a.counts, hist_b.counts)
    ]
    _write_csv(args.out, meta, ("time_ns", "counts_a", "counts_b"), rows)
    return EXIT_OK


def _scan_report(net_scan: tuple[FringePoint, ...]) -> dict[str, Any]:
    """Raw and net fits and the points of a scan with its net counts filled."""
    return {
        "v_raw": asdict(fit_fringe(net_scan, use_net=False)),
        "v_net": asdict(fit_fringe(net_scan, use_net=True)),
        "points": [asdict(p) for p in net_scan],
    }


def _cmd_scan(args: argparse.Namespace) -> int:
    experiment, settings, cfg_hash = _load(args)
    # One scan over the grid repeated: point k's seed is the k-th 64-bit word
    # of random.Random(seed), so repetition 0 is the one-repetition scan and
    # no repetition draws the points of another seed's scan.
    n_phases = len(settings.analyzer_phases_rad)
    points = run_phase_scan(
        replace(experiment, n_pulses=settings.n_pulses_per_point),
        list(settings.analyzer_phases_rad) * settings.repetitions,
    )
    scans = [
        subtract_accidentals(points[i : i + n_phases]) for i in range(0, len(points), n_phases)
    ]
    reports = [_scan_report(scan) for scan in scans]

    multi = settings.repetitions > 1
    # A repeated scan leads each row with its repetition; a single one drops that column.
    drop = 0 if multi else 1
    header = ("rep", *FringePoint._fields)[drop:]
    rows = [(rep, *asdict(p).values())[drop:] for rep, scan in enumerate(scans) for p in scan]
    provenance = _provenance(cfg_hash, experiment.rng_seed)
    _write_csv(args.out, provenance, header, rows)
    report = {**provenance, **({"repetitions": reports} if multi else reports[0])}
    _write_report(args.out + ".fit.json", report)
    return EXIT_OK


def _cmd_curve_e(args: argparse.Namespace) -> int:
    if not 2 <= args.points <= MAX_SCAN_POINTS:
        raise ConfigFormatError(
            f"--points: expected 2 to {MAX_SCAN_POINTS}, got {clip(str(args.points))}"
        )
    rows = visibility_vs_entanglement_curve(args.points)
    provenance = _provenance(config_hash({"kind": "v_vs_e", "points": args.points}), "none")
    _write_csv(args.out, provenance, ("entanglement_bits", "visibility"), rows)
    return EXIT_OK


def _cmd_curve_mu(args: argparse.Namespace) -> int:
    if args.mu is None:
        grid = linspace(0.01, 1.0, 101)
    else:
        tokens = [tok.strip() for tok in args.mu.split(",") if tok.strip()]
        try:
            grid = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ConfigFormatError(f"--mu: {clip(str(exc))}") from exc
        # The message names the first offending value, not the whole list.
        bad = [tok for tok, mu in zip(tokens, grid) if not 0.0 < mu < math.inf]
        if not grid or bad:
            got = bad[0] if bad else args.mu
            raise ConfigFormatError(f"--mu: expected positive finite numbers, got {clip(got)}")
        if len(grid) > MAX_SCAN_POINTS:
            raise ConfigFormatError(f"--mu: at most {MAX_SCAN_POINTS} values, got {len(grid)}")
    rows = [(mu, multipair_visibility(mu)) for mu in grid]
    provenance = _provenance(config_hash({"kind": "v_vs_mu", "mu": grid}), "none")
    _write_csv(args.out, provenance, ("mu", "visibility"), rows)
    return EXIT_OK


def _parse_scan_csv(path: str, data: bytes) -> tuple[FringePoint, ...]:
    """The scan in ``data``, the contents of the CSV file ``path``."""
    try:
        raw_lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").readlines()
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
    named = ("phase_rad", "raw", "accidental")
    if not all(name in cols for name in named):
        raise ConfigFormatError(
            f"{path}: line {header_no}: header must contain {', '.join(named)}"
        )
    for name in named:
        if cols.count(name) > 1:
            raise ConfigFormatError(
                f"{path}: line {header_no}: header names {name} more than once"
            )
    i_phase, i_raw, i_acc = (cols.index(name) for name in named)
    points = []
    for line_no, line in rows[1:]:
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != len(cols):
            raise ConfigFormatError(
                f"{path}: line {line_no}: expected {len(cols)} fields, got {len(parts)}"
            )
        try:
            phase, raw, acc = float(parts[i_phase]), int(parts[i_raw]), float(parts[i_acc])
            if raw > MAX_PULSES:
                raise ValueError(f"count above {MAX_PULSES}")
            points.append(FringePoint(phase_rad=phase, raw=raw, accidental=acc))
        except ValueError as exc:
            # a field that does not parse, or a point that FringePoint refuses
            raise ConfigFormatError(f"{path}: line {line_no}: {clip(str(exc))}") from exc
    if not points:
        raise ConfigFormatError(f"{path}: no data rows after header")
    return tuple(points)


def _cmd_fit(args: argparse.Namespace) -> int:
    try:
        with open(args.scan_csv, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _IoFailure(f"cannot read {clip(args.scan_csv)}: {clip(str(exc))}") from exc
    scan = subtract_accidentals(_parse_scan_csv(args.scan_csv, data))
    # A refit's hash is the hash of the CSV it read.
    _write_report(args.out, {**_provenance(digest(data), "none"), **_scan_report(scan)})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, which quote the arguments, are clipped."""

    def error(self, message: str):
        super().error(clip(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="timebin",
        description="Simulate and analyse time-bin entangled photon-pair experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON experiment description (default: built-in)")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, help="override the config seed")
        # Accepted and checked, but a run is one draw: the perfbench
        # workloads still pass it.
        p.add_argument("--threads", type=int, default=1, help="ignored (a run is one draw)")

    p_run = sub.add_parser("run", help="simulate pulses, write the arrival histogram")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="phase scan, subtraction and fringe fit")
    common(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_curve = sub.add_parser("curve", help="write an analytic theory curve")
    kinds = p_curve.add_subparsers(dest="kind", required=True)
    p_e = kinds.add_parser("v_vs_e", help="visibility against entanglement")
    p_e.add_argument("--out", required=True)
    p_e.add_argument("--points", type=int, default=101)
    p_e.set_defaults(func=_cmd_curve_e)
    p_mu = kinds.add_parser("v_vs_mu", help="visibility against mean pair number")
    p_mu.add_argument("--out", required=True)
    p_mu.add_argument("--mu", help="comma-separated mu values (default: 101 points, 0.01 to 1)")
    p_mu.set_defaults(func=_cmd_curve_mu)

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
