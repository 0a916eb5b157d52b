"""Traced CLI invocation and the per-layer metrics derived from its spans.

Run as a script, this wraps the public functions of each layer at the
names their callers look up, runs ``timebin.cli.main`` on the remaining
arguments, and writes one span per call to a JSON file at exit:

    python3 perfbench/tracer.py SPANS.json RUN_ID scan --config c.json --out o.csv

Spans are recorded from outside the program, around the calls into each
layer; stage timers inside the engine's batch kernel are not part of this
benchmark.  Only this script patches anything; untraced runs import
nothing from it.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from typing import Any

# (module, attribute, span name).  The span name's prefix is the layer.
TRACED = (
    ("timebin.cli", "load_config_file", "config_io.load_config_file"),
    ("timebin.cli", "build_experiment", "config_io.build_experiment"),
    ("timebin.cli", "effective_config_dict", "config_io.effective_config_dict"),
    ("timebin.cli", "config_hash", "config_io.config_hash"),
    ("timebin.cli", "run_phase_scan", "engine.run_phase_scan"),
    ("timebin.engine", "run_pulses", "engine.run_pulses"),
    ("timebin.engine", "fringe_phase", "engine.fringe_phase"),
    ("timebin.cli", "subtract_accidentals", "analysis.subtract_accidentals"),
    ("timebin.cli", "fit_fringe", "analysis.fit_fringe"),
)


class Tracer:
    """In-memory span recorder for one process (single-threaded callers)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        cpu0 = time.process_time()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["cpu_s"] = time.process_time() - cpu0
            self._stack.pop()
        if name == "engine.run_pulses":
            span.update(
                threads=kwargs.get("threads", 1),
                mean_pairs=args[0].source.mean_pairs,
                pulses=result.n_pulses,
                singles=result.singles_a + result.singles_b,
                triples=result.triple_coincidences,
                accidentals=result.accidental_coincidences,
            )
        return result

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(module, attr, traced)


def _main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    import timebin.cli

    tracer = Tracer(run_id)
    for module_name, attr, name in TRACED:
        tracer.wrap(importlib.import_module(module_name), attr, name)
    try:
        return tracer.call("cli.main", timebin.cli.main, cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


def self_times(spans: list[dict[str, Any]]) -> dict[tuple[str, int], float]:
    """(run id, span id) -> duration minus the time its child spans cover.

    Callers are single-threaded, so children of one span never overlap
    and the covered time is the sum of their durations.
    """
    self_s = {(s["run"], s["id"]): s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            self_s[s["run"], s["parent"]] -= s["end"] - s["start"]
    return self_s


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it.

    Falls back to the median (50) when fewer than 20 samples exist.
    """
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def iteration_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer figures of one workload iteration (all its invocations)."""
    self_s = self_times(spans)

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(prefix: str) -> int:
        return sum(1 for s in spans if s["name"].startswith(prefix))

    pulses_spans = [s for s in spans if s["name"] == "engine.run_pulses"]
    run_pulses_s = busy("engine.run_pulses")
    pulses = sum(s["pulses"] for s in pulses_spans)
    pair_pulses = sum(-s["pulses"] * math.expm1(-s["mean_pairs"]) for s in pulses_spans)
    singles = sum(s["singles"] for s in pulses_spans)
    triples = sum(s["triples"] for s in pulses_spans)
    accidentals = sum(s["accidentals"] for s in pulses_spans)
    main_s = busy("cli.main")
    return {
        "engine.run_pulses.busy_s": run_pulses_s,
        "engine.run_pulses.calls": len(pulses_spans),
        "engine.ns_per_pulse": 1e9 * run_pulses_s / pulses,
        "engine.parallel_util": sum(s["cpu_s"] for s in pulses_spans)
        / sum((s["end"] - s["start"]) * s["threads"] for s in pulses_spans),
        "engine.fringe_phase.busy_s": busy("engine.fringe_phase"),
        "engine.fringe_phase.calls": calls("engine.fringe_phase"),
        "engine.run_phase_scan.self_s": sum(
            self_s[s["run"], s["id"]] for s in spans if s["name"] == "engine.run_phase_scan"
        ),
        "analysis.fit_fringe.busy_s": busy("analysis.fit_fringe"),
        "analysis.fit_fringe.calls": calls("analysis.fit_fringe"),
        "analysis.subtract_accidentals.busy_s": busy("analysis.subtract_accidentals"),
        "cli.self_s": sum(self_s[s["run"], s["id"]] for s in spans if s["name"] == "cli.main"),
        "config_io.busy_s": sum(
            s["end"] - s["start"] for s in spans if s["name"].startswith("config_io.")
        ),
        "config_io.calls": calls("config_io."),
        "engine.pulses": pulses,
        "engine.pair_pulses": pair_pulses,
        "engine.singles": singles,
        "engine.triples": triples,
        "engine.accidentals": accidentals,
        "engine.accidental_share": accidentals / triples,
        "engine.singles_per_pair_pulse": singles / pair_pulses,
        "trace.main_s": main_s,
        "trace.self_sum_s": sum(self_s.values()),
    }


def run_pulses_durations(spans: list[dict[str, Any]]) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == "engine.run_pulses"]


def aggregate(per_iteration: list[dict[str, float]], durations: list[float]) -> dict[str, float]:
    """Median of each per-iteration figure, plus pooled run_pulses percentiles."""
    out = {k: statistics.median(d[k] for d in per_iteration) for k in per_iteration[0]}
    pct = tail_percentile(len(durations))
    out["engine.run_pulses.p50_s"] = statistics.median(durations)
    out["engine.run_pulses.tail_s"] = percentile(durations, pct)
    out["engine.run_pulses.tail_pct"] = pct
    return out


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
