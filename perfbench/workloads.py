"""The benchmark's workloads: generated configs and their closed-form checks.

Each workload is one or two CLI invocations (``timebin scan``, optionally
followed by ``timebin fit`` of the scan CSV).  Configs override only the
keys a workload is about, so the rest follows the program's shipped
defaults; the RNG seed comes from the benchmark's ``--seed``.

Why these three (they stress different layers):

- ``scan_default``: the shipped default config at 0 km, one thread.  The
  plain single-threaded north-star number; the engine's pair-row kernel
  does nearly all the work, and most pair rows it builds give no click.
  Per-pulse optimisations move it.
- ``scan_multipair_t2``: lossless, dark-free, jitter-free apparatus at
  mu = 0.4 on two threads, two batches per point.  One pulse in three
  carries pairs, the different-pair branch is busy and the dark-only bulk
  draw idles.  The only workload that exercises the thread pool and the
  batch memory.
- ``scan_reps_fit``: many repetitions of short points, then a refit of
  the CSV.  Per-point fixed costs (context build, fits, JSON and CSV I/O)
  dominate; per-pulse optimisations bypass it.  Run by hand only, not
  listed in BENCHMARK.json: this Python-bound workload swings by up to 2x
  with the load on a shared host, so the medians of separate runs spread
  wider than the bounds allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from timebin.config_io import build_experiment
from timebin.fiber import apply_phase_jitter
from timebin.source import multipair_visibility
from timebin.states import ideal_visibility

N_PHASES = 12


@dataclass(frozen=True)
class Workload:
    name: str
    pulses_per_point: int
    repetitions: int
    threads: int
    overrides: dict[str, dict[str, Any]]
    # "net": net visibility against the ideal state washed by phase jitter;
    # "raw": raw visibility against the multi-pair dilution of that value
    # (valid only for a dark-free apparatus, where all accidentals are
    # multi-pair ones).
    check: str
    refit: bool = False

    def config(self, seed: int, smoke: bool) -> dict[str, Any]:
        """The config document given to the program for ``seed``."""
        scale = SMOKE_SCALE[self.name] if smoke else (1, 1)
        cfg: dict[str, Any] = {k: dict(v) for k, v in self.overrides.items()}
        cfg.setdefault("run", {})["seed"] = seed
        cfg["scan"] = {
            "phase_linspace": {"start_rad": 0.0, "stop_rad": math.pi, "num": N_PHASES},
            "n_pulses_per_point": self.pulses_per_point // scale[0],
            "repetitions": self.repetitions // scale[1],
        }
        return cfg


def pulses(cfg: dict[str, Any]) -> int:
    """Pump pulses one scan of ``cfg`` simulates."""
    scan = cfg["scan"]
    return scan["phase_linspace"]["num"] * scan["n_pulses_per_point"] * scan["repetitions"]


def expected_visibility(cfg: dict[str, Any], check: str) -> float:
    """Closed-form visibility the fit of ``cfg``'s scan should reproduce."""
    experiment, _ = build_experiment(cfg)
    sigma = math.hypot(experiment.fiber_a.phase_jitter_rms, experiment.fiber_b.phase_jitter_rms)
    # 2*alpha*beta can round to just above 1 for a maximally entangled state.
    v = apply_phase_jitter(min(ideal_visibility(experiment.source.state()), 1.0), sigma)
    if check == "raw":
        v = multipair_visibility(experiment.source.mean_pairs, v)
    return v


_IDEAL_DETECTOR = {"efficiency": 1.0, "dark_rate_cps": 0.0, "jitter_ps": 0.0}
_NO_WANDER = {"phase_jitter_rad": 0.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan_default", 100_000_000, 1, 1, {}, "net"),
        Workload(
            "scan_multipair_t2",
            4_000_000,
            1,
            2,
            {
                "source": {"mean_pairs": 0.4},
                "fiber_a": _NO_WANDER,
                "fiber_b": _NO_WANDER,
                "analyzer": {"excess_loss_db": 0.0, "circulator_loss_db": 0.0},
                "detector_a": _IDEAL_DETECTOR,
                "detector_b": _IDEAL_DETECTOR,
                "run": {"batch_size": 2_000_000},
            },
            "raw",
        ),
        Workload("scan_reps_fit", 100_000, 100, 1, {}, "net", refit=True),
    )
}

# Divisors (pulses per point, repetitions) for the smoke test's tiny runs.
SMOKE_SCALE = {
    "scan_default": (100, 1),
    "scan_multipair_t2": (10, 1),
    "scan_reps_fit": (1, 20),
}
