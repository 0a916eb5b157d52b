"""Benchmark of ``timebin scan`` (and ``timebin fit``) on generated workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_default --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's config (seeded by ``--seed``) into a
scratch directory inside the checkout, then repeats the workload's CLI
invocations, each in its own process, for ``--seconds`` seconds.  Every
invocation's outputs are checked: exit code 0, CSV and fit reports that
parse, a fitted visibility within Z_MAX standard errors of its closed
form, and outputs byte-identical across the repetitions of the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over the repetitions); nothing is patched.  ``--trace 1`` alternates
untraced and traced invocations (see tracer.py) and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a summary
goes to standard error.  ``--smoke`` shrinks every workload for the
benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
Z_MAX = 5.0
SETUP_SAMPLES = 9


@dataclass(frozen=True)
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], log: Path, env: dict[str, str]) -> Proc:
    """Run ``argv`` to completion; wall time and the child's own rusage."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return Proc(
        rc=os.waitstatus_to_exitcode(status),
        wall_s=time.perf_counter() - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class Bench:
    """One workload at one seed: its files, invocations and checks."""

    def __init__(self, workload, seed: int, smoke: bool, workdir: Path) -> None:
        import workloads

        self.w = workload
        self.cfg = workload.config(seed, smoke)
        self.pulses = workloads.pulses(self.cfg)
        self.rows = workloads.N_PHASES * self.cfg["scan"]["repetitions"]
        self.expected_v = workloads.expected_visibility(self.cfg, workload.check)
        self.dir = workdir
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1) + "\n")
        self.csv = workdir / "scan.csv"
        self.report = workdir / "scan.csv.fit.json"
        self.refit = workdir / "refit.json"
        self.log = workdir / "log.txt"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.ops = 0
        self.failed = 0
        self.digest: str | None = None
        self.z: list[float] = []
        self.n_invocations = 0

    def check(self, ok: bool, what: str) -> bool:
        self.ops += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def invoke(self, cli_args: list[str], spans: Path | None = None) -> Proc:
        if spans is None:
            argv = [sys.executable, "-m", "timebin.cli", *cli_args]
        else:
            run_id = f"{self.n_invocations}-{cli_args[0]}"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), run_id, *cli_args]
        self.n_invocations += 1
        proc = spawn(argv, self.log, self.env)
        if not self.check(proc.rc == 0, f"{' '.join(cli_args)}: exit code {proc.rc}"):
            sys.stderr.write(self.log.read_text(errors="replace")[-2000:])
        return proc

    def probe_setup(self) -> float:
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.config_path), str(self.csv)]
        proc = spawn(argv, self.log, self.env)
        self.check(proc.rc == 0, f"setup probe: exit code {proc.rc}")
        return proc.wall_s

    def iteration(self, traced: bool) -> tuple[list[Proc], list[dict]]:
        """The workload's invocations once, outputs checked; spans if traced."""
        outputs = [self.csv, self.report] + ([self.refit] if self.w.refit else [])
        span_files = [self.dir / "spans-scan.json", self.dir / "spans-fit.json"]
        for path in outputs + span_files:
            path.unlink(missing_ok=True)
        scan_args = ["scan", "--config", str(self.config_path), "--out", str(self.csv),
                     "--threads", str(self.w.threads)]
        procs = [self.invoke(scan_args, span_files[0] if traced else None)]
        if self.w.refit:
            fit_args = ["fit", str(self.csv), "--out", str(self.refit)]
            procs.append(self.invoke(fit_args, span_files[1] if traced else None))
        self.verify(outputs)
        spans = []
        if traced:
            for path in span_files[: len(procs)]:
                spans += json.loads(path.read_text())
        return procs, spans

    def verify(self, outputs: list[Path]) -> None:
        try:
            blobs = [p.read_bytes() for p in outputs]
            lines = [ln for ln in blobs[0].decode().splitlines() if ln and not ln.startswith("#")]
            header = lines[0].split(",")
            for row in lines[1:]:
                [float(x) for x in row.split(",")]
            reports = [json.loads(b) for b in blobs[1:]]
        except (OSError, ValueError, IndexError) as exc:
            self.check(False, f"outputs do not parse: {exc}")
            return
        self.check(
            {"phase_rad", "raw", "accidental", "net"} <= set(header)
            and len(lines) - 1 == self.rows,
            f"scan CSV has header {header} and {len(lines) - 1} rows, expected {self.rows}",
        )
        block = reports[-1]["v_net" if self.w.check == "net" else "v_raw"]
        z = (block["visibility_unclamped"] - self.expected_v) / block["visibility_sigma"]
        self.z.append(z)
        self.check(abs(z) <= Z_MAX, f"visibility z = {z:.2f} beyond {Z_MAX}")
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()[:16]
        self.digest = self.digest or digest
        self.check(digest == self.digest, f"output digest {digest} != {self.digest}")

    def io_bytes(self) -> tuple[int, int]:
        """(bytes of the inputs given, bytes of the outputs written) per iteration."""
        read = self.config_path.stat().st_size
        written = self.csv.stat().st_size + self.report.stat().st_size
        if self.w.refit:
            read += self.csv.stat().st_size
            written += self.refit.stat().st_size
        return read, written


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    bench.probe_setup()  # warm-up: bytecode compile and file cache, untimed
    setup, walls, cpus, rss = [], [], [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        if len(setup) < SETUP_SAMPLES:
            setup.append(bench.probe_setup())
        procs, _ = bench.iteration(traced=False)
        walls.append(sum(p.wall_s for p in procs))
        cpus.append(sum(p.cpu_s for p in procs))
        rss.append(max(p.rss_mb for p in procs))
    while len(setup) < SETUP_SAMPLES:
        setup.append(bench.probe_setup())
    print(f"{len(walls)} iterations; wall_s samples: "
          f"{' '.join(f'{w:.3f}' for w in walls)}; setup_s samples: "
          f"{' '.join(f'{s:.3f}' for s in setup)}", file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        "pulses_per_s": statistics.median(bench.pulses / w for w in walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }


def measure_layers(bench: Bench, seconds: float) -> dict[str, float]:
    import tracer

    bench.probe_setup()  # warm-up, untimed
    untraced, traced, per_iter, durations = [], [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        # Alternate which side goes first so drift in machine load cancels.
        for side in (False, True) if len(traced) % 2 else (True, False):
            procs, spans = bench.iteration(traced=side)
            wall = sum(p.wall_s for p in procs)
            if not side:
                untraced.append(wall)
                continue
            traced.append(wall)
            m = tracer.iteration_metrics(spans)
            m["cli.bytes_read"], m["cli.bytes_written"] = bench.io_bytes()
            bench.check(
                m["trace.self_sum_s"] <= wall,
                f"self times {m['trace.self_sum_s']:.3f} s exceed traced wall {wall:.3f} s",
            )
            per_iter.append(m)
            durations += tracer.run_pulses_durations(spans)
    print(f"{len(traced)} traced and {len(untraced)} untraced iterations, "
          f"{len(durations)} run_pulses calls", file=sys.stderr)
    out = tracer.aggregate(per_iter, durations)
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's test")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "timebin" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a timebin checkout (needs src/timebin and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed, args.smoke, workdir)
        measure = measure_layers if args.trace else measure_end_to_end
        values = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}", file=sys.stderr)
    print(f"visibility z: {', '.join(f'{z:.3f}' for z in sorted(set(bench.z)))}; "
          f"output digest {bench.digest}; ops {bench.ops}, failed {bench.failed}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.ops,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
