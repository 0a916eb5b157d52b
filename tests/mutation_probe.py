"""Mutation probe: plant each listed fault in a copy of the tree and check that a test fails.

Run from anywhere, with the test extras installed::

    python tests/mutation_probe.py

For each fault the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` (``tests/test_readme.py`` reads it) to a temporary directory,
replaces one exact piece of source text there, and runs::

    pytest -q -x tests -k "not pinned and not worked_example_table"

The byte pins are deselected, so a fault counts as caught only if a physics,
fit or contract test fails.  An unmodified copy runs first, and must pass.
The script exits 0 when every fault is caught, 1 when the unmodified copy
fails or a fault passes that is not a known gap, and 2 when a fault's text
is no longer in the source.  A known gap names the ROADMAP item that closes
it; one that is caught is reported, so it can leave the list.  The file has
no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests",
          "-k", "not pinned and not worked_example_table"]
ENGINE, ANALYSIS = "src/timebin/engine.py", "src/timebin/analysis.py"
RECORD, CONFIG_IO = "src/timebin/record.py", "src/timebin/config_io.py"
SOURCE = "src/timebin/source.py"

# name -> (file, text, replacement): one fault each.
FAULTS = {
    # The three faults tests/test_engine.py::TestEachSide was added for.
    "circulator_loss_on_side_b": (
        ENGINE,
        "losses_db = (first.excess_loss_db + first.circulator_loss_db, last.excess_loss_db)",
        "losses_db = (first.excess_loss_db, last.excess_loss_db + first.circulator_loss_db)",
    ),
    "side_b_takes_side_a_analyzer_loss": (
        ENGINE,
        "losses_db = (first.excess_loss_db + first.circulator_loss_db, last.excess_loss_db)",
        "losses_db = (first.excess_loss_db + first.circulator_loss_db, first.excess_loss_db)",
    ),
    "alpha_beta_swapped_in_marginal": (
        ENGINE,
        "marginal = [a2 / 4.0, 0.25, b2 / 4.0, 0.5]",
        "marginal = [b2 / 4.0, 0.25, a2 / 4.0, 0.5]",
    ),
    # The central window opens at the peak instead of half a width before it.
    "window_edges_off_centre": (
        ENGINE,
        "for c in (0.0, delay_s, 2.0 * delay_s) for sign in (-1.0, 1.0))",
        "for c in (0.0, delay_s + half, 2.0 * delay_s) for sign in (-1.0, 1.0))",
    ),
    # Dark candidates over two windows, not three.
    "click_law_dark_over_two_windows": (
        ENGINE,
        "p_dark = 1.0 - (1.0 - min(dark_rate_cps * width_s, 1.0)) ** 3",
        "p_dark = 1.0 - (1.0 - min(dark_rate_cps * width_s, 1.0)) ** 2",
    ),
    # W takes every multi-pair pulse as one pair: no dilution.
    "weights_without_multipair_dilution": (
        ENGINE,
        "p_pair * (self.p_same * s + (1.0 - self.p_same) * (u * v))",
        "p_pair * (self.p_same * s + (1.0 - self.p_same) * s)",
    ),
    # The one-pair part stays in the accidental class as well.
    "one_pair_split_not_subtracted": (
        ENGINE,
        "probs = [p - q for p, q in zip(probs, one_pair)]",
        "probs = list(probs)",
    ),
    # Each category drawn at its own probability, not its share of what is left.
    "multinomial_without_conditioning": (
        ENGINE,
        "counts[i] = binomial(rng, n, p / rest)",
        "counts[i] = binomial(rng, n, p)",
    ),
    # The histograms split the class counts on a fresh stream, not the one that drew them.
    "histograms_split_on_a_fresh_stream": (
        ENGINE,
        "_split(law, counts, rng)",
        "_split(law, counts, random.Random(config.rng_seed))",
    ),
    # The offset's part of the visibility gradient has the wrong sign.
    "fit_fringe_gradient_sign": (
        ANALYSIS,
        "grad = [-amp / offset**2, coef[1] / (amp * offset), coef[2] / (amp * offset)]",
        "grad = [amp / offset**2, coef[1] / (amp * offset), coef[2] / (amp * offset)]",
    ),
    # Net counts no longer clamped at zero.
    "subtract_accidentals_unclamped": (
        ANALYSIS,
        "net=max(p.raw - p.accidental, 0.0)",
        "net=p.raw - p.accidental",
    ),
    # A net point weighted by its fitted mean alone, without the background.
    "net_point_weighted_by_fitted_mean": (
        ANALYSIS,
        "sigma2 = [max(f + b, 1.0) for f, b in zip(predicted, background)]",
        "sigma2 = [max(f, 1.0) for f in predicted]",
    ),
    # The field rule takes a bool for a number.
    "finite_admits_bool": (
        RECORD,
        "numeric = isinstance(value, (int, float)) and not isinstance(value, bool)",
        "numeric = isinstance(value, (int, float))",
    ),
    # An int field takes a float.
    "int_field_admits_float": (
        RECORD,
        '"int": (lambda v: type(v) is int, "an integer"),',
        '"int": (lambda v: type(v) in (int, float), "an integer"),',
    ),
    # The NonNegative bound loosened: a small negative loss, rate or count passes.
    "non_negative_admits_negative": (
        RECORD,
        '"NonNegative": (lambda v: finite(v) and v >= 0.0,',
        '"NonNegative": (lambda v: finite(v) and v >= -1.0,',
    ),
    # An efficiency above one passes.
    "fraction_admits_above_one": (RECORD, "finite(v) and 0.0 <= v <= 1.0", "finite(v) and 0.0 <= v"),
    # multipair_visibility takes a mu that is not a positive finite number.
    "function_argument_unchecked": (SOURCE, 'check("Positive", mu=mu)', "pass"),
    # A document's value out of range is refused by the record: by its field, in SI units.
    "document_refusal_unnamed": (CONFIG_IO, "check(_KINDS[field], **{where: given[key]})", "pass"),
    # run.seed takes a bool for an integer, so the record, not the parser, refuses it.
    "seed_admits_bool": (
        CONFIG_IO,
        "if type(val) is not int:  # refuses bool too",
        "if not isinstance(val, int):",
    ),
}
# Faults that no test outside the byte pins catches yet: name -> the ROADMAP item that closes it.
KNOWN_GAPS = {"net_point_weighted_by_fitted_mean": "item 7"}


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def _run_tests(tree: Path) -> tuple[bool, str]:
    """Whether the suite passes in ``tree``, and its first failing test, if any."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env,
                          capture_output=True, text=True)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, failed[0] if failed else done.stdout.strip()[-300:]


def _probe(fault: tuple[str, str, str] | None) -> tuple[bool, str]:
    """Run the suite on a fresh copy of the tree with ``fault`` (None: no fault) planted."""
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if fault is not None:
            path, text, replacement = fault
            source = (tree / path).read_text(encoding="utf-8")
            (tree / path).write_text(source.replace(text, replacement), encoding="utf-8")
        return _run_tests(tree)


def main() -> int:
    stale = [name for name in FAULTS
             if (ROOT / FAULTS[name][0]).read_text(encoding="utf-8").count(FAULTS[name][1]) != 1]
    if stale:
        print(f"fault text not found exactly once in the source: {', '.join(stale)}")
        return 2

    start = time.perf_counter()
    passed, detail = _probe(None)
    print(f"{'unmodified':36s} {'passes' if passed else 'FAILS'} "
          f"({time.perf_counter() - start:.0f} s)", flush=True)
    if not passed:
        print(f"  {detail}")
        return 1
    escaped = []
    for name in FAULTS:
        start = time.perf_counter()
        passed, detail = _probe(FAULTS[name])
        took = f"({time.perf_counter() - start:.0f} s)"
        if not passed:
            note = "  (known gap, now caught)" if name in KNOWN_GAPS else ""
            print(f"{name:36s} caught {took}: {detail}{note}", flush=True)
        elif name in KNOWN_GAPS:
            print(f"{name:36s} passes {took}: known gap, ROADMAP {KNOWN_GAPS[name]}", flush=True)
        else:
            print(f"{name:36s} PASSES {took}: no test outside the byte pins fails", flush=True)
            escaped.append(name)
    if escaped:
        print(f"{len(escaped)} fault(s) escaped: {', '.join(escaped)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
