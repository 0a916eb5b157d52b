"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int, smoke: bool = True):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args] + (["--smoke"] if smoke else []),
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    digests = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = run_bench(ROOT, workload, trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        digests.update(re.findall(r"output digest (\w+)", out.stderr))
    # Same seed, same outputs, traced or not.
    assert len(digests) == 1


def test_refuses_a_directory_without_the_program():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(Path(bare), SPEC["workloads"][0]["name"], 0, smoke=False)
    assert out.returncode != 0
    assert out.stdout == ""
