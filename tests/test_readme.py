"""The README's examples run, and its worked-example table is what they print."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import timebin
from timebin import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(timebin.__file__)))


def section(title):
    """The README text from the heading ``title`` to the next heading."""
    start = README.index(f"\n{title}\n")
    end = README.find("\n#", start + len(title) + 2)
    return README[start:end if end >= 0 else None]


def run_python(code, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this package.

    It must exit 0 and print nothing to stderr, an unclosed file's
    ResourceWarning included.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", code], env=env,
                          cwd=cwd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_library_use_runs_without_numpy():
    code, = re.findall(r"```python\n(.*?)```", section("## Library use"), re.S)
    run_python(code + "\nimport sys\nassert 'numpy' not in sys.modules, 'numpy was loaded'\n")


def test_worked_example_table_is_regenerated(tmp_path, monkeypatch):
    text = section("### Worked example: visibility before and after 11 km")
    script, = re.findall(r"python3 - <<'EOF'\n(.*?)\nEOF\n", text, re.S)
    commands = [shlex.split(line) for line in text.splitlines() if line.startswith("timebin scan")]
    rows = re.findall(r"^\| (\d+) km +\| (.*?) +\| (.*?) +\|$", text, re.M)
    assert len(commands) == len(rows) == 2
    run_python(script, cwd=tmp_path)
    monkeypatch.chdir(tmp_path)
    for (_, *args), (km, raw, net) in zip(commands, rows):
        assert args[args.index("--config") + 1] == f"bench{km}.json"
        assert cli.main(args) == 0
        report = json.loads((tmp_path / (args[args.index("--out") + 1] + ".fit.json")).read_text())
        cells = [f"{fit['visibility']:.3f} ± {fit['visibility_sigma']:.3f}"
                 for fit in (report["v_raw"], report["v_net"])]
        assert cells == [raw, net], f"README's {km} km row"
