import os
import subprocess
import sys

import timebin

SRC = os.path.dirname(os.path.dirname(os.path.abspath(timebin.__file__)))


def run_python(code, **env_changes):
    """Standard output of ``code`` in a fresh interpreter; a ``None`` value unsets a variable."""
    env = {k: v for k, v in {**os.environ, **env_changes}.items() if v is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_every_exported_name_resolves():
    assert [name for name in timebin.__all__ if not hasattr(timebin, name)] == []


def test_import_loads_no_numpy():
    assert run_python("import sys, timebin; print('numpy' in sys.modules)") == "False"


def test_cli_sets_one_openblas_thread_unless_set():
    code = "import os, timebin.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS=None) == "1"
    assert run_python(code, OPENBLAS_NUM_THREADS="3") == "3"


def test_scan_and_fit_import_neither_masked_arrays_nor_thread_pool(tmp_path):
    scan_csv, fit_json = str(tmp_path / "s.csv"), str(tmp_path / "f.json")
    code = (
        "import sys\n"
        "from timebin.cli import main\n"
        f"assert main(['scan', '--out', {scan_csv!r}]) == 0\n"
        f"assert main(['fit', {scan_csv!r}, '--out', {fit_json!r}]) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules))"
    )
    assert run_python(code) == "[]"
