"""Lazy imports: the package and the CLI load numpy only for work that needs it.

The ``sys.modules`` checks run in a fresh interpreter, because the test
process has long since imported numpy.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvcluster

SRC = Path(cvcluster.__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_cli.json")


def python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "CVCLUSTER_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["COLUMNS"] = "80"
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60, check=False)


def test_report_commands_do_not_load_numpy():
    script = (
        "import contextlib, io, json, sys\n"
        "import cvcluster\n"
        "import cvcluster.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['prepare', '--r', '1']), cli.main(['cx', '--r', '1']),\n"
        "             cli.main(['displace', '--r', '1']),\n"
        "             cli.main(['squeeze', '--r', '1', '--tan-theta', '2'])]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "numpy": False}


def test_mode_moments_do_not_load_numpy():
    script = (
        "import json, sys\n"
        "import cvcluster as cv\n"
        "gate = cv.controlled_x_gate(cv.CxParams(s_c=1.0, s_t=2.0), 1.0)\n"
        "stats = cv.mode_moments(gate.modes['target'], 1.0)\n"
        "print(json.dumps({'same': stats == gate.stats['target'],\n"
        "                  'numpy': 'numpy' in sys.modules}))\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"same": True, "numpy": False}


def test_csv_writing_loads_no_fractions_or_decimal(tmp_path):
    # the float formatter computes its powers of ten with ints alone
    script = (
        "import json, sys\n"
        "import cvcluster.io as io\n"
        "numpy_on_import = 'numpy' in sys.modules\n"
        "import numpy as np\n"
        "values = np.linspace(-3.0, 3.0, 4 * io._CHUNK_ROWS).reshape(-1, 2) ** 3\n"
        "io.write_dataset(io.CurveDataset('t', ('a', 'b'), values), sys.argv[1])\n"
        "print(json.dumps({'numpy_on_import': numpy_on_import,\n"
        "                  'loaded': sorted({'fractions', 'decimal'} & set(sys.modules))}))\n"
    )
    proc = python("-c", script, str(tmp_path / "d.csv"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"numpy_on_import": False, "loaded": []}
    assert (tmp_path / "d.csv").stat().st_size > 0


def test_out_file_in_fresh_process_matches_golden(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]["cx-out-csv"]
    proc = python("-m", "cvcluster", *want["argv"], cwd=tmp_path)
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in tmp_path.iterdir()}
    assert (proc.returncode, proc.stdout, proc.stderr, files) == (
        want["exit"], want["stdout"], want["stderr"], want["files"])


@pytest.mark.parametrize("name", cvcluster.__all__)
def test_export_is_the_submodule_attribute(name):
    module = importlib.import_module(f"cvcluster.{cvcluster._HOME[name]}")
    assert getattr(cvcluster, name) is getattr(module, name)


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from cvcluster import *", namespace)
    assert set(cvcluster.__all__) <= set(namespace)
    assert set(cvcluster.__all__) <= set(dir(cvcluster))
    # a name listed under two submodules would be exported from only one
    assert len(cvcluster.__all__) == sum(map(len, cvcluster._EXPORTS.values()))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cvcluster.no_such_name  # noqa: B018
