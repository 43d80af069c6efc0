"""Each script of scripts/ runs to exit 0 at small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, args", [
    ("cochar_table.py", ["--catalog", "thm_T3_fractional", "--n", "4"]),
    ("codim_scan.py", ["--n-max", "3"]),
    ("phimax_sweep.py", ["--q-max", "6"]),
    ("witness_gallery.py", ["--n", "4"]),
], ids=["cochar_table", "codim_scan", "phimax_sweep", "witness_gallery"])
def test_script_runs(name, args):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    if name == "cochar_table.py":
        assert result.stdout.splitlines()[-1] == "sum m*d = 305, exact c_4 = 305: ok"
    if name == "witness_gallery.py":
        assert result.stdout.splitlines()[-1] == "5 shapes certified, 0 outside the construction"
