"""Each script of scripts/ runs to exit 0 at small arguments."""

import importlib.util
import json
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


def test_cochar_table_ranks_each_live_slice_once(monkeypatch, capsys):
    # the table and its exact c_N come from one record of slice ranks
    from semigraded.gralgebra import paper_catalog
    from test_codim import count_exact_ranks, live_slice_grams
    live, _ = live_slice_grams(paper_catalog("thm_T3_fractional"), 4)
    spec = importlib.util.spec_from_file_location("cochar_table",
                                                  ROOT / "scripts" / "cochar_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    ranked = count_exact_ranks(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["cochar_table.py", "--catalog", "thm_T3_fractional",
                                      "--n", "4"])
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "sum m*d = 305, exact c_4 = 305: ok"
    assert ranked == live


@pytest.mark.parametrize("targets", [[], ["--targets", "thm_T3_fractional"]],
                         ids=["default", "T3"])
def test_codim_scan_refuses_an_over_cap_degree_before_printing_any(targets):
    # n = 8 passes the block cap: refused before any c_n is computed or printed,
    # with the CLI's one JSON line and exit code
    result = run_script("codim_scan.py", "--n-max", "8", *targets)
    assert result.returncode == 3
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {
        "error": "ResourceLimit",
        "message": "block for assignment (0, 0, 0, 0, 0, 0, 0, 0) needs a 764 x 40320 "
                   "isotypic basis (cap 10000000)"}


def test_a_script_refuses_an_unknown_catalog_name_as_the_cli_does():
    result = run_script("cochar_table.py", "--catalog", "nope", "--n", "3")
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {"error": "UnknownName",
                                "message": "unknown catalog algebra 'nope'"}
