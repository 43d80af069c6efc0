import json

import pytest
from click.testing import CliRunner

from semigraded.algfile import serialize_algebra
from semigraded.cli import main
from semigraded.gralgebra import paper_catalog


@pytest.fixture()
def runner():
    return CliRunner()


def test_semigroups_order2(runner):
    result = runner.invoke(main, ["semigroups", "--order", "2"])
    assert result.exit_code == 0
    for tag in ("T1", "T2", "T3", "T3op", "Z2"):
        assert tag in result.output
    assert "5 isomorphism classes" in result.output


def test_semigroups_cap(runner):
    result = runner.invoke(main, ["semigroups", "--order", "5"])
    assert result.exit_code == 2


def test_check_catalog(runner):
    result = runner.invoke(main, ["check", "--catalog", "thm_T1_fractional"])
    assert result.exit_code == 0
    assert "ok" in result.output


def test_check_corrupted_file(runner, tmp_path):
    alg = paper_catalog("mk_zhalf_graded")
    text = serialize_algebra(alg)
    # flip one structure line into the wrong output coordinate
    broken = text.replace("structure: 1 2 2 1", "structure: 1 2 1 1")
    assert broken != text
    path = tmp_path / "broken.alg"
    path.write_text(broken, encoding="utf-8")
    result = runner.invoke(main, ["check", "--input", str(path)])
    assert result.exit_code in (1, 2)
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert "error" in payload


def test_radical_text_output(runner):
    result = runner.invoke(main, ["radical", "--catalog", "exampleT1(2)"])
    assert result.exit_code == 0
    assert "not graded" in result.output
    assert "(e12,0)" in result.output and "(e12,e12)" in result.output


def test_split_graded(runner):
    result = runner.invoke(main, ["split", "--catalog", "utk_column_graded(2)",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "graded"
    assert payload["complement_graded"] is True
    assert payload["complement_dim"] == 2


def test_simple_verdict(runner):
    result = runner.invoke(main, ["simple", "--catalog", "thm_T3_fractional"])
    assert result.exit_code == 0
    assert "certified_true" in result.output


def test_codim_csv_shape(runner):
    result = runner.invoke(main, ["codim", "--catalog", "thm_T1_fractional",
                                  "--n-max", "3", "--no-timings"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,c_n,certification,seconds"
    assert len(lines) == 4
    assert lines[1].startswith("1,2,")


def test_codim_deterministic_output(runner):
    args = ["codim", "--catalog", "thm_T3_fractional", "--n-max", "3",
            "--seed", "5", "--no-timings"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_codim_json_includes_blocks(runner):
    result = runner.invoke(main, ["codim", "--catalog", "thm_T3_fractional",
                                  "--n-max", "2", "--format", "json",
                                  "--no-timings"])
    payload = json.loads(result.output)
    assert payload[0]["c_n"] == 2
    assert all("blocks" in row for row in payload)


def test_codim_resource_limit_exit_code(runner):
    result = runner.invoke(main, ["codim", "--catalog", "thm_T1_fractional",
                                  "--n-max", "4", "--caps", "10"])
    assert result.exit_code == 3
    payload = json.loads(result.stderr.strip() or result.output.strip())
    assert payload["error"] == "ResourceLimit"


def test_multiplicity_command(runner):
    result = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                  "--shape", "2,1", "--variant", "T3",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["certificate_nonzero"] is True
    assert payload["multiplicity"] >= 1


def test_phimax_command(runner):
    result = runner.invoke(main, ["phimax", "--q", "7", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - 6.8284271247) < 1e-6
    assert payload["difference"] < 1e-9


def test_exponent_command(runner):
    result = runner.invoke(main, ["exponent", "--catalog", "utk_column_graded(2)"])
    assert result.exit_code == 0
    assert "graded exponent 2" in result.output
    result = runner.invoke(main, ["exponent", "--catalog", "full_matrix(2)",
                                  "--ordinary"])
    assert "ordinary exponent 4" in result.output


def test_exponent_error_exit(runner):
    result = runner.invoke(main, ["exponent", "--catalog", "thm_T1_fractional"])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip() or result.output.strip())
    assert payload["error"] == "RadicalNotGraded"


def test_usage_error_exit(runner):
    result = runner.invoke(main, ["codim", "--catalog", "no_such_algebra"])
    assert result.exit_code == 2


def test_export_round_trip(runner, tmp_path):
    out = tmp_path / "alg.txt"
    result = runner.invoke(main, ["export", "--catalog", "utk_column_graded(2)",
                                  "--out", str(out)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["check", "--input", str(out)])
    assert result.exit_code == 0


def test_verify_sections_filter(runner):
    result = runner.invoke(main, ["verify-paper", "--sections", "semigroups",
                                  "--sections", "theta"])
    assert result.exit_code == 0
    assert "semigroup-classification" in result.output
    assert "theta-window" in result.output
    assert "codim-t1-t2-agreement" not in result.output


ONE_DIM = """\
name: one
semigroup: inline
semigroup-labels: e
semigroup-table: e
basis: u
degree: u e
structure: 1 1 1 1
unit: 1
"""


@pytest.mark.parametrize("good, bad, lineno", [
    ("structure: 1 1 1 1", "structure: 1 1 1 1/0", 7),
    ("unit: 1", "unit: x", 8),
    ("semigroup-table: e", "semigroup-table: f", 4),
])
def test_malformed_value_is_one_json_line_exit_2(runner, tmp_path, good, bad, lineno):
    path = tmp_path / "one.alg"
    path.write_text(ONE_DIM, encoding="utf-8")
    assert runner.invoke(main, ["check", "--input", str(path)]).exit_code == 0
    assert good in ONE_DIM
    path.write_text(ONE_DIM.replace(good, bad), encoding="utf-8")
    result = runner.invoke(main, ["check", "--input", str(path)])
    assert result.exit_code == 2
    [line] = result.stderr.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "BadParam"
    assert payload["message"].startswith(f"line {lineno}:")


@pytest.mark.parametrize("primes", ["1", "1073741789", "1073741789,1073741789", "4,abc"])
def test_primes_need_two_distinct_primes(runner, primes):
    result = runner.invoke(main, ["codim", "--catalog", "thm_T1_fractional", "--n-max", "2",
                                  "--primes", primes, "--no-timings"])
    assert result.exit_code == 2
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line)["error"] == "BadParam"


@pytest.mark.parametrize("shape", ["2,x", "3,0", "1,2", ","])
def test_malformed_shape_is_a_usage_error(runner, shape):
    result = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                  "--shape", shape])
    assert result.exit_code == 2
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line)["error"] == "BadParam"
