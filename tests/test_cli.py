import hashlib
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


# the live rows of the block of eight degree-0 variables: partitions of 8
# with at most 4 rows graded (dim A_0 = 4), at most 7 ungraded (dim A = 7)
_DEGREE_EIGHT_REFUSED = ("block for assignment (0, 0, 0, 0, 0, 0, 0, 0) needs a 588 x 40320 "
                         "isotypic basis (cap 10000000)")
_DEGREE_EIGHT_ORDINARY_REFUSED = ("block for assignment (0, 0, 0, 0, 0, 0, 0, 0) needs a "
                                  "763 x 40320 isotypic basis (cap 10000000)")


@pytest.mark.parametrize("extra, message", [([], _DEGREE_EIGHT_REFUSED),
                                            (["--ordinary"], _DEGREE_EIGHT_ORDINARY_REFUSED)])
def test_codim_refuses_an_over_cap_degree_before_computing_any(runner, monkeypatch, extra,
                                                               message):
    # every n <= --n-max is checked, on the algebra actually used, before any c_n
    from semigraded import codim

    def product_cache(*args, **kwargs):
        raise AssertionError("the product cache ran")

    for name in ("_product_cache", "_word_products"):
        monkeypatch.setattr(codim, name, product_cache)
    result = runner.invoke(main, ["codim", "--catalog", "thm_T1_fractional", "--n-max", "8",
                                  "--no-timings", *extra])
    assert result.exit_code == 3
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "ResourceLimit", "message": message}


_BOUNDS = ["bounds", "--q", "4", "--n-max", "4", "--catalog", "thm_T1_fractional",
           "--codim-n-max", "3"]


def test_bounds_tables(runner):
    # c_n beside d^n up to --codim-n-max, blank past it
    result = runner.invoke(main, _BOUNDS)
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "n,d_pow_n,c_n,hook_lower", "1,3.828427,2,1", "2,14.656854,8,1", "3,56.112698,48,1",
        "4,214.823376,,3"]
    result = runner.invoke(main, _BOUNDS + ["--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert [(r["n"], r["c_n"], r["hook_lower"]) for r in rows] == \
        [(1, 2, 1), (2, 8, 1), (3, 48, 1), (4, None, 3)]


def test_bounds_refuses_an_over_cap_degree_before_computing_any(runner, monkeypatch):
    from semigraded import codim

    def unreachable(*args, **kwargs):
        raise AssertionError("a word product ran")

    monkeypatch.setattr(codim, "_word_products", unreachable)
    result = runner.invoke(main, _BOUNDS[:-1] + ["9"])
    assert result.exit_code == 3
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "ResourceLimit", "message": _DEGREE_EIGHT_REFUSED}


def test_bounds_codimensions_need_an_algebra(runner):
    result = runner.invoke(main, ["bounds", "--q", "4", "--codim-n-max", "3"])
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "BadParam", "message": "an algebra is required: "
                                                                "--input FILE or --catalog SPEC"}


@pytest.mark.parametrize("args, message", [
    (["check", "--catalog", "full_matrix(30)"],
     "validating dimension 900 checks 729000000 basis triples (cap 10000000)"),
    (["codim", "--catalog", "mk_column_graded(15)", "--n-max", "2"],
     "validating dimension 225 checks 11390625 basis triples (cap 10000000)"),
], ids=["check", "codim"])
def test_oversized_validation_is_a_resource_limit(runner, monkeypatch, args, message):
    from semigraded import gralgebra

    def no_product(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(gralgebra, "multiplication_maps", no_product)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "ResourceLimit", "message": message}


def test_multiplicity_command(runner):
    result = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                  "--shape", "2,1", "--variant", "T3",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["certificate_nonzero"] is True
    assert payload["multiplicity"] >= 1
    # the README example: degree 6 is under the engine's block cap
    result = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                  "--shape", "2,1,1,1,1", "--variant", "T3",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["certificate_nonzero"] is True
    assert payload["multiplicity"] == 29


# the degree-11 shape of the README: its certificate is nonzero, while the
# engine refuses the degree before it builds anything, on 11! columns alone
_OVER_CAP_SHAPE = "2,2,2,2,2,1"
_DEGREE_ELEVEN_REFUSED = ("block for assignment (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) needs an "
                          "isotypic basis over 39916800 permutations (cap 10000000)")


def test_multiplicity_over_the_degree_cap_keeps_the_certificate(runner):
    result = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                  "--shape", _OVER_CAP_SHAPE, "--variant", "T3",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["certificate_nonzero"] is True
    assert payload["multiplicity"] is None
    assert payload["multiplicity_skipped"] == _DEGREE_ELEVEN_REFUSED
    text = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                "--shape", _OVER_CAP_SHAPE, "--variant", "T3"])
    assert text.exit_code == 0
    assert "multiplicity skipped" in text.output and "verdict: nonzero" in text.output


def test_multiplicity_over_the_degree_cap_without_variant_is_a_resource_limit(runner):
    result = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                  "--shape", _OVER_CAP_SHAPE])
    assert result.exit_code == 3
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "ResourceLimit", "message": _DEGREE_ELEVEN_REFUSED}


def test_phimax_command(runner):
    result = runner.invoke(main, ["phimax", "--q", "7", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - 6.8284271247) < 1e-6
    assert payload["difference"] < 1e-9


@pytest.mark.parametrize("q", [0, 1, 3])
def test_phimax_refuses_a_small_q_before_any_solve(runner, monkeypatch, q):
    from semigraded import asympt
    monkeypatch.setattr(asympt, "lemma_max_polytope", None)
    result = runner.invoke(main, ["phimax", "--q", str(q)])
    assert result.exit_code == 1
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "QTooSmall", "message": "the closed form needs q >= 4"}


def test_bounds_refuses_past_the_float_range(runner, monkeypatch):
    # before any codimension is computed
    from semigraded import codim
    monkeypatch.setattr(codim, "_word_products", None)
    result = runner.invoke(main, ["bounds", "--q", "7", "--n-max", "400",
                                  "--catalog", "thm_T1_fractional", "--codim-n-max", "3"])
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "BadParam", "message": "d^n for d = 6.82842712474619 "
                                                                "passes the float range past n = 369"}


@pytest.mark.parametrize("args, message", [
    (["codim", "--catalog", "thm_T3_fractional", "--n-max", "0"],
     "n_max must be at least 1, got 0"),
    (["codim", "--catalog", "thm_T3_fractional", "--n-max", "-2"],
     "n_max must be at least 1, got -2"),
    (["bounds", "--q", "7", "--n-max", "0"], "--n-max must be at least 1, got 0"),
    (["bounds", "--q", "7", "--catalog", "thm_T3_fractional", "--codim-n-max", "-1"],
     "n_max must be at least 1, got -1"),
])
def test_an_empty_sequence_is_refused(runner, args, message):
    # a bare header and exit 0 before; now one JSON line and exit 2
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "BadParam", "message": message}


@pytest.mark.parametrize("args, message", [
    (["codim", "--catalog", "thm_T1_fractional", "--format", "csv"],
     "Invalid value for '--format': 'csv' is not one of 'text', 'json'."),
    (["export", "--catalog", "thm_T1_fractional", "--format", "json"],
     "No such option '--format'"),
], ids=["csv", "export-format"])
def test_dropped_option_values_are_usage_errors(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line)["message"].startswith(message)


@pytest.mark.parametrize("args, error, message", [
    (["phimax", "--q", "7", "--bogus", "1"], "NoSuchOption", "No such option '--bogus'"),
    (["codim", "--catalog", "thm_T1_fractional", "--n-max", "abc"], "BadParameter",
     "Invalid value for '--n-max': 'abc' is not a valid integer."),
    (["codim", "--catalog", "thm_T1_fractional", "--mode", "fast"], "BadParameter",
     "Invalid value for '--mode': 'fast' is not one of 'modular', 'exact'."),
    (["phimax"], "MissingParameter", "Missing option '--q'."),
    # phimax --seed is gone: it was deprecated and ignored
    (["phimax", "--q", "7", "--seed", "3"], "NoSuchOption", "No such option '--seed'"),
], ids=["unknown-option", "not-an-integer", "bad-choice", "missing-option", "phimax-seed"])
def test_click_usage_errors_are_one_json_line(runner, args, error, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == error
    assert payload["message"].startswith(message)


def test_help_still_prints_help(runner):
    for args in (["--help"], ["phimax", "--help"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage:") and result.stderr == ""
    # a bare group prints its help too (exit 0 or 2, by Click version), not JSON
    bare = runner.invoke(main, [])
    assert bare.output.startswith("Usage:") and "Commands:" in bare.output


def test_exponent_command(runner):
    result = runner.invoke(main, ["exponent", "--catalog", "utk_column_graded(2)"])
    assert result.exit_code == 0
    assert "graded exponent 2" in result.output
    result = runner.invoke(main, ["exponent", "--catalog", "full_matrix(2)",
                                  "--ordinary"])
    assert "ordinary exponent 4" in result.output


def test_exponent_of_a_diagonal_algebra_with_a_large_constant(runner, tmp_path):
    """Q^3 with b1 b1 = (10^24 + 7) b1, b2 b2 = 3 b2, b3 b3 = 5 b3: its
    center splits along the eigenvalue 10^24 + 7 of multiplication by b1,
    a 25-digit prime, which listing divisors by trial division never
    reaches."""
    path = tmp_path / "diagonal.alg"
    path.write_text("name: diagonal\nsemigroup: Trivial\nbasis: b1 b2 b3\n"
                    "degree: b1 e\ndegree: b2 e\ndegree: b3 e\n"
                    f"structure: 1 1 1 {10 ** 24 + 7}\nstructure: 2 2 2 3\nstructure: 3 3 3 5\n"
                    f"unit: 1/{10 ** 24 + 7} 1/3 1/5\n", encoding="utf-8")
    result = runner.invoke(main, ["exponent", "--input", str(path)])
    assert result.exit_code == 0
    assert result.output == "diagonal: graded exponent 1\n"


def test_subspaces_print_their_canonical_rows(runner, tmp_path):
    """UT_2 on the basis 2 e11, e11 + 3 e12, e12 + 5 e22: the complement's
    first row is c0 - c1/8, printed over its pivot, not as the integer
    row 8 c0 - c1 the subspace stores."""
    path = tmp_path / "skew.alg"
    path.write_text("name: skew\nsemigroup: Trivial\nbasis: c0 c1 c2\n"
                    "degree: c0 e\ndegree: c1 e\ndegree: c2 e\n"
                    "structure: 1 1 1 2\nstructure: 1 2 2 2\nstructure: 1 3 1 -1/3\n"
                    "structure: 1 3 2 2/3\nstructure: 2 1 1 1\nstructure: 2 2 2 1\n"
                    "structure: 2 3 1 -8/3\nstructure: 2 3 2 16/3\nstructure: 3 3 3 5\n"
                    "unit: 8/15 -1/15 1/5\n", encoding="utf-8")
    result = runner.invoke(main, ["split", "--input", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["complement_basis"] == \
        [{"c0": "1", "c1": "-1/8"}, {"c2": "1"}]
    result = runner.invoke(main, ["radical", "--input", str(path), "--format", "json"])
    assert json.loads(result.output)["basis"] == [{"c0": "1", "c1": "-2"}]


SQRT2_FIELDS = {
    "q_sqrt2": "basis: one s\ndegree: one e\ndegree: s e\n"
               "structure: 1 1 1 1\nstructure: 1 2 2 1\nstructure: 2 1 2 1\n"
               "structure: 2 2 1 2\nunit: 1 0\n",
    "q_times_q_sqrt2": "basis: a one s\ndegree: a e\ndegree: one e\ndegree: s e\n"
                       "structure: 1 1 1 1\nstructure: 2 2 2 1\nstructure: 2 3 3 1\n"
                       "structure: 3 2 3 1\nstructure: 3 3 2 2\nunit: 1 1 0\n",
}


@pytest.mark.parametrize("name", sorted(SQRT2_FIELDS))
def test_exponent_of_a_center_with_sqrt2_does_not_split(runner, tmp_path, name):
    """Q(sqrt 2), alone and beside Q: the two dimensions of the center that
    Q(sqrt 2) spans have no rational line, and the error names them."""
    path = tmp_path / f"{name}.alg"
    path.write_text(f"name: {name}\nsemigroup: inline\nsemigroup-labels: e\n"
                    f"semigroup-table: e\n{SQRT2_FIELDS[name]}", encoding="utf-8")
    result = runner.invoke(main, ["exponent", "--input", str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "NonSplit",
                                "message": "center block of dimension 2 does not split over Q"}


def test_exponent_error_exit(runner):
    result = runner.invoke(main, ["exponent", "--catalog", "thm_T1_fractional"])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip() or result.output.strip())
    assert payload["error"] == "RadicalNotGraded"


def test_usage_error_exit(runner):
    result = runner.invoke(main, ["codim", "--catalog", "no_such_algebra"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["codim", "--catalog", "mk_column_graded(x)"])
    assert result.exit_code == 2
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line)["error"] == "BadParam"


def test_nonpositive_caps_is_a_usage_error(runner):
    result = runner.invoke(main, ["codim", "--catalog", "thm_T1_fractional", "--caps", "0"])
    assert result.exit_code == 2
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line) == {"error": "BadParam",
                                "message": "resource caps must be positive"}


def test_phimax_nan_tolerance_is_a_usage_error(runner):
    result = runner.invoke(main, ["phimax", "--q", "7", "--tolerance", "nan"])
    assert result.exit_code == 2
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line)["error"] == "BadParam"


@pytest.mark.parametrize("catalog, variant, label", [
    ("thm_T3_fractional", "T1", "(e11,e11)"),
    ("full_matrix(2)", "T3", "(e21,0)"),
])
def test_witness_needs_the_variant_labels(runner, catalog, variant, label):
    result = runner.invoke(main, ["multiplicity", "--catalog", catalog,
                                  "--shape", "2,1", "--variant", variant])
    assert result.exit_code == 1
    [line] = result.stderr.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "UnsupportedAlgebra"
    assert label in payload["message"]


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
    # no check selected is no check passed: the command's return value is the exit code
    none = runner.invoke(main, ["verify-paper", "--sections", "no-such-check"])
    assert none.exit_code == 1
    assert none.stdout == "0/0 checks passed\n"


def test_verify_json_gives_seconds_per_check(runner):
    args = ["verify-paper", "--sections", "semigroups", "--sections", "theta", "--format", "json"]
    timed = json.loads(runner.invoke(main, args).stdout)
    plain = runner.invoke(main, args + ["--no-timings"])
    assert plain.exit_code == 0
    assert [e["check"] for e in timed] == ["semigroup-classification", "theta-window"]
    for entry in timed:
        assert entry["seconds"] >= 0 and round(entry["seconds"], 6) == entry["seconds"]
    # without timings the entries are the same, with no seconds key
    assert json.loads(plain.stdout) == [{k: v for k, v in e.items() if k != "seconds"}
                                        for e in timed]
    # the text lines carry no seconds either way
    text = runner.invoke(main, args[:-2])
    assert text.stdout == runner.invoke(main, args[:-2] + ["--no-timings"]).stdout
    assert "seconds" not in text.stdout


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


def test_primes_must_exceed_the_degree(runner):
    # modulo p <= n the split of each block by multipartitions loses rank
    result = runner.invoke(main, ["codim", "--catalog", "thm_T1_fractional", "--n-max", "4",
                                  "--primes", "2,3", "--no-timings"])
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "BadParam"
    assert "2**31" in payload["message"]


def test_a_prime_may_divide_a_denominator(runner, tmp_path):
    # a.a = a/3: the block is scaled to integers before it is reduced mod
    # p, so p = 3 gives a rank mod 3, still a lower bound for the rank over Q
    path = tmp_path / "third.alg"
    path.write_text("name: third\nsemigroup: T1\nbasis: a\ndegree: a 0\n"
                    "structure: 1 1 1 1/3\nunit: 3\n", encoding="utf-8")
    args = ["codim", "--input", str(path), "--n-max", "2", "--no-timings"]
    modular = runner.invoke(main, args + ["--primes", "3,5"])
    assert modular.exit_code == 0
    lines = modular.stdout.strip().splitlines()
    assert lines[0] == "n,c_n,certification,seconds"
    assert lines[2].startswith("2,1,")
    exact = runner.invoke(main, args + ["--mode", "exact"])
    assert exact.exit_code == 0
    assert exact.stdout.strip().splitlines()[2].startswith("2,1,")


@pytest.mark.parametrize("shape", ["2,x", "3,0", "1,2", ","])
def test_malformed_shape_is_a_usage_error(runner, shape):
    result = runner.invoke(main, ["multiplicity", "--catalog", "thm_T3_fractional",
                                  "--shape", shape])
    assert result.exit_code == 2
    [line] = result.stderr.strip().splitlines()
    assert json.loads(line)["error"] == "BadParam"


_BATTERY_BUT_PHI = [a for c in ("semigroups", "radical", "splitting", "simple", "codim",
                                "witness", "theta", "exponent", "partitions", "multiplicity")
                    for a in ("--sections", c)]
# every exact command, run in text and in json (exponent and export in one form);
# phimax is left out, its floats come from the numeric solver
_PINNED_COMMANDS = [
    ["semigroups", "--order", "2"],
    ["check", "--catalog", "thm_T1_fractional"],
    ["radical", "--catalog", "exampleT1(2)"],
    ["split", "--catalog", "utk_column_graded(2)"],
    ["simple", "--catalog", "thm_T3_fractional"],
    ["codim", "--catalog", "thm_T3_fractional", "--n-max", "4", "--no-timings"],
    ["codim", "--catalog", "thm_T3_fractional", "--n-max", "4", "--no-timings", "--mode", "exact"],
    ["multiplicity", "--catalog", "thm_T3_fractional", "--shape", "2,1,1"],
    ["multiplicity", "--catalog", "thm_T3_fractional", "--shape", "2,1,1", "--variant", "T3"],
    ["bounds", "--q", "7", "--n-max", "6", "--catalog", "thm_T1_fractional",
     "--codim-n-max", "3"],
    ["verify-paper", "--no-timings", *_BATTERY_BUT_PHI],
]
_PINNED = [c + f for c in _PINNED_COMMANDS for f in ([], ["--format", "json"])] + [
    ["exponent", "--catalog", "utk_column_graded(2)"],
    ["export", "--catalog", "mk_column_graded(2)"],
]
PINNED_OUTPUT_DIGESTS = {
    "semigroups --order 2":
        "97d73e08f5180037380e6cac564c8fa90d7883a5f14d40a640145f683b57251a",
    "semigroups --order 2 --format json":
        "59b95cd4731b8282ce7332fe49821ded22b12303cf273584ffbf4648b1b5a7e6",
    "check --catalog thm_T1_fractional":
        "ba245e34ec66f7eb5252296c027b67d089b67c7b9cb9c0c01f308464fbf96139",
    "check --catalog thm_T1_fractional --format json":
        "25d3a0f7aab38e7c33fd18e85c81fb8a00b7427a385fe4ad006ddc1f0a53ab3f",
    "radical --catalog exampleT1(2)":
        "b9b42e06649cf166db2d12f86aa7377ad025d6cf2b2aca9350498562ac2b2e5a",
    "radical --catalog exampleT1(2) --format json":
        "a62872226b75277745ad19954b5f907a7351376b95e3bba869db2338fa760c11",
    "split --catalog utk_column_graded(2)":
        "95695c6480ec027d0ba4ffd94cc6f5e4758a860d5bf0c26a4b5c6a888ac08289",
    "split --catalog utk_column_graded(2) --format json":
        "b66d1ea3de307b76444bed55eecaedf8653258ad936a2cbd1db856fc1578160f",
    "simple --catalog thm_T3_fractional":
        "7b6c6349e61ae00975d52275599682f9f68e9dc7be8964be978981e3a954a377",
    "simple --catalog thm_T3_fractional --format json":
        "899e569e0af6439e298d6fb070e6984372c86ad441bbd230a7959f35ba1ae4be",
    "codim --catalog thm_T3_fractional --n-max 4 --no-timings":
        "2851bb5365cb83e616cc3700e691b4e80aa70eb8661d3e21224159010903d119",
    "codim --catalog thm_T3_fractional --n-max 4 --no-timings --format json":
        "5c7d9156cfe70ade5c8a1a24ad0eccd22d96baafa15b10539716dff8c7717d41",
    "codim --catalog thm_T3_fractional --n-max 4 --no-timings --mode exact":
        "9e74ed54faaa54c6aac90262bff343888c0cfc5adff6bcd605e075df1635c93e",
    "codim --catalog thm_T3_fractional --n-max 4 --no-timings --mode exact --format json":
        "a68f961f0debfee39b6dab281ff29ae66632f78b796a7b700737047cfedd47ac",
    "multiplicity --catalog thm_T3_fractional --shape 2,1,1":
        "cb2e740a498bbab792bb574ec3fb5ee6b2f0f156086c7d0afed78dc89655594b",
    "multiplicity --catalog thm_T3_fractional --shape 2,1,1 --format json":
        "27750fc4f08f4d400fa1ec4c81ce77bc1d5b79dcf328303466a8b0cb97d3380c",
    "multiplicity --catalog thm_T3_fractional --shape 2,1,1 --variant T3":
        "a83a9d88c21743ce9087b57b40b6af00e84362df477f6ac3bae9b7a5b41c521b",
    "multiplicity --catalog thm_T3_fractional --shape 2,1,1 --variant T3 --format json":
        "d6e9a72a15f2fe265f5b387654ff84a29b5159a387462b1a58b3c285e9ebbf12",
    "bounds --q 7 --n-max 6 --catalog thm_T1_fractional --codim-n-max 3":
        "c24269a9a9fdbe643a8e971942737e897e70d5d3ed1c8b5cac2b48a2cdd777b5",
    "bounds --q 7 --n-max 6 --catalog thm_T1_fractional --codim-n-max 3 --format json":
        "852e190c57a6ca856357b137bd4083fd0cb01d78c7aeebc52796263c2aa6a764",
    "verify-paper --no-timings --sections <all but phi>":
        "d90dbd70b420f7104b1ff7951248a71a2a2e9ce43b45b276c711055654162b4d",
    "verify-paper --no-timings --sections <all but phi> --format json":
        "01cbda42583c7b052c69c75c8657a8c763d188e9466eeebf120ed2dbe33bdb54",
    "exponent --catalog utk_column_graded(2)":
        "e817af70c10f0a2b4deb2782716b6c2d369907ee86d6db1a7ee545384797d6bb",
    "export --catalog mk_column_graded(2)":
        "4da83f6f53fae884a8fbc88ba87abf295cd5fd3bd45f13f8e7f3c096871c533a",
}


def test_outputs_are_pinned(runner):
    digests = {}
    for args in _PINNED:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.stderr)
        key = " ".join(args).replace(" ".join(_BATTERY_BUT_PHI), "--sections <all but phi>")
        digests[key] = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digests == PINNED_OUTPUT_DIGESTS
