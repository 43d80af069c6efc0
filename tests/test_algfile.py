import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigraded.algfile import load_algebra, parse_algebra, serialize_algebra
from semigraded.errors import BadParam, GradingViolation, NotAssociative, WorkbenchError
from semigraded.gralgebra import paper_catalog, validate
from algebra_fixtures import catalog_names

GOOD = """\
# a two-dimensional demo over the right zero band
name: demo
semigroup: T3
basis: a b
degree: a e1
degree: b e2
structure: 1 1 1 1
structure: 1 2 2 1
structure: 2 1 1 1
structure: 2 2 2 1
"""


def test_parse_good_file():
    alg = parse_algebra(GOOD)
    assert alg.dim == 2
    assert alg.name == "demo"
    assert alg.support() == [0, 1]


def test_parse_inline_semigroup():
    text = GOOD.replace("semigroup: T3",
                        "semigroup: inline\n"
                        "semigroup-labels: e1 e2\n"
                        "semigroup-table: e1 e2 / e1 e2")
    alg = parse_algebra(text)
    assert alg.semigroup.labels == ("e1", "e2")


def test_parse_rejects_grading_violation():
    bad = GOOD.replace("structure: 1 2 2 1", "structure: 1 2 1 1")
    with pytest.raises(GradingViolation):
        parse_algebra(bad)


def test_parse_rejects_non_associative():
    text = """\
name: broken
semigroup: Trivial
basis: x y
degree: x e
degree: y e
structure: 1 1 2 1
structure: 2 2 1 1
"""
    with pytest.raises(NotAssociative):
        parse_algebra(text)


def test_parse_rejects_bad_unit():
    bad = GOOD + "unit: 1 1\n"
    with pytest.raises(GradingViolation):
        parse_algebra(bad)


def test_parse_missing_keys():
    with pytest.raises(BadParam):
        parse_algebra("name: x\nbasis: a\n")
    with pytest.raises(BadParam):
        parse_algebra("name: x\nsemigroup: T1\n")


def test_parse_rejects_missing_degree():
    text = GOOD.replace("degree: b e2\n", "")
    with pytest.raises(BadParam):
        parse_algebra(text)


def test_parse_rejects_bad_indices():
    bad = GOOD + "structure: 3 1 1 1\n"
    with pytest.raises(BadParam):
        parse_algebra(bad)


def test_parse_rejects_repeated_labels():
    # a second degree line used to override the first without a word
    with pytest.raises(BadParam, match="second degree"):
        parse_algebra(GOOD + "degree: a e2\n")
    with pytest.raises(BadParam, match="distinct"):
        parse_algebra(GOOD.replace("basis: a b", "basis: a a"))


CATALOG_ARGS = {
    "exampleT1": (2,), "exampleT2": (2,), "exampleT3": (2,),
    "mk_column_graded": (2,), "utk_column_graded": (3,),
    "full_matrix": (2,), "upper_triangular": (3,),
    "thm_T1_fractional": (), "thm_T2_fractional": (), "thm_T3_fractional": (),
    "mk_zhalf_graded": (),
}


def test_round_trip_whole_catalog():
    for name in catalog_names():
        alg = paper_catalog(name, *CATALOG_ARGS[name])
        text = serialize_algebra(alg)
        back = parse_algebra(text)
        assert back.dim == alg.dim
        assert back.structure == alg.structure
        assert back.degree == alg.degree
        assert back.unit == alg.unit
        assert back.semigroup.table == alg.semigroup.table
        assert validate(back)["ok"]


def test_load_algebra_from_disk(tmp_path):
    path = tmp_path / "demo.alg"
    path.write_text(GOOD, encoding="utf-8")
    alg = load_algebra(path)
    assert alg.name == "demo"


MUTATION_BASES = (
    GOOD,
    GOOD.replace("semigroup: T3", "semigroup: inline\nsemigroup-labels: e1 e2\n"
                                  "semigroup-table: e1 e2 / e1 e2") + "unit: 1 0\n",
    serialize_algebra(paper_catalog("exampleT1", 2)),
    serialize_algebra(paper_catalog("mk_zhalf_graded")),
)
MUTATION_PIECES = st.one_of(
    st.sampled_from(["1/0", "-1", "0", "x", "e1", "inline", "/", ":", "#", ""]),
    st.text(max_size=4),
)


def _mutate(text, op, at, piece):
    """One edit: insert piece at a character, delete a character, replace a
    whitespace-separated token of a line by piece, copy a line, drop a line."""
    lines = text.splitlines(True) or [""]
    k = at % len(lines)
    if op == 0:
        at %= len(text) + 1
        return text[:at] + piece + text[at:]
    if op == 1:
        at %= len(text) + 1
        return text[:at] + text[at + 1:]
    if op == 2:
        tokens = lines[k].split()
        if tokens:
            tokens[at // len(lines) % len(tokens)] = piece
            lines[k] = " ".join(tokens) + "\n"
        return "".join(lines)
    if op == 3:
        return "".join(lines[:k + 1] + lines[k:])
    return "".join(lines[:k] + lines[k + 1:])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MUTATION_BASES),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10 ** 4), MUTATION_PIECES),
                min_size=1, max_size=4))
def test_mutated_text_raises_only_workbench_errors(base, edits):
    text = base
    for op, at, piece in edits:
        text = _mutate(text, op, at, piece)
    try:
        parse_algebra(text)
    except WorkbenchError:
        pass
