import dataclasses
import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigraded.cochar import (
    AlternatingColumn,
    FactoredPolynomial,
    Partition,
    YoungTableau,
    _alternation_trials,
    _variant,
    alternating_values,
    alternation_vanishing_check,
    apply_symmetrizer,
    build_witness,
    choose_beta,
    dim_bounds,
    hook_dim,
    induce_multiplicities,
    multiplicities,
    multiplicity_exact,
    multiplicity_nonzero_certificate,
    partitions_of,
    theta,
    theta_scan,
)
from semigraded import cochar, codim
from semigraded.codim import _rank_exact, graded_codim
from semigraded.errors import (
    BadParam,
    HypothesisViolated,
    ResourceLimit,
    SizeMismatch,
    TooManyParts,
    UnsupportedAlgebra,
)
from semigraded.gralgebra import (GradedAlgebra, full_matrix, merge_entries, paper_catalog,
                                  parse_catalog_spec, with_trivial_grading)
from semigraded.linalg import eliminate
from semigraded.semigroup import trivial_semigroup
from semigraded.young import (
    _centralizer_order,
    _character,
    induction_coefficients,
    spanning_permutations,
)
from product_oracles import eval_table, mul_sparse, product_cache
from test_codim import (BlockLayout, WordTable, block_rank, canonical_rows, catalog_at_two,
                        catalog_slices, count_exact_ranks, half_scaled, live_slice_grams,
                        ut2_codim)
from young_oracles import column_group_signed, perm_sign, row_group, symmetrizer


# -- partitions -----------------------------------------------------------------

def test_partition_basics():
    lam = Partition((3, 2, 2, 1))
    assert lam.n == 8
    assert lam.part(1) == 3 and lam.part(5) == 0
    assert lam.conjugate().parts == (4, 3, 1)
    assert lam.column_heights() == [4, 3, 1]
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partitions_of_counts():
    assert len(list(partitions_of(4))) == 5
    assert len(list(partitions_of(8))) == 22
    assert [l.parts for l in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_enumerate_with_cutoff():
    assert [l.parts for l in partitions_of(4, max_parts=1)] == [(4,)]


def test_enumerate_with_constraints():
    # at most 7 parts and the two smallest of the first seven bounded by the largest
    def member(lam):
        return lam.part(8) == 0 and lam.part(6) + lam.part(7) <= lam.part(1)
    out = [l.parts for l in partitions_of(7) if member(l)]
    assert (2, 1, 1, 1, 1, 1) in out
    assert (1, 1, 1, 1, 1, 1, 1) not in out


def test_hook_dim_small():
    assert hook_dim(Partition((5,))) == 1
    assert hook_dim(Partition((1, 1, 1))) == 1
    assert hook_dim(Partition((2, 1))) == 2
    assert hook_dim(Partition((2, 2))) == 2
    assert hook_dim(Partition((3, 2))) == 5


def test_hook_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(hook_dim(l) ** 2 for l in partitions_of(n)) == math.factorial(n)


def test_dim_bounds_examples():
    b = dim_bounds(Partition((2, 1)), 2)
    assert b["upper"] == 3
    assert b["lower"] == Fraction(1, 2)
    assert dim_bounds(Partition((5,)), 1) == {"upper": 1, "lower": Fraction(120, 120)}
    with pytest.raises(TooManyParts):
        dim_bounds(Partition((1, 1, 1)), 2)


def test_dim_bounds_sandwich_exhaustive():
    for n in range(1, 13):
        for lam in partitions_of(n, max_parts=7):
            b = dim_bounds(lam, 7)
            h = hook_dim(lam)
            assert b["lower"] <= h <= b["upper"], lam


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10))
def test_hook_dim_positive(n):
    for lam in partitions_of(n, max_parts=4):
        assert hook_dim(lam) >= 1


# -- tableaux and symmetrizers -----------------------------------------------------

def test_column_major_filling():
    t = YoungTableau.column_major(Partition((3, 2)))
    # columns: (0,1), (2,3), (4,)
    assert t.columns() == [(0, 1), (2, 3), (4,)]
    assert t.rows == ((0, 2, 4), (1, 3))


def test_row_group_size():
    t = YoungTableau.column_major(Partition((3, 2)))
    assert len(t.row_words()) == math.factorial(3) * math.factorial(2)
    words, signs = t.column_words()
    assert len(words) == len(signs) == 2 * 2


def test_full_alternation_kills_repeats():
    # single-column shape, a monomial evaluated on a substitution with a
    # repeated basis element must die under the symmetrizer
    m2 = full_matrix(2)
    lam = Partition((1, 1, 1))
    t = YoungTableau.column_major(lam)
    f = FactoredPolynomial(3, [AlternatingColumn((0, 1, 2), (0, 1, 2), (0, 0, 0))])
    tau = {0: 0, 1: 0, 2: 1}  # e11 twice
    [value] = apply_symmetrizer(m2, [(t, f, tau)])
    assert all(c == 0 for c in value)


def test_symmetrizer_size_mismatch():
    m2 = full_matrix(2)
    t = YoungTableau.column_major(Partition((2,)))
    f = FactoredPolynomial(3, [AlternatingColumn((0, 1, 2), (0, 1, 2), (0, 0, 0))])
    with pytest.raises(SizeMismatch):
        apply_symmetrizer(m2, [(t, f, {0: 0, 1: 1, 2: 2})])


def _no_young_subgroup(monkeypatch):
    from semigraded import young

    def unreachable(composition):
        raise AssertionError("a Young subgroup was built")

    monkeypatch.setattr(young, "young_subgroup", unreachable)


def test_symmetrizer_refuses_an_over_cap_witness_before_building_it(monkeypatch):
    # (11) with 11 distinct labels of M_4, one per one-box column: 11!
    # distinct substitutions
    m4 = full_matrix(4)
    t = YoungTableau.column_major(Partition((11,)))
    f = FactoredPolynomial(11, [AlternatingColumn((v,), (0,), (0,)) for v in range(11)])
    _no_young_subgroup(monkeypatch)
    with pytest.raises(ResourceLimit) as refused:
        apply_symmetrizer(m4, [(t, f, {v: v for v in range(11)})])
    assert str(refused.value) == ("the symmetrizer of shape (11,) takes 39916800 distinct "
                                  "substitutions of 11 letters (cap 10000000 letters)")


def test_symmetrizer_caps_the_letters_its_substitutions_hold(monkeypatch):
    # T3's witness of (25,6,6,6,6,6) fills its first row with 12 and 13 of
    # two labels, every other row with one: C(25,12) = 5200300 distinct
    # substitutions, under 10^7, but of 55 letters each
    t3 = paper_catalog("thm_T3_fractional")
    w = build_witness("T3", Partition((25, 6, 6, 6, 6, 6)), alg=t3)

    def unreachable(*args):
        raise AssertionError("substitutions were built")

    monkeypatch.setattr(cochar, "_substitutions", unreachable)
    with pytest.raises(ResourceLimit) as refused:
        apply_symmetrizer(t3, [(w.tableau, w.f, w.tau)])
    assert str(refused.value) == ("the symmetrizer of shape (25, 6, 6, 6, 6, 6) takes 5200300 "
                                  "distinct substitutions of 55 letters (cap 10000000 letters)")


def test_symmetrizer_counts_distinct_substitutions_without_building_them(monkeypatch):
    # T3's witness of (11) fills its row with one label: one distinct
    # substitution of the 11! row-group terms, weighed by 11!
    t3 = paper_catalog("thm_T3_fractional")
    w = build_witness("T3", Partition((11,)), alg=t3)
    _no_young_subgroup(monkeypatch)
    [value] = apply_symmetrizer(t3, [(w.tableau, w.f, w.tau)])
    assert set(value) == {0, math.factorial(11)}


def _refused_off_the_tableau(monkeypatch, m2, item):
    _no_young_subgroup(monkeypatch)
    monkeypatch.setattr(cochar, "alternating_values", None)
    with pytest.raises(BadParam) as refused:
        apply_symmetrizer(m2, [item])
    assert str(refused.value) == ("the symmetrizer needs the polynomial's columns on "
                                  "the tableau's columns")


def test_symmetrizer_counts_the_column_group_off_the_shortcut(monkeypatch):
    # (5,5,5) with one column of all 15 variables: no column group is
    # counted or summed off the tableau's columns, BadParam before anything
    # is built
    m2 = full_matrix(2)
    t = YoungTableau.column_major(Partition((5, 5, 5)))
    f = FactoredPolynomial(15, [AlternatingColumn(tuple(range(15)), tuple(range(15)),
                                                  (0,) * 15)])
    _refused_off_the_tableau(monkeypatch, m2, (t, f, {v: 0 for v in range(15)}))


def test_shortcut_needs_alternating_columns(monkeypatch):
    # x0*x1, two one-letter columns, covers the column (0, 1) but does not
    # alternate in it: refused, not summed over the column group
    m2 = full_matrix(2)
    e11, e12, e21, e22 = range(4)
    f = FactoredPolynomial(2, [AlternatingColumn((0,), (0,), (0,)),
                               AlternatingColumn((1,), (0,), (0,))])
    _refused_off_the_tableau(monkeypatch, m2, (YoungTableau.column_major(Partition((1, 1))), f,
                                               {0: e12, 1: e21}))


# -- the h!-word oracle for alternating columns ------------------------------------

@dataclasses.dataclass
class GradedPolynomial:
    """Formal rational combination of decorated monomials, all of one length."""

    n: int
    terms: dict  # (word, pos_degrees) -> coefficient

    def evaluate(self, alg, tau, table):
        """Value on the substitution tau, word by word through the
        eval_table table; a factor of another degree than its position's
        label kills the word."""
        out = {}
        for (w, d), coeff in self.terms.items():
            seq = [tau[var] for var in w]
            if any(alg.degree[b] != t for b, t in zip(seq, d)):
                continue
            for k, c in _word_value(table, seq).items():
                out[k] = out.get(k, 0) + coeff * c
        return {k: c for k, c in out.items() if c != 0}


def _word_value(table, seq):
    value = {seq[0]: 1}
    for b in seq[1:]:
        value = mul_sparse(table, value, {b: 1})
        if not value:
            break
    return value


@functools.lru_cache(maxsize=32)
def alternating_column_polynomial(variables, word_slots, pos_degrees):
    """The column as its h! signed words: position k of the word of sigma
    holds variables[sigma[word_slots[k]]]."""
    h = len(variables)
    terms = {}
    for sigma in permutations(range(h)):
        sign = perm_sign(tuple(range(h)), sigma)
        word = tuple(variables[sigma[word_slots[k]]] for k in range(len(word_slots)))
        terms[(word, tuple(pos_degrees))] = Fraction(sign)
    return GradedPolynomial(len(variables), terms)


def product_value(table, values):
    """The ordered product of the column values (dicts coordinate ->
    value), by mul_sparse on the eval_table table."""
    out = values[0]
    for value in values[1:]:
        out = mul_sparse(table, out, value) if out and value else {}
    return out


def word_expansion_value(alg, table, columns, tau):
    """A product of alternating columns at tau: each column expanded
    into its h! words, the values multiplied by product_value."""
    return product_value(table, [
        alternating_column_polynomial(c.variables, c.slots, c.pos_degrees).evaluate(alg, tau, table)
        for c in columns])


def laid_end_to_end(alg, columns, tau):
    """(sign, letters, classes, pos_classes) of a product of alternating
    columns at tau for the confined evaluator, the layout that
    apply_symmetrizer gives it: the letters column by column, their
    classes and the sign from FactoredPolynomial.laid_end_to_end."""
    letters = [tau[v] for c in columns for v in c.variables]
    f = FactoredPolynomial(len(letters), list(columns))
    sign, [classes], pos_classes = f.laid_end_to_end(alg, np.array([letters]))
    return sign, letters, classes, pos_classes


def confined_values(alg, rows):
    """The laid_end_to_end rows, of one length, in one alternating_values
    call, each value times its row's sign."""
    values = alternating_values(alg.cell_table(), *zip(*[row[1:] for row in rows]))
    return [{k: sign * c for k, c in value.items()} for (sign, *_), value in zip(rows, values)]


@functools.cache
def column_algebras():
    return (paper_catalog("thm_T1_fractional"), paper_catalog("thm_T3_fractional"),
            full_matrix(2), half_scaled(paper_catalog("mk_column_graded", 2)))


def draw_column(data, alg, h):
    """(letters, pos_degrees) of one column of h letters: distinct
    letters, or any letters with repeats among them; at 4 draws in 5 the
    positions carry the letters' own degrees in some order, so that even
    a row with repeats runs to its last level, else any degrees."""
    if h <= alg.dim and data.draw(st.booleans()):
        letters = data.draw(st.permutations(range(alg.dim)))[:h]
    else:
        letters = data.draw(st.lists(st.integers(0, alg.dim - 1), min_size=h, max_size=h))
    if data.draw(st.integers(0, 4)):
        pos_degrees = [alg.degree[b] for b in data.draw(st.permutations(letters))]
    else:
        pos_degrees = data.draw(st.lists(st.sampled_from(alg.support()), min_size=h, max_size=h))
    return letters, pos_degrees


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_alternating_column_matches_the_word_expansion(data):
    # rows of h letters cut into columns of random heights up to 7, the
    # tallest witness column, the structures mixed in one confined call,
    # against the product of the columns' word expansions:
    # column_algebras() holds the half-scaled algebra (Fractions),
    # large_constants() forces Python ints
    alg = data.draw(st.sampled_from(column_algebras() + (large_constants(),)))
    h = data.draw(st.integers(1, 9))
    table = eval_table(alg)
    rows, expected = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        columns, tau, lo = [], {}, 0
        while lo < h:
            hi = lo + data.draw(st.integers(1, min(7, h - lo)))
            letters, pos_degrees = draw_column(data, alg, hi - lo)
            slots = tuple(data.draw(st.permutations(range(hi - lo))))
            columns.append(AlternatingColumn(tuple(range(lo, hi)), slots, tuple(pos_degrees)))
            tau.update(zip(range(lo, hi), letters))
            lo = hi
        rows.append(laid_end_to_end(alg, columns, tau))
        expected.append(word_expansion_value(alg, table, columns, tau))
    assert confined_values(alg, rows) == expected


# -- oracles: the signed subset sum as a dict dynamic programme over the
# placed sets, as the evaluator formed it before it ran in batches, and
# the same with each extension a mul_sparse --

def dict_dp_alternating_value(alg, table, letters, pos_degrees):
    """The alternating sum of one row of letters, as alternating_values
    defines it: dynamic programming over the set of letters already
    placed, each partial sum extended by its letter through the cells of
    the eval_table table, the sign #{i placed : i > j} folded in."""
    degree = alg.degree
    layer = {0: None}  # placed set (bit mask) -> partial sum; None is the empty product
    for t in pos_degrees:
        fits = [j for j, b in enumerate(letters) if degree[b] == t]
        nxt = {}
        for placed, value in layer.items():
            for j in fits:
                bit = 1 << j
                if placed & bit:
                    continue
                b = letters[j]
                sign = -1 if (placed >> (j + 1)).bit_count() & 1 else 1
                acc = nxt.setdefault(placed | bit, {})
                if value is None:
                    acc[b] = acc.get(b, 0) + sign
                    continue
                for i, a in value.items():
                    cell = table.get((i, b))
                    if cell:
                        a *= sign
                        for k, c in cell:
                            acc[k] = acc.get(k, 0) + a * c
        layer = {}
        for placed, acc in nxt.items():
            acc = {k: c for k, c in acc.items() if c != 0}
            if acc:
                layer[placed] = acc
        if not layer:
            return {}
    return layer[(1 << len(letters)) - 1]


def dict_dp_product_value(alg, table, columns, tau):
    """A product of alternating columns at tau: each column
    dict_dp_alternating_value times sign(slots), the values multiplied
    by product_value."""
    values = []
    for c in columns:
        sign = perm_sign(tuple(range(len(c.slots))), c.slots)
        value = dict_dp_alternating_value(alg, table, [tau[v] for v in c.variables], c.pos_degrees)
        values.append({k: sign * x for k, x in value.items()})
    return product_value(table, values)


def mul_sparse_alternating_value(alg, table, letters, pos_degrees):
    """dict_dp_alternating_value with each extension a mul_sparse by {b: 1}."""
    degree = alg.degree
    layer = {0: None}
    for t in pos_degrees:
        fits = [j for j, b in enumerate(letters) if degree[b] == t]
        nxt = {}
        for placed, value in layer.items():
            for j in fits:
                bit = 1 << j
                if placed & bit:
                    continue
                b = letters[j]
                prod = {b: 1} if value is None else mul_sparse(table, value, {b: 1})
                if not prod:
                    continue
                sign = -1 if (placed >> (j + 1)).bit_count() & 1 else 1
                acc = nxt.setdefault(placed | bit, {})
                for k, c in prod.items():
                    acc[k] = acc.get(k, 0) + sign * c
        layer = {}
        for placed, acc in nxt.items():
            acc = {k: c for k, c in acc.items() if c != 0}
            if acc:
                layer[placed] = acc
        if not layer:
            return {}
    return layer[(1 << len(letters)) - 1]


@functools.cache
def large_constants():
    """full_matrix(2) with every structure constant 2 ** 30: at h >= 3 the
    bound h! * (dim * max |c|) ** (h - 1) passes 2 ** 63, so
    alternating_values sums in Python ints."""
    alg = full_matrix(2)
    return dataclasses.replace(alg, unit=None, structure={
        key: {k: c * 2 ** 30 for k, c in cell.items()} for key, cell in alg.structure.items()})


def by_degree(alg, rows, pos_degrees, **kwargs):
    """alternating_values with the degrees as classes, as the alternation
    check calls it."""
    classes = [[alg.degree[b] for b in row] for row in rows]
    return alternating_values(alg.cell_table(), rows, classes, pos_degrees, **kwargs)


def draw_rows(data, alg, h):
    """(letters, pos_degrees) of one row of h letters: distinct letters of
    matching degrees, where the value can be nonzero, or any letters and
    degrees, where most rows have no ordering of fitting degrees."""
    if h <= alg.dim and data.draw(st.booleans()):
        letters = data.draw(st.permutations(range(alg.dim)))[:h]
        pos_degrees = [alg.degree[b] for b in data.draw(st.permutations(letters))]
    else:
        letters = data.draw(st.lists(st.integers(0, alg.dim - 1), min_size=h, max_size=h))
        pos_degrees = data.draw(st.lists(st.sampled_from(alg.support()), min_size=h, max_size=h))
    return letters, pos_degrees


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_alternating_value_matches_the_mul_sparse_oracle(data):
    # a batch of rows of one height (none, in an empty batch) against both
    # per-row oracles: column_algebras() holds the half-scaled algebra,
    # whose values come back as Fractions, and large_constants() forces
    # Python ints
    alg = data.draw(st.sampled_from(column_algebras() + (large_constants(),)))
    h = data.draw(st.integers(1, alg.dim + 1))
    batch = [draw_rows(data, alg, h) for _ in range(data.draw(st.integers(0, 4)))]
    table = eval_table(alg)
    values = by_degree(alg, [r[0] for r in batch], [r[1] for r in batch])
    assert values == [mul_sparse_alternating_value(alg, table, *row) for row in batch]
    assert values == [dict_dp_alternating_value(alg, table, *row) for row in batch]


def test_alternating_values_edge_rows():
    alg = full_matrix(2)
    e11, e12, e21, e22 = range(4)
    assert by_degree(alg, [], []) == []
    # full_matrix(2) is trivially graded, so only a position of another
    # degree leaves a row with no valid ordering
    nowhere = paper_catalog("thm_T3_fractional")
    b = nowhere.basis_labels.index("(e21,0)")
    other = next(t for t in nowhere.support() if t != nowhere.degree[b])
    assert by_degree(nowhere, [[b, b]], [[nowhere.degree[b], other]]) == [{}]
    # [e12, e21] = e11 - e22, and a repeated letter alternates to zero
    assert by_degree(alg, [[e12, e21], [e11, e11], [e21, e12]], [[0, 0]] * 3) == \
        [{e11: 1, e22: -1}, {}, {e11: -1, e22: 1}]
    # the half-scaled algebra comes back in Fractions, the large one in ints
    half = half_scaled(paper_catalog("mk_column_graded", 2))
    [value] = by_degree(half, [[0, 1]], [[half.degree[0], half.degree[1]]])
    assert all(isinstance(c, Fraction) for c in value.values())
    big = large_constants()
    [value] = by_degree(big, [[e11, e12, e21]], [[0, 0, 0]])
    assert value and all(type(c) is int for c in value.values())
    assert value == dict_dp_alternating_value(big, eval_table(big), [e11, e12, e21], [0, 0, 0])


def test_alternating_values_are_capped():
    alg = full_matrix(2)
    rows = [[0, 1, 2, 3]] * 10
    by_degree(alg, rows, [[0] * 4] * 10)
    with pytest.raises(ResourceLimit):
        by_degree(alg, rows, [[0] * 4] * 10, max_entries=50)
    with pytest.raises(BadParam):
        by_degree(alg, [[]], [[]])


def test_witness_columns_match_the_word_expansion():
    # every column kind on its own substitution labels, where it is nonzero
    for variant, name in (("T1", "thm_T1_fractional"), ("T3", "thm_T3_fractional")):
        alg = paper_catalog(name)
        index = {label: i for i, label in enumerate(alg.basis_labels)}
        table = _variant(variant)
        for kind, (slots, degs) in table.words.items():
            column = AlternatingColumn(tuple(range(len(slots))), slots, degs)
            tau = {v: index[label] for v, label in zip(column.variables, table.columns[kind])}
            [value] = confined_values(alg, [laid_end_to_end(alg, [column], tau)])
            assert value, (variant, kind)
            assert value == word_expansion_value(alg, eval_table(alg), [column], tau), \
                (variant, kind)


def per_substitution_symmetrizer(alg, w):
    """e_T.f at tau for a witness, one row-group element at a time, with
    every column expanded into its h! words."""
    scalar = math.prod(math.factorial(h) for h in w.shape.column_heights())
    table = eval_table(alg)
    out = {}
    for rho in row_group(w.tableau):
        comp = {v: w.tau[rho.get(v, v)] for v in w.tau}
        for k, c in word_expansion_value(alg, table, w.f.factors, comp).items():
            out[k] = out.get(k, 0) + scalar * c
    return tuple(Fraction(out.get(k, 0)) for k in range(alg.dim))


@pytest.mark.parametrize("variant, parts", [
    ("T1", (2, 1, 1, 1, 1, 1)), ("T1", (2, 2, 2, 2, 2, 2, 1)),
    ("T3", (2, 1, 1, 1, 1)), ("T3", (2, 2, 2, 2, 2, 1)),
    # tau o rho takes three values on these two
    ("T1", (3, 3, 2, 2, 1, 1, 1)), ("T3", (3, 2, 2, 1, 1, 1)),
])
def test_symmetrizer_matches_the_per_substitution_sum(variant, parts):
    alg = paper_catalog("thm_T1_fractional" if variant == "T1" else "thm_T3_fractional")
    w = build_witness(variant, Partition(parts), alg=alg)
    [value] = apply_symmetrizer(alg, [(w.tableau, w.f, w.tau)])
    assert any(value)
    assert value == per_substitution_symmetrizer(alg, w)


def test_shortcut_matches_double_sum_on_witnesses():
    t3 = paper_catalog("thm_T3_fractional")
    t1 = paper_catalog("thm_T1_fractional")
    for variant, alg, parts in (("T3", t3, (2, 1, 1, 1, 1)),
                                ("T3", t3, (1, 1, 1, 1)),
                                ("T1", t1, (2, 1, 1, 1, 1, 1)),
                                ("T1", t1, (1, 1, 1, 1, 1))):
        w = build_witness(variant, Partition(parts), alg=alg)
        [fast] = apply_symmetrizer(alg, [(w.tableau, w.f, w.tau)])
        # the double sum over row and signed column group, term by term,
        # each column by the dict programme times sign(slots)
        table = eval_table(alg)
        slow = {}
        for g, sign in symmetrizer(w.tableau):
            comp = {v: w.tau[g.get(v, v)] for v in w.tau}
            for k, c in dict_dp_product_value(alg, table, w.f.factors, comp).items():
                slow[k] = slow.get(k, 0) + sign * c
        assert fast == tuple(Fraction(slow.get(k, 0)) for k in range(alg.dim))



def test_one_batch_returns_what_one_item_calls_return():
    # degrees 4, 5 and 6 in one call, two witnesses of each with as many
    # letters, their substitutions side by side in one batch
    t3 = paper_catalog("thm_T3_fractional")
    items = []
    for parts in ((2, 2, 1, 1), (1, 1, 1, 1), (2, 2, 1), (2, 1, 1, 1), (2, 1, 1, 1, 1),
                  (2, 2, 1, 1)):
        w = build_witness("T3", Partition(parts), alg=t3)
        items.append((w.tableau, w.f, w.tau))
    values = apply_symmetrizer(t3, items)
    assert values == [apply_symmetrizer(t3, [item])[0] for item in items]
    assert all(any(value) for value in values)


def test_both_sides_of_the_int64_bound_match_the_oracle(monkeypatch):
    # T1's 13-letter witness has columns of 7 and 6 letters: it stays in
    # int64, where 13! * 7 ** 12 would not, both laid out for the oracle
    # and inside apply_symmetrizer; a row of a 2-letter and a 1-letter
    # column of large_constants() passes to Python ints
    dtypes = []

    def spy(codes, values):
        dtypes.append(values.dtype)
        return merge_entries(codes, values)

    monkeypatch.setattr(cochar, "merge_entries", spy)
    t1 = paper_catalog("thm_T1_fractional")
    w = build_witness("T1", Partition((2, 2, 2, 2, 2, 2, 1)), alg=t1)
    cells = t1.cell_table()
    assert math.factorial(13) * (cells.dim * cells.top) ** 12 >= 2 ** 63
    assert confined_values(t1, [laid_end_to_end(t1, w.f.factors, w.tau)]) == \
        [word_expansion_value(t1, eval_table(t1), w.f.factors, w.tau)]
    assert dtypes and all(d == np.int64 for d in dtypes)
    dtypes.clear()
    [value] = apply_symmetrizer(t1, [(w.tableau, w.f, w.tau)])
    assert any(value)
    assert dtypes and all(d == np.int64 for d in dtypes)
    dtypes.clear()
    big = large_constants()
    e11, e12, e21, e22 = range(4)
    columns = [AlternatingColumn((0, 1), (1, 0), (0, 0)), AlternatingColumn((2,), (0,), (0,))]
    tau = {0: e12, 1: e21, 2: e11}
    [value] = confined_values(big, [laid_end_to_end(big, columns, tau)])
    assert value and value == word_expansion_value(big, eval_table(big), columns, tau)
    assert dtypes and all(d == object for d in dtypes)

# -- theta ---------------------------------------------------------------------------

def test_theta_values():
    t1 = paper_catalog("thm_T1_fractional")
    labels = t1.basis_labels
    assert theta(t1, labels.index("(e21,0)")) == -1
    assert theta(t1, labels.index("(e12,0)")) == 1
    assert theta(t1, labels.index("(e12,e12)")) == 1
    assert theta(t1, labels.index("(e11,0)")) == 0
    assert theta(t1, labels.index("(e11,e11)")) == 0


def test_theta_unsupported():
    alg = GradedAlgebra(1, ("u",), {(0, 0): {0: Fraction(1)}}, (0,),
                        trivial_semigroup(), unit=(Fraction(1),))
    with pytest.raises(UnsupportedAlgebra):
        theta(alg, 0)
    with pytest.raises(UnsupportedAlgebra):
        theta_scan(alg, 2)


def test_theta_scan_clean_on_both_fractional_algebras():
    for name, checked in (("thm_T1_fractional", 393), ("thm_T3_fractional", 240)):
        report = theta_scan(paper_catalog(name), 4)
        assert report["ok"], report["violations"][:3]
        assert report["products_checked"] == checked


def test_theta_scan_reads_the_scaled_word_products():
    # every structure constant halved, the matrix positions kept: the scan
    # sees the same nonzero words with the same supports
    t1 = paper_catalog("thm_T1_fractional")
    halved = dataclasses.replace(t1, structure={
        key: {k: c / 2 for k, c in cell.items()} for key, cell in t1.structure.items()})
    assert halved.matrix_positions == t1.matrix_positions
    assert theta_scan(halved, 4) == theta_scan(t1, 4)


def test_theta_scan_reports_wrong_positions_in_order():
    # e11 and e12 trade matrix positions, so theta(e11) = 1 and theta(e12) = 0
    alg = full_matrix(2)
    pos = list(alg.matrix_positions)
    pos[0], pos[1] = pos[1], pos[0]
    report = theta_scan(dataclasses.replace(alg, matrix_positions=tuple(pos)), 3)
    assert not report["ok"]
    assert report["products_checked"] == 28
    assert len(report["violations"]) == 17
    assert report["violations"][:4] == [("theta", (0, 0), 2, 1), ("theta", (0, 0, 0), 3, 1),
                                        ("theta", (0, 0, 1), 2, 0), ("theta", (0, 1), 1, 0)]


def test_theta_single_elements_in_window():
    for name in ("thm_T1_fractional", "thm_T3_fractional"):
        alg = paper_catalog(name)
        for i in range(alg.dim):
            assert -1 <= theta(alg, i) <= 1


def test_two_uncompensated_lowering_elements_kill_products():
    # any product with two (e21,0) factors and nothing raising in between is 0
    t1 = paper_catalog("thm_T1_fractional")
    e21 = t1.basis_labels.index("(e21,0)")
    v = t1.multiply(t1.basis_vector(e21), t1.basis_vector(e21))
    assert all(c == 0 for c in v)


# -- witnesses -------------------------------------------------------------------------

def test_choose_beta_in_domain():
    beta = choose_beta("T1", Partition((2, 1, 1, 1, 1, 1)))
    assert beta.surplus == 0
    assert beta.values["f2"] == 1 and beta.values["f12"] == 1
    assert sum(beta.values.get(k, 0) for k in ("f3", "f5", "f7", "f9", "f11")) == 0


def test_choose_beta_boundary():
    beta = choose_beta("T1", Partition((2, 2, 2, 2, 2, 2, 1)))
    assert beta.surplus == 1
    beta3 = choose_beta("T3", Partition((2, 2, 2, 2, 2, 1)))
    assert beta3.surplus == 1


def test_choose_beta_violations():
    with pytest.raises(HypothesisViolated):
        choose_beta("T1", Partition((1, 1, 1, 1, 1, 1, 1, 1)))  # eight parts
    with pytest.raises(HypothesisViolated):
        choose_beta("T1", Partition((2, 2, 2, 2, 2, 2, 2)))  # short by two
    with pytest.raises(HypothesisViolated):
        choose_beta("T3", Partition((2, 2, 2, 2, 2, 2)))


def test_build_witness_first_column_matches_substitution_table():
    t1 = paper_catalog("thm_T1_fractional")
    lam = Partition((2, 1, 1, 1, 1, 1))
    w = build_witness("T1", lam, alg=t1)
    assert w.shape.n == 7
    first_col = w.tableau.columns()[0]
    labels = [t1.basis_labels[w.tau[v]] for v in first_col]
    assert labels == ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)",
                      "(e22,0)", "(e12,0)"]
    assert w.column_kinds == ["f2", "f12"]


def test_build_witness_t3_shape():
    t3 = paper_catalog("thm_T3_fractional")
    # (2,1,1,1,1) has no height-6 column; the height-5 column carries the
    # forced kind and reads the first five entries of the tall pattern
    w = build_witness("T3", Partition((2, 1, 1, 1, 1)), alg=t3)
    assert w.shape.n == 6
    assert w.column_kinds[0] == "f2"
    first_col = w.tableau.columns()[0]
    labels = [t3.basis_labels[w.tau[v]] for v in first_col]
    assert labels == ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)", "(e12,e12)"]


def test_build_witness_t3_tall_column():
    t3 = paper_catalog("thm_T3_fractional")
    # a shape with a genuine height-6 column
    w = build_witness("T3", Partition((2, 2, 1, 1, 1, 1)), alg=t3)
    assert w.column_kinds[0] == "f1"
    first_col = w.tableau.columns()[0]
    labels = [t3.basis_labels[w.tau[v]] for v in first_col]
    assert labels == ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)",
                      "(e12,e12)", "(e12,0)"]
    assert multiplicity_nonzero_certificate(t3, "T3", [w.shape]) == {w.shape: True}


def test_witness_certificates():
    t1 = paper_catalog("thm_T1_fractional")
    t3 = paper_catalog("thm_T3_fractional")
    lam1, lam3 = Partition((2, 1, 1, 1, 1, 1)), Partition((2, 1, 1, 1, 1))
    assert multiplicity_nonzero_certificate(t1, "T1", [lam1]) == {lam1: True}
    assert multiplicity_nonzero_certificate(t3, "T3", [lam3]) == {lam3: True}


def test_witness_certificates_boundary():
    t1 = paper_catalog("thm_T1_fractional")
    t3 = paper_catalog("thm_T3_fractional")
    lam1, lam3 = Partition((2, 2, 2, 2, 2, 2, 1)), Partition((2, 2, 2, 2, 2, 1))
    assert multiplicity_nonzero_certificate(t1, "T1", [lam1]) == {lam1: True}
    assert multiplicity_nonzero_certificate(t3, "T3", [lam3]) == {lam3: True}


def test_witness_hypothesis_violated():
    t1 = paper_catalog("thm_T1_fractional")
    with pytest.raises(HypothesisViolated):
        build_witness("T1", Partition((2, 2, 2, 2, 2, 2, 2)), alg=t1)


# -- multiplicities ----------------------------------------------------------------------

def one_dim_unital():
    return GradedAlgebra(1, ("u",), {(0, 0): {0: Fraction(1)}}, (0,),
                         trivial_semigroup(), unit=(Fraction(1),))


def test_multiplicity_one_dim_algebra():
    alg = one_dim_unital()
    assert multiplicity_exact(alg, Partition((3,))) == 1
    assert multiplicity_exact(alg, Partition((1, 1))) == 0


def test_multiplicity_more_parts_than_dim():
    alg = one_dim_unital()
    assert multiplicity_exact(alg, Partition((1, 1, 1))) == 0


def test_multiplicities_need_shapes_of_one_degree():
    alg = one_dim_unital()
    assert multiplicities(alg, [Partition((2,)), Partition((1, 1))]) == \
        {Partition((2,)): 1, Partition((1, 1)): 0}
    for shapes in ([], [Partition((2,)), Partition((1,))], [Partition(())]):
        with pytest.raises(BadParam):
            multiplicities(alg, shapes)
    with pytest.raises(BadParam):
        multiplicity_exact(alg, Partition(()))


# exact c_1..c_5 of the three fractional algebras
CODIMENSIONS = {
    "thm_T1_fractional": (2, 8, 48, 359, 2746),
    "thm_T2_fractional": (2, 8, 48, 359, 2746),
    "thm_T3_fractional": (2, 8, 45, 305, 2136),
}


def test_multiplicity_cross_check_against_codim():
    # one multiplicities call per degree, then the per-shape path at n <= 4
    tables = {}
    for name, values in CODIMENSIONS.items():
        alg = paper_catalog(name)
        for n, c_n in enumerate(values, 1):
            table = multiplicities(alg, partitions_of(n))
            tables[name, n] = table
            total = sum(m * hook_dim(lam) for lam, m in table.items())
            assert total == graded_codim(alg, n, mode="exact").value == c_n, (name, n)
            if n <= 4:
                assert table == {lam: multiplicity_exact(alg, lam) for lam in table}, (name, n)
    for n in range(1, 6):
        assert tables["thm_T1_fractional", n] == tables["thm_T2_fractional", n], n


def test_certificate_implies_positive_multiplicity():
    t3 = paper_catalog("thm_T3_fractional")
    shapes = [lam for n in (1, 2, 3, 4) for lam in partitions_of(n)]
    for lam, certified in multiplicity_nonzero_certificate(t3, "T3", shapes).items():
        if certified:
            assert multiplicity_exact(t3, lam) >= 1, lam


def test_certificate_cross_check_degree_five_spot():
    # one degree-5 spot check of the same implication, at the default cap
    t3 = paper_catalog("thm_T3_fractional")
    lam = Partition((2, 2, 1))
    assert multiplicity_nonzero_certificate(t3, "T3", [lam]) == {lam: True}
    assert multiplicity_exact(t3, lam) >= 1


def test_multiplicity_degree_six_within_the_default_cap():
    # the engine's default block cap is the only bound on the degree; at
    # n = 6 a Littlewood-Richardson coefficient first reaches 2
    t3 = paper_catalog("thm_T3_fractional")
    assert multiplicity_exact(t3, Partition((3, 3))) == 117
    assert induction_coefficients((Partition((2, 1)),) * 2)[Partition((3, 2, 1))] == 2
    table = multiplicities(t3, partitions_of(6))
    assert table[Partition((3, 3))] == 117
    assert sum(m * hook_dim(lam) for lam, m in table.items()) == \
        graded_codim(t3, 6, mode="exact").value == 13624


def ut2_multiplicity(lam) -> int:
    """m_lambda of the ordinary cocharacter of UT_2 (V. Drensky, Free
    Algebras and PI-Algebras, 2000): 1 at (n), lambda_1 - lambda_2 + 1 at
    (lambda_1, lambda_2) and at (lambda_1, lambda_2, 1) with lambda_2 >= 1,
    and 0 at every other shape."""
    parts = lam.parts
    if len(parts) == 1:
        return 1
    if len(parts) == 2 or (len(parts) == 3 and parts[2] == 1):
        return parts[0] - parts[1] + 1
    return 0


def test_ut2_cocharacter_matches_its_closed_form():
    # the transcription on its own first: sum m * d = c_n(UT_2) up to n = 10
    for n in range(1, 11):
        assert sum(ut2_multiplicity(lam) * hook_dim(lam) for lam in partitions_of(n)) == \
            ut2_codim(n), n
    ut2 = with_trivial_grading(parse_catalog_spec("upper_triangular(2)"))
    for n in range(1, 7):
        assert multiplicities(ut2, partitions_of(n)) == \
            {lam: ut2_multiplicity(lam) for lam in partitions_of(n)}, n


def test_multiplicities_rank_each_live_slice_once(monkeypatch):
    # at n = 6 every slice of mk_column_graded(2) induces some shape: each
    # live slice is ranked once and no slice zero by dimension is ranked;
    # one shape ranks only the live slices whose coefficient it has
    alg = parse_catalog_spec("mk_column_graded(2)")
    live, every = live_slice_grams(alg, 6)
    assert sum(live.values()) < sum(every.values())
    ranked = count_exact_ranks(monkeypatch)
    table = multiplicities(alg, partitions_of(6))
    assert ranked == live
    assert sum(m * hook_dim(lam) for lam, m in table.items()) == 3180
    lam = Partition((3, 3))
    found, dims = catalog_slices(alg, 6)
    hit = Counter(canonical_rows(codim._dict_rows(codim._gram(rows)))
                  for rep, shapes, rows in found
                  if induction_coefficients(shapes).get(lam)
                  and all(len(mu) <= dims[t] for t, mu in zip(sorted(set(rep)), shapes)))
    ranked.clear()
    assert multiplicity_exact(alg, lam) == table[lam]
    assert ranked == hit and sum(hit.values()) < sum(live.values())


@pytest.mark.parametrize("spec, n_max", [("thm_T1_fractional", 5), ("thm_T3_fractional", 5),
                                         ("mk_column_graded(2)", 6)])
def test_one_shape_multiplicities_match_the_whole_table(spec, n_max):
    # a one-shape call combines and ranks only the slices its shape induces
    # from, and skips the blocks without one, and still gives the table's value
    alg = parse_catalog_spec(spec)
    for n in range(1, n_max + 1):
        table = multiplicities(alg, partitions_of(n))
        assert {lam: multiplicity_exact(alg, lam) for lam in partitions_of(n)} == table, n


def test_keep_confines_the_record_and_skips_blocks_without_a_live_slice(monkeypatch):
    # under keep the record is the exact record confined to the kept
    # slices; a representative none of whose kept slices is live (lambda_t
    # at most dim A_t rows) is not scattered and has None for its columns
    alg = paper_catalog("thm_T3_fractional")
    n = 5
    full = codim.slice_ranks(alg, n, "exact")
    dims = {t: len(alg.component_indices(t)) for t in alg.support()}
    scatter, scattered = codim._WordTable.scatter, []

    def counted_scatter(self, rep, *args):
        scattered.append(rep)
        return scatter(self, rep, *args)

    monkeypatch.setattr(codim._WordTable, "scatter", counted_scatter)
    skipped = 0
    for lam in partitions_of(n):
        def keep(shapes):
            return induction_coefficients(shapes).get(lam, 0) > 0

        want = {}
        for rep, (n_cols, slices) in full.items():
            kept = {shapes: found for shapes, found in slices.items() if keep(shapes)}
            live = any(all(len(mu) <= dims[t] for t, mu in zip(sorted(set(rep)), shapes))
                       for shapes in kept)
            want[rep] = (n_cols if live else None, kept)
        scattered.clear()
        assert codim.slice_ranks(alg, n, "exact", keep=keep) == want, lam
        assert scattered == [rep for rep, (n_cols, _) in want.items() if n_cols is not None]
        skipped += len(full) - len(scattered)
    assert skipped > 0


def test_induced_multiplicities_read_graded_codims_record():
    # graded_codim's exact record gives the same table as multiplicities
    t3 = paper_catalog("thm_T3_fractional")
    result = graded_codim(t3, 4, mode="exact")
    assert result.slices == codim.slice_ranks(t3, 4, "exact")
    assert induce_multiplicities(result.slices, partitions_of(4)) == \
        multiplicities(t3, partitions_of(4))


def test_positive_multiplicities_lie_in_the_support_region():
    from semigraded.asympt import multiplicity_support_polytope, omega_n_membership
    t1 = paper_catalog("thm_T1_fractional")
    support = multiplicity_support_polytope("T1")
    for n in (1, 2, 3):
        for lam in partitions_of(n):
            if multiplicity_exact(t1, lam) > 0:
                assert omega_n_membership(support, lam), lam


def _compose(outer, inner):
    """Variable map outer o inner on the union of their supports."""
    keys = set(outer) | set(inner)
    return {k: outer.get(inner.get(k, k), inner.get(k, k)) for k in keys}


def oracle_multiplicity(alg, lam):
    """The multiplicity as the rank of all n! * |support| ** n symmetrized
    rows, each summed over the symmetrizer as a dict keyed by
    (substitution, coordinate)."""
    n = lam.n
    support = alg.support()
    tableau = YoungTableau.column_major(lam)
    cache = product_cache(alg, n)
    comp = {t: alg.component_indices(t) for t in support}

    monomial_rows = {}

    def value_row(word, pos_degs):
        key = (word, pos_degs)
        if key in monomial_rows:
            return monomial_rows[key]
        # substitutions fixed by the variable degrees this decorated word forces
        var_deg = {}
        consistent = True
        for var, t in zip(word, pos_degs):
            if var_deg.setdefault(var, t) != t:
                consistent = False
                break
        row = {}
        if consistent:
            axes = [comp[var_deg[v]] for v in range(n)]
            for sub in product(*axes):
                v = cache.get(tuple(sub[k] for k in word))
                if v:
                    for coord, c in v.items():
                        row[(sub, coord)] = row.get((sub, coord), 0) + c
        monomial_rows[key] = row
        return row

    group = [(_compose(rho, sigma), sign)
             for rho in row_group(tableau)
             for sigma, sign in column_group_signed(tableau)]

    rows = []
    for perm in permutations(range(n)):
        for degs in product(support, repeat=n):
            # degs are attached to positions here; the group renames variables
            acc = {}
            for g, sign in group:
                word = tuple(g.get(v, v) for v in perm)
                for colkey, c in value_row(word, degs).items():
                    acc[colkey] = acc.get(colkey, 0) + sign * c
            rows.append({k: c for k, c in acc.items() if c != 0})

    col_index = {}
    sparse_rows = []
    for row in rows:
        out = {}
        for key, c in row.items():
            j = col_index.setdefault(key, len(col_index))
            out[j] = c
        sparse_rows.append(out)
    return block_rank(sparse_rows, len(col_index))


def exact_blocks(alg, n, assignments):
    """Yield (assignment, rows, n_cols): the exact evaluation block of each
    assignment (a degree per variable) in turn.  Row i is the monomial
    whose word is the i-th permutation of range(n) in lexicographic order,
    as a sparse dict column -> int or Fraction; the n_cols columns are the
    (substitution, coordinate) pairs that are nonzero in some row."""
    words = WordTable(alg, n)
    table = words.table(words.coefs, object)
    for a in assignments:
        layout = BlockLayout(words, a)
        yield a, codim._dict_rows(layout.matrix(table)), layout.n_cols


def spanning_row_multiplicity(alg, lam):
    """The multiplicity as the rank of the hook_dim(lam) * |support| ** n
    symmetrized rows of the spanning permutations.

    The row of a permutation pi and position degrees d is the evaluation,
    at degrees d, of e_T.pi, T column-major; the e_T.pi of
    spanning_permutations span the right ideal e_T.KS_n.  A word w with
    degrees d forces the degree a[w[k]] = d[k] on each variable, and its
    row is row w of the exact block of a; blocks of different assignments
    have disjoint columns, placed side by side.  Only the blocks of sorted
    assignments are built: if a[v] = rep[sigma(v)], row w of a's block is
    row sigma.w of rep's block with its columns in a fixed new order."""
    n = lam.n
    support = alg.support()
    where = {w: i for i, w in enumerate(permutations(range(n)))}
    degrees = list(product(support, repeat=n))
    reps = {rep: (block, width) for rep, block, width in
            exact_blocks(alg, n, dict.fromkeys(tuple(sorted(a)) for a in degrees))}
    # per assignment a: its representative's block, a's column offset, and
    # sigma with a[v] = rep[sigma(v)]
    blocks, n_cols = {}, 0
    for a in degrees:
        order = sorted(range(n), key=a.__getitem__)
        block, width = reps[tuple(a[v] for v in order)]
        blocks[a] = (block, n_cols, [order.index(v) for v in range(n)])
        n_cols += width
    group = symmetrizer(YoungTableau.column_major(lam))
    rows = []
    for pi in spanning_permutations(lam):
        # per word of e_T.pi: the word, the position of each variable in it,
        # and its sign
        terms = []
        for g, sign in group:
            w = tuple(g.get(v, v) for v in pi)
            terms.append((w, [w.index(v) for v in range(n)], sign))
        for d in degrees:
            acc = {}
            for w, pos, sign in terms:
                block, offset, sigma = blocks[tuple(d[k] for k in pos)]
                for j, c in block[where[tuple(sigma[v] for v in w)]].items():
                    acc[offset + j] = acc.get(offset + j, 0) + sign * c
            rows.append({j: c for j, c in acc.items() if c})
    return block_rank(rows, n_cols)


def test_multiplicity_matches_the_oracle_on_the_catalog():
    for alg in catalog_at_two():
        for n in (1, 2, 3):
            table = multiplicities(alg, partitions_of(n))
            for lam in partitions_of(n):
                assert table[lam] == multiplicity_exact(alg, lam) == \
                    oracle_multiplicity(alg, lam), (alg.name, lam)


@pytest.mark.parametrize("spec", [("thm_T1_fractional",), ("thm_T3_fractional",),
                                  ("exampleT2", 2)])
def test_multiplicity_matches_the_oracle_degree_four(spec):
    alg = paper_catalog(*spec)
    table = multiplicities(alg, partitions_of(4))
    for lam in partitions_of(4):
        assert table[lam] == multiplicity_exact(alg, lam) == oracle_multiplicity(alg, lam), lam


def test_multiplicity_matches_the_oracle_with_fraction_constants():
    alg = half_scaled(paper_catalog("mk_column_graded", 2))
    for n in (1, 2, 3):
        for lam in partitions_of(n):
            assert multiplicity_exact(alg, lam) == oracle_multiplicity(alg, lam), lam


def test_character_sum_degree_five_t3():
    t3 = paper_catalog("thm_T3_fractional")
    total = sum(multiplicity_exact(t3, lam) * hook_dim(lam) for lam in partitions_of(5))
    assert total == graded_codim(t3, 5, mode="exact").value == 2136


@pytest.mark.parametrize("parts", [(3, 2), (2, 1, 1, 1)])
def test_t1_t2_multiplicities_agree_degree_five(parts):
    lam = Partition(parts)
    assert multiplicity_exact(paper_catalog("thm_T1_fractional"), lam) == \
        multiplicity_exact(paper_catalog("thm_T2_fractional"), lam)


# exact multiplicities of every shape of 5, in the order of partitions_of(5)
DEGREE_FIVE = {
    "thm_T1_fractional": (30, 114, 126, 140, 105, 64, 9),
    "thm_T3_fractional": (27, 91, 98, 108, 81, 49, 6),
}


@pytest.mark.parametrize("name", sorted(DEGREE_FIVE))
def test_degree_five_table_matches_the_spanning_rows(name):
    alg = paper_catalog(name)
    table = tuple(multiplicities(alg, partitions_of(5)).values())
    assert table == DEGREE_FIVE[name]
    assert table == tuple(spanning_row_multiplicity(alg, lam) for lam in partitions_of(5))


# -- characters and induction ---------------------------------------------------------

def compositions(n):
    """The ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def multipartitions(n):
    """Every tuple of partitions (mu_t |- n_t) over every composition of n."""
    for composition in compositions(n):
        yield from product(*(list(partitions_of(k)) for k in composition))


def test_characters_are_orthonormal():
    for n in range(1, 7):
        shapes = list(partitions_of(n))
        for lam in shapes:
            assert _character(lam.parts, (1,) * n) == hook_dim(lam)
            for nu in shapes:
                inner = sum(Fraction(_character(lam.parts, rho.parts)
                                     * _character(nu.parts, rho.parts),
                                     _centralizer_order(rho.parts)) for rho in shapes)
                assert inner == (lam == nu), (lam, nu)


def test_induction_coefficients_have_the_induced_dimension():
    # dim Ind = [S_n : H] * prod_t d_{mu_t}
    for n in range(1, 7):
        for shapes in multipartitions(n):
            coefficients = induction_coefficients(shapes)
            index = math.factorial(n) // math.prod(math.factorial(mu.n) for mu in shapes)
            assert all(c > 0 for c in coefficients.values()), shapes
            assert sum(c * hook_dim(lam) for lam, c in coefficients.items()) == \
                index * math.prod(hook_dim(mu) for mu in shapes), shapes


def test_one_factor_induces_itself():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert dict(induction_coefficients((mu,))) == {mu: 1}


def test_induction_coefficients_ignore_the_order_of_the_factors():
    for n in range(2, 7):
        for shapes in multipartitions(n):
            for order in set(permutations(shapes)):
                assert dict(induction_coefficients(order)) == \
                    dict(induction_coefficients(shapes)), (shapes, order)


def test_pieri_rule():
    # c^lambda_{mu,(k)} is 1 when lambda / mu is a horizontal strip, else 0
    for n in range(2, 7):
        for k in range(1, n):
            for mu in partitions_of(n - k):
                coefficients = induction_coefficients((mu, Partition((k,))))
                for lam in partitions_of(n):
                    strip = all(lam.part(i) >= mu.part(i) >= lam.part(i + 1)
                                for i in range(1, n + 1))
                    assert coefficients.get(lam, 0) == strip, (lam, mu, k)


def test_spanning_permutations_count_is_the_hook_dimension():
    for n in range(1, 6):
        for lam in partitions_of(n):
            basis = spanning_permutations(lam)
            assert len(basis) == len(set(basis)) == hook_dim(lam), lam
            # e_T itself is nonzero, so the identity comes first
            assert basis[0] == tuple(range(n)), lam


def symmetrized_elements(lam, words):
    """Yield e_T.pi for each word pi, T column-major, as a dict (word of
    g o pi) -> coefficient."""
    group = symmetrizer(YoungTableau.column_major(lam))
    for pi in words:
        element = {}
        for g, sign in group:
            w = tuple(g.get(v, v) for v in pi)
            element[w] = element.get(w, 0) + sign
        yield element


def searched_spanning_permutations(lam):
    """The permutations pi, lexicographically first, whose e_T.pi raise the
    rank over Q: a basis of e_T.KS_n found by a search over all of S_n."""
    perms = list(permutations(range(lam.n)))
    echelon, basis = {}, []
    for pi, element in zip(perms, symmetrized_elements(lam, perms)):
        if eliminate(echelon, element):
            basis.append(pi)
            if len(basis) == hook_dim(lam):  # no later pi can raise the rank
                break
    return basis


def test_spanning_permutations_span_the_searched_ideal():
    # the standard-tableau words and the search give the same right ideal:
    # each set has rank d_lambda and so does their union
    for n in range(1, 7):
        for lam in partitions_of(n):
            words = spanning_permutations(lam)
            searched = searched_spanning_permutations(lam)
            d = hook_dim(lam)
            assert len(searched) == d, lam
            assert _rank_exact(symmetrized_elements(lam, words)) == d, lam
            assert _rank_exact(symmetrized_elements(lam, words + searched)) == d, lam


# -- alternation vanishing -----------------------------------------------------------------

def test_alternation_vanishing_on_catalog():
    t1 = paper_catalog("thm_T1_fractional")
    report = alternation_vanishing_check(t1, 8, trials=50, seed=3)
    assert report["ok"]
    t3 = paper_catalog("thm_T3_fractional")
    report = alternation_vanishing_check(t3, 7, trials=50, seed=3)
    assert report["ok"]


def test_alternation_draws_are_not_vacuous():
    # the check's own draws at h <= dim: the batched values of every trial
    # equal the dict programme's, and below h = dim, where 200 draws hold
    # no full set of distinct letters, some are nonzero
    for name in ("thm_T1_fractional", "thm_T3_fractional"):
        alg = paper_catalog(name)
        table = eval_table(alg)
        for h in range(2, alg.dim + 1):
            words, var_degrees, subs = _alternation_trials(alg, h, 200, 0)
            rows = subs.tolist()
            degrees = [[d[v] for v in word] for word, d in zip(words.tolist(), var_degrees.tolist())]
            values = by_degree(alg, rows, degrees)
            assert values == [dict_dp_alternating_value(alg, table, r, d)
                              for r, d in zip(rows, degrees)], (name, h)
            assert h == alg.dim or any(values), (name, h)


def test_alternation_check_values_at_seed_zero():
    # verify-paper's check: at n = dim + 1 and seed 0 every trial's
    # batched value equals the dict programme's, zero, and the check
    # reports no failure
    for name in ("thm_T1_fractional", "thm_T3_fractional"):
        alg = paper_catalog(name)
        n = alg.dim + 1
        words, var_degrees, subs = _alternation_trials(alg, n, 200, 0)
        rows = subs.tolist()
        degrees = [[d[v] for v in word] for word, d in zip(words.tolist(), var_degrees.tolist())]
        table = eval_table(alg)
        assert by_degree(alg, rows, degrees) == \
            [dict_dp_alternating_value(alg, table, r, d) for r, d in zip(rows, degrees)] == \
            [{}] * 200
        assert alternation_vanishing_check(alg, n, trials=200, seed=0) == \
            {"ok": True, "failures": [], "trials": 200}


def test_alternation_needs_more_variables_than_dim():
    t3 = paper_catalog("thm_T3_fractional")
    with pytest.raises(SizeMismatch):
        alternation_vanishing_check(t3, t3.dim)
