import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semigraded import codim
from semigraded.cochar import multiplicities, multiplicity_exact, partitions_of
from semigraded.codim import (
    CERT_EXACT,
    CERT_MODULAR_STABLE,
    CERT_MODULAR_UNSTABLE,
    DEFAULT_BLOCK_CAP,
    PRIME_BANK,
    _block_primes,
    _rank_exact,
    _rank_mod_p,
    codim_sequence,
    exponent_estimate,
    graded_codim,
    ordinary_codim,
)
from semigraded.errors import (
    BadParam,
    EmptySequence,
    HypothesisViolated,
    ResourceLimit,
)
from semigraded.gralgebra import (
    GradedAlgebra,
    full_matrix,
    ideal_generated,
    merge_entries,
    opposite,
    paper_catalog,
    parse_catalog_spec,
    quotient_algebra,
)
from semigraded.linalg import ZERO, is_prime, matrix_rank
from semigraded.semigroup import catalog_semigroup, trivial_semigroup
from semigraded.young import YoungTableau, hook_dim, spanning_permutations, young_subgroup
from algebra_fixtures import adjoin_unit, catalog_names, direct_sum
from fraction_oracles import multiply
from product_oracles import eval_table, product_cache
from scatter_oracle import MaskedWordTable
from young_oracles import direct_product, symmetrizer


# -- oracle: dense evaluation of one monomial, independent of the product cache --

class DegreeMismatch(ValueError):
    """A substitution's basis element lies outside its variable's degree."""


@dataclass(frozen=True)
class GradedMonomial:
    """A multilinear graded monomial of length n.

    word[k] is the variable (0-based) in position k; var_degrees[i] is
    the semigroup element index carried by variable i.  The spanning
    monomial for a permutation and an assignment attaches degrees to
    variable indices; position k then carries var_degrees[word[k]].
    """

    n: int
    word: tuple
    var_degrees: tuple

    @classmethod
    def from_permutation(cls, perm, var_degrees):
        n = len(perm)
        return cls(n, tuple(perm), tuple(var_degrees))

    def position_degrees(self):
        return tuple(self.var_degrees[v] for v in self.word)


def evaluate_monomial(alg: GradedAlgebra, m: GradedMonomial, subst, strict: bool = True):
    """Value of the monomial on basis elements subst[i] for variable i.

    With strict=True a substitution of the wrong degree is an error; with
    strict=False the component projections simply kill it, which is the
    behaviour the block-diagonality property asserts.
    """
    for i, b in enumerate(subst):
        if alg.degree[b] != m.var_degrees[i]:
            if strict:
                raise DegreeMismatch(
                    f"variable {i} expects degree index {m.var_degrees[i]}, "
                    f"basis element {alg.basis_labels[b]} has {alg.degree[b]}")
            return (ZERO,) * alg.dim
    out = None
    for k in m.word:
        b = alg.basis_vector(subst[k])
        out = b if out is None else multiply(alg, out, b)
    return out


# -- oracle: every degree assignment assembled on its own, as dict rows --

def _residue(v, p: int) -> int:
    """An int or Fraction reduced mod p."""
    return v % p if isinstance(v, int) else v.numerator * pow(v.denominator, -1, p) % p


def block_rank(rows, ncols: int, p=None) -> int:
    """Rank of sparse rows (dicts col -> value, col < ncols): over Q when p
    is None, else over GF(p) after a dense reduction of every entry."""
    if p is None:
        return _rank_exact(rows)
    mat = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            mat[i, j] = _residue(v, p)
    return _rank_mod_p(mat, (p,))[0]


def oracle_block(alg: GradedAlgebra, cache, assignment, p=None):
    """(n_cols, rank) of one assignment's block: one row per permutation,
    one column per (substitution, coordinate) with a nonzero entry; the
    rank over Q, or over GF(p) when p is given."""
    n = len(assignment)
    substs = list(product(*(alg.component_indices(t) for t in assignment)))
    col_index = {}
    rows = []
    for perm in permutations(range(n)):
        row = {}
        for s_idx, sub in enumerate(substs):
            # a key absent from the cache had a zero prefix product
            for coord, c in (cache.get(tuple(sub[k] for k in perm)) or {}).items():
                row[col_index.setdefault((s_idx, coord), len(col_index))] = c
        rows.append(row)
    return len(col_index), block_rank(rows, len(col_index), p)


def oracle_blocks(alg: GradedAlgebra, n: int, mode: str, seed: int = 0):
    """{assignment: (n_cols, rank, certification)} with per-assignment
    primes, as graded_codim computed them before orbit reduction."""
    cache = product_cache(alg, n)
    out = {}
    for assignment in product(alg.support(), repeat=n):
        if mode == "exact":
            out[assignment] = oracle_block(alg, cache, assignment) + (CERT_EXACT,)
            continue
        ranks = [oracle_block(alg, cache, assignment, p)
                 for p in _block_primes(seed, assignment)]
        cert = CERT_MODULAR_STABLE if len(set(ranks)) == 1 else CERT_MODULAR_UNSTABLE
        out[assignment] = (ranks[0][0], max(r for _, r in ranks), cert)
    return out


def one_dim_unital():
    return GradedAlgebra(1, ("u",), {(0, 0): {0: Fraction(1)}}, (0,),
                         trivial_semigroup(), unit=(Fraction(1),))


def rank_fraction(rows):
    """Tiny independent Gaussian elimination used as the c_2(M_2) oracle."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_evaluate_single_variable():
    m2 = full_matrix(2)
    m = GradedMonomial.from_permutation((0,), (0,))
    for b in range(4):
        assert evaluate_monomial(m2, m, (b,)) == m2.basis_vector(b)


def test_evaluate_matrix_units():
    m2 = full_matrix(2)
    x1x2 = GradedMonomial.from_permutation((0, 1), (0, 0))
    x2x1 = GradedMonomial.from_permutation((1, 0), (0, 0))
    e11, e22 = 0, 3
    e12, e21 = 1, 2
    zero = (Fraction(0),) * 4
    assert evaluate_monomial(m2, x1x2, (e11, e22)) == zero
    assert evaluate_monomial(m2, x2x1, (e11, e22)) == zero
    assert evaluate_monomial(m2, x1x2, (e12, e21)) == m2.basis_vector(e11)


def test_degree_mismatch_strict_vs_projection():
    alg = paper_catalog("mk_zhalf_graded")
    m = GradedMonomial.from_permutation((0,), (1,))  # expects the odd part
    diag = 0  # e11 sits in degree zero
    with pytest.raises(DegreeMismatch):
        evaluate_monomial(alg, m, (diag,))
    assert evaluate_monomial(alg, m, (diag,), strict=False) == (Fraction(0),) * 4


def test_graded_commutator_identity_on_zhalf():
    # x y - y x vanishes for both variables in the diagonal part
    alg = paper_catalog("mk_zhalf_graded")
    xy = GradedMonomial.from_permutation((0, 1), (0, 0))
    yx = GradedMonomial.from_permutation((1, 0), (0, 0))
    diag = [i for i in range(4) if alg.degree[i] == 0]
    for a in diag:
        for b in diag:
            v1 = evaluate_monomial(alg, xy, (a, b))
            v2 = evaluate_monomial(alg, yx, (a, b))
            assert v1 == v2


def test_block_diagonality():
    alg = paper_catalog("thm_T1_fractional")
    m = GradedMonomial.from_permutation((0, 1), (0, 1))
    # substitute elements of the swapped degrees: projections kill the value
    sub = (alg.component_indices(1)[0], alg.component_indices(0)[0])
    assert evaluate_monomial(alg, m, sub, strict=False) == (Fraction(0),) * alg.dim


def test_c2_m2_against_independent_oracle():
    # evaluate x1 x2 and x2 x1 on all 16 substitution pairs by plain
    # matrix-unit arithmetic, stack into a 2-row matrix, take the rank
    units = {0: (1, 1), 1: (1, 2), 2: (2, 1), 3: (2, 2)}

    def mul(a, b):
        (i, j), (k, l) = units[a], units[b]
        if j != k:
            return None
        return next(m for m, pos in units.items() if pos == (i, l))

    cols = []
    row_xy, row_yx = [], []
    for a in range(4):
        for b in range(4):
            for coord in range(4):
                cols.append((a, b, coord))
                row_xy.append(1 if mul(a, b) == coord else 0)
                row_yx.append(1 if mul(b, a) == coord else 0)
    oracle = rank_fraction([row_xy, row_yx])
    assert oracle == 2
    assert ordinary_codim(full_matrix(2), 2, mode="exact").value == oracle


def test_c1_values():
    for k in (2, 3):
        assert graded_codim(paper_catalog("mk_column_graded", k), 1, mode="exact").value == k
        assert ordinary_codim(full_matrix(k), 1, mode="exact").value == 1


def test_c4_m2_against_independent_dense_oracle():
    # plain 2x2 integer matrices and a from-scratch dense elimination;
    # the lone degree-4 multilinear identity is the full alternation, so
    # the value must land exactly one below 4!
    units = [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]

    def mat_mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                           for j in range(2)) for i in range(2))

    def rank_mod(rows, p):
        rows = [list(r) for r in rows]
        m, ncols = len(rows), len(rows[0])
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, m) if rows[i][c] % p), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], -1, p)
            rows[r] = [(x * inv) % p for x in rows[r]]
            for i in range(m):
                if i != r and rows[i][c] % p:
                    f = rows[i][c]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
            r += 1
            if r == m:
                break
        return r

    from itertools import permutations as perms
    n = 4
    subs = list(product(range(4), repeat=n))
    rows = []
    for perm in perms(range(n)):
        row = []
        for sub in subs:
            acc = units[sub[perm[0]]]
            for k in perm[1:]:
                acc = mat_mul(acc, units[sub[k]])
            row.extend([acc[0][0], acc[0][1], acc[1][0], acc[1][1]])
        rows.append(row)
    oracle = rank_mod(rows, 10007)
    assert oracle == rank_mod(rows, 101) == 23
    assert ordinary_codim(full_matrix(2), n).value == oracle


def test_one_dim_unital_constant_sequence():
    alg = one_dim_unital()
    values = [graded_codim(alg, n, mode="exact").value for n in range(1, 6)]
    assert values == [1, 1, 1, 1, 1]


def test_nilpotent_sequence_hits_zero():
    # two-step nilpotent: z^2 = 0
    alg = GradedAlgebra(1, ("z",), {}, (0,), trivial_semigroup())
    values = [graded_codim(alg, n, mode="exact").value for n in range(1, 4)]
    assert values == [1, 0, 0]


def test_modular_agrees_with_exact_small_blocks():
    alg = paper_catalog("thm_T1_fractional")
    for n in (1, 2, 3):
        exact = graded_codim(alg, n, mode="exact")
        modular = graded_codim(alg, n)
        assert modular.value == exact.value
        assert modular.certification == CERT_MODULAR_STABLE
        assert exact.certification == CERT_EXACT
        # per-block comparison: modular rank is never above the exact rank
        exact_blocks = {b.assignment: b.rank for b in exact.blocks}
        for b in modular.blocks:
            assert b.rank <= exact_blocks[b.assignment]
            assert b.rank == exact_blocks[b.assignment]


def test_unital_codim_at_least_one():
    alg = paper_catalog("mk_column_graded", 2)
    for n in (1, 2, 3):
        assert graded_codim(alg, n).value >= 1


def test_upper_bound_by_block_shape():
    import math
    alg = paper_catalog("thm_T3_fractional")
    for n in (1, 2, 3):
        res = graded_codim(alg, n, mode="exact")
        bound = 0
        for assignment in product(alg.support(), repeat=n):
            cols = alg.dim
            for t in assignment:
                cols *= len(alg.component_indices(t))
            bound += min(math.factorial(n), cols)
        assert res.value <= bound


def test_resource_limit():
    alg = paper_catalog("thm_T1_fractional")
    with pytest.raises(ResourceLimit):
        graded_codim(alg, 4, max_block_entries=10)


def test_sequence_and_determinism():
    alg = paper_catalog("thm_T3_fractional")
    seq1 = codim_sequence(alg, 3, seed=7)
    seq2 = codim_sequence(alg, 3, seed=7)
    assert [r.value for r in seq1] == [r.value for r in seq2]
    assert all(r.seconds >= 0 for r in seq1)


def test_t1_t2_termwise_equality():
    t1 = paper_catalog("thm_T1_fractional")
    t2 = paper_catalog("thm_T2_fractional")
    for n in (1, 2, 3):
        assert graded_codim(t1, n, mode="exact").value == \
            graded_codim(t2, n, mode="exact").value


@pytest.mark.parametrize("spec", [("thm_T1_fractional",), ("thm_T3_fractional",),
                                  ("exampleT2", 2)], ids=lambda spec: spec[0])
def test_opposite_preserves_the_sequence(spec):
    # reversing products and transposing the grading semigroup reverses
    # every monomial, a bijection on the spanning set, so the sequence of
    # the mirrored algebra matches termwise; the trivial grading is coarser,
    # so the ordinary codimension never exceeds the graded one
    alg = paper_catalog(*spec)
    for side in (alg, opposite(alg)):
        for n in (1, 2, 3, 4, 5):
            graded = graded_codim(side, n, mode="exact").value
            assert graded == graded_codim(alg, n, mode="exact").value
            assert ordinary_codim(side, n, mode="exact").value <= graded


def test_exponent_estimate():
    est = exponent_estimate([1, 1, 1, 1])
    assert est["roots"] == [1.0, 1.0, 1.0, 1.0]
    assert abs(est["slope"]) < 1e-12
    import math
    est = exponent_estimate([3 ** n for n in range(1, 6)])
    assert all(abs(r - 3.0) < 1e-9 for r in est["roots"])
    assert abs(est["slope"] - math.log(3)) < 1e-9
    with pytest.raises(EmptySequence):
        exponent_estimate([])
    with pytest.raises(EmptySequence):
        exponent_estimate([1, 0])


@pytest.mark.parametrize("alg", [
    paper_catalog("thm_T1_fractional"),
    paper_catalog("thm_T3_fractional"),
    adjoin_unit(full_matrix(2)),
], ids=lambda a: a.name)
def test_product_cache_matches_the_oracle(alg):
    cache = product_cache(alg, 4)
    for n in range(1, 5):
        for key in product(range(alg.dim), repeat=n):
            m = GradedMonomial.from_permutation(tuple(range(n)), tuple(alg.degree[b] for b in key))
            expected = evaluate_monomial(alg, m, key)
            if key in cache:
                dense = [ZERO] * alg.dim
                for k, c in cache[key].items():
                    dense[k] = c
                assert tuple(dense) == expected, key
            else:
                # left out only because a proper prefix multiplies to zero
                assert any(key[:j] in cache and not cache[key[:j]] for j in range(1, n)), key
                assert not any(expected), key


def divided_basis(alg, k: int):
    """alg on the basis e_i / k: every structure constant is divided by k,
    the degree map is unchanged and the unit coordinates are multiplied by k."""
    return GradedAlgebra(
        alg.dim, alg.basis_labels,
        {key: {i: Fraction(c) / k for i, c in cell.items()} for key, cell in alg.structure.items()},
        alg.degree, alg.semigroup,
        unit=None if alg.unit is None else tuple(k * c for c in alg.unit),
        name=f"{alg.name}/{k}")


def half_scaled(alg):
    """alg on the basis e_i / 2: every structure constant is halved."""
    return divided_basis(alg, 2)


def test_non_integral_structure_constants():
    base = paper_catalog("mk_column_graded", 2)
    alg = half_scaled(base)
    assert not any(isinstance(c, int) for cell in eval_table(alg).values() for _, c in cell)
    assert {c for cell in alg.structure.values() for c in cell.values()} == {Fraction(1, 2)}
    for mode in ("modular", "exact"):
        scaled = codim_sequence(alg, 4, mode=mode)
        plain = codim_sequence(base, 4, mode=mode)
        assert [r.value for r in scaled] == [2, 8, 42, 192]
        assert [r.certification for r in scaled] == [r.certification for r in plain]
        assert [[b.certification for b in r.blocks] for r in scaled] == \
            [[b.certification for b in r.blocks] for r in plain]
    for lam in partitions_of(3):
        assert multiplicity_exact(alg, lam) == multiplicity_exact(base, lam)


def scaled_products(base, c: int):
    """base with every product multiplied by c: x * y = c xy, the unit
    divided by c; words of length n carry c ** (n - 1)."""
    return GradedAlgebra(
        base.dim, base.basis_labels,
        {key: {k: v * c for k, v in cell.items()} for key, cell in base.structure.items()},
        base.degree, base.semigroup,
        unit=None if base.unit is None else tuple(Fraction(u) / c for u in base.unit),
        name=f"{base.name}*{c}")


def test_huge_structure_constants_take_the_object_product():
    # x * y = 2 ** 61 xy: words of length n carry 2 ** (61 (n - 1)), past
    # the int64 range of the exact product from n = 2 on
    alg = scaled_products(paper_catalog("mk_column_graded", 2), 2 ** 61)
    for mode in ("modular", "exact"):
        assert [r.value for r in codim_sequence(alg, 4, mode=mode)] == [2, 8, 42, 192]


def test_large_structure_constants_take_the_float64_product():
    # x * y = 2 ** 10 xy: n! * 2 ** (10 (n - 1)) passes 2 ** 24 at n = 4
    alg = scaled_products(paper_catalog("mk_column_graded", 2), 2 ** 10)
    assert [codim._WordTable(alg, n, DEFAULT_BLOCK_CAP).values.dtype for n in (3, 4)] == \
        [np.float32, np.float64]
    for mode in ("modular", "exact"):
        assert [r.value for r in codim_sequence(alg, 4, mode=mode)] == [2, 8, 42, 192]


_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.dictionaries(st.integers(0, ncols - 1), _rational, max_size=ncols),
    max_size=6).map(lambda rows: (ncols, rows))))
def test_rank_exact_matches_dense_rank(case):
    ncols, rows = case
    dense = [tuple(row.get(c, ZERO) for c in range(ncols)) for row in rows]
    # integral entries go in as plain ints, the rest as Fractions
    mixed = [{c: int(v) if v.denominator == 1 else v for c, v in row.items()} for row in rows]
    assert _rank_exact(mixed) == matrix_rank(dense)


def test_over_cap_request_fails_before_the_product_cache(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("product cache built before the block cap was checked")

    for name in ("_product_cache", "_word_products"):
        monkeypatch.setattr(codim, name, unreachable)
    with pytest.raises(ResourceLimit):
        graded_codim(adjoin_unit(full_matrix(3)), 7, max_block_entries=10)


def test_product_cache_is_capped():
    alg = adjoin_unit(full_matrix(3))
    with pytest.raises(ResourceLimit):
        product_cache(alg, 7, max_entries=1000)
    size = len(product_cache(alg, 3))
    assert product_cache(alg, 3, max_entries=size) == product_cache(alg, 3)
    with pytest.raises(ResourceLimit):
        product_cache(alg, 3, max_entries=size - 1)


_FIXED = ("thm_T1_fractional", "thm_T2_fractional", "thm_T3_fractional", "mk_zhalf_graded")


@lru_cache(maxsize=None)
def catalog_at_two():
    """Every catalog algebra, those with a size parameter at 2."""
    return tuple(paper_catalog(name, *(() if name in _FIXED else (2,)))
                 for name in catalog_names())


@lru_cache(maxsize=None)
def cached_products(i: int, n: int):
    return product_cache(catalog_at_two()[i], n)


def oracle_word_products(alg, n: int):
    """(words, products) from the depth-first product_cache: the length-n
    words of nonzero product in its order and their products as dense
    integer rows, scaled by the lcm of their denominators."""
    cache = product_cache(alg, n)
    words = [key for key, value in cache.items() if len(key) == n and value]
    scale = math.lcm(*(Fraction(c).denominator for w in words for c in cache[w].values()))
    return words, [[int(cache[w].get(k, 0) * scale) for k in range(alg.dim)] for w in words]


def assert_word_products_match_the_oracle(alg, n: int):
    """The words of _word_products and its entries, in (word, coordinate)
    order, against the oracle; returns the values."""
    words, at, coord, values = codim._word_products(alg, n)
    want_words, want_products = oracle_word_products(alg, n)
    assert words.tolist() == [list(w) for w in want_words]
    assert list(zip(at.tolist(), coord.tolist(), values.tolist())) == \
        [(w, k, v) for w, row in enumerate(want_products) for k, v in enumerate(row) if v]
    return values


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_word_products_match_the_product_cache(data):
    # integral constants, fractional ones (a divided basis) and huge ones,
    # whose products pass the int64 range from n = 3 on
    alg = data.draw(st.sampled_from(catalog_at_two()), label="algebra")
    kind = data.draw(st.sampled_from(["plain", "divided", "huge"]), label="kind")
    if kind == "divided":
        alg = divided_basis(alg, data.draw(st.sampled_from([2, 3, 6]), label="divisor"))
    elif kind == "huge":
        alg = scaled_products(alg, 2 ** 61)
    n = data.draw(st.integers(1, 5), label="n")
    values = assert_word_products_match_the_oracle(alg, n)
    if kind != "huge" or n > 2:
        assert values.dtype == (object if kind == "huge" else np.int64)


def cyclic_group_algebra(k: int):
    """Q[Z_k], trivially graded: every word has a nonzero product."""
    return GradedAlgebra(k, tuple(f"g{i}" for i in range(k)),
                         {(i, j): {(i + j) % k: Fraction(1)} for i in range(k) for j in range(k)},
                         (0,) * k, trivial_semigroup(),
                         unit=(Fraction(1),) + (Fraction(0),) * (k - 1), name=f"Q[Z_{k}]")


def test_word_products_are_capped_before_the_level_is_formed():
    # the cap counts the words formed, as the depth-first product_cache
    # counts its entries
    alg = adjoin_unit(full_matrix(3))
    size = len(product_cache(alg, 3))
    assert len(codim._word_products(alg, 3, max_entries=size)[0]) == \
        len(oracle_word_products(alg, 3)[0])
    with pytest.raises(ResourceLimit, match="product cache for n = 3"):
        codim._word_products(alg, 3, max_entries=size - 1)
    # Q[Z_12] forms 12 ** m words of length m, each of one entry; level 5
    # (about 41 MB traced when formed) is refused before its 12 ** 5 joined
    # entries are allocated
    alg, n = cyclic_group_algebra(12), 5
    size = sum(12 ** m for m in range(1, n + 1))
    assert len(codim._word_products(alg, n, max_entries=size)[0]) == 12 ** n
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="product cache for n = 5"):
            codim._word_products(alg, n, max_entries=size - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 ** n * 8 * 4


@pytest.mark.parametrize("alg", catalog_at_two() + (
    divided_basis(paper_catalog("thm_T1_fractional"), 2),), ids=lambda a: a.name)
def test_product_cache_is_a_view_of_the_word_products(alg):
    # the nonzero words of the depth-first oracle in its order, each with
    # the oracle's support and values scaled by the lcm of the denominators
    # at its length (a power of 2 on the divided basis); refused below the
    # oracle's entry count, as _word_products counts the words formed
    by_length = {m: oracle_word_products(alg, m) for m in range(1, 5)}
    for n in range(1, 5):
        oracle = product_cache(alg, n)
        view = codim._product_cache(alg, n)
        assert list(view) == [w for w, value in oracle.items() if value]
        assert view == {w: {k: v for k, v in enumerate(row) if v}
                        for m in range(1, n + 1) for w, row in zip(*by_length[m])}
        assert codim._product_cache(alg, n, max_entries=len(oracle)) == view
        with pytest.raises(ResourceLimit, match=f"product cache for n = {n}"):
            codim._product_cache(alg, n, max_entries=len(oracle) - 1)


def test_product_cache_forms_each_level_once(monkeypatch):
    # one pass through the lengths: n - 1 merged levels, where a fresh
    # _word_products per length merged n (n - 1) / 2
    merged = []

    def merge(*args):
        merged.append(len(args[0]))
        return merge_entries(*args)

    monkeypatch.setattr(codim, "merge_entries", merge)
    codim._product_cache(paper_catalog("thm_T1_fractional"), 4)
    assert len(merged) == 3


@pytest.mark.parametrize("name, n, kw, refused", [
    ("thm_T3_fractional", 8, {}, ResourceLimit),
    ("thm_T1_fractional", 3, {"max_block_entries": 10}, ResourceLimit),
    ("thm_T1_fractional", 3, {"primes": [1073741789, 2]}, BadParam),
    ("thm_T1_fractional", 0, {}, BadParam),
    ("thm_T1_fractional", -2, {}, BadParam),
], ids=["degree-eight", "block-cap", "small-prime", "empty", "negative"])
def test_codim_sequence_refuses_before_computing_any(monkeypatch, name, n, kw, refused):
    # every n <= n_max passes check_request, with the sequence's own
    # primes and cap, before any c_n is computed
    def unreachable(*args, **kwargs):
        raise AssertionError("a word product ran")

    monkeypatch.setattr(codim, "_word_products", unreachable)
    with pytest.raises(refused):
        codim_sequence(paper_catalog(name), n, **kw)


def test_word_products_are_capped_by_the_joined_entries():
    # e_i e_j = e_0 + e_1: every word past one letter is nonzero with two
    # entries of 2 ** (n - 2), each joining the 4 constants of its
    # coordinate, so the last level joins 2 ** (n - 1) * 2 * 4 entries,
    # more than the words formed up to it
    ones = GradedAlgebra(2, ("a", "b"),
                         {(i, j): {0: Fraction(1), 1: Fraction(1)} for i in range(2) for j in range(2)},
                         (0, 0), trivial_semigroup(), name="ones")
    n = 4
    joined = 2 ** (n - 1) * 2 * 4
    assert joined > sum(2 ** m for m in range(1, n + 1))
    words, at, coord, values = codim._word_products(ones, n, max_entries=joined)
    assert words.tolist() == [list(w) for w in product(range(2), repeat=n)]
    assert values.tolist() == [2 ** (n - 2)] * 2 ** (n + 1)
    with pytest.raises(ResourceLimit, match="product cache for n = 4"):
        codim._word_products(ones, n, max_entries=joined - 1)


def test_word_products_of_a_large_sparse_algebra_stay_sparse():
    # M_14 (dimension 196, e_ab at index 14 a + b from 0): of the words of
    # length 3 the 14 ** 4 chains e_ab e_bc e_cd are nonzero, each with the
    # single entry e_ad; dense products would take 196 entries a word (60 MB)
    k = 14
    tracemalloc.start()
    try:
        words, at, coord, values = codim._word_products(full_matrix(k), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k ** 4 * k * k
    chains = list(product(range(k), repeat=4))
    assert words.tolist() == [[k * a + b, k * b + c, k * c + d] for a, b, c, d in chains]
    assert at.tolist() == list(range(len(chains)))
    assert coord.tolist() == [k * a + d for a, b, c, d in chains]
    assert values.tolist() == [1] * len(chains)
    # against the oracle on a smaller matrix algebra, one level further
    assert_word_products_match_the_oracle(full_matrix(4), 4)


def test_word_products_drop_entries_that_cancel():
    # Q[Z_2] on the basis a = 1 + g, b = g: b b = a - b, so in b b b the
    # coefficients of a from a b = a and -b b = -a + b cancel
    alg = GradedAlgebra(2, ("a", "b"),
                        {(0, 0): {0: Fraction(2)}, (0, 1): {0: Fraction(1)},
                         (1, 0): {0: Fraction(1)}, (1, 1): {0: Fraction(1), 1: Fraction(-1)}},
                        (0, 0), trivial_semigroup(), name="Q[Z_2] on 1 + g, g")
    for n in range(1, 6):
        assert_word_products_match_the_oracle(alg, n)
    words, at, coord, values = codim._word_products(alg, 3)
    assert coord[at == words.tolist().index([1, 1, 1])].tolist() == [1]


def engine_blocks(alg, n, mode):
    return {b.assignment: (b.n_cols, b.rank, b.certification)
            for b in graded_codim(alg, n, mode=mode).blocks}


@pytest.mark.parametrize("mode", ["modular", "exact"])
def test_engine_matches_the_oracle_on_the_catalog(mode):
    for alg in catalog_at_two():
        for n in (1, 2, 3, 4):
            assert engine_blocks(alg, n, mode) == oracle_blocks(alg, n, mode), (alg.name, n)


def test_engine_matches_the_oracle_t3_exact_degree_five():
    alg = paper_catalog("thm_T3_fractional")
    assert engine_blocks(alg, 5, "exact") == oracle_blocks(alg, 5, "exact")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_rank_is_invariant_under_relabelling_variables(data):
    # orbit reduction ranks one block per multiset of degrees: renaming the
    # variables by sigma permutes the rows and columns of the block
    i = data.draw(st.integers(0, len(catalog_at_two()) - 1), label="algebra")
    alg = catalog_at_two()[i]
    n = data.draw(st.integers(1, 4), label="n")
    a = tuple(data.draw(st.lists(st.sampled_from(alg.support()), min_size=n, max_size=n),
                        label="assignment"))
    sigma = data.draw(st.permutations(range(n)), label="sigma")
    cache = cached_products(i, n)
    assert oracle_block(alg, cache, a) == \
        oracle_block(alg, cache, tuple(a[s] for s in sigma))


# -- oracle: lexicographic ranks of permutations by their Lehmer codes --

def lehmer_lex_ranks(perms):
    """The rank of each permutation of range(n) along the last axis of
    perms among them all in lexicographic order, by its Lehmer code."""
    n = perms.shape[-1]
    ranks = np.zeros(perms.shape[:-1], dtype=np.int64)
    for j in range(n - 1):
        ranks += math.factorial(n - 1 - j) * (perms[..., j + 1:] < perms[..., j, None]).sum(-1)
    return ranks


@pytest.mark.parametrize("n", range(1, 7))
def test_young_factor_matches_the_lehmer_code(n):
    # row h of F_lambda holds sign(x) at the lexicographic rank of x o h,
    # for every term x of the symmetrizer of the column-major tableau
    perms = np.array(list(permutations(range(n))), dtype=np.int8).reshape(-1, n)
    assert lehmer_lex_ranks(perms).tolist() == list(range(math.factorial(n)))
    for lam in partitions_of(n):
        spanning = spanning_permutations(lam)
        want = np.zeros((len(spanning), math.factorial(n)), dtype=np.int8)
        for r, h in enumerate(spanning):
            for g, sign in symmetrizer(YoungTableau.column_major(lam)):
                want[r, lehmer_lex_ranks(np.array([g[v] for v in h]))] = sign
        factor = codim._young_factor(lam)
        assert factor.shape == (hook_dim(lam), math.factorial(n))
        assert (factor == want).all() and not factor.flags.writeable


# -- oracle: the n!-wide isotypic basis E, as the engine combined a block
#    before it combined each coset of the Young subgroup by one factor --

def dict_symmetrizer_words(lam):
    """(terms, signs, spanning): each term of the symmetrizer of lam's
    column-major tableau as a word, its sign, and the spanning words."""
    maps, signs = zip(*symmetrizer(YoungTableau.column_major(lam)))
    terms = np.array([[g[v] for v in range(lam.n)] for g in maps], dtype=np.int64)
    return terms, np.array(signs), np.array(spanning_permutations(lam), dtype=np.int64)


def multipartitions(composition) -> tuple:
    """Every multipartition (lambda_t |- n_t) of a composition (n_t), in the
    order in which the engine lists its slices."""
    return tuple(product(*map(partitions_of, composition)))


@lru_cache(maxsize=None)
def dense_isotypic_basis(composition) -> list:
    """(shapes, E) per multipartition: the rows e_<lambda>.h.g over the n!
    words in lexicographic order, g one word per right coset of the Young
    subgroup, placing each degree's variables in increasing order."""
    n = sum(composition)
    labels = [t for t, k in enumerate(composition) for _ in range(k)]
    arrangements = np.array(sorted(set(permutations(labels))), dtype=np.int64)
    cosets = np.argsort(np.argsort(arrangements, axis=1, kind="stable"), axis=1)
    out = []
    for shapes in multipartitions(composition):
        factors = [dict_symmetrizer_words(lam) for lam in shapes]
        x = direct_product(terms for terms, _, _ in factors)
        signs = reduce(np.multiply.outer, [s for _, s, _ in factors]).ravel()
        h = direct_product(words for _, _, words in factors)
        # row (g, h) holds sign(x) at the word x o h o g, for every term x of e
        hg = h[:, cosets].transpose(1, 0, 2).reshape(-1, n)
        rows = np.zeros((len(hg), math.factorial(n)), dtype=np.int64)
        rows[np.arange(len(hg)), lehmer_lex_ranks(x[:, hg])] = signs[:, None]
        out.append((shapes, rows))
    return out


def exact_rank(mat) -> int:
    return _rank_exact(codim._dict_rows(codim._gram(mat)))


def dense_slices(words, rep) -> dict:
    """{shapes: (n_cols, exact rank)} of rep's gathered block, scaled to
    integers, combined by dense_isotypic_basis."""
    layout = BlockLayout(words, rep)
    scale = math.lcm(*(Fraction(c).denominator for c in words.coefs))
    block = layout.matrix(words.table([int(c * scale) for c in words.coefs], np.int64))
    return {shapes: (layout.n_cols, exact_rank(basis @ block))
            for shapes, basis in dense_isotypic_basis(codim._composition(rep))}


def every_slice(alg, n: int) -> dict:
    """isotypic_slices' chosen argument that combines every slice."""
    return {rep: multipartitions(codim._composition(rep))
            for rep in codim.check_request(alg, n)[1]}


def per_coset_slices(alg, n: int) -> dict:
    """{(rep, shapes): (n_cols, exact rank)} of the engine's slices."""
    return {(rep, shapes): (n_cols, exact_rank(rows))
            for rep, n_cols, slices in codim.isotypic_slices(alg, n, every_slice(alg, n))
            for shapes, _, rows in slices}


_DENSE_AT_SIX = ("full_matrix(2)", "mk_column_graded(2)", "mk_zhalf_graded", "thm_T3_fractional",
                 "upper_triangular(2)", "utk_column_graded(2)")


@pytest.mark.parametrize("n", range(1, 7))
def test_per_coset_slices_match_the_dense_basis(n):
    # every slice combined per coset by F has the exact rank and the columns
    # of the block combined by E: the whole catalog at n <= 5, and at n = 6
    # the algebras whose dense products take a few seconds in all
    algebras = [(i, alg) for i, alg in enumerate(catalog_at_two())
                if n < 6 or alg.name in _DENSE_AT_SIX]
    assert len(algebras) == (len(catalog_at_two()) if n < 6 else len(_DENSE_AT_SIX))
    for i, alg in algebras:
        words = word_table(i, n)
        want = {(rep, shapes): found for rep in codim.check_request(alg, n)[1]
                for shapes, found in dense_slices(words, rep).items()}
        assert per_coset_slices(alg, n) == want, (alg.name, n)


# -- oracle: the whole-block rank, as the engine took it before the isotypic split --

def column_loop_rank_mod_p(mat, p):
    """Rank over GF(p) by elimination column by column, every column visited."""
    m = mat % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        below = np.nonzero(m[r + 1:, c])[0]
        if below.size:
            idx = below + (r + 1)
            m[idx] = (m[idx] - np.outer(m[idx, c], m[r])) % p
        r += 1
    return r


class WordTable:
    """The length-n words of alg with a nonzero product, found by their
    base-dim code; the row past the last word is the zero vector of every
    word left out (a zero product, or a zero prefix and so no cache entry).
    Also holds what every block of length n shares: the permutations of
    range(n) in lexicographic order and the basis of each component."""

    def __init__(self, alg: GradedAlgebra, n: int):
        cache = product_cache(alg, n)
        dim = alg.dim
        words = sorted(key for key, value in cache.items() if len(key) == n and value)
        self.powers = dim ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.codes = np.array(words, dtype=np.int64).reshape(-1, n) @ self.powers
        self.dim = dim
        entries = [(i, k, c) for i, w in enumerate(words) for k, c in cache[w].items()]
        self._at = tuple(np.array([e[j] for e in entries], dtype=np.int64) for j in (0, 1))
        self.coefs = [e[2] for e in entries]
        self.nonzero = self.table([True] * len(entries), bool)
        self.perms = np.array(list(permutations(range(n))), dtype=np.int64)
        self.comp = {t: alg.component_indices(t) for t in alg.support()}

    def table(self, values, dtype):
        """(words + 1) x dim array holding values[e] at the place of the
        e-th product coefficient (listed in self.coefs), zero elsewhere."""
        out = np.zeros((len(self.codes) + 1, self.dim), dtype=dtype)
        out[self._at] = np.array(values, dtype=dtype)
        return out

    def rows(self, words):
        """Table row of every code in words; the zero row for one not listed."""
        idx = np.searchsorted(self.codes, words)
        hit = idx < len(self.codes)
        hit[hit] = self.codes[idx[hit]] == words[hit]
        idx[~hit] = len(self.codes)
        return idx


class BlockLayout:
    """Where each entry of the block of one assignment comes from: the
    table row of every (permutation, substitution) word.

    Row i is the permutation words.perms[i]; column (s, k) is coordinate k
    of the s-th substitution of the assignment's degrees, lexicographically,
    kept when it is nonzero in some row; n_cols counts the kept columns.
    """

    def __init__(self, words: WordTable, assignment):
        subs = np.array(list(product(*(words.comp[t] for t in assignment))), dtype=np.int64)
        self.n_rows = len(words.perms)
        self.idx = words.rows(subs[:, words.perms] @ words.powers).T
        self.keep = words.nonzero[self.idx].reshape(self.n_rows, -1).any(axis=0)
        self.n_cols = int(self.keep.sum())

    def matrix(self, table: np.ndarray) -> np.ndarray:
        """The block's n_rows x n_cols matrix with entries from table."""
        return table[self.idx].reshape(self.n_rows, -1)[:, self.keep]


@lru_cache(maxsize=None)
def word_table(i: int, n: int) -> WordTable:
    return WordTable(catalog_at_two()[i], n)


def whole_block_rank(words: WordTable, rep, p):
    """The rank mod p of the n! x n_cols gathered block of one assignment."""
    table = words.table([_residue(c, p) for c in words.coefs], np.int64)
    return column_loop_rank_mod_p(BlockLayout(words, rep).matrix(table), p)


@lru_cache(maxsize=None)
def engine_reps(i: int, n: int):
    """{sorted representative: (n_cols, rank, certification)} of the
    modular engine, default seed, on the i-th algebra of catalog_at_two."""
    return {tuple(sorted(b.assignment)): (b.n_cols, b.rank, b.certification)
            for b in graded_codim(catalog_at_two()[i], n).blocks}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_matches_the_gathered_block(data):
    # the scattered block has the gathered block's columns and ranks
    i = data.draw(st.integers(0, len(catalog_at_two()) - 1), label="algebra")
    n = data.draw(st.integers(1, 5), label="n")
    rep = data.draw(st.sampled_from(sorted(engine_reps(i, n))), label="representative")
    words = word_table(i, n)
    ranks = [whole_block_rank(words, rep, p) for p in _block_primes(0, rep)]
    cert = CERT_MODULAR_STABLE if ranks[0] == ranks[1] else CERT_MODULAR_UNSTABLE
    assert engine_reps(i, n)[rep] == (BlockLayout(words, rep).n_cols, max(ranks), cert)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_isotypic_split_matches_the_whole_block_rank(data):
    # sum over multipartitions of d * m, per prime, is the whole block's rank
    i = data.draw(st.integers(0, len(catalog_at_two()) - 1), label="algebra")
    alg = catalog_at_two()[i]
    n = data.draw(st.integers(1, 5), label="n")
    rep = tuple(sorted(data.draw(st.lists(st.sampled_from(alg.support()),
                                          min_size=n, max_size=n), label="assignment")))
    primes = tuple(data.draw(st.lists(st.sampled_from(PRIME_BANK), min_size=2, max_size=2,
                                      unique=True), label="primes"))
    [block] = [b for b in graded_codim(alg, n, primes=primes).blocks if b.assignment == rep]
    ranks = [whole_block_rank(word_table(i, n), rep, p) for p in primes]
    assert block.rank == max(ranks)
    assert (block.certification == CERT_MODULAR_STABLE) == (ranks[0] == ranks[1])


def _matrix_case(data):
    """A random integer matrix: random, of low rank over Q, wide, tall or zero."""
    kind = data.draw(st.sampled_from(["random", "low rank", "wide", "tall", "zero"]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    short, long_ = int(rng.integers(1, 5)), int(rng.integers(5, 40))
    rows, cols = {"wide": (short, long_), "tall": (long_, short)}.get(
        kind, tuple(int(k) for k in rng.integers(1, 10, size=2)))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "low rank":
        k = int(rng.integers(0, min(rows, cols) + 1))
        return rng.integers(-3, 4, size=(rows, k)) @ rng.integers(-3, 4, size=(k, cols))
    # mostly small entries, so that rows often depend on each other mod p
    return rng.integers(-2, 3, size=(rows, cols)) * rng.integers(1, 2 ** 20, size=(rows, cols))


def _stacked(layers) -> np.ndarray:
    """The layers zero padded to the largest rows and columns among them,
    their rows one layer after another, as _rank_mod_p takes them."""
    rows = max((m.shape[0] for m in layers), default=0)
    cols = max((m.shape[1] for m in layers), default=0)
    stack = np.zeros((len(layers), rows, cols), dtype=np.result_type(*layers))
    for k, m in enumerate(layers):
        stack[k, :m.shape[0], :m.shape[1]] = m
    return stack.reshape(len(layers) * rows, cols)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rank_mod_p_matches_the_column_loop(data):
    # every layer of the one elimination has its own shape, its own prime
    # and its own rank
    layers = []
    for _ in range(data.draw(st.integers(1, 4), label="layers")):
        if data.draw(st.integers(0, 5), label="empty") == 0:
            shape = data.draw(st.sampled_from([(0, 0), (0, 3), (4, 0)]), label="shape")
            layers.append(np.zeros(shape, dtype=np.int64))
        else:
            layers.append(_matrix_case(data))
    primes = tuple(data.draw(st.sampled_from((2, 3, 5, 7, 11) + PRIME_BANK), label="prime")
                   for _ in layers)
    want = tuple(column_loop_rank_mod_p(m, p) for m, p in zip(layers, primes))
    # Python ints reach it from the product of blocks past the float64 range
    for stack in (_stacked(layers), _stacked([m.astype(object) for m in layers])):
        before = stack.copy()
        assert _rank_mod_p(stack, primes) == want
        assert (stack == before).all()


def test_rank_layers_sets_each_layer_rank():
    # layers of mixed shapes and dtypes, some past the stack size on their
    # own, are sorted into stacks and each rank lands in its own slot
    # ranks[j], the other slot of its list left alone
    rng = np.random.default_rng(7)
    ranked = [[None, None] for _ in range(40)]
    layers, want = [], [[None, None] for _ in range(40)]
    for k in range(40):
        rows, cols = (int(x) for x in rng.integers(1, 12 if k % 10 else 200, size=2))
        mat = rng.integers(-2, 3, size=(rows, cols)) * rng.integers(0, 2, size=(1, cols))
        mat = mat.astype(object) * (2 ** 70 + 1) if k % 3 == 0 else mat
        j = k % 2
        p = (7, PRIME_BANK[k % 16])[j]
        layers.append((mat, p, ranked[k], j))
        want[k][j] = column_loop_rank_mod_p(np.array(mat % p, dtype=np.int64), p)
    codim._rank_layers(layers)
    assert layers == []
    assert ranked == want
    assert len({rank for ranks in want for rank in ranks}) > 5


@pytest.mark.parametrize("mat, primes, ranks", [
    ([[2]], (3, 2), (1, 0)),              # the second layer's pivot is 0
    ([[1, 0], [0, 2]], (2, 3), (1, 2)),   # rows left after the first layer's last pivot
    ([[2, 1]], (2, 3), (1, 1)),           # the first layer skips a column nonzero in the second
])
def test_rank_mod_p_finishes_a_diverging_layer_on_its_own(mat, primes, ranks):
    mat = np.array(mat, dtype=np.int64)
    assert _rank_mod_p(_stacked([mat] * len(primes)), primes) == ranks
    assert tuple(column_loop_rank_mod_p(mat, p) for p in primes) == ranks


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rank_layers_matches_the_column_loop(data):
    # 5 to 16 layers of mixed shapes and primes ranked in shared stacks:
    # layers of different ranks leave the elimination at different steps,
    # zero layers and the (0, k) and (k, 0) shapes at the first; Python
    # ints past 2 ** 63, congruent to the int64 entries, rank alike
    count = data.draw(st.integers(5, 16), label="layers")
    wide = data.draw(st.booleans(), label="Python ints")
    ranked, layers, want = [[None] for _ in range(count)], [], []
    for k in range(count):
        if data.draw(st.integers(0, 4), label="zero") == 0:
            shape = data.draw(st.sampled_from([(0, 0), (0, 3), (4, 0), (3, 5)]), label="shape")
            mat = np.zeros(shape, dtype=np.int64)
        else:
            mat = _matrix_case(data)
        p = data.draw(st.sampled_from((2, 3, 5, 7, 11) + PRIME_BANK), label="prime")
        want.append([column_loop_rank_mod_p(mat, p)])
        layers.append((mat.astype(object) + p * 2 ** 70 if wide else mat, p, ranked[k], 0))
    codim._rank_layers(layers)
    assert ranked == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gram_has_the_exact_rank_of_the_matrix(data):
    mat = _matrix_case(data)
    huge = data.draw(st.booleans(), label="huge")
    if huge:
        # entries past 2 ** 26, squares past 2 ** 53: the Python-int product
        mat = mat.astype(object) * (2 ** 40 + 1)
    gram = codim._gram(mat)
    side = mat if mat.shape[0] <= mat.shape[1] else mat.T
    assert gram.dtype == (object if huge and mat.any() else np.int64)
    assert gram.tolist() == (side.astype(object) @ side.T.astype(object)).tolist()
    assert _rank_exact(codim._dict_rows(gram)) == _rank_exact(codim._dict_rows(mat))


def catalog_slices(alg, n: int):
    """(rep, shapes, rows) of every slice of alg at degree n, and dim A_t per t."""
    dims = {t: len(alg.component_indices(t)) for t in alg.support()}
    found = [(rep, shapes, rows)
             for rep, _, slices in codim.isotypic_slices(alg, n, every_slice(alg, n))
             for shapes, _, rows in slices]
    return found, dims


def test_gram_keeps_the_rank_modulo_every_bank_prime():
    # graded_codim ranks a slice's Gram matrix modulo a prime past 2 ** 29:
    # pinned equal to the slice's own rank on every catalog slice at n <= 5
    checked = 0
    for alg in catalog_at_two():
        for n in range(1, 6):
            for _, _, rows in catalog_slices(alg, n)[0]:
                if rows.any():
                    gram = _stacked([codim._gram(rows)] * len(PRIME_BANK))
                    assert _rank_mod_p(gram, PRIME_BANK) == \
                        _rank_mod_p(_stacked([rows] * len(PRIME_BANK)), PRIME_BANK), (alg.name, n)
                    checked += 1
    assert checked > 500


def live_slice_grams(alg, n: int):
    """(live, all): the Gram matrices of alg's slices at degree n, as the
    sparse rows that _rank_exact takes and counted per canonical form, of
    the slices not zero by dimension and of every slice."""
    found, dims = catalog_slices(alg, n)
    live, every = Counter(), Counter()
    for rep, shapes, rows in found:
        gram = canonical_rows(codim._dict_rows(codim._gram(rows)))
        every[gram] += 1
        if all(len(lam) <= dims[t] for t, lam in zip(sorted(set(rep)), shapes)):
            live[gram] += 1
    return live, every


def canonical_rows(rows) -> tuple:
    """Sparse rows col -> value as a hashable tuple."""
    return tuple(tuple(sorted(row.items())) for row in rows)


def count_exact_ranks(monkeypatch) -> Counter:
    """Count the calls to codim._rank_exact per canonical form of their rows."""
    ranked, rank_exact = Counter(), codim._rank_exact

    def counted(rows):
        rows = list(rows)
        ranked[canonical_rows(rows)] += 1
        return rank_exact(rows)

    monkeypatch.setattr(codim, "_rank_exact", counted)
    return ranked


def test_slices_longer_than_their_component_are_zero():
    # lambda_t with more rows than dim A_t: the slice alternates in more
    # degree-t variables than A_t has dimensions, so graded_codim skips it
    zero = {}
    for alg in catalog_at_two():
        for n in range(1, 7):
            found, dims = catalog_slices(alg, n)
            for rep, shapes, rows in found:
                if any(len(lam) > dims[t] for t, lam in zip(sorted(set(rep)), shapes)):
                    assert not rows.any(), (alg.name, n, shapes)
                    assert _rank_exact(codim._dict_rows(codim._gram(rows))) == 0
                    assert _rank_mod_p(rows, (PRIME_BANK[0],)) == (0,)
                    zero[alg.name, n] = zero.get((alg.name, n), 0) + 1
    assert zero["thm_T3_fractional", 6] == 21 and zero["thm_T1_fractional", 6] == 11


def test_rank_mod_p_of_one_by_one_and_empty_shapes():
    for value, ranks in ((0, (0, 0)), (7, (0, 1)), (5, (1, 0)), (-1, (1, 1)), (35, (0, 0))):
        one = np.array([[value]], dtype=np.int64)
        assert _rank_mod_p(one, (7,)) == ranks[:1]
        assert _rank_mod_p(_stacked([one, one]), (7, 5)) == ranks
    for shape in ((0, 3), (3, 0)):
        empty = np.zeros(shape, dtype=np.int64)
        assert _rank_mod_p(empty, (7,)) == (0,)
        assert _rank_mod_p(_stacked([empty] * 3), (7, 5, 3)) == (0, 0, 0)


@lru_cache(maxsize=None)
def modular_codim(name: str, n: int, mirrored: bool = False):
    """graded_codim of a fixed catalog algebra, or of its opposite, in
    modular mode with the default seed and cap."""
    alg = paper_catalog(name)
    return graded_codim(opposite(alg) if mirrored else alg, n)


def test_c6_t3_under_the_default_cap():
    assert modular_codim("thm_T3_fractional", 6).value == 13624


# (n_cols, rank) per sorted representative at n = 6, (0,) * (6 - j) + (1,) * j
# for j = 0..6; recorded from the gathered blocks
_SIXTH_BLOCKS = {
    "thm_T1_fractional": ((3306, 346), (2514, 346), (1842, 346), (1282, 333), (826, 293),
                          (466, 223), (194, 130)),
    "thm_T3_fractional": ((3306, 346), (2504, 428), (1184, 361), (481, 198), (158, 79),
                          (39, 24), (7, 6)),
}
_SIXTH_BLOCKS["thm_T2_fractional"] = _SIXTH_BLOCKS["thm_T1_fractional"]


@pytest.mark.parametrize("name", sorted(_SIXTH_BLOCKS))
def test_degree_six_blocks_are_pinned(name):
    blocks = {tuple(sorted(b.assignment)): (b.n_cols, b.rank, b.certification)
              for b in modular_codim(name, 6).blocks}
    assert blocks == {(0,) * (6 - j) + (1,) * j: pinned + (CERT_MODULAR_STABLE,)
                      for j, pinned in enumerate(_SIXTH_BLOCKS[name])}


def test_t1_t2_termwise_equality_at_degree_six():
    t1, t2 = (modular_codim(name, 6) for name in ("thm_T1_fractional", "thm_T2_fractional"))
    assert t1.value == t2.value == 20135
    assert t1.certification == t2.certification == CERT_MODULAR_STABLE


@pytest.mark.parametrize("name, c5", [("thm_T1_fractional", 2746), ("thm_T3_fractional", 2136)])
def test_opposite_preserves_c5_modular(name, c5):
    assert modular_codim(name, 5).value == modular_codim(name, 5, mirrored=True).value == c5


@pytest.mark.parametrize("name", ["thm_T1_fractional", "thm_T2_fractional",
                                  "thm_T3_fractional"])
def test_check_request_admits_degree_seven(name):
    _, reps = codim.check_request(paper_catalog(name), 7)
    assert len(reps) == 8


def test_degree_eight_fails_before_the_product_cache(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("product cache built before the block cap was checked")

    for name in ("_product_cache", "_word_products"):
        monkeypatch.setattr(codim, name, unreachable)
    for name in ("thm_T1_fractional", "thm_T2_fractional", "thm_T3_fractional"):
        with pytest.raises(ResourceLimit, match="isotypic basis"):
            graded_codim(paper_catalog(name), 8)
        with pytest.raises(ResourceLimit, match="isotypic basis"):
            multiplicities(paper_catalog(name), partitions_of(8))


def test_an_oversized_request_is_refused_without_listing_partitions(monkeypatch):
    # the one-row slice is live, so 70! columns alone pass the cap
    def unreachable(*args, **kwargs):
        raise AssertionError("the partitions were listed")

    monkeypatch.setattr(codim, "partitions_of", unreachable)
    with pytest.raises(ResourceLimit) as refused:
        codim.check_request(paper_catalog("thm_T3_fractional"), 70)
    assert str(refused.value) == (f"block for assignment {(0,) * 70} needs an isotypic basis "
                                  f"over {math.factorial(70)} permutations (cap 10000000)")


def live_multipartitions(alg, rep) -> tuple:
    """The multipartitions of rep's composition whose every lambda_t has at
    most dim A_t rows."""
    dims = [len(alg.component_indices(t)) for t in sorted(set(rep))]
    return tuple(shapes for shapes in multipartitions(codim._composition(rep))
                 if all(len(lam) <= dim for dim, lam in zip(dims, shapes)))


def live_basis_rows(alg, rep) -> int:
    """The rows of rep's isotypic basis that combine its block: d_<lambda>
    = prod_t hook_dim(lambda_t) per live multipartition."""
    return sum(math.prod(map(hook_dim, shapes)) for shapes in live_multipartitions(alg, rep))


def test_cap_counts_the_allocated_entries(monkeypatch):
    # the scattered triples of a block are the nonzeros of the gathered
    # block, and its combined entries are the live basis rows times the
    # right cosets of the Young subgroup that hold a nonzero row times its
    # columns; T3 at n = 4 has fewer product cache entries and basis
    # entries than the first block's triples
    alg = paper_catalog("thm_T3_fractional")
    n = 4
    words = WordTable(alg, n)
    table = words.table(words.coefs, object)
    reps = list(codim.check_request(alg, n)[1])
    triples, combined = {}, {}
    for rep in reps:
        layout = BlockLayout(words, rep)
        block = layout.matrix(table)
        triples[rep] = int(np.count_nonzero(block))
        # row pi puts the variable pi(i), of degree rep[pi(i)], at position i
        cosets = {tuple(np.array(rep)[pi]) for pi in words.perms[block.any(axis=1)]}
        combined[rep] = live_basis_rows(alg, rep) * len(cosets) * layout.n_cols
    first = reps[0]
    bases = max(live_basis_rows(alg, rep) * math.prod(map(math.factorial, codim._composition(rep)))
                for rep in reps)
    assert max(bases, len(product_cache(alg, n))) < triples[first] < combined[first] \
        < max(combined.values())

    cap = None
    allocated = []
    scatter, combine = codim._WordTable.scatter, codim._combine

    def checked_scatter(self, *args):
        out = scatter(self, *args)
        allocated.append(("scatter", len(out[0])))
        assert len(out[0]) <= cap, "triples over the cap were scattered"
        return out

    def checked_combine(*args):
        out = combine(*args)
        allocated.append(("combine", out.size))
        assert out.size <= cap, "entries over the cap were combined"
        return out

    monkeypatch.setattr(codim._WordTable, "scatter", checked_scatter)
    monkeypatch.setattr(codim, "_combine", checked_combine)
    cap = max(combined.values())
    assert graded_codim(alg, n, max_block_entries=cap).value == 305
    assert allocated == [(kind, size[rep]) for rep in reps
                         for kind, size in (("scatter", triples), ("combine", combined))]
    with pytest.raises(ResourceLimit, match="combines"):
        graded_codim(alg, n, max_block_entries=cap - 1)
    # the first block's triples fit at their exact size, and not one below
    cap = triples[first]
    with pytest.raises(ResourceLimit, match="combines"):
        graded_codim(alg, n, max_block_entries=cap)
    cap = triples[first] - 1
    with pytest.raises(ResourceLimit, match="scatters"):
        graded_codim(alg, n, max_block_entries=cap)


def _scattered(table, rep, cap):
    """table.scatter's triples as a sorted list, its other outputs and
    dtypes, or the text of its refusal at cap."""
    try:
        rows, cols, values, n_cosets, n_cols = table.scatter(
            rep, young_subgroup(codim._composition(rep)), cap)
    except ResourceLimit as refused:
        return str(refused)
    return (sorted(zip(rows.tolist(), cols.tolist(), values.tolist())), n_cosets, n_cols,
            rows.dtype, cols.dtype, values.dtype)


def test_grouped_scatter_matches_the_masked_scatter():
    # every representative of the catalog at n <= 4, of T1-T3 at n = 5 and
    # of an algebra with fractional constants: the same triples, cosets and
    # columns as the scatter that masked every word, the same refusal one
    # below its triples, and an empty block for a representative with no word
    cases = [(alg, n) for alg in catalog_at_two() for n in range(1, 5)]
    cases += [(paper_catalog(f"thm_T{k}_fractional"), 5) for k in (1, 2, 3)]
    cases += [(half_scaled(paper_catalog("thm_T3_fractional")), n) for n in range(1, 5)]
    # e_0 e_0 = e_0 and every other product zero: no word of length n > 1
    # holds the letter e_1 of the second degree
    idempotent = GradedAlgebra(2, ("e", "z"), {(0, 0): {0: Fraction(1)}}, (0, 1),
                               catalog_semigroup("T2"), name="e + z")
    cases += [(idempotent, n) for n in range(1, 4)]
    empty = 0
    for alg, n in cases:
        grouped = codim._WordTable(alg, n, DEFAULT_BLOCK_CAP)
        masked = MaskedWordTable(alg, n, DEFAULT_BLOCK_CAP)
        for rep in codim.check_request(alg, n)[1]:
            want = _scattered(masked, rep, DEFAULT_BLOCK_CAP)
            assert _scattered(grouped, rep, DEFAULT_BLOCK_CAP) == want, (alg.name, rep)
            cap = len(want[0]) - 1
            assert _scattered(grouped, rep, cap) == _scattered(masked, rep, cap) != want
            empty += not want[0]
    assert empty > 0


def _trimmed_layer(mat, p) -> tuple:
    """(p, shape, bytes) of mat mod p without its trailing zero rows and
    columns: a layer as the padding of a stack leaves it."""
    m = np.asarray(mat % p, dtype=np.int64)
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    m = m[:rows[-1] + 1, :cols[-1] + 1] if len(rows) else m[:0, :0]
    return p, m.shape, m.tobytes()


def test_modular_mode_scatters_each_block_once(monkeypatch):
    # each representative's block is scattered and combined once, and each
    # of its slices is ranked once modulo each of the block's primes, given
    # or drawn from the seed: as its Gram matrix for a bank prime, as
    # itself for a prime below 2 ** 29
    alg = paper_catalog("thm_T1_fractional")
    n = 4
    reps = list(codim.check_request(alg, n)[1])
    dims = {t: len(alg.component_indices(t)) for t in alg.support()}
    # builds the isotypic bases first, whose check ranks mod one prime
    slices = {rep: [rows for shapes, _, rows in found
                    if all(len(lam) <= dims[t] for t, lam in zip(sorted(set(rep)), shapes))]
              for rep, _, found in codim.isotypic_slices(alg, n, every_slice(alg, n))}
    scatter, rank_mod_p = codim._WordTable.scatter, codim._rank_mod_p
    scattered, ranked = [], []

    def counted_scatter(self, rep, *args):
        scattered.append(rep)
        return scatter(self, rep, *args)

    def counted_rank(stack, primes):
        layers = stack.reshape(len(primes), len(stack) // len(primes), stack.shape[1])
        ranked.extend(_trimmed_layer(m, p) for m, p in zip(layers, primes))
        return rank_mod_p(stack, primes)

    monkeypatch.setattr(codim._WordTable, "scatter", counted_scatter)
    monkeypatch.setattr(codim, "_rank_mod_p", counted_rank)
    for primes in ((PRIME_BANK[0], PRIME_BANK[1]), None, (11, 13)):
        scattered.clear()
        ranked.clear()
        graded_codim(alg, n, primes=primes, seed=5)
        assert scattered == reps
        want = [_trimmed_layer(codim._gram(rows) if p > 2 ** 29 else rows, p)
                for rep in reps for p in primes or _block_primes(5, rep) for rows in slices[rep]]
        assert sorted(ranked) == sorted(want)
        assert len(want) > len(reps)


def derived_algebra(data):
    """A catalog algebra at size 2, on its basis divided by 1, 2, 3 or 5,
    passed through opposite, direct_sum, adjoin_unit or the quotient by
    the graded ideal of one homogeneous element.

    The division brings in the fractional structure constants: quotients
    of the catalog algebras by such ideals kept integral constants in
    every draw tried."""
    alg = data.draw(st.sampled_from(catalog_at_two()), label="algebra")
    k = data.draw(st.sampled_from([1, 2, 3, 5]), label="divisor")
    if k > 1:
        alg = divided_basis(alg, k)
    kind = data.draw(st.sampled_from(["opposite", "direct_sum", "adjoin_unit", "quotient"]),
                     label="kind")
    if kind == "opposite":
        return opposite(alg)
    if kind == "direct_sum":
        other = data.draw(st.sampled_from([b for b in catalog_at_two()
                                           if b.semigroup == alg.semigroup]), label="other")
        return direct_sum(alg, other)
    if kind == "adjoin_unit":
        return adjoin_unit(alg)
    t = data.draw(st.sampled_from(alg.support()), label="degree")
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=len(alg.component_indices(t)),
                               max_size=len(alg.component_indices(t))), label="generator")
    generator = [ZERO] * alg.dim
    for b, c in zip(alg.component_indices(t), coefs):
        generator[b] = Fraction(c)
    ideal = ideal_generated(alg, [tuple(generator)])
    assume(ideal.dim < alg.dim)
    return quotient_algebra(alg, ideal, graded=True)[0]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_modular_ranks_stay_below_exact_on_derived_algebras(data):
    # scaling a block to integers and reducing it mod p keeps every rank
    # a lower bound, with bank primes and with the two primes just above
    # n, which may divide a denominator of the structure constants
    alg = derived_algebra(data)
    n = data.draw(st.integers(1, 3), label="n")
    if data.draw(st.booleans(), label="small primes"):
        primes = tuple(p for p in (2, 3, 5, 7) if p > n)[:2]
    else:
        primes = tuple(data.draw(st.lists(st.sampled_from(PRIME_BANK), min_size=2, max_size=2,
                                          unique=True), label="primes"))
    exact = {b.assignment: b.rank for b in graded_codim(alg, n, mode="exact").blocks}
    for b in graded_codim(alg, n, primes=primes).blocks:
        assert b.rank <= exact[b.assignment], (alg.name, n, primes, b.assignment)


@pytest.mark.parametrize("primes", [(2, 3), (3, 5), (1073741789, 5)])
def test_primes_must_exceed_the_degree(primes):
    alg = paper_catalog("thm_T1_fractional")
    with pytest.raises(BadParam):
        graded_codim(alg, 5, primes=primes)
    assert graded_codim(alg, 2, primes=(3, 5)).value == 8


def trial_division_is_prime(p: int) -> bool:
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


def test_primality_test_matches_trial_division():
    assert [p for p in range(3000) if is_prime(p)] == \
        [p for p in range(3000) if trial_division_is_prime(p)]
    # the bank and the odd numbers just below it and just below 2 ** 31
    for p in [*PRIME_BANK, *range(PRIME_BANK[-1] - 100, PRIME_BANK[-1], 2),
              *range(2 ** 31 - 101, 2 ** 31, 2)]:
        assert is_prime(p) == trial_division_is_prime(p), p


@pytest.mark.parametrize("composite", [
    561, 41041, 825265, 321197185,  # Carmichael numbers
    2047, 3277, 4033, 8321,         # strong pseudoprimes to base 2
])
def test_primality_test_rejects_pseudoprimes(composite):
    assert not trial_division_is_prime(composite)
    assert not is_prime(composite)
    with pytest.raises(BadParam):
        graded_codim(paper_catalog("thm_T1_fractional"), 2, primes=(composite, PRIME_BANK[0]))


def test_isotypic_basis_is_certified(monkeypatch):
    # words that repeat the identity span a line, not e.KS_n: refused by
    # the factor's certificate, and so by every basis built from it
    def repeated_identity(lam):
        return [tuple(range(lam.n))] * (2 if lam.n > 2 else 1)

    for cached in (codim._young_factor, codim._isotypic_basis):
        cached.cache_clear()
    monkeypatch.setattr(codim, "spanning_permutations", repeated_identity)
    try:
        for lam in partitions_of(3):
            with pytest.raises(HypothesisViolated):
                codim._young_factor(lam)
        for composition in ((3,), (3, 1), (1, 3)):
            with pytest.raises(HypothesisViolated):
                codim._isotypic_basis(composition, multipartitions(composition))
    finally:
        for cached in (codim._young_factor, codim._isotypic_basis):
            cached.cache_clear()


def test_isotypic_basis_shape():
    # |H| columns over the Young subgroup H, prod_t hook_dim(lambda_t)
    # rows per multipartition, sum d ** 2 = |H|
    for composition in ((4,), (2, 2), (1, 3), (3, 1, 1)):
        basis, pieces = codim._isotypic_basis(composition, multipartitions(composition))
        young = math.prod(math.factorial(k) for k in composition)
        assert basis.shape == (sum(d for d, _ in pieces), young)
        assert [(d, rows.stop - rows.start) for d, rows in pieces] == \
            [(math.prod(map(hook_dim, shapes)),) * 2
             for shapes in multipartitions(composition)]
        assert sum(d * d for d, _ in pieces) == young
        assert not basis.flags.writeable


def compositions_of(n: int) -> list:
    """Every composition of n, as tuples of positive parts."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for k in range(n) for cuts in combinations(range(1, n), k)]


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_chosen_basis_is_the_full_basis_on_the_chosen_pieces(n, data):
    # for every composition of n, the basis of the multipartitions chosen
    # by a cap on each lambda_t's rows and a random keep holds the full
    # basis's rows of each chosen piece, piece by piece, in their order
    for composition in compositions_of(n):
        every = multipartitions(composition)
        full, full_pieces = codim._isotypic_basis(composition, every)
        where = dict(zip(every, full_pieces))
        dims = data.draw(st.lists(st.integers(1, 6), min_size=len(composition),
                                  max_size=len(composition)), label="dims")
        keep = data.draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)),
                         label="keep")
        chosen = tuple(shapes for shapes, kept in zip(every, keep)
                       if kept and all(len(lam) <= dim for dim, lam in zip(dims, shapes)))
        if not chosen:
            continue
        basis, pieces = codim._isotypic_basis(composition, chosen)
        assert basis.shape == (sum(d for d, _ in pieces), full.shape[1])
        assert not basis.flags.writeable
        start = 0
        for shapes, (d, rows) in zip(chosen, pieces, strict=True):
            assert (rows.start, rows.stop) == (start, start + d)
            assert d == where[shapes][0]
            assert np.array_equal(basis[rows], full[where[shapes][1]]), (composition, shapes)
            start += d


def test_check_request_admits_degree_seven_under_a_smaller_cap():
    # the n!-wide basis of composition (6, 1) would hold more than 2 * 10 ** 6
    # entries; its per-coset factor and that of (7) hold fewer
    alg = paper_catalog("thm_T3_fractional")
    cap = 2 * 10 ** 6
    assert 7 * live_basis_rows(alg, (0,) * 6 + (1,)) * math.factorial(7) > cap
    _, live = codim.check_request(alg, 7, max_block_entries=cap)
    assert len(live) == 8
    assert max(live_basis_rows(alg, rep) * math.prod(map(math.factorial, codim._composition(rep)))
               for rep in live) <= cap


def test_c7_t3_under_the_default_cap():
    result = modular_codim("thm_T3_fractional", 7)
    assert (result.value, result.certification) == (81656, CERT_MODULAR_STABLE)


def test_check_request_counts_the_rows_of_the_live_basis():
    # per representative, the multipartitions listed are those whose every
    # lambda_t has at most dim A_t rows, and the rows counted against the
    # cap are the rows of their basis: the catalog at parameter 2, n <= 6
    for alg in catalog_at_two():
        for n in range(1, 7):
            for rep, slices in codim.check_request(alg, n)[1].items():
                live = live_multipartitions(alg, rep)
                assert tuple(shapes for shapes, _ in slices) == live, (alg.name, rep)
                composition = codim._composition(rep)
                dims = tuple(len(alg.component_indices(t)) for t in sorted(set(rep)))
                rows = len(codim._isotypic_basis(composition, live)[0])
                assert codim._live_slices(composition, dims) == (slices, rows), (alg.name, rep)


def built_rows(monkeypatch) -> list:
    """The rows of every _isotypic_basis built from now on, in order."""
    built, isotypic_basis = [], codim._isotypic_basis

    def recorded(composition, chosen):
        out = isotypic_basis(composition, chosen)
        built.append(len(out[0]))
        return out

    monkeypatch.setattr(codim, "_isotypic_basis", recorded)
    return built


def test_zero_band_c8_under_the_default_cap(monkeypatch):
    # every component of mk_column_graded(2) has dimension 2, so each
    # lambda_t has at most 2 rows and the block of (0,) * 8 needs a 70 x 8!
    # basis; in both modes each representative's basis has the rows counted
    alg = parse_catalog_spec("mk_column_graded(2)")
    _, live = codim.check_request(alg, 8)
    counted = [sum(d for _, d in slices) for slices in live.values()]
    assert max(rows * math.prod(map(math.factorial, codim._composition(rep)))
               for rows, rep in zip(counted, live)) == 70 * math.factorial(8)
    built = built_rows(monkeypatch)
    for mode, certification in (("modular", CERT_MODULAR_STABLE), ("exact", CERT_EXACT)):
        built.clear()
        result = graded_codim(alg, 8, mode=mode)
        assert (result.value, result.certification) == (47600, certification)
        assert built == counted


def test_multiplicities_build_no_more_rows_than_counted(monkeypatch):
    # under keep a representative's basis holds at most the rows counted,
    # and for some shape fewer
    alg = paper_catalog("thm_T3_fractional")
    counted = {rep: sum(d for _, d in slices)
               for rep, slices in codim.check_request(alg, 5)[1].items()}
    built, combined = built_rows(monkeypatch), []
    isotypic_slices = codim.isotypic_slices

    def recorded(alg, n, chosen, *args):
        combined.append([rep for rep, shapes in chosen.items() if shapes])
        return isotypic_slices(alg, n, chosen, *args)

    monkeypatch.setattr(codim, "isotypic_slices", recorded)
    fewer = 0
    for lam in partitions_of(5):
        built.clear()
        combined.clear()
        multiplicity_exact(alg, lam)
        [reps] = combined
        assert len(built) == len(reps), lam
        for rep, rows in zip(reps, built):
            assert rows <= counted[rep], (lam, rep)
            fewer += rows < counted[rep]
    assert fewer > 0


def test_utk_column_graded_c1_to_c8():
    """c_n(utk_column_graded(2)) = n * 2 ** (n - 1) + 1 for n <= 8: a
    closed form observed on these values, not derived."""
    values = [r.value for r in codim_sequence(parse_catalog_spec("utk_column_graded(2)"), 8)]
    assert values == [2, 5, 13, 33, 81, 193, 449, 1025]
    assert values == [n * 2 ** (n - 1) + 1 for n in range(1, 9)]


# -- oracle: closed forms of ordinary codimensions --------------------------------

def ut2_codim(n: int) -> int:
    """c_n(UT_2), the 2 x 2 upper triangular matrices: 2^(n-1) (n-2) + 2."""
    return 2 ** (n - 1) * (n - 2) + 2


def m2_codim(n: int) -> int:
    """c_n(M_2): C(2n+2, n+1) / (n+2) - C(n, 3) + 1 - 2^n (Procesi, J.
    Algebra 87, 1984)."""
    return math.comb(2 * n + 2, n + 1) // (n + 2) - math.comb(n, 3) + 1 - 2 ** n


@pytest.mark.parametrize("mode", ["modular", "exact"])
def test_ordinary_codimensions_match_their_closed_forms(mode):
    """Oracles that do not come from the engine: UT_2 and M_2 up to n = 6,
    and in modular mode thm_T1_fractional and thm_T2_fractional, which
    have M_2's codimensions.  Ungraded, T1 is M_2 x UT_2, and UT_2 is a
    subalgebra of M_2, so Id(T1) = Id(M_2) cap Id(UT_2) = Id(M_2).  T2 is
    M_2 x N with N = span(j11, j12, j22) and N^2 = 0 (every product lands
    in M_2): N satisfies every multilinear polynomial of degree n >= 2, so
    Id(T2) and Id(M_2) agree from degree 2 on, and c_1 = 1 for both."""
    cert = CERT_EXACT if mode == "exact" else CERT_MODULAR_STABLE
    pinned = [("upper_triangular(2)", ut2_codim), ("full_matrix(2)", m2_codim)]
    if mode == "modular":
        pinned += [("thm_T1_fractional", m2_codim), ("thm_T2_fractional", m2_codim)]
    for spec, closed in pinned:
        alg = parse_catalog_spec(spec)
        got = [ordinary_codim(alg, n, mode=mode) for n in range(1, 7)]
        assert [(r.value, r.certification) for r in got] == \
            [(closed(n), cert) for n in range(1, 7)], spec
    assert [m2_codim(n) for n in range(1, 7)] == [1, 2, 6, 23, 91, 346]
