import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigraded import structure
from semigraded.errors import (
    NilpotentAlgebra,
    NonSplit,
    PreconditionFailed,
    RadicalNotGraded,
    WorkbenchError,
)
from semigraded.gralgebra import (
    GradedAlgebra,
    full_matrix,
    ideal_generated,
    is_graded_subspace,
    opposite,
    paper_catalog,
    parse_catalog_spec,
    quotient_algebra,
    subspace_product,
    upper_triangular,
    validate_or_raise,
)
from semigraded.linalg import ONE, ZERO, Subspace, eliminate, unit_vec
from semigraded.semigroup import (
    catalog_semigroup,
    is_left_zero_band,
    is_right_zero_band,
    trivial_semigroup,
)
from semigraded.structure import (
    _assert_radical,
    _block_matrix,
    _central_parts,
    _is_nilpotent,
    _operator_closure,
    _split_block,
    _trace_form,
    _trace_radical,
    _wedderburn,
    center,
    graded_exponent_d,
    graded_malcev_zeroband,
    is_graded_simple,
    jacobson_radical,
    malcev_complement,
    ordinary_exponent,
    unit_component_idempotents,
)
from algebra_fixtures import direct_sum
from fraction_oracles import (
    fraction_block_matrix,
    fraction_center,
    fraction_malcev,
    fraction_multiply,
    fraction_split_block,
    fraction_subspace_product,
    fraction_trace_form,
    fraction_trace_radical,
    mat_mul,
    mat_vec,
    solve,
    vec,
)
from test_codim import block_rank
from test_gralgebra import CATALOG_SMALL, closure_algebras, small_entries, subalgebra_on


def span_of_labels(alg, labels):
    return Subspace(alg.dim, [alg.basis_vector(alg.basis_labels.index(l)) for l in labels])


# -- radical -------------------------------------------------------------------

def is_nilpotent_ideal(alg, s):
    """Oracle: s is an ideal and some power of it vanishes."""
    for r in s.rows:
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            if not s.contains(alg.multiply(e, r)) or not s.contains(alg.multiply(r, e)):
                return False
    power = s
    for _ in range(alg.dim + 1):
        if power.is_zero():
            return True
        power = subspace_product(alg, power, s)
    return power.is_zero()


def test_radical_ut2():
    ut2 = upper_triangular(2)
    rad = jacobson_radical(ut2)
    assert rad == span_of_labels(ut2, ["e12"])
    assert is_nilpotent_ideal(ut2, rad)
    q, _, _ = quotient_algebra(ut2, rad, graded=False)
    # quotient is F x F: commutative, semisimple, two orthogonal idempotents
    assert q.dim == 2 and jacobson_radical(q).is_zero()


def test_radical_simple_and_semisimple():
    assert jacobson_radical(full_matrix(2)).is_zero()
    assert jacobson_radical(full_matrix(3)).is_zero()


def test_radical_of_pair_examples():
    a1 = paper_catalog("exampleT1", 2)
    rad = jacobson_radical(a1)
    assert rad.dim == 1
    i0 = a1.basis_labels.index("(e12,0)")
    i1 = a1.basis_labels.index("(e12,e12)")
    diff = tuple(Fraction(1) if k == i1 else Fraction(-1) if k == i0 else Fraction(0)
                 for k in range(a1.dim))
    assert rad.contains(diff)  # the vector (0, e12)

    a2 = paper_catalog("exampleT2", 2)
    rad2 = jacobson_radical(a2)
    assert rad2.dim == 4
    a3 = paper_catalog("exampleT3", 2)
    assert jacobson_radical(a3).dim == 4


def test_radical_self_checks_refuse_a_non_ideal_and_a_non_nilpotent_candidate():
    m2 = full_matrix(2)
    with pytest.raises(AssertionError, match="radical candidate is not an ideal"):
        _assert_radical(m2, span_of_labels(m2, ["e11"]), graded=False)
    # M_2 is an ideal of itself, but none of its powers vanishes
    with pytest.raises(AssertionError, match="radical candidate is not nilpotent"):
        _assert_radical(m2, m2.full_subspace(), graded=False)


def test_is_nilpotent_stops_at_zero_or_at_a_repeated_dimension():
    ut4 = upper_triangular(4)
    # the strictly upper triangular part: powers of dimension 6, 3, 1, 0
    assert _is_nilpotent(ut4, jacobson_radical(ut4))
    assert _is_nilpotent(ut4, Subspace(ut4.dim))
    m2 = full_matrix(2)
    assert not _is_nilpotent(m2, m2.full_subspace())
    assert not _is_nilpotent(m2, span_of_labels(m2, ["e11"]))
    # span(e11, e12, e13, e23) of UT_3 squares to span(e11, e12, e13),
    # which it then keeps
    ut3 = upper_triangular(3)
    assert not _is_nilpotent(ut3, span_of_labels(ut3, ["e11", "e12", "e13", "e23"]))


def is_radical_graded(alg):
    return is_graded_subspace(alg, jacobson_radical(alg))


def test_radical_gradedness_flags():
    assert not is_radical_graded(paper_catalog("exampleT1", 2))
    assert not is_radical_graded(paper_catalog("exampleT2", 2))
    assert not is_radical_graded(paper_catalog("exampleT3", 2))
    assert is_radical_graded(paper_catalog("utk_column_graded", 2))


def test_radical_component_intersections_vanish():
    for name in ("exampleT1", "exampleT2", "exampleT3"):
        alg = paper_catalog(name, 2)
        rad = jacobson_radical(alg)
        for t in alg.support():
            assert rad.intersect(alg.component(t)).is_zero()


# -- zero band ideals ------------------------------------------------------------

def all_ideals_graded_zeroband(alg):
    """Spot check that every ideal is graded, for unital zero-band input.

    Verifies the idempotent decomposition of the unit, then checks
    gradedness on the radical, its powers, and the ideal generated by
    each basis vector.  Returns (True, None) or (False, witness).
    """
    if alg.unit is None:
        raise PreconditionFailed("algebra has no unit")
    if not (is_left_zero_band(alg.semigroup) or is_right_zero_band(alg.semigroup)):
        raise PreconditionFailed("grading semigroup is not a left or right zero band")
    unit_component_idempotents(alg)
    candidates = []
    rad = jacobson_radical(alg)
    power = rad
    while not power.is_zero():
        candidates.append(power)
        power = subspace_product(alg, power, rad)
    for i in range(alg.dim):
        candidates.append(ideal_generated(alg, [alg.basis_vector(i)]))
    for ideal in candidates:
        if not is_graded_subspace(alg, ideal):
            return False, ideal
    return True, None


def test_all_ideals_graded_zeroband():
    ok, witness = all_ideals_graded_zeroband(paper_catalog("utk_column_graded", 2))
    assert ok and witness is None
    ok, witness = all_ideals_graded_zeroband(paper_catalog("mk_column_graded", 3))
    assert ok


def test_all_ideals_graded_preconditions():
    with pytest.raises(PreconditionFailed):
        all_ideals_graded_zeroband(paper_catalog("exampleT3", 2))  # no unit
    with pytest.raises(PreconditionFailed):
        all_ideals_graded_zeroband(paper_catalog("exampleT1", 2))  # T1 is not a band
    # the one-element semigroup is a zero band, so the trivial grading passes
    ok, witness = all_ideals_graded_zeroband(full_matrix(2))
    assert ok


def test_unit_component_idempotents():
    alg = paper_catalog("utk_column_graded", 3)
    parts = unit_component_idempotents(alg)
    assert len(parts) == 3
    total = [Fraction(0)] * alg.dim
    for e in parts.values():
        total = [x + y for x, y in zip(total, e)]
    assert tuple(total) == alg.unit


# -- Wedderburn -------------------------------------------------------------------

def test_wedderburn_two_blocks():
    s = direct_sum(full_matrix(2), full_matrix(2))
    ideals = _wedderburn(s)
    assert sorted(i.dim for i in ideals) == [4, 4]
    # distinct ideals multiply to zero and each is multiplicatively closed
    a, b = ideals
    assert subspace_product(s, a, b).is_zero()
    assert a.intersect(b).is_zero()


def test_wedderburn_three_lines():
    diag = GradedAlgebra(
        3, ("d1", "d2", "d3"),
        {(i, i): {i: Fraction(1)} for i in range(3)},
        (0, 0, 0), trivial_semigroup(), unit=(Fraction(1),) * 3)
    assert [i.dim for i in _wedderburn(validate_or_raise(diag))] == [1, 1, 1]


def test_wedderburn_on_thm_t1_quotient():
    alg = paper_catalog("thm_T1_fractional")
    rad = jacobson_radical(alg)
    q, _, _ = quotient_algebra(alg, rad, graded=False)
    ideals = _wedderburn(q)
    assert sorted(i.dim for i in ideals) == [1, 1, 4]
    # simplicity: every nonzero basis element of an ideal regenerates it
    for ideal in ideals:
        for row in ideal.rows:
            assert ideal_generated(q, [row]) == ideal


def test_wedderburn_nonsplit():
    # Q(sqrt 2) as a two-dimensional algebra: 1, s with s^2 = 2
    qs2 = GradedAlgebra(
        2, ("one", "s"),
        {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
         (1, 0): {1: Fraction(1)}, (1, 1): {0: Fraction(2)}},
        (0, 0), trivial_semigroup(), unit=(Fraction(1), Fraction(0)))
    validate_or_raise(qs2)
    assert jacobson_radical(qs2).is_zero()
    with pytest.raises(NonSplit):
        _wedderburn(qs2)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_wedderburn_recovers_the_blocks_of_a_direct_sum(sizes, rng):
    # M_k1 + ... + M_kr under a base change that mixes every basis vector;
    # the ideals are checked in the coordinates of the direct sum, where
    # row x stands for sum_i x_i p_rows[i], an isomorphic image in which
    # the products are sparse
    base = functools.reduce(direct_sum, [full_matrix(k) for k in sizes])
    p_rows = random_base_change(base, rng)
    ideals = _wedderburn(conjugated(base, p_rows, validated=False))
    back = list(zip(*p_rows))
    ideals = [Subspace(base.dim, [mat_vec(back, r) for r in i.rows]) for i in ideals]
    assert sorted(i.dim for i in ideals) == sorted(k * k for k in sizes)
    for a, b in itertools.permutations(ideals, 2):
        assert subspace_product(base, a, b).is_zero()
    assert functools.reduce(Subspace.sum, ideals) == base.full_subspace()
    for ideal in ideals:
        assert all(ideal_generated(base, [row]) == ideal for row in ideal.rows)


def test_block_matrix_brings_its_rows_to_one_scale():
    """On Q^3 with three orthogonal idempotents, multiplication by (1, 2, 3)
    in the coordinates of rows whose coefficients have different
    denominators: N / S is M exactly, and the split agrees with the
    Fraction oracle's."""
    diag = validate_or_raise(GradedAlgebra(
        3, ("d1", "d2", "d3"), {(i, i): {i: Fraction(1)} for i in range(3)},
        (0, 0, 0), trivial_semigroup(), unit=(Fraction(1),) * 3))
    rows, z = [(1, 1, 0), (0, 2, 0), (0, 0, 3)], (1, 2, 3)
    block, scale = _block_matrix(diag, rows, z)
    assert [tuple(Fraction(x, scale) for x in row) for row in block] == \
        fraction_block_matrix(diag, rows, z) == [(1, 0, 0), (Fraction(1, 2), 2, 0), (0, 0, 3)]
    assert [Subspace(3, part) for part in _split_block(diag, rows, [z])] == \
        [Subspace(3, part) for part in fraction_split_block(diag, rows, [z])]


def test_center_of_m2():
    assert center(full_matrix(2)).dim == 1


def test_central_parts_act_on_each_block_as_its_trace_over_k():
    """On M_2 + M_1 + M_3 in its matrix-unit basis the part of e_ab in
    the block M_k is delta_ab / k times that block's unit, all parts times
    one positive integer."""
    sizes = (2, 1, 3)
    alg = functools.reduce(direct_sum, [full_matrix(k) for k in sizes])
    expected, offset = [], 0
    for k in sizes:
        unit = [ZERO] * alg.dim
        for a in range(k):
            unit[offset + a * k + a] = Fraction(1, k)
        expected += [tuple(unit) if a == b else (ZERO,) * alg.dim
                     for a in range(k) for b in range(k)]
        offset += k * k
    parts = _central_parts(alg, center(alg).rows)
    factor = parts[0][0] / expected[0][0]
    assert factor > 0 and parts == [[factor * x for x in e] for e in expected]


# -- complements -----------------------------------------------------------------

def complement_is_valid(alg, data):
    assert data.complement.dim + data.radical.dim == alg.dim
    assert data.complement.intersect(data.radical).is_zero()
    for u in data.complement.rows:
        for v in data.complement.rows:
            assert data.complement.contains(alg.multiply(u, v))


def test_malcev_ut2():
    ut2 = upper_triangular(2)
    data = malcev_complement(ut2)
    complement_is_valid(ut2, data)
    assert data.complement == span_of_labels(ut2, ["e11", "e22"])


def test_malcev_semisimple_input():
    m2 = full_matrix(2)
    data = malcev_complement(m2)
    assert data.complement.dim == 4 and data.radical.is_zero()


def test_malcev_example_t2_k1():
    alg = paper_catalog("exampleT2", 1)
    data = malcev_complement(alg)
    complement_is_valid(alg, data)
    assert data.complement == span_of_labels(alg, ["(e11,0)"])


def test_malcev_deep_radical():
    ut4 = upper_triangular(4)
    data = malcev_complement(ut4)
    complement_is_valid(ut4, data)
    assert data.complement.dim == 4


def skewed_ut2():
    """UT_2 with the homogeneous basis e11, e22 + e12, e12 over the right
    zero band; the diagonal complement is not spanned by basis vectors, so
    the splitting has to work for it."""
    semigroup = catalog_semigroup("T3")
    structure = {
        (0, 0): {0: Fraction(1)},
        (0, 1): {2: Fraction(1)},
        (0, 2): {2: Fraction(1)},
        (1, 1): {1: Fraction(1)},
        (2, 1): {2: Fraction(1)},
    }
    return validate_or_raise(GradedAlgebra(
        3, ("p", "q", "r"), structure, (0, 1, 1), semigroup,
        unit=(Fraction(1), Fraction(1), Fraction(-1)), name="skewed_ut2"))


def test_graded_malcev_skewed_basis():
    alg = skewed_ut2()
    data = graded_malcev_zeroband(alg)
    complement_is_valid(alg, data)
    assert is_graded_subspace(alg, data.complement)
    assert data.correction_log  # the plain span(p - r, q) holds neither p nor q - r


def test_graded_malcev_utk():
    for k in (2, 3):
        alg = paper_catalog("utk_column_graded", k)
        data = graded_malcev_zeroband(alg)
        complement_is_valid(alg, data)
        assert is_graded_subspace(alg, data.complement)
        assert data.complement.dim == k
    # semisimple graded input returns everything with no corrections
    alg = paper_catalog("mk_column_graded", 2)
    data = graded_malcev_zeroband(alg)
    assert data.complement.dim == 4 and data.correction_log == []


def test_graded_malcev_preconditions():
    with pytest.raises(PreconditionFailed):
        graded_malcev_zeroband(paper_catalog("thm_T3_fractional"))  # no unit
    with pytest.raises(PreconditionFailed):
        graded_malcev_zeroband(paper_catalog("exampleT1", 2))  # T1 not a band


# -- graded simplicity --------------------------------------------------------------

def test_graded_simple_t3_fractional_algebra():
    res = is_graded_simple(paper_catalog("thm_T3_fractional"))
    assert res.verdict == "certified_true"


def test_graded_simple_counterexample_two_blocks():
    from semigraded.gralgebra import _full_matrix_positions, _pair_algebra
    alg = validate_or_raise(_pair_algebra(
        2, _full_matrix_positions(2), "ideal", catalog_semigroup("T1"),
        "two_block_diag", unital=True))
    res = is_graded_simple(alg)
    assert res.verdict == "certified_false"
    assert res.witness.dim == 4
    # the witness is the degree-zero block
    for row in res.witness.rows:
        lead = next(i for i, c in enumerate(row) if c != 0)
        assert alg.degree[lead] == 0


def test_graded_simple_square_zero():
    zero = GradedAlgebra(1, ("z",), {}, (0,), trivial_semigroup())
    res = is_graded_simple(zero)
    assert res.verdict == "certified_false"
    assert "A*A = 0" in res.detail


def test_graded_simple_matrix_block():
    res = is_graded_simple(full_matrix(2))
    assert res.verdict == "certified_true"
    res = is_graded_simple(paper_catalog("mk_column_graded", 2))
    assert res.verdict == "certified_true"


def test_graded_simple_ut2_false():
    res = is_graded_simple(upper_triangular(2))
    assert res.verdict == "certified_false"


# -- the exponent ---------------------------------------------------------------------

def test_exponent_examples():
    assert graded_exponent_d(paper_catalog("utk_column_graded", 2)) == 2
    assert graded_exponent_d(paper_catalog("mk_column_graded", 2)) == 4
    assert ordinary_exponent(full_matrix(2)) == 4
    assert ordinary_exponent(upper_triangular(2)) == 2
    assert ordinary_exponent(upper_triangular(3)) == 3


def test_exponent_agreement_on_zero_band_unital():
    for name, k in (("utk_column_graded", 2), ("utk_column_graded", 3),
                    ("mk_column_graded", 2)):
        alg = paper_catalog(name, k)
        assert graded_exponent_d(alg) == ordinary_exponent(alg)


def test_ordinary_exponent_of_a_direct_product_is_the_larger_one():
    # exampleT1(3) is M_3 x UT_3: its identities are those of both factors,
    # so c_n <= c_n(M_3) + c_n(UT_3) and the exponent is max(9, 3), which
    # needs the complement's section to follow the basis of A/J
    assert ordinary_exponent(paper_catalog("exampleT1", 3)) == 9
    assert ordinary_exponent(paper_catalog("exampleT1", 2)) == 4


def test_exponent_errors():
    with pytest.raises(RadicalNotGraded):
        graded_exponent_d(paper_catalog("thm_T1_fractional"))
    nil = GradedAlgebra(1, ("z",), {}, (0,), trivial_semigroup())
    with pytest.raises(NilpotentAlgebra):
        graded_exponent_d(nil)


def conjugated(alg, p_rows, validated=True):
    """Base change by an invertible matrix respecting the grading blocks,
    validated unless asked not to: a base change keeps every law, and
    validating a dense structure takes about dim^5 products."""
    n = alg.dim
    cols = list(zip(*p_rows))
    new_basis = [tuple(vec(r)) for r in p_rows]
    # the inverse of the base change, solved for once and applied in
    # integers: its rows times d, and v times its own denominator
    inverse = list(zip(*(solve(cols, unit_vec(n, k)) for k in range(n))))
    d = math.lcm(*(x.denominator for row in inverse for x in row))
    scaled = [[int(x * d) for x in row] for row in inverse]

    def coords(v):
        dv = math.lcm(*(Fraction(x).denominator for x in v))
        iv = [int(x * dv) for x in v]
        return tuple(Fraction(sum(map(operator.mul, row, iv)), d * dv) for row in scaled)

    structure = {}
    for i in range(n):
        for j in range(n):
            prod = alg.multiply(new_basis[i], new_basis[j])
            cell = {k: c for k, c in enumerate(coords(prod)) if c != 0}
            if cell:
                structure[(i, j)] = cell
    unit = tuple(coords(alg.unit)) if alg.unit is not None else None
    moved = GradedAlgebra(n, tuple(f"c{i}" for i in range(n)), structure,
                          alg.degree, alg.semigroup, unit=unit, name=alg.name + "|conj")
    return validate_or_raise(moved) if validated else moved


def test_exponent_invariant_under_base_change():
    alg = paper_catalog("utk_column_graded", 2)
    # mix within degree components only: e11 fixed; e12, e22 share a degree
    p = [(1, 0, 0), (0, 1, 1), (0, 2, 1)]
    moved = conjugated(alg, p)
    assert graded_exponent_d(moved) == graded_exponent_d(alg) == 2


# -- mirror (left zero band) and deeper filtrations -----------------------------------

def test_left_zero_band_mirror():
    from semigraded.gralgebra import opposite, validate

    mirror = opposite(paper_catalog("utk_column_graded", 2))
    assert is_left_zero_band(mirror.semigroup)
    assert validate(mirror)["ok"]
    ok, _ = all_ideals_graded_zeroband(mirror)
    assert ok
    data = graded_malcev_zeroband(mirror)
    complement_is_valid(mirror, data)
    assert is_graded_subspace(mirror, data.complement)


def test_graded_malcev_three_step_filtration():
    # radical of the 4x4 triangular algebra has nonzero cube
    alg = paper_catalog("utk_column_graded", 4)
    rad = jacobson_radical(alg)
    rad3 = subspace_product(alg, subspace_product(alg, rad, rad), rad)
    assert not rad3.is_zero()
    data = graded_malcev_zeroband(alg)
    complement_is_valid(alg, data)
    assert is_graded_subspace(alg, data.complement)
    assert data.complement.dim == 4
    assert graded_exponent_d(alg) == ordinary_exponent(alg) == 4


# -- oracle: the graded complement by induction on the radical filtration,
# as it ran before the single conjugation --

def _combine(rows, coords):
    return tuple(sum((c * r[k] for c, r in zip(coords, rows)), Fraction(0))
                 for k in range(len(rows[0])))


def recursive_graded_malcev(alg):
    """Basis rows of a graded complement of the radical of a unital
    zero-band-graded algebra: for a square-zero radical, the plain
    complement conjugated by 1 + e_t j - j e_t until it holds each unit
    component e_t; for a larger radical, a complement of A/J^2 lifted to
    its preimage subalgebra, which has a smaller radical."""
    rad = jacobson_radical(alg)
    assert is_graded_subspace(alg, rad)
    if rad.is_zero():
        return [alg.basis_vector(i) for i in range(alg.dim)]
    rad2 = subspace_product(alg, rad, rad)
    if rad2.is_zero():
        cols = list(malcev_complement(alg).section)
        _, project, _ = quotient_algebra(alg, rad, graded=False)
        parts = unit_component_idempotents(alg)
        for t in sorted(parts):
            e = parts[t]
            j = tuple(x - y for x, y in zip(_combine(cols, project(e)), e))
            ej, je = alg.multiply(e, j), alg.multiply(j, e)
            u = tuple(a - b + c for a, b, c in zip(alg.unit, je, ej))
            uinv = tuple(a - b + c for a, b, c in zip(alg.unit, ej, je))
            assert alg.multiply(u, uinv) == alg.unit
            cols = [alg.multiply(alg.multiply(u, c), uinv) for c in cols]
            assert _combine(cols, project(e)) == e
        return cols
    qalg, _, lift = quotient_algebra(alg, rad2, graded=True)
    preimage = Subspace(alg.dim, [lift(c) for c in recursive_graded_malcev(qalg)]).sum(rad2)
    sub, sub_rows = subalgebra_on(alg, preimage)
    return [_combine(sub_rows, c) for c in recursive_graded_malcev(sub)]


@functools.cache
def zero_band_algebras():
    bases = [paper_catalog("utk_column_graded", k) for k in (2, 3, 4)]
    bases += [skewed_ut2(), paper_catalog("mk_column_graded", 2)]
    return bases + [opposite(a) for a in bases]


@functools.cache
def zero_band_exponents():
    return [graded_exponent_d(a) for a in zero_band_algebras()]


def random_base_change(alg, rng):
    """Rows of an invertible integer matrix that mixes basis vectors only
    within a degree component: a unitriangular times a diagonal times a
    unitriangular block on each component."""
    n = alg.dim
    rows = [[0] * n for _ in range(n)]
    for t in alg.support():
        idx = alg.component_indices(t)
        low = [[rng.randint(-2, 2) if b < a else int(a == b) for b in idx] for a in idx]
        up = [[rng.randint(-2, 2) if b > a else rng.choice((-2, -1, 1, 2)) if a == b else 0
               for b in idx] for a in idx]
        for a, i in enumerate(idx):
            for b, k in enumerate(idx):
                rows[i][k] = sum(low[a][c] * up[c][b] for c in range(len(idx)))
    return rows


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_graded_splitting_matches_the_recursive_oracle(data):
    i = data.draw(st.sampled_from(range(len(zero_band_algebras()))))
    base = zero_band_algebras()[i]
    alg = conjugated(base, random_base_change(base, data.draw(st.randoms(use_true_random=False))))
    split = graded_malcev_zeroband(alg)
    complement_is_valid(alg, split)
    assert split.complement == Subspace(alg.dim, recursive_graded_malcev(alg))
    assert is_graded_subspace(alg, split.complement)
    assert all(split.complement.contains(e) for e in unit_component_idempotents(alg).values())
    q, project, _ = quotient_algebra(alg, split.radical, graded=False)
    assert [project(c) for c in split.section] == [unit_vec(q.dim, k) for k in range(q.dim)]
    assert graded_exponent_d(alg) == zero_band_exponents()[i]


def test_random_base_changes_need_the_conjugation():
    rng = random.Random(0)
    logs = [graded_malcev_zeroband(conjugated(base, random_base_change(base, rng))).correction_log
            for base in zero_band_algebras() for _ in range(2)]
    assert sum(map(bool, logs)) >= len(logs) // 2
    # the catalog bases themselves split without it
    assert [bool(graded_malcev_zeroband(base).correction_log) for base in zero_band_algebras()] \
        == [a.name in ("skewed_ut2", "skewed_ut2.op") for a in zero_band_algebras()]


def test_graded_simple_probable_on_field_extension():
    # a quadratic field extension is simple over Q but reducible after
    # extending scalars, so the honest verdict stays probable_true
    qs2 = GradedAlgebra(
        2, ("one", "s"),
        {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
         (1, 0): {1: Fraction(1)}, (1, 1): {0: Fraction(2)}},
        (0, 0), trivial_semigroup(), unit=(Fraction(1), Fraction(0)))
    res = is_graded_simple(validate_or_raise(qs2))
    assert res.verdict == "probable_true"
    assert res.trials == 1000


def test_graded_simple_opposite_fractional():
    from semigraded.gralgebra import opposite, validate
    mirror = opposite(paper_catalog("thm_T3_fractional"))
    assert validate(mirror)["ok"]
    assert is_graded_simple(mirror).verdict == "certified_true"


def _closure_generators(alg):
    """The component projections and the left and right multiplications
    by every basis element, as matrices acting on coordinate columns."""
    n = alg.dim
    gens = [[[int(i == j and alg.degree[i] == t) for j in range(n)] for i in range(n)]
            for t in alg.support()]
    for b in range(n):
        gens.append([[alg.mul_basis(b, j).get(i, 0) for j in range(n)] for i in range(n)])
        gens.append([[alg.mul_basis(j, b).get(i, 0) for j in range(n)] for i in range(n)])
    return gens


def _int_matrix(m):
    assert all(x.denominator == 1 for r in m for x in r)  # integral on the catalog
    return np.array([[int(x) for x in r] for r in m], dtype=np.int64)


@pytest.mark.parametrize("spec", [
    "thm_T1_fractional", "thm_T2_fractional", "thm_T3_fractional",
    "exampleT1(2)", "exampleT2(2)", "exampleT3(2)", "mk_column_graded(2)",
    "utk_column_graded(2)", "mk_zhalf_graded", "full_matrix(2)", "upper_triangular(3)",
])
def test_operator_closure_is_a_basis_of_the_generated_algebra(spec):
    alg = parse_catalog_spec(spec)
    n = alg.dim
    ops = [_int_matrix(m) for m in _operator_closure(alg)]

    def row(m):
        return {k: int(x) for k, x in enumerate(m.flat) if x}

    rows = [row(m) for m in ops]
    assert block_rank(rows, n * n) == len(ops)  # linearly independent
    assert any((m == np.eye(n, dtype=np.int64)).all() for m in ops)
    gens = [_int_matrix(g) for g in _closure_generators(alg)]
    products = [row(p) for m in ops for g in gens for p in (g @ m, m @ g)]
    assert block_rank(rows + products, n * n) == len(ops)  # the span is closed
    if spec == "thm_T3_fractional":
        assert len(ops) == 36


# -- oracle: the operator closure on Fraction matrices, closed on both sides,
# as it ran before it took left products of integer generators --

def two_sided_operator_closure(alg):
    """Basis of the unital operator algebra generated by the component
    projections and the one-sided basis multiplications: every new
    product f.g and g.f of a kept matrix f and a generator g is kept
    when independent, up to n^2 matrices."""
    n = alg.dim
    gens = []
    for t in alg.support():
        idx = alg.component_indices(t)
        gens.append([tuple(ONE if (i == j and i in idx) else ZERO for j in range(n))
                     for i in range(n)])
    for b in range(n):
        gens.append([tuple(alg.mul_basis(b, j).get(i, ZERO) for j in range(n)) for i in range(n)])
        gens.append([tuple(alg.mul_basis(j, b).get(i, ZERO) for j in range(n)) for i in range(n)])
    ident = [unit_vec(n, i) for i in range(n)]
    echelon = {}
    basis_mats = []

    def insert(m):
        if not eliminate(echelon, dict(enumerate(x for row in m for x in row))):
            return False
        basis_mats.append(m)
        return True

    insert(ident)
    for g in gens:
        insert(g)
    frontier = list(basis_mats)
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                for prod in (mat_mul(f, g), mat_mul(g, f)):
                    if len(basis_mats) == n * n:
                        return basis_mats
                    if insert(prod):
                        new.append(prod)
        frontier = new
    return basis_mats


def test_operator_closure_matches_the_two_sided_oracle():
    for alg in closure_algebras():
        n = alg.dim

        def span(mats):
            return Subspace(n * n, [[x for row in m for x in row] for m in mats])

        ops = _operator_closure(alg)
        assert all(type(x) is int for m in ops for row in m for x in row)
        assert span(ops) == span(two_sided_operator_closure(alg)), alg.name


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_kernels_match_the_fraction_oracles(data):
    """Products, subspace products, the trace form and radical, the center
    and the center's block matrices, on a catalog algebra under a random
    base change, against the Fraction versions of fraction_oracles."""
    base = data.draw(st.sampled_from(CATALOG_SMALL))
    alg = conjugated(base, random_base_change(base, data.draw(st.randoms(use_true_random=False))),
                     validated=False)
    n = alg.dim
    vectors = st.lists(small_entries, min_size=n, max_size=n).map(vec)
    u, v = data.draw(vectors), data.draw(vectors)
    assert alg.multiply(u, v) == fraction_multiply(alg, u, v)
    s, t = (Subspace(n, data.draw(st.lists(vectors, max_size=3))) for _ in range(2))
    assert subspace_product(alg, s, t) == fraction_subspace_product(alg, s, t)
    scale = alg.integer_table()[1]
    assert _trace_form(alg) == [[scale ** 2 * x for x in row] for row in fraction_trace_form(alg)]
    assert _trace_radical(alg) == fraction_trace_radical(alg)
    z = center(alg)
    assert z == fraction_center(alg)
    if z.rows:
        w = data.draw(st.sampled_from(z.rows))
        block, scale = _block_matrix(alg, z.rows, w)
        assert scale > 0 and [tuple(Fraction(x, scale) for x in row) for row in block] == \
            fraction_block_matrix(alg, z.rows, w)


# the paper's examples with a radical, for the parity of the integer
# structure kernels with the Fraction ones they replaced
PARITY_SPECS = ("exampleT1(2)", "exampleT2(2)", "exampleT3(2)", "utk_column_graded(2)",
                "utk_column_graded(3)", "thm_T1_fractional", "thm_T2_fractional",
                "thm_T3_fractional")


def _outcome(f, alg):
    """f(alg), or the class of the workbench error it raises."""
    try:
        return f(alg)
    except WorkbenchError as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_structure_kernels_match_the_fraction_oracles_under_base_change(data):
    """The splits of the center of A/J (_split_block), the complements of
    malcev_complement and graded_malcev_zeroband, and the graded and
    ordinary exponents, on integer rows and on the Fraction block matrix,
    minimal polynomial and section correction they replaced
    (fraction_split_block, fraction_malcev), for the paper's examples
    under a random base change."""
    base = parse_catalog_spec(data.draw(st.sampled_from(PARITY_SPECS)))
    alg = conjugated(base, random_base_change(base, data.draw(st.randoms(use_true_random=False))),
                     validated=False)
    qalg = quotient_algebra(alg, jacobson_radical(alg), graded=False)[0]
    z = center(qalg)
    parts = _central_parts(qalg, z.rows)
    split = _split_block(qalg, z.rows, parts)
    oracle = fraction_split_block(qalg, z.canonical_rows, parts)
    assert (split is None) == (oracle is None) == (z.dim < 2)
    if split is not None:
        assert [Subspace(qalg.dim, p) for p in split] == [Subspace(qalg.dim, p) for p in oracle]
    checks = (lambda a: malcev_complement(a).complement,
              lambda a: graded_malcev_zeroband(a).complement,
              graded_exponent_d, ordinary_exponent)
    got = [_outcome(f, alg) for f in checks]
    with patch.object(structure, "_malcev", fraction_malcev), \
            patch.object(structure, "_split_block", fraction_split_block):
        assert got == [_outcome(f, alg) for f in checks]
