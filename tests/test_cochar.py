import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigraded.cochar import (
    FactoredPolynomial,
    Partition,
    YoungTableau,
    _compose,
    alternating_column_polynomial,
    alternation_vanishing_check,
    apply_symmetrizer,
    build_witness,
    choose_beta,
    dim_bounds,
    enumerate_partitions,
    hook_dim,
    multiplicity_exact,
    multiplicity_nonzero_certificate,
    partitions_of,
    spanning_permutations,
    theta,
    theta_scan,
)
from semigraded.codim import _product_cache, block_rank, graded_codim
from semigraded.errors import (
    HypothesisViolated,
    SizeMismatch,
    TooManyParts,
    UnsupportedAlgebra,
)
from semigraded.gralgebra import GradedAlgebra, full_matrix, paper_catalog
from semigraded.semigroup import trivial_semigroup
from test_codim import catalog_at_two, half_scaled


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
    assert [l.parts for l in enumerate_partitions(4, max_parts=1)] == [(4,)]


def test_enumerate_with_constraints():
    # at most 7 parts and the two smallest of the first seven bounded by the largest
    def member(lam):
        return lam.part(8) == 0 and lam.part(6) + lam.part(7) <= lam.part(1)
    out = [l.parts for l in enumerate_partitions(7, predicate=member)]
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
    assert len(list(t.row_group())) == math.factorial(3) * math.factorial(2)
    assert len(list(t.column_group_signed())) == 2 * 2


def test_full_alternation_kills_repeats():
    # single-column shape, a monomial evaluated on a substitution with a
    # repeated basis element must die under the symmetrizer
    m2 = full_matrix(2)
    lam = Partition((1, 1, 1))
    t = YoungTableau.column_major(lam)
    poly = alternating_column_polynomial((0, 1, 2), (0, 1, 2), (0, 0, 0))
    f = FactoredPolynomial(3, [poly], [(0, 1, 2)])
    tau = {0: 0, 1: 0, 2: 1}  # e11 twice
    value = apply_symmetrizer(m2, t, f, tau)
    assert all(c == 0 for c in value)


def test_symmetrizer_size_mismatch():
    m2 = full_matrix(2)
    t = YoungTableau.column_major(Partition((2,)))
    poly = alternating_column_polynomial((0, 1, 2), (0, 1, 2), (0, 0, 0))
    f = FactoredPolynomial(3, [poly], [(0, 1, 2)])
    with pytest.raises(SizeMismatch):
        apply_symmetrizer(m2, t, f, {0: 0, 1: 1, 2: 2})


def test_shortcut_matches_double_sum_on_witnesses():
    t3 = paper_catalog("thm_T3_fractional")
    t1 = paper_catalog("thm_T1_fractional")
    for variant, alg, parts in (("T3", t3, (2, 1, 1, 1, 1)),
                                ("T3", t3, (1, 1, 1, 1)),
                                ("T1", t1, (2, 1, 1, 1, 1, 1)),
                                ("T1", t1, (1, 1, 1, 1, 1))):
        w = build_witness(variant, Partition(parts), alg=alg)
        fast = apply_symmetrizer(alg, w.tableau, w.f, w.tau, shortcut=True)
        slow = apply_symmetrizer(alg, w.tableau, w.f, w.tau, shortcut=False)
        assert fast == slow


def test_e_star_convention_runs():
    t3 = paper_catalog("thm_T3_fractional")
    w = build_witness("T3", Partition((2, 1, 1)), alg=t3)
    value = apply_symmetrizer(t3, w.tableau, w.f, w.tau, convention="e_star")
    assert len(value) == t3.dim


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
    for name in ("thm_T1_fractional", "thm_T3_fractional"):
        report = theta_scan(paper_catalog(name), 4)
        assert report["ok"], report["violations"][:3]
        assert report["products_checked"] > 0


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
    assert multiplicity_nonzero_certificate(t3, "T3", Partition((2, 2, 1, 1, 1, 1)))


def test_witness_certificates():
    t1 = paper_catalog("thm_T1_fractional")
    t3 = paper_catalog("thm_T3_fractional")
    assert multiplicity_nonzero_certificate(t1, "T1", Partition((2, 1, 1, 1, 1, 1)))
    assert multiplicity_nonzero_certificate(t3, "T3", Partition((2, 1, 1, 1, 1)))


def test_witness_certificates_boundary():
    t1 = paper_catalog("thm_T1_fractional")
    t3 = paper_catalog("thm_T3_fractional")
    assert multiplicity_nonzero_certificate(t1, "T1", Partition((2, 2, 2, 2, 2, 2, 1)))
    assert multiplicity_nonzero_certificate(t3, "T3", Partition((2, 2, 2, 2, 2, 1)))


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


def test_multiplicity_cross_check_against_codim():
    from semigraded.codim import graded_codim
    for name in ("thm_T1_fractional", "thm_T3_fractional"):
        alg = paper_catalog(name)
        for n in (1, 2, 3, 4):
            total = sum(multiplicity_exact(alg, lam) * hook_dim(lam)
                        for lam in partitions_of(n))
            assert total == graded_codim(alg, n, mode="exact").value, (name, n)


def test_certificate_implies_positive_multiplicity():
    t3 = paper_catalog("thm_T3_fractional")
    for n in (1, 2, 3, 4):
        for lam in partitions_of(n):
            if multiplicity_nonzero_certificate(t3, "T3", lam):
                assert multiplicity_exact(t3, lam) >= 1, lam


def test_certificate_cross_check_degree_five_spot():
    # one degree-5 spot check of the same implication, at the default cap
    t3 = paper_catalog("thm_T3_fractional")
    lam = Partition((2, 2, 1))
    assert multiplicity_nonzero_certificate(t3, "T3", lam)
    assert multiplicity_exact(t3, lam) >= 1


def test_positive_multiplicities_lie_in_the_support_region():
    from semigraded.asympt import multiplicity_support_polytope, omega_n_membership
    t1 = paper_catalog("thm_T1_fractional")
    support = multiplicity_support_polytope("T1")
    for n in (1, 2, 3):
        for lam in partitions_of(n):
            if multiplicity_exact(t1, lam) > 0:
                assert omega_n_membership(support, lam), lam


def oracle_multiplicity(alg, lam):
    """The multiplicity as the rank of all n! * |support| ** n symmetrized
    rows, each summed over the symmetrizer as a dict keyed by
    (substitution, coordinate)."""
    n = lam.n
    support = alg.support()
    tableau = YoungTableau.column_major(lam)
    cache = _product_cache(alg, n)
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
             for rho in tableau.row_group()
             for sigma, sign in tableau.column_group_signed()]

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


def test_multiplicity_matches_the_oracle_on_the_catalog():
    for alg in catalog_at_two():
        for n in (1, 2, 3):
            for lam in partitions_of(n):
                assert multiplicity_exact(alg, lam) == oracle_multiplicity(alg, lam), \
                    (alg.name, lam)


@pytest.mark.parametrize("spec", [("thm_T1_fractional",), ("thm_T3_fractional",),
                                  ("exampleT2", 2)])
def test_multiplicity_matches_the_oracle_degree_four(spec):
    alg = paper_catalog(*spec)
    for lam in partitions_of(4):
        assert multiplicity_exact(alg, lam) == oracle_multiplicity(alg, lam), lam


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


def test_spanning_permutations_count_is_the_hook_dimension():
    for n in range(1, 6):
        for lam in partitions_of(n):
            basis = spanning_permutations(lam)
            assert len(basis) == len(set(basis)) == hook_dim(lam), lam
            # e_T itself is nonzero, so the identity comes first
            assert basis[0] == tuple(range(n)), lam


# -- alternation vanishing -----------------------------------------------------------------

def test_alternation_vanishing_on_catalog():
    t1 = paper_catalog("thm_T1_fractional")
    report = alternation_vanishing_check(t1, 8, trials=50, seed=3)
    assert report["ok"]
    t3 = paper_catalog("thm_T3_fractional")
    report = alternation_vanishing_check(t3, 7, trials=50, seed=3)
    assert report["ok"]


def test_alternation_needs_more_variables_than_dim():
    t3 = paper_catalog("thm_T3_fractional")
    with pytest.raises(SizeMismatch):
        alternation_vanishing_check(t3, t3.dim)
