import functools
import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semigraded.algfile import serialize_algebra
from semigraded.errors import (
    BadParam,
    GradingViolation,
    NotAssociative,
    ResourceLimit,
    UnknownName,
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
    validate,
    validate_or_raise,
    with_trivial_grading,
)
from semigraded.linalg import Subspace, is_zero_vec
from semigraded.semigroup import catalog_semigroup, trivial_semigroup
from algebra_fixtures import SemigroupMismatch, adjoin_unit, catalog_names, direct_sum, find_unit
from fraction_oracles import solve, vec
from test_codim import scaled_products

CATALOG_ARGS = {
    "exampleT1": (2,), "exampleT2": (2,), "exampleT3": (2,),
    "mk_column_graded": (2,), "utk_column_graded": (3,),
    "full_matrix": (2,), "upper_triangular": (3,),
    "thm_T1_fractional": (), "thm_T2_fractional": (), "thm_T3_fractional": (),
    "mk_zhalf_graded": (),
}


def m2_label(alg, name):
    return alg.basis_labels.index(name)


def dense_validate(alg: GradedAlgebra):
    """The dense validation loop, kept as the oracle for validate: every
    product is a full Fraction vector from GradedAlgebra.multiply."""
    violations = []
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ij = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
            # grading law on the pair (i, j)
            target = alg.semigroup.mul(alg.degree[i], alg.degree[j])
            for k, c in enumerate(ij):
                if c != 0 and alg.degree[k] != target:
                    violations.append(("grading", (i, j), k))
            for k in range(n):
                left = alg.multiply(ij, alg.basis_vector(k))
                jk = alg.multiply(alg.basis_vector(j), alg.basis_vector(k))
                right = alg.multiply(alg.basis_vector(i), jk)
                if left != right:
                    violations.append(("associativity", (i, j, k)))
    if alg.unit is not None:
        for i in range(n):
            e = alg.basis_vector(i)
            if alg.multiply(alg.unit, e) != e or alg.multiply(e, alg.unit) != e:
                violations.append(("unit", i))
    return {"ok": not violations, "violations": violations}


def dense_multiply(alg, u, v):
    """u v summed over every basis pair, zero coordinates included."""
    out = [Fraction(0)] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k, c in alg.mul_basis(i, j).items():
                out[k] += u[i] * v[j] * c
    return tuple(out)


def test_every_catalog_entry_validates():
    for name in catalog_names():
        alg = paper_catalog(name, *CATALOG_ARGS[name])
        assert validate(alg)["ok"], name


CATALOG_SMALL = [paper_catalog(name, *CATALOG_ARGS[name]) for name in catalog_names()]
# opposite, direct sum and unitization of the catalog, all valid
DERIVED = (
    [opposite(a) for a in CATALOG_SMALL]
    + [direct_sum(a, a) for a in CATALOG_SMALL if a.dim <= 7]
    + [adjoin_unit(a) for a in CATALOG_SMALL]
)
COEFFICIENTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                Fraction(-3, 2)]


def with_constant(alg, i, j, k, c):
    """alg with the coefficient of e_k in e_i e_j set to c, kept even when 0."""
    structure = {key: dict(cell) for key, cell in alg.structure.items()}
    structure.setdefault((i, j), {})[k] = c
    return replace(alg, structure=structure)


@st.composite
def perturbed_algebras(draw):
    """A catalog or derived algebra, maybe with one structure constant, one
    degree or the unit changed."""
    alg = draw(st.sampled_from(CATALOG_SMALL + DERIVED))
    n = alg.dim
    index = st.integers(0, n - 1)
    change = draw(st.sampled_from(["none", "constant", "degree", "unit"]))
    if change == "constant":
        i, j = draw(index), draw(index)
        cell = alg.structure.get((i, j), {})
        k = draw(st.sampled_from(sorted(cell)) if cell and draw(st.booleans()) else index)
        alg = with_constant(alg, i, j, k, draw(st.sampled_from(COEFFICIENTS)))
    elif change == "degree":
        i = draw(index)
        degree = list(alg.degree)
        degree[i] = draw(st.integers(0, alg.semigroup.order - 1))
        alg = replace(alg, degree=tuple(degree))
    elif change == "unit":
        unit = list(alg.unit or [Fraction(0)] * n)
        unit[draw(index)] += draw(st.sampled_from(COEFFICIENTS[1:]))
        alg = replace(alg, unit=tuple(unit))
    return alg


def doubled_unit(alg):
    return replace(alg, unit=tuple(2 * c for c in alg.unit))


def assert_validation_matches_the_oracle(alg):
    want = dense_validate(alg)
    assert validate(alg) == want
    if want["ok"]:
        assert validate_or_raise(alg) is alg
        return
    kind, where = want["violations"][0][:2]
    error = NotAssociative if kind == "associativity" else GradingViolation
    with pytest.raises(error) as info:
        validate_or_raise(alg)
    assert type(info.value) is error
    assert getattr(info.value, "triple" if kind == "associativity" else "pair") == where


@settings(max_examples=120, deadline=None)
@given(perturbed_algebras())
# explicit zeros on a zero and a nonzero product, a non-integral constant
# (a table scale past 1), a degree and a unit changed
@example(with_constant(full_matrix(2), 0, 3, 0, Fraction(0)))
@example(with_constant(full_matrix(2), 0, 0, 0, Fraction(0)))
@example(with_constant(full_matrix(2), 1, 2, 0, Fraction(1, 2)))
@example(with_constant(paper_catalog("thm_T3_fractional"), 0, 0, 5, Fraction(3)))
@example(replace(paper_catalog("mk_zhalf_graded"), degree=(0, 0, 1, 0)))
@example(replace(full_matrix(2), unit=(Fraction(1), Fraction(0), Fraction(0), Fraction(2))))
# bases scaled by 2 and 2/3: the constants times k, the unit over k, so its
# coordinates are not integral; correct, and doubled
@example(scaled_products(paper_catalog("thm_T1_fractional"), 2))
@example(scaled_products(paper_catalog("thm_T1_fractional"), Fraction(2, 3)))
@example(doubled_unit(scaled_products(paper_catalog("thm_T1_fractional"), 2)))
@example(doubled_unit(scaled_products(paper_catalog("thm_T1_fractional"), Fraction(2, 3))))
def test_validate_matches_the_dense_oracle(alg):
    assert_validation_matches_the_oracle(alg)


def test_validate_refuses_too_many_basis_triples_before_any_product(monkeypatch):
    from semigraded import codim, gralgebra

    monkeypatch.setattr(codim, "DEFAULT_BLOCK_CAP", 27)
    assert validate(upper_triangular(2))["ok"]  # dimension 3: 27 triples, at the cap

    def no_product(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(gralgebra, "multiplication_maps", no_product)
    with pytest.raises(ResourceLimit, match="dimension 4 checks 64 basis triples"):
        validate(full_matrix(2))


def test_catalog_unknown_and_bad_params():
    with pytest.raises(UnknownName):
        paper_catalog("unheard_of")
    with pytest.raises(BadParam):
        paper_catalog("full_matrix")
    with pytest.raises(BadParam):
        paper_catalog("mk_column_graded", 1)


# SHA-256 of serialize_algebra(alg) + repr(alg.matrix_positions): labels,
# degrees, structure constants, unit, name and matrix positions, for every
# catalog spec at k = 1..3 where it is accepted, its with_trivial_grading
# and its opposite
CATALOG_DIGESTS = {
    "exampleT1(2)": "396fb97624254bebc06a568174b1ac7892a677d1a7698a99d6e5cd8a20c85914",
    "exampleT1(2)|trivial": "d67c3b5ec6c46e4413676be6b82f832325861d38d1d7e533864c968f8c442af7",
    "exampleT1(2).op": "82d6f3479e20a022c17919d2041fd3f3bc518beb9a2eb87e2ec67ebd58063c63",
    "exampleT1(3)": "8b3e3484bb362fe4193583b92dac4cf88dc87447694ac2ef707f98f219a8f142",
    "exampleT1(3)|trivial": "0249d6805b1fdaa8b9f036d5bf99b8881e3142d1fed9059c933ed696224a4f42",
    "exampleT1(3).op": "acba7c03ef2cd5b4e10700d857834be66e217c08d4f378036a870b72e50070db",
    "exampleT2(1)": "dd91c0f8abeb5f91e8af2ee05039d271f744232ac13300e09dcaf2be67a58372",
    "exampleT2(1)|trivial": "c82982a9a44fdc9c32d8f8b293ded84c530ad9eccab540870799e0994c73308f",
    "exampleT2(1).op": "c4c249a044525737fb7fcef2d3d40827606e876bab1604f9365b4c6f07fdc08a",
    "exampleT2(2)": "a923d907c1d31de784833b3da78ca7602273f5f9bac35122c29dfd37ac3b3a99",
    "exampleT2(2)|trivial": "f01285d1f5d98574ea0ad3ca1c26b2d7284068e073705324f1ec5e1824dc78ba",
    "exampleT2(2).op": "b296b28c5611d0c1f798b0d8a19083b0b54c6ca60d6b9989e8a89e5d0e71e9be",
    "exampleT2(3)": "8301fe3d04f190c8cce76de5abf0c584632510f11c3da2fe9c3dd81ff9b123d7",
    "exampleT2(3)|trivial": "3dfda026dd26bc927b72c1594278a0a066bb54340b90450812af3f984b30a25b",
    "exampleT2(3).op": "4063601c3ae583effdfdcac8b0179476f3aa7126f522c5d242916f1e11f28072",
    "exampleT3(1)": "30c423a75a0349e4c6411b25b70fdf29d4460a6549a7d920e22672d605c7de30",
    "exampleT3(1)|trivial": "e284360b88432fb2ac9e550af9d29f9e105040a64b667be9016694d72803be1e",
    "exampleT3(1).op": "6e91527e2b84eb004c0b7a7d1e6b4d76f33b24eace6f1e3694b67d7ea873189b",
    "exampleT3(2)": "17cb864edd4024cfb78d2765f1e46ce46869a24e67cb4fd349c9aac0f95ef541",
    "exampleT3(2)|trivial": "2250ddf61662abf0f5cf4224e56b3f2d2c44aba2f1392ef2b99f6c092556814c",
    "exampleT3(2).op": "1ba9dbaeb1dbc67298f8921483c2ef8b695ef4113441a23f205d273beb53b785",
    "exampleT3(3)": "a998017b14ea1a08fc0c087d953483f32607541d820426e38ec3f3f095bce892",
    "exampleT3(3)|trivial": "bd40a92654d1a49d5b62aa8b2e5f0abac2c19b1e5d0dcd60c3c5a2aa8ca3dca9",
    "exampleT3(3).op": "cfb309483e316f2b1f835be97c6995963c4265e5c1939951973443eebfcf845d",
    "full_matrix(1)": "379afd6435ad0859e5009b9ee92339d2721110633e676fae5d619be0c8c4b958",
    "full_matrix(1)|trivial": "e5252369962eecc36525b3adf6556feabad4a8d7b2153bba7aa3e16cfde4557b",
    "full_matrix(1).op": "ab8d75f2e5045410e50477c5a4da009b2cbbda7ed125001720aed2be7358c61a",
    "full_matrix(2)": "249179d87817284f633a7007a68dd79b15b45eef48d085aa6d9fe1ef5e9ad6c7",
    "full_matrix(2)|trivial": "0cc6bca8f556df398782f443cf882141cee6d8b6bb7117805c31a1f9b1839533",
    "full_matrix(2).op": "951616822d4be73c56ef072a547ea094a89a45c536a1be0478e332d97431c878",
    "full_matrix(3)": "7dd1cdc998a8b1c8e33e6271dd531fadba4531c59816c3111e692303b517093f",
    "full_matrix(3)|trivial": "558b191efab5c53eb77378b6f441b816ddb203b90d06596bc808852d593b2bf5",
    "full_matrix(3).op": "6a50a96f0bb514fdc6e605f82ff8234c29ca7329a56b65a5f4cef792cb0faa65",
    "mk_column_graded(2)": "7c1a7b16e59d033164d20c1ec0c088189e1ce0af9a6e0bea5ab7587a676b6a53",
    "mk_column_graded(2)|trivial":
        "e60bed0bd131bfe7a66aec5c7647a262337153526360a026a50af49f916fccaa",
    "mk_column_graded(2).op": "9087915239221195b6ab5386922225548d4f86ad7d84b112d24b628ddfe25230",
    "mk_column_graded(3)": "2acb470c3a784f178d57833928569d392625823b03dbda5b3b61e12141c3aa3f",
    "mk_column_graded(3)|trivial":
        "8562da5be90d147c011fc5d4194cd3ac4c615f09c1af7575a14a99f1912e344b",
    "mk_column_graded(3).op": "142cca67aa2134123a694f4ee926a7f7997d19a6013a35761593e9e0bdd6a987",
    "mk_zhalf_graded": "6fae8f710d383d2a9887ead0356fc1860c4ffa02cc5fca90d5b8ec6fff115d0a",
    "mk_zhalf_graded|trivial": "01c82634d4e26d2674926c5c49bf44de2718adff72c01078905dfea547b83bfe",
    "mk_zhalf_graded.op": "cf90b0056135b8e57c8fb5df0c10afb257b3154980dc04b500ac3b922849efd9",
    "thm_T1_fractional": "6d60c860cbf6776ebe3502d1176f75b8f69dc831bddcbde29297971a40620516",
    "thm_T1_fractional|trivial":
        "909bad2295a1655ac8740830a368b74d2abf787e2d427b2178198fe70f9dc639",
    "thm_T1_fractional.op": "c2f254f606ad0934146ab3476da91f43867ed03ab64e0a32101afc3a72bc968e",
    "thm_T2_fractional": "f75431f21a04c73d348060744761587e2ee6b714492b2e60c6c95affaf6addd3",
    "thm_T2_fractional|trivial":
        "f61cb89094e8bc3a9ae7a8251aab6bf5682b3a211819445815596ed3abbe932d",
    "thm_T2_fractional.op": "95b0f24d26243ffa3dfd76b08579cb0ea1aa4edb42d0c8b1885b8376fc5e34d7",
    "thm_T3_fractional": "ceb01989eb4dbf3e76b444b6295927fee8a9b9a74b4242b58cf9156af53162b9",
    "thm_T3_fractional|trivial":
        "ef36ebe51ef3d98b9ded84d379f49494d9d7f2708ab4a464cfba67401f3178bf",
    "thm_T3_fractional.op": "0b4534080de050e084b9c9dcabbce63e53e577c1777962dc57eea79cfa810058",
    "upper_triangular(1)": "c19976bf9b202222a10877c0a2e8522585192c6548ecf3f709a81d9993c702fa",
    "upper_triangular(1)|trivial":
        "acc09989b5badb156adab645a7fc3511c8750cc095e6f5518117143c0515c437",
    "upper_triangular(1).op": "caa0b2df926608fb103c435a0d6e0119ac3d6145cb4e562c6778fcff1f3d400b",
    "upper_triangular(2)": "3c730f72f61886c026019aa01e91088b39987928fdc64581aafb2c67b3bc7351",
    "upper_triangular(2)|trivial":
        "05ead22438a977bff073636e9f33124611512cb9ac92c6fc3bc0e2eae2ba002f",
    "upper_triangular(2).op": "7d9a1920e2e426622b4e26f245f9d012758fb48cfd9700b37425eecf905aaf6a",
    "upper_triangular(3)": "7a18dd40cdda2a388df1e3a0b35dcfd89a73002ca12f27881bfea019a3e16157",
    "upper_triangular(3)|trivial":
        "73807819cbecdd81369fddfea64bf0d772e2e99708371823eeb0d36e20066be9",
    "upper_triangular(3).op": "22ec33beb221b837fc7acc7f2d951eecf3ab642d5b29cd4c8c3d842238667183",
    "utk_column_graded(2)": "6eff397edeb8c32d8044168896f30fbc86d51ef1774b5678680f065a26f83dab",
    "utk_column_graded(2)|trivial":
        "f471f4b251d1fdb7ac30ae9b12a1628f5f94eac887f39cf57de05348081fbb50",
    "utk_column_graded(2).op": "efc0a5da6894e61e8f1c19b484bb9d7af83ba6df4899afe57478637096bcbf8c",
    "utk_column_graded(3)": "be1b6700f75aaae5690717ba1a5b94913e3b176ae3c9516a74d663574c0f9c8d",
    "utk_column_graded(3)|trivial":
        "7bdb362115c22fa3bb82ea9e2d92c4b161013d295e56c972fe16b854853b07c1",
    "utk_column_graded(3).op": "5fb152fa4960e0484021a319f7e201c3d84d2af3ca34ad088bb39bd9e13ce0bd",
}


def catalog_digest(alg: GradedAlgebra) -> str:
    return hashlib.sha256((serialize_algebra(alg) + repr(alg.matrix_positions)).encode()).hexdigest()


def test_catalog_is_pinned():
    digests = {}
    for name, args in CATALOG_ARGS.items():
        for params in [(k,) for k in (1, 2, 3)] if args else [()]:
            try:
                alg = paper_catalog(name, *params)
            except BadParam:
                continue
            digests.update((a.name, catalog_digest(a))
                           for a in (alg, with_trivial_grading(alg), opposite(alg)))
    assert digests == CATALOG_DIGESTS


@pytest.mark.parametrize("name, k, message", [
    ("full_matrix", 0, "k must be >= 1"), ("mk_column_graded", 1, "k must be >= 2"),
    ("utk_column_graded", 0, "k must be >= 2"), ("exampleT1", 1, "k must be >= 2")])
def test_catalog_builders_check_their_parameter_first(name, k, message):
    # utk_column_graded(0) is refused by its own check, not by upper_triangular(0)'s
    with pytest.raises(BadParam) as refused:
        paper_catalog(name, k)
    assert str(refused.value) == message


def test_parse_catalog_spec():
    assert parse_catalog_spec("catalog:full_matrix(3)").dim == 9
    assert parse_catalog_spec("thm_T3_fractional").dim == 6


def test_grading_violation_detected():
    # swap e12 of the diag/antidiag graded M2 into degree zero
    alg = paper_catalog("mk_zhalf_graded")
    bad = GradedAlgebra(
        dim=alg.dim, basis_labels=alg.basis_labels, structure=alg.structure,
        degree=(0, 0, 1, 0), semigroup=alg.semigroup, unit=alg.unit)
    report = validate(bad)
    assert not report["ok"]
    assert any(v[0] == "grading" for v in report["violations"])
    with pytest.raises(GradingViolation):
        validate_or_raise(bad)


def test_zero_algebra_any_degrees_ok():
    zero = GradedAlgebra(2, ("x", "y"), {}, (0, 1), catalog_semigroup("T2"))
    assert validate(zero)["ok"]


def test_matrix_unit_products():
    m2 = full_matrix(2)
    e11, e12, e21 = (m2.basis_vector(m2_label(m2, l)) for l in ("e11", "e12", "e21"))
    assert m2.multiply(e11, e12) == e12
    assert m2.multiply(e12, e12) == tuple(vec((0, 0, 0, 0)))
    assert m2.multiply(e12, e21) == e11


def test_direct_sum_componentwise_product():
    m2 = full_matrix(2)
    s = direct_sum(m2, m2)
    assert s.dim == 8
    left = tuple(m2.basis_vector(0)) + (Fraction(0),) * 4
    right = (Fraction(0),) * 4 + tuple(m2.basis_vector(0))
    assert s.multiply(left, right) == (Fraction(0),) * 8


def test_direct_sum_semigroup_mismatch():
    with pytest.raises(SemigroupMismatch):
        direct_sum(full_matrix(2), paper_catalog("mk_zhalf_graded"))


def test_components_and_support():
    a = paper_catalog("exampleT1", 2)
    assert a.component(0).dim == 4
    assert a.component(1).dim == 3
    assert a.support() == [0, 1]
    mk = paper_catalog("mk_column_graded", 3)
    assert mk.support() == [0, 1, 2]
    assert all(mk.component(t).dim == 3 for t in mk.support())


def test_component_project_resolution():
    a = paper_catalog("exampleT1", 2)
    v = tuple(vec(range(1, a.dim + 1)))
    total = [Fraction(0)] * a.dim
    for t in a.support():
        piece = a.component_project(t, v)
        total = [x + y for x, y in zip(total, piece)]
    assert tuple(total) == v
    p = a.component_project(0, v)
    assert a.component_project(0, p) == p
    assert a.component_project(1, p) == (Fraction(0),) * a.dim


def test_find_unit():
    m2 = full_matrix(2)
    assert find_unit(m2) == m2.unit
    assert find_unit(paper_catalog("thm_T3_fractional")) is None
    zero = GradedAlgebra(1, ("z",), {}, (0,), trivial_semigroup())
    assert find_unit(zero) is None


def test_adjoin_unit_zero_algebra():
    zero = GradedAlgebra(1, ("z",), {}, (0,), trivial_semigroup())
    plus = adjoin_unit(zero)
    assert plus.dim == 2
    z = plus.basis_vector(0)
    assert plus.multiply(z, z) == (Fraction(0), Fraction(0))
    assert plus.multiply(plus.unit, z) == z


def test_adjoin_unit_to_unital_m2():
    m2 = full_matrix(2)
    plus = adjoin_unit(m2)
    assert plus.dim == 5
    assert validate(plus)["ok"]
    old_unit = tuple(m2.unit) + (Fraction(0),)
    # the old unit stays idempotent but is no longer the unit
    assert plus.multiply(old_unit, old_unit) == old_unit
    assert find_unit(plus) == plus.unit
    assert plus.unit != old_unit
    assert adjoin_unit(plus).dim == m2.dim + 2


def test_subspace_products_in_m2():
    m2 = full_matrix(2)
    span_e11 = Subspace(4, [m2.basis_vector(m2_label(m2, "e11"))])
    span_e12 = Subspace(4, [m2.basis_vector(m2_label(m2, "e12"))])
    prod = subspace_product(m2, span_e11, span_e12)
    assert prod == span_e12
    assert subspace_product(m2, span_e12, span_e12).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=7, max_size=7),
       st.lists(st.integers(-3, 3), min_size=7, max_size=7),
       st.lists(st.integers(-3, 3), min_size=7, max_size=7))
def test_multiply_associative_on_random_vectors(xs, ys, zs):
    a = paper_catalog("thm_T1_fractional")
    u, v, w = tuple(vec(xs)), tuple(vec(ys)), tuple(vec(zs))
    assert a.multiply(a.multiply(u, v), w) == a.multiply(u, a.multiply(v, w))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_multiply_matches_the_dense_loop(data):
    alg = data.draw(st.sampled_from(CATALOG_SMALL + DERIVED))
    scalars = st.sampled_from([Fraction(0)] * 3 + COEFFICIENTS)
    vectors = st.lists(scalars, min_size=alg.dim, max_size=alg.dim).map(tuple)
    u, v = data.draw(vectors), data.draw(vectors)
    assert alg.multiply(u, v) == dense_multiply(alg, u, v)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_subspace_product_bilinear(xs, ys):
    m2 = full_matrix(2)
    s = Subspace(4, [tuple(vec(xs))])
    t1 = Subspace(4, [tuple(vec(ys))])
    t2 = Subspace(4, [m2.basis_vector(1)])
    lhs = subspace_product(m2, s, t1.sum(t2))
    rhs = subspace_product(m2, s, t1).sum(subspace_product(m2, s, t2))
    assert lhs == rhs


def test_ideal_generated():
    m2 = full_matrix(2)
    full = ideal_generated(m2, [m2.basis_vector(m2_label(m2, "e12"))])
    assert full.dim == 4
    ut2 = upper_triangular(2)
    e12 = ut2.basis_vector(ut2.basis_labels.index("e12"))
    ideal = ideal_generated(ut2, [e12])
    assert ideal.dim == 1 and ideal.contains(e12)
    assert ideal_generated(m2, []).is_zero()
    # closure: multiplying the ideal by any basis element stays inside
    for i in range(ut2.dim):
        e = ut2.basis_vector(i)
        for row in ideal.rows:
            assert ideal.contains(ut2.multiply(e, row))
            assert ideal.contains(ut2.multiply(row, e))


def test_is_graded_subspace():
    a = paper_catalog("exampleT1", 2)
    for t in a.support():
        assert is_graded_subspace(a, a.component(t))
    assert is_graded_subspace(a, Subspace(a.dim, []))
    assert is_graded_subspace(a, a.full_subspace())
    # (0, e12) mixes the two components
    i0 = a.basis_labels.index("(e12,0)")
    i1 = a.basis_labels.index("(e12,e12)")
    mixed = Subspace(a.dim, [tuple(
        Fraction(1) if k == i1 else Fraction(-1) if k == i0 else Fraction(0)
        for k in range(a.dim))])
    assert not is_graded_subspace(a, mixed)
    # a row of the second and third degrees, none of the first
    ut3 = paper_catalog("utk_column_graded", 3)
    row = [int(label in ("e12", "e13")) for label in ut3.basis_labels]
    assert not is_graded_subspace(ut3, Subspace(ut3.dim, [row]))


def test_opposite_involution_and_m2_selfopposite():
    a = paper_catalog("exampleT3", 2)
    opp = opposite(a)
    assert validate(opp)["ok"]
    back = opposite(opp)
    assert back.structure == a.structure
    assert back.semigroup.table == a.semigroup.table
    # transpose gives an isomorphism M2 -> M2^op
    m2 = full_matrix(2)
    m2op = opposite(m2)
    transpose = {0: 0, 1: 2, 2: 1, 3: 3}  # e11,e12,e21,e22 -> e11,e21,e12,e22
    for i in range(4):
        for j in range(4):
            lhs = m2op.mul_basis(transpose[i], transpose[j])
            rhs = {transpose[k]: c for k, c in m2.mul_basis(i, j).items()}
            assert lhs == rhs


def _cells(alg):
    """alg.cell_table() as a set of (i, b, k, c): c the constant of e_i e_b at e_k."""
    table = alg.cell_table()
    first = np.repeat(np.arange(alg.dim ** 2), np.diff(table.start)) // alg.dim
    return set(zip(first.tolist(), table.letter.tolist(), table.target.tolist(),
                   table.constant.tolist()))


def test_tables_are_built_once_per_algebra():
    t3 = paper_catalog("thm_T3_fractional")
    assert t3.integer_table() is t3.integer_table()
    assert t3.cell_table() is t3.cell_table()
    assert not t3.cell_table().constant.flags.writeable
    cells = _cells(t3)
    # built before the copies: each copy builds its own from its own constants
    opp = opposite(t3)
    assert _cells(opp) == {(b, i, k, c) for i, b, k, c in cells} != cells
    assert _cells(replace(t3, structure=opp.structure)) == _cells(opp)
    assert replace(t3, name="copy").cell_table() is not t3.cell_table()
    doubled = replace(t3, structure={key: {k: 2 * c for k, c in cell.items()}
                                     for key, cell in t3.structure.items()})
    assert doubled.integer_table()[0] == {key: tuple((k, 2 * c) for k, c in cell)
                                          for key, cell in t3.integer_table()[0].items()}
    trivial = with_trivial_grading(t3)
    assert trivial.cell_table() is not t3.cell_table()
    assert _cells(trivial) == cells


def test_quotient_algebra():
    ut2 = upper_triangular(2)
    rad = Subspace(3, [ut2.basis_vector(1)])  # span e12
    q, project, lift = quotient_algebra(ut2, rad, graded=False)
    assert q.dim == 2
    assert validate(q)["ok"]
    assert project(ut2.basis_vector(1)) == (Fraction(0), Fraction(0))
    assert q.unit == (Fraction(1), Fraction(1))


# -- oracle: a graded subspace as an algebra in its own right, which the
# recursive graded splitting in test_structure runs inside --

def homogeneous_basis(alg: GradedAlgebra, s: Subspace):
    """A basis of the graded subspace s with every vector homogeneous: its
    echelon rows (see is_graded_subspace), in the order of their degrees."""
    if not is_graded_subspace(alg, s):
        raise GradingViolation(None, "subspace is not graded")
    return sorted(s.rows, key=lambda row: alg.degree[next(i for i, x in enumerate(row) if x)])


def subalgebra_on(alg: GradedAlgebra, s: Subspace):
    """The multiplicatively closed graded subspace s as an algebra, on a
    homogeneous basis so the grading restricts.  Returns (B, basis_rows)
    where basis_rows[i] is the A-vector realizing B's basis vector i."""
    rows = homogeneous_basis(alg, s)
    m = len(rows)
    matrix_cols = list(zip(*rows)) if rows else []

    def coords_of(v):
        sol = solve([tuple(r) for r in matrix_cols], v)
        if sol is None:
            raise GradingViolation(None, "subspace is not multiplicatively closed")
        return sol

    structure = {}
    for i in range(m):
        for j in range(m):
            cell = {k: c for k, c in enumerate(coords_of(alg.multiply(rows[i], rows[j]))) if c != 0}
            if cell:
                structure[(i, j)] = cell
    unit = coords_of(alg.unit) if alg.unit is not None and s.contains(alg.unit) else None
    degree = tuple(next(alg.degree[k] for k, c in enumerate(r) if c != 0) for r in rows)
    b = GradedAlgebra(
        dim=m, basis_labels=tuple(f"b{i}" for i in range(m)), structure=structure,
        degree=degree, semigroup=alg.semigroup, unit=unit,
        name=(alg.name + "|sub") if alg.name else "")
    return b, rows


def test_subalgebra_on_diagonal():
    m2 = full_matrix(2)
    diag = Subspace(4, [m2.basis_vector(0), m2.basis_vector(3)])
    sub, rows = subalgebra_on(m2, diag)
    assert sub.dim == 2
    assert validate(sub)["ok"]
    assert sub.unit is not None


def test_with_trivial_grading():
    a = with_trivial_grading(paper_catalog("mk_column_graded", 2))
    assert a.support() == [0]
    assert validate(a)["ok"]


def test_thm_catalog_shapes():
    t1 = paper_catalog("thm_T1_fractional")
    assert t1.dim == 7 and t1.component(0).dim == 4 and t1.component(1).dim == 3
    t3 = paper_catalog("thm_T3_fractional")
    assert t3.dim == 6 and t3.component(0).dim == 4 and t3.component(1).dim == 2
    t2 = paper_catalog("thm_T2_fractional")
    assert t2.dim == 7 and find_unit(t2) is None


# -- oracles: ideal_generated and is_graded_subspace on Fraction rows, as they
# ran before the integer kernels --

def full_sweep_ideal_generated(alg, vectors):
    """Smallest two-sided ideal containing the vectors: every round
    multiplies every echelon row by every basis element on both sides,
    to a fixed point."""
    current = Subspace(alg.dim, [vec(v) for v in vectors])
    while True:
        new_rows = []
        for row in current.rows:
            for i in range(alg.dim):
                e = alg.basis_vector(i)
                for p in (alg.multiply(e, row), alg.multiply(row, e)):
                    if not current.contains(p):
                        new_rows.append(p)
        if not new_rows:
            return current
        current = current.sum(Subspace(alg.dim, new_rows))


def zassenhaus_is_graded_subspace(alg, s):
    """s is graded iff its intersections with the components, each one
    Zassenhaus elimination, add up to its dimension."""
    return sum(s.intersect(alg.component(t)).dim for t in alg.support()) == s.dim


def rescaled(alg, scales):
    """alg on the basis s_i e_i: mixed denominators in the structure constants."""
    s = [Fraction(scales[i % len(scales)]) for i in range(alg.dim)]
    return GradedAlgebra(
        alg.dim, alg.basis_labels,
        {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in cell.items()}
         for (i, j), cell in alg.structure.items()},
        alg.degree, alg.semigroup,
        unit=None if alg.unit is None else tuple(u / s[k] for k, u in enumerate(alg.unit)),
        name=f"{alg.name}*s")


@functools.cache
def closure_algebras():
    """Every catalog algebra, its opposite and its trivially graded form,
    a direct sum, and two with non-integral structure constants."""
    base = [paper_catalog(name, *args) for name, args in CATALOG_ARGS.items()]
    algebras = [f(a) for a in base for f in (lambda a: a, opposite, with_trivial_grading)]
    algebras.append(direct_sum(paper_catalog("thm_T3_fractional"), paper_catalog("exampleT3", 1)))
    algebras.append(rescaled(paper_catalog("thm_T1_fractional"), (1, 2, Fraction(1, 3), 6)))
    algebras.append(rescaled(paper_catalog("utk_column_graded", 3), (Fraction(1, 2), 3, 1)))
    return tuple(validate_or_raise(a) for a in algebras)


small_entries = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ideal_generated_matches_the_full_sweep(data):
    alg = data.draw(st.sampled_from(closure_algebras()))
    n = alg.dim
    vectors = data.draw(st.lists(st.one_of(
        st.integers(0, n - 1).map(alg.basis_vector),
        st.lists(small_entries, min_size=n, max_size=n)), max_size=2))
    assert ideal_generated(alg, vectors) == full_sweep_ideal_generated(alg, vectors)


def test_ideal_generated_by_each_basis_vector_matches_the_full_sweep():
    for alg in closure_algebras():
        for i in range(alg.dim):
            v = [alg.basis_vector(i)]
            assert ideal_generated(alg, v) == full_sweep_ideal_generated(alg, v), (alg.name, i)


@st.composite
def subspaces(draw, alg):
    """Spans of random vectors each cut down to a random set of degrees: a
    row of one degree is homogeneous, a row of more is mixed, and then,
    half the time, the pieces of one mixed row join the span."""
    n = alg.dim
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        v = vec(draw(st.lists(small_entries, min_size=n, max_size=n)))
        degrees = draw(st.sets(st.sampled_from(alg.support()), min_size=1))
        rows.append(tuple(x if alg.degree[i] in degrees else 0 for i, x in enumerate(v)))
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        rows += [alg.component_project(t, row) for t in alg.support()]
    return Subspace(n, [r for r in rows if not is_zero_vec(r)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_graded_subspace_matches_the_zassenhaus_oracle(data):
    alg = data.draw(st.sampled_from([a for a in closure_algebras() if len(a.support()) > 1]))
    s = data.draw(subspaces(alg))
    graded = is_graded_subspace(alg, s)
    assert graded == zassenhaus_is_graded_subspace(alg, s)
    if graded:  # the echelon rows by degree are the intersections' echelon rows
        assert homogeneous_basis(alg, s) == \
            [row for t in alg.support() for row in s.intersect(alg.component(t)).rows]
