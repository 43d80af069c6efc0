from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semigraded.linalg import (
    ONE,
    Subspace,
    frac,
    matrix_rank,
    minimal_polynomial,
    nullspace,
    rational_roots,
    rref,
    span_closure,
    sparse_map,
)
from fraction_oracles import mat_mul, solve, vec


def test_rref_identity():
    rows, pivots = rref([(1, 0), (0, 1)])
    assert rows == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows, pivots = rref([(1, 2), (2, 4), (0, 1)])
    assert len(rows) == 2


def test_solve_simple():
    x = solve([(1, 1), (1, -1)], (3, 1))
    assert x == (Fraction(2), Fraction(1))


def test_solve_inconsistent():
    assert solve([(1, 1), (1, 1)], (0, 1)) is None


def test_nullspace():
    ns = nullspace([(1, 1, 0)], 3)
    assert ns.dim == 2
    for row in ns.rows:
        assert row[0] + row[1] == 0


def test_subspace_contains_and_reduce():
    s = Subspace(3, [(1, 0, 1), (0, 1, 0)])
    assert s.contains((2, 3, 2))
    assert not s.contains((1, 0, 0))


def test_zassenhaus_intersection():
    a = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    inter = a.intersect(b)
    assert inter.dim == 1
    assert inter.contains((0, 1, 0))


def coordinates(s, v):
    """Coefficients of v in the echelon basis of s, or None if v is outside."""
    v = list(map(frac, v))
    coeffs = []
    for row, p in zip(s.canonical_rows, s.pivots):
        c = v[p]
        coeffs.append(c)
        if c != 0:
            for j in range(p, s.ambient):
                v[j] -= c * row[j]
    if any(v):
        return None
    return tuple(coeffs)


def test_coordinates_roundtrip():
    s = Subspace(3, [(1, 2, 0), (0, 0, 1)])
    assert coordinates(s, (1, 2, 1)) == (1, 1)
    assert coordinates(s, (1, 0, 0)) is None
    v = (2, 4, 5)
    coords = coordinates(s, v)
    rebuilt = [Fraction(0)] * 3
    for c, row in zip(coords, s.canonical_rows):
        rebuilt = [r + c * x for r, x in zip(rebuilt, row)]
    assert tuple(rebuilt) == vec(v)


small_vecs = st.lists(st.integers(-4, 4), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_vecs, min_size=1, max_size=3))
def test_subspace_idempotent_ops(rows):
    s = Subspace(3, rows)
    assert s.sum(s) == s
    assert s.intersect(s) == s
    assert s.intersect(Subspace.full(3)) == s
    assert s.sum(Subspace(3, [])) == s


@settings(max_examples=40, deadline=None)
@given(st.lists(small_vecs, min_size=1, max_size=3), st.lists(small_vecs, min_size=1, max_size=3))
def test_dimension_formula(rows_a, rows_b):
    a, b = Subspace(3, rows_a), Subspace(3, rows_b)
    assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_minimal_polynomial_of_projection():
    # projection matrix: minimal polynomial x^2 - x
    coeffs = minimal_polynomial([(1, 0), (0, 0)])
    assert coeffs == [Fraction(0), Fraction(-1), Fraction(1)]


def test_minimal_polynomial_nilpotent():
    coeffs = minimal_polynomial([(0, 1), (0, 0)])
    assert coeffs == [Fraction(0), Fraction(0), Fraction(1)]  # x^2


def test_rational_roots():
    # (x - 1/2)(x + 3) = x^2 + 5/2 x - 3/2
    roots = rational_roots([Fraction(-3, 2), Fraction(5, 2), Fraction(1)])
    assert set(roots) == {Fraction(1, 2), Fraction(-3)}


def test_rational_roots_irreducible():
    assert rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) == []  # x^2 - 2
    # x^2 - 8x + 1 and x^2 - 8x - 8: their 3-adic roots read back as
    # fractions that are not roots
    assert rational_roots([1, -8, 1]) == rational_roots([-8, -8, 1]) == []


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


big_rationals = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(big_rationals, st.integers(1, 3)), min_size=1, max_size=5),
       st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [1, -8, 1], [-1, -1, 0, 1]]),
       big_rationals.filter(bool))
def test_rational_roots_of_split_polynomials(roots, rootless, lead):
    """lead * (x^2 + 1, x^2 - 2, x^2 - 8x + 1 or x^3 - x - 1, which have
    no rational root, or 1) * prod (x - r)^m, numerators and denominators
    up to 10^30, zero and repeated roots included: every root is found,
    once."""
    coeffs = [lead * c for c in rootless]
    for r, m in roots:
        for _ in range(m):
            coeffs = poly_mul(coeffs, [-r, Fraction(1)])
    assert rational_roots(coeffs) == sorted({r for r, _ in roots})


def test_rational_roots_of_large_constants():
    """The minimal polynomial of diag(10^24 + 7, 3, 5): the rational root
    theorem would list the divisors of its constant 3 * 5 * (10^24 + 7)."""
    c = 10 ** 24 + 7
    coeffs = poly_mul(poly_mul([-c, 1], [-3, 1]), [-5, 1])
    assert rational_roots(coeffs) == [3, 5, c]
    assert rational_roots([0, 0, 7]) == [0]
    assert rational_roots([]) == rational_roots([5]) == []


def test_matrix_rank():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1)]) == 2


def test_mat_mul():
    a = [vec((1, 1)), vec((0, 1))]
    b = [vec((1, 0)), vec((1, 1))]
    assert mat_mul(a, b) == [vec((2, 1)), vec((1, 1))]


# -- oracle: Gauss-Jordan on Fraction rows, as rref ran before it went fraction-free --

def fraction_rref(rows):
    """Reduced row echelon form by Fraction row operations."""
    rows = [list(map(frac, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


@st.composite
def rational_matrices(draw):
    """Rational matrices, some all-int, some with zero or duplicate rows,
    some with no rows or rows of length 0."""
    ncols = draw(st.integers(0, 6))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.fractions(-3, 3, max_denominator=4))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_matches_the_fraction_oracle(rows):
    got = rref(rows)
    assert got == fraction_rref(rows)
    assert all(type(x) is Fraction for row in got[0] for x in row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subspace_keeps_one_basis_per_span(data):
    """Rescalings of the rows by nonzero integers of either sign,
    permutations and redundant combinations of one spanning set give equal
    Subspaces with equal hashes, whose canonical rows are the Fraction
    oracle's rref; a proper subspace compares unequal."""
    n = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    span = data.draw(st.lists(row, min_size=1, max_size=4))
    s = Subspace(n, span)
    scales = data.draw(st.lists(st.integers(-6, 6).filter(bool),
                                min_size=len(span), max_size=len(span)))
    moved = data.draw(st.permutations([[c * x for x in r] for c, r in zip(scales, span)]))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(span), max_size=len(span)))
    moved.insert(data.draw(st.integers(0, len(moved))),
                 [sum(c * r[k] for c, r in zip(coeffs, span)) for k in range(n)])
    t = Subspace(n, moved)
    assert t == s and hash(t) == hash(s)
    assert list(s.canonical_rows) == fraction_rref(span)[0]
    assert all(type(x) is int for r in s.rows for x in r)
    if s.dim:
        assert Subspace(n, s.rows[1:]) != s


def test_rref_takes_what_frac_takes():
    rows = [(0.5, Fraction(1, 3), "2/3"), (1, True, 0.25), (3, 0, 0)]
    assert rref(rows) == fraction_rref(rows)
    assert rref(rows)[1] == [0, 1, 2]


def test_span_closure_of_a_shift():
    shift = sparse_map([((j + 1, 1),) if j < 4 else () for j in range(5)])
    assert span_closure(5, [{0: 1}], [shift]) == [{k: 1} for k in range(5)]
    # a dependent seed is dropped; images of kept rows only
    assert span_closure(5, [{3: 2}, {3: -1}], [shift]) == [{3: 2}, {4: 2}]
    assert span_closure(5, [{0: 1}, {}], []) == [{0: 1}]
    # the search stops at the ambient dimension
    assert len(span_closure(2, [{0: 1}, {1: 1}, {0: 1, 1: 1}], [shift])) == 2
