"""Structure theory: radical, Wedderburn decomposition, semisimple
complements (plain and graded), graded simplicity, and the chain formula
for the identity-growth exponent.

The radical is re-checked on the kernels the rest uses: the ideal it
generates (ideal_generated) must be itself, and its powers must vanish
(_is_nilpotent, the loop that also tells a nilpotent algebra).  The
simple ideals of A/J are A*w over the lines w of its center, split apart
by rational eigenvalues of the basis's central parts; no unit or
idempotent is carried along.

Products, traces and the center are read off GradedAlgebra.integer_table,
the structure constants times one scale: the trace form comes out scale^2
times the true one and a product scale times it, which no span, kernel
or solve that uses them sees.  Fraction stays in the canonical rows of
the subspaces, in the small matrices of a block of the center, and in
the section and correction of the complements.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NilpotentAlgebra,
    NonSplit,
    PreconditionFailed,
    RadicalNotGraded,
)
from .gralgebra import (
    GradedAlgebra,
    ideal_generated,
    is_graded_subspace,
    quotient_algebra,
    subspace_product,
    with_trivial_grading,
)
from .linalg import (
    ZERO,
    Subspace,
    add_vec,
    integer_row,
    is_zero_vec,
    mat_vec,
    minimal_polynomial,
    nullspace,
    rational_roots,
    rref,
    scaled_row,
    solve,
    span_closure,
    sparse_map,
    sub_vec,
    unit_vec,
    vec,
)
from .semigroup import is_left_zero_band, is_right_zero_band


@dataclass
class SplittingData:
    complement: Subspace
    radical: Subspace
    correction_log: list
    section: list | None = None  # columns: images of the quotient basis in A


@dataclass
class SimplicityResult:
    verdict: str                 # certified_true | certified_false | probable_true
    witness: Subspace | None = None
    detail: str = ""
    trials: int = 0


# -- Jacobson radical --------------------------------------------------------

def jacobson_radical(alg: GradedAlgebra) -> Subspace:
    """The radical, from the characteristic-zero trace criterion
    (_trace_radical), re-checked: it must be a nilpotent ideal with
    semisimple quotient."""
    rad = _trace_radical(alg)
    _assert_radical(alg, rad, graded=False)
    return rad


def _trace_form(alg):
    """form[i][j] = scale^2 * tr(L_(e_i e_j)) in ints, scale that of
    integer_table, from the traces scale * tr(L_e_k) of the basis."""
    n = alg.dim
    table, _ = alg.integer_table()
    traces = [0] * n
    for (k, m), cell in table.items():
        traces[k] += sum(c for l, c in cell if l == m)
    form = [[0] * n for _ in range(n)]
    for (i, j), cell in table.items():
        form[i][j] = sum(c * traces[k] for k, c in cell)
    return form


def _trace_radical(alg):
    """x lies in the radical iff trace(left multiplication by x*y on the
    unital hull A + Q1) vanishes for every y in a basis of the hull.  For z
    in A that trace is tr_A(L_z), since L_z sends 1 to z in A.  And y = 1
    adds nothing: L_x^k = L_(x x^(k-1)), so tr(L_xa) = 0 for every a in A
    gives tr(L_x^k) = 0 for every k >= 2, which in characteristic 0 makes
    L_x nilpotent.  So x must make tr(L_(x e_j)) vanish for every j."""
    return nullspace([list(col) for col in zip(*_trace_form(alg))], alg.dim)


def _assert_radical(alg, rad, graded: bool):
    """Check that rad is a nilpotent ideal with semisimple quotient, and
    return that quotient, (Q, project, lift) of quotient_algebra, graded or
    not: the grading changes only Q's degrees, which _trace_radical ignores."""
    if ideal_generated(alg, rad.integer_rows) != rad:
        raise AssertionError("radical candidate is not an ideal")
    if not _is_nilpotent(alg, rad):
        raise AssertionError("radical candidate is not nilpotent")
    quotient = quotient_algebra(alg, rad, graded=graded)
    if quotient[0].dim and not _trace_radical(quotient[0]).is_zero():
        raise AssertionError("quotient by radical candidate is not semisimple")
    return quotient


# -- the unit under zero-band gradings --------------------------------------

def unit_component_idempotents(alg: GradedAlgebra):
    """The decomposition 1 = sum e_t with e_t homogeneous, checked to be
    orthogonal idempotents."""
    if alg.unit is None:
        raise PreconditionFailed("algebra has no unit")
    parts = {}
    for t in alg.support():
        e = alg.component_project(t, alg.unit)
        if not is_zero_vec(e):
            parts[t] = e
    for t, e in parts.items():
        if alg.multiply(e, e) != e:
            raise AssertionError("unit component is not idempotent")
        for s, f in parts.items():
            if s != t and not is_zero_vec(alg.multiply(e, f)):
                raise AssertionError("unit components are not orthogonal")
    return parts


# -- Wedderburn decomposition ------------------------------------------------

def center(alg: GradedAlgebra) -> Subspace:
    """The x with x e_i = e_i x for every i: one equation per (i, k), the
    coefficient of e_k in e_j e_i - e_i e_j at x_j, from integer_table."""
    n = alg.dim
    rows = {}
    for (a, b), cell in alg.integer_table()[0].items():
        for k, c in cell:
            rows.setdefault((b, k), [0] * n)[a] += c
            rows.setdefault((a, k), [0] * n)[b] -= c
    return nullspace(list(rows.values()), n)


def _block_matrix(alg, rows, z):
    """Multiplication by z on span(rows), in the coordinates of rows:
    M[l][b] is the coefficient of rows[l] in z * rows[b].

    One rref of [rows as columns | the products] on integer rows: with the
    rows scaled by d_l and z by dz (scaled_row), the product column of b is
    dz * scale * d_b * z rows[b], whose coordinate l on the scaled columns
    is M[l][b] * dz * scale * d_b / d_l."""
    m = len(rows)
    zi, dz = scaled_row(z)
    scaled = [scaled_row(b) for b in rows]
    prods = [alg.integer_product(zi, b) for b, _ in scaled]
    red, pivots = rref([[b[k] for b, _ in scaled] + [p[k] for p in prods]
                        for k in range(alg.dim)])
    if pivots != list(range(m)):
        raise AssertionError("block is not closed under multiplication")
    scale = dz * alg.integer_table()[1]
    return [tuple(red[l][m + b] * dl / (scale * db) for b, (_, db) in enumerate(scaled))
            for l, (_, dl) in enumerate(scaled)]


def _central_parts(alg, z):
    """The parts in the center, spanned by the rows z, of the basis
    elements of a semisimple algebra: their projections orthogonal for
    the trace form (x, y) -> tr(L_xy), nondegenerate on the center.  On a
    simple ideal M_k(Q) the part of x acts as tr(x)/k, x read as a k x k
    matrix there: a small rational in any basis of the algebra, where the
    eigenvalues of the rows of z grow with the entries of a base change."""
    form = _trace_form(alg)  # scale^2 times the form, which the solve undoes
    z = [integer_row(v) for v in z]  # z_l times d_l: the parts are the same
    cols = [[sum(map(operator.mul, row, v)) for row in form] for v in z]  # the form at (e_i, z_l)
    gram = [[sum(map(operator.mul, c, u)) for u in z] for c in cols]
    # one rref of [gram | cols] is [1 | the coordinates of every part] when gram is invertible
    m = len(z)
    red, pivots = rref([g + c for g, c in zip(gram, cols)])
    if pivots != list(range(m)):
        raise AssertionError("trace form is degenerate on the center")
    return [_combine(z, [row[m + i] for row in red]) for i in range(alg.dim)]


def _split_block(alg, rows, candidates):
    """Split a block of the center, an ideal of the commutative center,
    along a simple rational eigenvalue r of multiplication by one of the
    central candidates z: the rows of ker(z - r) and of im(z - r), each
    again an ideal of the center, or None when no candidate exposes one.
    """
    m = len(rows)
    for z in candidates:
        if is_zero_vec(z):
            continue
        mz = _block_matrix(alg, rows, z)
        minpoly = minimal_polynomial(mz)
        if len(minpoly) <= 2:
            continue  # z is a scalar on this block
        for r in rational_roots(minpoly):
            shifted = [tuple(mz[i][j] - (r if i == j else ZERO) for j in range(m))
                       for i in range(m)]
            # V = ker(M - r) + im(M - r) exactly when r is a simple root
            eigen, rest = nullspace(shifted, m), Subspace(m, list(zip(*shifted)))
            if not eigen.intersect(rest).is_zero():
                continue  # multiple root would mean a radical, not expected
            return [[_combine(rows, c) for c in part.rows] for part in (eigen, rest)]
    return None


def _combine(rows, coords):
    """sum_l coords[l] * rows[l], as Fractions: the coordinates scaled to
    integers (scaled_row), so integer rows are summed in ints."""
    coords, d = scaled_row(coords)
    out = [0] * len(rows[0])
    for c, row in zip(coords, rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return tuple(Fraction(x, d) if x else ZERO for x in out)


def _wedderburn(alg) -> list:
    """The simple two-sided ideals of an algebra whose radical is known to
    vanish, sorted by their rows.

    The center is split into lines with rational eigenvalues of the
    multiplications by the central parts of the basis (_central_parts,
    _split_block); a line of the center that is an ideal of it is spanned
    by a central primitive idempotent, so each line w gives the simple
    ideal A*w.  NonSplit is raised when a block of the center admits no
    rational eigen-splitting; nothing is approximated.
    """
    z = center(alg).rows
    parts = _central_parts(alg, z)
    blocks, lines = [list(z)] if z else [], []
    while blocks:
        rows = blocks.pop()
        if len(rows) == 1:
            lines += rows
            continue
        split = _split_block(alg, rows, parts)
        if split is None:
            raise NonSplit(len(rows))
        blocks.extend(split)
    basis = [[int(i == j) for j in range(alg.dim)] for i in range(alg.dim)]
    return sorted((Subspace(alg.dim, [alg.integer_product(e, w) for e in basis])
                   for w in map(integer_row, lines)), key=lambda ideal: ideal.rows)


# -- semisimple complements ---------------------------------------------------

def _section_correction(alg, qalg, lift_cols, jk, j2k):
    """Solve for h with h(xy) - s(x)h(y) - h(x)s(y) = -defect(x,y) mod J^2k.

    lift_cols[i] is the current section image of quotient basis i.
    Returns corrected columns, or the same columns when already clean.
    """
    q = qalg.dim
    jk_rows = list(jk.rows)
    r = len(jk_rows)
    if r == 0:
        return lift_cols
    defects = {}
    clean = True
    for i in range(q):
        for j in range(q):
            prod_coords = qalg.mul_basis(i, j)
            target = [ZERO] * alg.dim
            for u, c in prod_coords.items():
                target = [t + c * x for t, x in zip(target, lift_cols[u])]
            d = sub_vec(tuple(target), alg.multiply(lift_cols[i], lift_cols[j]))
            defects[(i, j)] = d
            if not is_zero_vec(j2k.reduce(d)):
                clean = False
    if clean:
        return lift_cols
    # unknowns: alpha[u][b] coefficients of h(e_u) along jk_rows
    nunk = q * r
    rows, rhs = [], []
    for i in range(q):
        for j in range(q):
            # expression = h(e_i e_j) - s_i h(e_j) - h(e_i) s_j + c_ij  in J^k,
            # must reduce to zero mod J^2k;  expression is linear in alpha
            base = j2k.reduce(defects[(i, j)])
            coeff_rows = [[ZERO] * nunk for _ in range(alg.dim)]
            prod_coords = qalg.mul_basis(i, j)
            for u in range(q):
                for b in range(r):
                    col = u * r + b
                    contrib = (tuple(prod_coords[u] * x for x in jk_rows[b]) if u in prod_coords
                               else (ZERO,) * alg.dim)
                    if u == j:
                        contrib = sub_vec(contrib, alg.multiply(lift_cols[i], jk_rows[b]))
                    if u == i:
                        contrib = sub_vec(contrib, alg.multiply(jk_rows[b], lift_cols[j]))
                    contrib = j2k.reduce(contrib)
                    for c in range(alg.dim):
                        if contrib[c] != 0:
                            coeff_rows[c][col] = contrib[c]
            for c in range(alg.dim):
                row = tuple(coeff_rows[c])
                if any(x != 0 for x in row) or base[c] != 0:
                    rows.append(row)
                    rhs.append(-base[c])
    sol = solve(rows, rhs) if rows else tuple()
    if sol is None:
        raise AssertionError("complement lifting system has no solution")
    return [add_vec(lift_cols[u], _combine(jk_rows, sol[u * r:(u + 1) * r]))
            for u in range(q)]


def malcev_complement(alg: GradedAlgebra) -> SplittingData:
    """A maximal semisimple subalgebra B with A = B + J, B cap J = 0.

    The linear section of A -> A/J is corrected level by level along the
    radical filtration; each correction is one exact linear solve.
    """
    rad = _trace_radical(alg)
    return _malcev(alg, rad, _assert_radical(alg, rad, graded=False))


def _malcev(alg, rad, quotient):
    """malcev_complement for a verified radical and the quotient by it,
    (Q, project, lift) of quotient_algebra, graded or not."""
    qalg, _, lift = quotient
    cols = [lift(unit_vec(qalg.dim, i)) for i in range(qalg.dim)]
    jk = rad
    while not jk.is_zero():
        j2k = subspace_product(alg, jk, jk)
        cols = _section_correction(alg, qalg, cols, jk, j2k)
        jk = j2k
    comp = Subspace(alg.dim, cols)
    _assert_splitting(alg, comp, rad)
    return SplittingData(comp, rad, [], cols)


def _assert_splitting(alg, comp, rad):
    if comp.dim + rad.dim != alg.dim or comp.sum(rad).dim != alg.dim:
        raise AssertionError("complement does not split the algebra")
    if comp.sum(subspace_product(alg, comp, comp)) != comp:
        raise AssertionError("complement is not multiplicatively closed")


def splits_graded(alg: GradedAlgebra) -> bool:
    """Whether the zero-band theorem applies: alg has a unit and its
    grading semigroup is a left or right zero band, so its radical and
    some semisimple complement of it are graded."""
    return alg.unit is not None and (
        is_right_zero_band(alg.semigroup) or is_left_zero_band(alg.semigroup))


def graded_malcev_zeroband(alg: GradedAlgebra) -> SplittingData:
    """Graded semisimple complement for a unital zero-band-graded algebra.

    Under a right zero band A_t = A*e_t, under a left one A_t = e_t*A,
    where e_t is the degree-t component of the unit; so a subalgebra that
    holds every e_t is graded.  The plain complement S = s(A/J) holds the
    orthogonal idempotents f_t = s(e_t + J), and u = sum_t e_t*f_t lies in
    1 + J with u*f_t = e_t*u, so u*S*u^-1 is a complement that holds every
    e_t (Malcev's conjugacy theorem, in one step).
    """
    if alg.unit is None:
        raise PreconditionFailed("algebra has no unit")
    if not splits_graded(alg):
        raise PreconditionFailed("grading semigroup is not a left or right zero band")
    rad = _trace_radical(alg)
    return _graded_malcev(alg, rad, _assert_radical(alg, rad, graded=False))


def _graded_malcev(alg, rad, quotient):
    """graded_malcev_zeroband for a verified radical and the quotient by
    it, as in _malcev."""
    if not is_graded_subspace(alg, rad):
        raise AssertionError("radical of a unital zero-band algebra must be graded")
    plain = _malcev(alg, rad, quotient)
    comp, cols, log = plain.complement, plain.section, []
    project = quotient[1]
    parts = unit_component_idempotents(alg)
    u = (ZERO,) * alg.dim
    for e in parts.values():
        u = add_vec(u, alg.multiply(e, _combine(cols, project(e))))
    j = sub_vec(u, alg.unit)
    if not is_zero_vec(j):
        if not rad.contains(j):
            raise AssertionError("conjugator is not in 1 + J")
        # u^-1 = sum_k (-j)^k, a finite sum since j is nilpotent
        minus_j = tuple(-x for x in j)
        uinv = term = alg.unit
        while not is_zero_vec(term := alg.multiply(term, minus_j)):
            uinv = add_vec(uinv, term)
        if alg.multiply(u, uinv) != alg.unit:
            raise AssertionError("conjugator is not invertible")
        cols = [alg.multiply(alg.multiply(u, c), uinv) for c in cols]
        comp = Subspace(alg.dim, cols)
        _assert_splitting(alg, comp, rad)
        log.append("conjugated by u = sum_t e_t f_t")
    if not all(comp.contains(e) for e in parts.values()):
        raise AssertionError("the complement misses a unit component")
    if not is_graded_subspace(alg, comp):
        raise AssertionError("graded complement construction failed")
    return SplittingData(comp, rad, log, cols)


# -- graded simplicity ---------------------------------------------------------

# the random cyclic searches behind a probable_true verdict
SIMPLICITY_TRIALS = 1000

def _operator_closure(alg: GradedAlgebra):
    """Basis of the unital operator algebra generated by all component
    projections and all one-sided basis multiplications, acting on A, as
    integer matrices (tuples of rows): the span closure of the identity
    under left products with the integer generators (is_graded_simple)."""
    n = alg.dim
    table, _ = alg.integer_table()
    # generators by columns: column k -> ((row, entry), ...)
    gens = [[((k, 1),) if alg.degree[k] == t else () for k in range(n)] for t in alg.support()]
    for b in range(n):
        gens.append([table.get((b, j), ()) for j in range(n)])
        gens.append([table.get((j, b), ()) for j in range(n)])
    # on a matrix flattened row by row, left multiplication by g sends the
    # unit at (k, j) to column k of g, placed in column j
    maps = [sparse_map([tuple((i * n + j, c) for i, c in g[k]) for k in range(n) for j in range(n)])
            for g in gens]
    ident = {i * n + i: 1 for i in range(n)}
    ops = []
    for m in span_closure(n * n, [ident], maps):
        flat = [0] * (n * n)
        for k, c in m.items():
            flat[k] = c
        ops.append(tuple(tuple(flat[i * n:i * n + n]) for i in range(n)))
    return ops


def is_graded_simple(alg: GradedAlgebra, seed: int = 0) -> SimplicityResult:
    """Decide graded simplicity as far as exact certificates reach.

    certified_false comes with an explicit proper nonzero graded ideal
    (or the observation that A*A = 0).  certified_true is issued when the
    operator algebra generated by the component projections and the
    one-sided multiplications is the full matrix algebra on A; that
    leaves no invariant subspace over any field extension.  When neither
    certificate fires, SIMPLICITY_TRIALS seeded random searches for cyclic
    invariant subspaces back the verdict probable_true.

    The operator algebra is the span of the words in the generators, and
    every word is one generator times a shorter word, so it is the
    closure of the identity under left products with the generators
    alone.  The generators are integer matrices, the structure constants
    times the lcm of their denominators: that scales each by a nonzero
    constant, which spans the same algebra.
    """
    n = alg.dim
    if not any(alg.integer_table()[0].values()):
        witness = Subspace(n, [alg.basis_vector(0)]) if n > 1 else None
        return SimplicityResult("certified_false", witness, "A*A = 0")
    for i in range(n):
        ideal = ideal_generated(alg, [alg.basis_vector(i)])
        if ideal.dim < n:
            return SimplicityResult(
                "certified_false", ideal,
                f"basis vector {alg.basis_labels[i]} generates a proper graded ideal")
    ops = _operator_closure(alg)
    if len(ops) == n * n:
        return SimplicityResult(
            "certified_true", None,
            "projection/multiplication operators span the full matrix algebra")
    rng = random.Random(seed)
    for trial in range(SIMPLICITY_TRIALS):
        v = tuple(vec([rng.randint(-3, 3) for _ in range(n)]))
        if is_zero_vec(v):
            continue
        cyc = Subspace(n, [mat_vec(m, v) for m in ops])
        if 0 < cyc.dim < n:
            return SimplicityResult(
                "certified_false", cyc,
                f"random homogeneous search hit a proper invariant subspace (trial {trial})")
    return SimplicityResult(
        "probable_true", None,
        f"operator closure has dimension {len(ops)} < {n * n}; "
        f"no invariant subspace found in {SIMPLICITY_TRIALS} random cyclic searches",
        SIMPLICITY_TRIALS)


# -- the exponent chain formula ----------------------------------------------

def _is_nilpotent(alg: GradedAlgebra, s: Subspace) -> bool:
    """Whether some power of the subalgebra s vanishes.  Its powers
    s^(k+1) = s^k * s shrink, and once two in a row have one dimension
    they are equal and stay so."""
    power, prev = s, None
    while not power.is_zero():
        if power.dim == prev:
            return False
        prev, power = power.dim, subspace_product(alg, power, s)
    return True


def graded_exponent_d(alg: GradedAlgebra) -> int:
    """max dim(B_i1 + ... + B_ir) over chains of distinct simple summands
    of A/J linked by nonzero products through the homogeneous spread of a
    semisimple complement, with the unital hull inserted between links.

    The complement is the graded one when splits_graded(alg), else the
    plain one; the radical, A/J and its decomposition are computed once
    and shared with the splitting."""
    if _is_nilpotent(alg, alg.full_subspace()):
        raise NilpotentAlgebra("nilpotent algebras have eventually zero growth")
    rad = _trace_radical(alg)
    graded = is_graded_subspace(alg, rad)
    quotient = _assert_radical(alg, rad, graded)
    if not graded:
        raise RadicalNotGraded("the radical is not a graded ideal")
    qalg = quotient[0]
    ideals = _wedderburn(qalg)  # A/J is semisimple: _assert_radical checked it
    for ideal in ideals:
        if not is_graded_subspace(qalg, ideal):
            raise PreconditionFailed("a simple summand of A/J is not graded")
    split = _graded_malcev if splits_graded(alg) else _malcev
    section = split(alg, rad, quotient).section
    # section columns are the images of qalg's basis
    spreads = []
    dims = []
    for ideal in ideals:
        rows = []
        for b in ideal.rows:
            v = _combine(section, b)
            for t in alg.support():
                piece = alg.component_project(t, v)
                if not is_zero_vec(piece):
                    rows.append(piece)
        spreads.append(Subspace(alg.dim, rows))
        dims.append(ideal.dim)
    full = alg.full_subspace()
    best = 0

    def extend(used, current, total):
        nonlocal best
        if current is not None and not current.is_zero():
            best = max(best, total)
        for i in range(len(spreads)):
            if i in used:
                continue
            if current is None:
                nxt = spreads[i]
            else:
                through = current.sum(subspace_product(alg, current, full))
                nxt = subspace_product(alg, through, spreads[i])
            if nxt.is_zero():
                continue
            extend(used | {i}, nxt, total + dims[i])

    extend(frozenset(), None, 0)
    if best == 0:
        raise AssertionError("no nonzero chain found for a non-nilpotent algebra")
    return best


def ordinary_exponent(alg: GradedAlgebra) -> int:
    return graded_exponent_d(with_trivial_grading(alg))
