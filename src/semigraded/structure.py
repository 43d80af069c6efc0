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
or solve that uses them sees.  The kernels run on the integer rows of
Subspace and integer_rref, each vector a fixed positive multiple of the
true one: a block matrix of the center carries one scale, and the
complement's section is lifted on integer equations over one common
denominator.  Fraction is left to GradedAlgebra.multiply, which the unit
and its components go through, and to the true section of SplittingData.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

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
    Subspace,
    eliminate,
    fraction_row,
    integer_row,
    integer_rref,
    is_zero_vec,
    minimal_polynomial,
    nullspace,
    rational_roots,
    scaled_canonical,
    span_closure,
    sparse_map,
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
    if ideal_generated(alg, rad.rows) != rad:
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
    coefficient of e_k in e_j e_i - e_i e_j at x_j, from integer_table.
    eliminate keeps the independent equations, at most n of them, and
    stops at n, where the center is zero."""
    n = alg.dim
    rows = {}
    for (a, b), cell in alg.integer_table()[0].items():
        for k, c in cell:
            left, right = rows.setdefault((b, k), {}), rows.setdefault((a, k), {})
            left[a] = left.get(a, 0) + c
            right[b] = right.get(b, 0) - c
    echelon = {}
    for row in rows.values():
        if eliminate(echelon, row) and len(echelon) == n:
            break
    return nullspace([[row.get(j, 0) for j in range(n)] for row in echelon.values()], n)


def _block_matrix(alg, rows, z):
    """(N, S): multiplication by z on span(rows), in the coordinates of the
    integer rows, as the integer matrix N = S * M for one positive integer
    S, M[l][b] the coefficient of rows[l] in z * rows[b].

    One integer_rref of [rows as columns | the products]: the product
    column of b is scale * z rows[b] (integer_product), so row l of the
    echelon form times P over its pivot, P the lcm of the pivot entries,
    is P * (e_l | scale * M[l]), and S = P * scale."""
    m = len(rows)
    prods = [alg.integer_product(z, b) for b in rows]
    red, pivots = integer_rref([[b[k] for b in rows] + [p[k] for p in prods]
                                for k in range(alg.dim)])
    if pivots != list(range(m)):
        raise AssertionError("block is not closed under multiplication")
    red, lcm = scaled_canonical(red, pivots)
    return [row[m:] for row in red], lcm * alg.integer_table()[1]


def _central_parts(alg, z):
    """The parts in the center, spanned by the integer rows z, of the basis
    elements of a semisimple algebra, all times one positive integer: their
    projections orthogonal for the trace form (x, y) -> tr(L_xy),
    nondegenerate on the center.  On a simple ideal M_k(Q) the part of x
    acts as tr(x)/k, x read as a k x k matrix there: a small rational in
    any basis of the algebra, where the eigenvalues of the rows of z grow
    with the entries of a base change."""
    form = _trace_form(alg)  # scale^2 times the form, which the solve undoes
    cols = [[sum(map(operator.mul, row, v)) for row in form] for v in z]  # the form at (e_i, z_l)
    gram = [[sum(map(operator.mul, c, u)) for u in z] for c in cols]
    # [gram | cols] reduces to [1 | the coordinates of every part] when gram is invertible
    m = len(z)
    red, pivots = integer_rref([g + c for g, c in zip(gram, cols)])
    if pivots != list(range(m)):
        raise AssertionError("trace form is degenerate on the center")
    red, _ = scaled_canonical(red, pivots)
    return [_combine(z, [row[m + i] for row in red]) for i in range(alg.dim)]


def _split_block(alg, rows, candidates):
    """Split a block of the center, an ideal of the commutative center
    spanned by the integer rows, along a simple rational eigenvalue r of
    multiplication by one of the central candidates z: the rows of
    ker(z - r) and of im(z - r), each again an ideal of the center, or None
    when no candidate exposes one.

    The block matrix N = S * M (_block_matrix) has the eigenspaces of M,
    at S times its eigenvalues, in the same order; they are integers,
    since N's minimal polynomial is monic in Z[x].
    """
    m = len(rows)
    for z in candidates:
        if not any(z):
            continue
        mz, _ = _block_matrix(alg, rows, z)
        minpoly = minimal_polynomial(mz)
        if len(minpoly) <= 2:
            continue  # z is a scalar on this block
        for r in rational_roots(minpoly):
            shifted = [[x - r.numerator * (i == j) for j, x in enumerate(row)]
                       for i, row in enumerate(mz)]
            # V = ker(M - r) + im(M - r) exactly when r is a simple root
            eigen, rest = nullspace(shifted, m), Subspace(m, list(zip(*shifted)))
            if not eigen.intersect(rest).is_zero():
                continue  # multiple root would mean a radical, not expected
            return [[_combine(rows, c) for c in part.rows] for part in (eigen, rest)]
    return None


def _combine(rows, coords):
    """sum_l coords[l] * rows[l] over integer rows and coordinates."""
    out = [0] * len(rows[0])
    for c, row in zip(coords, rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return out


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
                   for w in lines), key=lambda ideal: ideal.rows)


# -- semisimple complements ---------------------------------------------------

def _residue(space):
    """v -> L v - sum_p v[p] (L / row_p[p]) row_p over the integer rows of
    space and their pivots p, L the lcm of the pivot entries: L times the
    remainder of v modulo space, in ints."""
    rows, lcm = scaled_canonical(space.rows, space.pivots)
    pivoted = list(zip(space.pivots, rows))

    def residue(v):
        out = [lcm * x for x in v]
        for p, row in pivoted:
            if v[p]:
                out = [x - v[p] * y for x, y in zip(out, row)]
        return out
    return residue


def _section_correction(alg, qalg, cols, d, jk, j2k):
    """Solve for h: A/J -> J^k with h(xy) - s(x)h(y) - h(x)s(y) = -defect(x, y)
    mod J^2k, defect(x, y) = s(xy) - s(x)s(y), and return the section s + h
    as (cols, d) again, the same when already clean.

    The section is s(e_u) = cols[u] / d, cols integer rows.  With s_A and
    s_Q the scales of alg's and qalg's integer_table, and L that of
    _residue, every equation below is its true form times s_Q s_A d L, and
    its unknowns are d times the coefficients of h(e_u) along jk's integer
    rows: a scaling of equations and unknowns, which leaves the solution
    with free unknowns at zero the same.  One integer_rref solves them.
    """
    q, basis = qalg.dim, jk.rows
    table, qscale = qalg.integer_table()
    ad = alg.integer_table()[1] * d
    product, residue = alg.integer_product, _residue(j2k)
    cells = {key: dict(cell) for key, cell in table.items()}
    defects = {}
    for i in range(q):
        for j in range(q):
            # s_Q s_A d^2 L times s(e_i e_j) - s(e_i) s(e_j) mod J^2k
            cell = cells.get((i, j), {})
            target = _combine(cols, [ad * cell.get(u, 0) for u in range(q)])
            defects[(i, j)] = residue([x - qscale * y
                                       for x, y in zip(target, product(cols[i], cols[j]))])
    if not any(map(any, defects.values())):
        return cols, d
    left = [[product(c, b) for b in basis] for c in cols]
    right = [[product(b, c) for b in basis] for c in cols]
    equations, zero = [], [0] * alg.dim
    for (i, j), defect in defects.items():
        cell = cells.get((i, j), {})
        coeffs = []  # s_Q s_A d L times the term of h(e_u) = b in e_i e_j's equation
        for u in range(q):
            t = ad * cell.get(u, 0)
            for k, b in enumerate(basis):
                v = [t * x for x in b] if t else zero
                if u == j:
                    v = [x - qscale * y for x, y in zip(v, left[i][k])]
                if u == i:
                    v = [x - qscale * y for x, y in zip(v, right[j][k])]
                coeffs.append(residue(v) if any(v) else v)
        equations += [[*row, -x] for *row, x in zip(*coeffs, defect) if x or any(row)]
    unknowns = q * len(basis)
    red, pivots = integer_rref(equations)
    if pivots[-1] == unknowns:
        raise AssertionError("complement lifting system has no solution")
    red, lcm = scaled_canonical(red, pivots)
    beta = [0] * unknowns  # lcm times the unknowns, the free ones zero
    for row, p in zip(red, pivots):
        beta[p] = row[unknowns]
    r = len(basis)
    return [_combine((c,) + basis, [lcm, *beta[u * r:u * r + r]])
            for u, c in enumerate(cols)], lcm * d


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
    cols, d = [integer_row(lift(qalg.basis_vector(i))) for i in range(qalg.dim)], 1
    jk = rad
    while not jk.is_zero():
        j2k = subspace_product(alg, jk, jk)
        cols, d = _section_correction(alg, qalg, cols, d, jk, j2k)
        jk = j2k
    comp = Subspace(alg.dim, cols)
    _assert_splitting(alg, comp, rad)
    return SplittingData(comp, rad, [], [fraction_row(c, d) for c in cols])


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
    u = [0] * alg.dim
    for e in parts.values():
        coords = project(e)
        image = [sum(map(operator.mul, coords, row)) for row in zip(*cols)]  # s(e + J)
        u = list(map(operator.add, u, alg.multiply(e, image)))
    j = list(map(operator.sub, u, alg.unit))
    if any(j):
        if not rad.contains(j):
            raise AssertionError("conjugator is not in 1 + J")
        # u^-1 = sum_k (-j)^k, a finite sum since j is nilpotent
        minus_j = [-x for x in j]
        uinv = term = alg.unit
        while not is_zero_vec(term := alg.multiply(term, minus_j)):
            uinv = list(map(operator.add, uinv, term))
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
        v = [rng.randint(-3, 3) for _ in range(n)]
        if not any(v):
            continue
        cyc = Subspace(n, [[sum(map(operator.mul, row, v)) for row in m] for m in ops])
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
    # the section's columns, the images of qalg's basis, over one denominator
    section = integer_row([x for col in split(alg, rad, quotient).section for x in col])
    section = [section[k:k + alg.dim] for k in range(0, len(section), alg.dim)]
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
