"""Structure theory: radical, Wedderburn decomposition, semisimple
complements (plain and graded), graded simplicity, and the chain formula
for the identity-growth exponent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import (
    NilpotentAlgebra,
    NonSplit,
    NotSemisimple,
    PreconditionFailed,
    RadicalNotGraded,
)
from .gralgebra import (
    GradedAlgebra,
    adjoin_unit,
    find_unit,
    ideal_generated,
    is_graded_subspace,
    quotient_algebra,
    subalgebra_on,
    subspace_product,
    with_trivial_grading,
)
from .linalg import (
    ONE,
    ZERO,
    Subspace,
    add_vec,
    eliminate,
    is_zero_vec,
    mat_mul,
    mat_vec,
    minimal_polynomial,
    nullspace,
    poly_at,
    poly_eval_matrix,
    rational_roots,
    scale_vec,
    solve,
    sub_vec,
    unit_vec,
    vec,
)
from .semigroup import is_left_zero_band, is_right_zero_band


@dataclass
class WedderburnData:
    simple_ideals: list          # Subspace, inside the semisimple algebra
    quotient_dim: int
    center_dims: list            # dim of the center of each ideal
    idempotents: list = field(default_factory=list)  # central primitive idempotents


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

    def __bool__(self):
        return self.verdict != "certified_false"


# -- Jacobson radical --------------------------------------------------------

def _left_mul_traces(alg: GradedAlgebra):
    """tvec[k] = trace of left multiplication by basis k."""
    tvec = []
    for k in range(alg.dim):
        t = ZERO
        for m in range(alg.dim):
            t += alg.mul_basis(k, m).get(m, ZERO)
        tvec.append(t)
    return tvec


def jacobson_radical(alg: GradedAlgebra, verify: bool = True) -> Subspace:
    """The radical, from the characteristic-zero trace criterion.

    x lies in the radical iff trace(left multiplication by x*y on the
    unital hull) vanishes for every basis y of the hull.  The result is
    re-checked: it must be a nilpotent ideal with semisimple quotient.
    """
    hull = adjoin_unit(alg)
    tvec = _left_mul_traces(hull)
    n = alg.dim
    rows = []
    for y in range(hull.dim):
        row = []
        for i in range(n):
            cell = hull.mul_basis(i, y)
            row.append(sum((c * tvec[k] for k, c in cell.items()), ZERO))
        rows.append(tuple(row))
    rad = nullspace(rows, n)
    if verify:
        _assert_radical(alg, rad)
    return rad


def _assert_radical(alg, rad):
    for r in rad.rows:
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            if not rad.contains(alg.multiply(e, r)) or not rad.contains(alg.multiply(r, e)):
                raise AssertionError("radical candidate is not an ideal")
    power = rad
    for _ in range(alg.dim + 1):
        if power.is_zero():
            break
        power = subspace_product(alg, power, rad)
    else:
        raise AssertionError("radical candidate is not nilpotent")
    quot, _, _ = quotient_algebra(alg, rad, graded=False)
    if quot.dim and not jacobson_radical(quot, verify=False).is_zero():
        raise AssertionError("quotient by radical candidate is not semisimple")


def is_radical_graded(alg: GradedAlgebra) -> bool:
    return is_graded_subspace(alg, jacobson_radical(alg))


# -- ideals under zero-band gradings ----------------------------------------

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


def all_ideals_graded_zeroband(alg: GradedAlgebra):
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


# -- Wedderburn decomposition ------------------------------------------------

def center(alg: GradedAlgebra) -> Subspace:
    n = alg.dim
    rows = []
    for i in range(n):
        for k in range(n):
            rows.append(tuple(
                alg.mul_basis(j, i).get(k, ZERO) - alg.mul_basis(i, j).get(k, ZERO)
                for j in range(n)
            ))
    return nullspace(rows, n)


def _block_matrix(alg, rows, z):
    """Multiplication by z on span(rows), in the coordinates of rows."""
    cols = list(zip(*rows))
    mat_rows = []
    for b in rows:
        prod = alg.multiply(z, b)
        coords = solve([tuple(r) for r in cols], prod)
        if coords is None:
            raise AssertionError("block is not closed under multiplication")
        mat_rows.append(coords)
    # mat_rows[i] = coords of z*b_i; operator matrix acts on coordinate vecs
    return [tuple(mat_rows[i][j] for i in range(len(rows))) for j in range(len(rows))]


def _split_block(alg, rows, unit):
    """Split a commutative semisimple block along a rational eigenvalue.

    Returns a list of (rows, unit) blocks of smaller size, or None when
    no basis element (or pair product) exposes a rational eigenvalue.
    """
    m = len(rows)
    candidates = list(rows)
    for a in rows:
        for b in rows:
            candidates.append(alg.multiply(a, b))
    for z in candidates:
        if is_zero_vec(z):
            continue
        mz = _block_matrix(alg, rows, z)
        minpoly = minimal_polynomial(mz)
        if len(minpoly) <= 2:
            continue  # z is a scalar on this block
        for r in rational_roots(minpoly):
            quot = _synthetic_div(minpoly, r)
            if poly_at(quot, r) == 0:
                continue  # multiple root would mean a radical, not expected
            eigen = nullspace(
                [tuple(mz[i][j] - (r if i == j else ZERO) for j in range(m)) for i in range(m)], m)
            rest = nullspace(poly_eval_matrix(quot, mz), m)
            if eigen.dim == 0 or rest.dim == 0 or eigen.dim + rest.dim != m:
                continue
            # split the block unit along eigen + rest
            cols = list(zip(*(list(eigen.rows) + list(rest.rows))))
            ucoords = solve([tuple(r2) for r2 in cols],
                            solve([tuple(c) for c in zip(*rows)], unit))
            out = []
            offset = 0
            for part in (eigen, rest):
                # the unit's part, in block coordinates
                part_u_coords = _combine(part.rows, ucoords[offset:offset + part.dim])
                offset += part.dim
                u_part = _combine(rows, part_u_coords)
                if alg.multiply(u_part, u_part) != u_part:
                    raise AssertionError("projected unit is not idempotent")
                prows = [_combine(rows, c) for c in part.rows]
                out.append((prows, u_part))
            return out
    return None


def _synthetic_div(coeffs, r):
    """Monic coeffs (low-first) divided by (x - r), remainder dropped."""
    high = list(reversed(coeffs))
    q = []
    acc = ZERO
    for c in high:
        acc = acc * r + c if q else c
        q.append(acc)
    return list(reversed(q[:-1]))


def _combine(rows, coords):
    out = [ZERO] * len(rows[0])
    for c, row in zip(coords, rows):
        if c != 0:
            for j, x in enumerate(row):
                out[j] += c * x
    return tuple(out)


def wedderburn_decompose(alg: GradedAlgebra) -> WedderburnData:
    """Simple two-sided ideals of a semisimple algebra.

    Found by splitting the center with rational eigenvalues of its
    multiplication operators.  NonSplit is raised when a block of the
    center admits no rational eigen-splitting; nothing is approximated.
    """
    if not jacobson_radical(alg).is_zero():
        raise NotSemisimple("input has nonzero radical")
    if alg.dim == 0:
        return WedderburnData([], 0, [])
    unit = alg.unit if alg.unit is not None else find_unit(alg)
    if unit is None:
        raise NotSemisimple("semisimple algebra must have a unit")
    z = center(alg)
    blocks = [(list(z.rows), tuple(unit))]
    finished = []
    while blocks:
        rows, u = blocks.pop()
        if len(rows) == 1:
            finished.append((rows, u))
            continue
        split = _split_block(alg, rows, u)
        if split is None:
            raise NonSplit(len(rows))
        blocks.extend(split)
    finished.sort(key=lambda b: b[1])
    ideals, center_dims, idems = [], [], []
    for rows, u in finished:
        ideal = Subspace(alg.dim, [alg.multiply(alg.basis_vector(i), u) for i in range(alg.dim)])
        ideals.append(ideal)
        center_dims.append(len(rows))
        idems.append(u)
    return WedderburnData(ideals, alg.dim, center_dims, idems)


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
                    contrib = [ZERO] * alg.dim
                    if u in prod_coords:
                        contrib = add_vec(contrib, scale_vec(prod_coords[u], jk_rows[b]))
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
    rad = jacobson_radical(alg)
    if rad.is_zero():
        ident = [alg.basis_vector(i) for i in range(alg.dim)]
        return SplittingData(alg.full_subspace(), rad, [], ident)
    qalg, project, lift = quotient_algebra(alg, rad, graded=False)
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
    if comp.dim + rad.dim != alg.dim or not comp.intersect(rad).is_zero():
        raise AssertionError("complement does not split the algebra")
    for u in comp.rows:
        for v in comp.rows:
            if not comp.contains(alg.multiply(u, v)):
                raise AssertionError("complement is not multiplicatively closed")


def _zero_band_side(semigroup):
    if is_right_zero_band(semigroup):
        return "right"
    if is_left_zero_band(semigroup):
        return "left"
    return None


def graded_malcev_zeroband(alg: GradedAlgebra) -> SplittingData:
    """Graded semisimple complement for a unital zero-band-graded algebra.

    Follows the inductive construction: square-zero radical first, with
    the complement conjugated until it absorbs every homogeneous
    component of the unit; larger radicals are handled through A/J^2 and
    the preimage subalgebra.
    """
    if alg.unit is None:
        raise PreconditionFailed("algebra has no unit")
    side = _zero_band_side(alg.semigroup)
    if side is None:
        raise PreconditionFailed("grading semigroup is not a left or right zero band")
    comp_rows, rad, log = _graded_malcev_rec(alg, side)
    comp = Subspace(alg.dim, comp_rows)
    _assert_splitting(alg, comp, rad)
    if not is_graded_subspace(alg, comp):
        raise AssertionError("graded complement construction failed")
    return SplittingData(comp, rad, log, comp_rows)


def _graded_malcev_rec(alg, side):
    rad = jacobson_radical(alg)
    if not is_graded_subspace(alg, rad):
        raise AssertionError("radical of a unital zero-band algebra must be graded")
    if rad.is_zero():
        return [alg.basis_vector(i) for i in range(alg.dim)], rad, []
    rad2 = subspace_product(alg, rad, rad)
    if rad2.is_zero():
        cols, log = _graded_malcev_base(alg, rad)
        return cols, rad, log
    # reduce modulo J^2, then recurse inside the preimage subalgebra
    qalg, project, lift = quotient_algebra(alg, rad2, graded=True)
    qcols, _, log0 = _graded_malcev_rec(qalg, side)
    pre_rows = [lift(tuple(c)) for c in qcols]
    b1 = Subspace(alg.dim, pre_rows).sum(rad2)
    sub, sub_rows = subalgebra_on(alg, b1, graded=True)
    scols, _, log1 = _graded_malcev_rec(sub, side)
    # map complement of the subalgebra back into A coordinates
    return [_combine(sub_rows, c) for c in scols], rad, log0 + log1


def _graded_malcev_base(alg, rad):
    """Square-zero radical case: conjugate an ungraded complement until
    every homogeneous unit component lies inside it."""
    plain = malcev_complement(alg)
    cols = list(plain.section)
    qalg, project, _ = quotient_algebra(alg, rad, graded=False)

    def phi_pi(v):
        return _combine(cols, project(v))

    parts = unit_component_idempotents(alg)
    log = []
    fixed = []
    for t in sorted(parts):
        e = parts[t]
        image = phi_pi(e)
        if image != e:
            j = sub_vec(image, e)
            if not rad.contains(j):
                raise AssertionError("unit component defect must lie in the radical")
            ej = alg.multiply(e, j)
            je = alg.multiply(j, e)
            u = add_vec(sub_vec(alg.unit, je), ej)
            uinv = add_vec(sub_vec(alg.unit, ej), je)
            if alg.multiply(u, uinv) != alg.unit:
                raise AssertionError("conjugator is not invertible")
            cols = [alg.multiply(alg.multiply(u, c), uinv) for c in cols]
            log.append(f"conjugated by 1 + e_t j - j e_t at degree index {t}")
            if phi_pi(e) != e:
                raise AssertionError("conjugation did not absorb the unit component")
        for prev in fixed:
            if phi_pi(parts[prev]) != parts[prev]:
                raise AssertionError("conjugation disturbed an absorbed component")
        fixed.append(t)
    return cols, log


# -- graded simplicity ---------------------------------------------------------

def _operator_closure(alg: GradedAlgebra):
    """Basis of the unital operator algebra generated by all component
    projections and all one-sided basis multiplications, acting on A."""
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
    echelon = {}  # of the flattened matrices kept so far
    basis_mats = []

    def insert(m):
        """Keep m when it is independent of the matrices kept so far."""
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


def is_graded_simple(alg: GradedAlgebra, trials: int = 1000, seed: int = 0) -> SimplicityResult:
    """Decide graded simplicity as far as exact certificates reach.

    certified_false comes with an explicit proper nonzero graded ideal
    (or the observation that A*A = 0).  certified_true is issued when the
    operator algebra generated by the component projections and the
    one-sided multiplications is the full matrix algebra on A; that
    leaves no invariant subspace over any field extension.  When neither
    certificate fires, a seeded random search for cyclic invariant
    subspaces backs the verdict probable_true.
    """
    n = alg.dim
    full = alg.full_subspace()
    if subspace_product(alg, full, full).is_zero():
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
    for trial in range(trials):
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
        f"no invariant subspace found in {trials} random cyclic searches",
        trials)


# -- the exponent chain formula ----------------------------------------------

def _is_nilpotent(alg: GradedAlgebra) -> bool:
    cur = alg.full_subspace()
    prev_dim = None
    while True:
        if cur.is_zero():
            return True
        if prev_dim == cur.dim:
            return False
        prev_dim = cur.dim
        cur = subspace_product(alg, cur, alg.full_subspace())


def graded_exponent_d(alg: GradedAlgebra) -> int:
    """max dim(B_i1 + ... + B_ir) over chains of distinct simple summands
    of A/J linked by nonzero products through the homogeneous spread of a
    semisimple complement, with the unital hull inserted between links."""
    if _is_nilpotent(alg):
        raise NilpotentAlgebra("nilpotent algebras have eventually zero growth")
    rad = jacobson_radical(alg)
    if not is_graded_subspace(alg, rad):
        raise RadicalNotGraded("the radical is not a graded ideal")
    qalg, project, lift = quotient_algebra(alg, rad, graded=True)
    wed = wedderburn_decompose(qalg)
    for ideal in wed.simple_ideals:
        if not is_graded_subspace(qalg, ideal):
            raise PreconditionFailed("a simple summand of A/J is not graded")
    if alg.unit is not None and _zero_band_side(alg.semigroup) is not None:
        section = graded_malcev_zeroband(alg).section
    else:
        section = malcev_complement(alg).section
    # map quotient-coordinate columns: section columns follow quotient_algebra's
    # representative basis, which is exactly qalg's basis
    spreads = []
    dims = []
    for ideal in wed.simple_ideals:
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
