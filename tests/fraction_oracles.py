"""Fraction-built linear algebra, products, trace form, center, block
matrix and complement lifting: independent oracles for the integer
kernels of semigraded (GradedAlgebra.multiply and integer_product,
subspace_product, and structure's _trace_form, _trace_radical, center,
_block_matrix and the section correction of _malcev), each written on
the plain structure constants in Fraction arithmetic, the radical's
trace form on the unital hull itself.  The dense helpers (vec, solve,
mat_vec, mat_mul) are the ones the package ran on before its kernels
moved to integer rows."""

from semigraded.gralgebra import subspace_product
from semigraded.linalg import ZERO, Subspace, frac, is_zero_vec, nullspace, rref, unit_vec
from semigraded.structure import SplittingData

# -- dense Fraction matrices --------------------------------------------------


def vec(entries) -> tuple:
    return tuple(frac(x) for x in entries)


def solve(rows, rhs):
    """One solution x of (rows) x = rhs, or None.  rows are equations."""
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    n = len(rows[0]) if rows else 0
    red, pivots = rref(aug)
    x = [ZERO] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None  # 0 = 1 row
        x[p] = row[n]
    return tuple(x)


def mat_vec(matrix, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in matrix)


def mat_mul(a, b):
    """Product of dense matrices given as rows; zero terms are skipped."""
    cols = list(zip(*b))
    return [tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in cols)
            for row in a]


def fraction_reduce(space, v):
    """Residue of v after elimination against the canonical rows of space."""
    v = list(map(frac, v))
    for row, p in zip(space.canonical_rows, space.pivots):
        if v[p] != 0:
            f = v[p]
            for j in range(p, space.ambient):
                v[j] -= f * row[j]
    return tuple(v)


def fraction_combine(rows, coords):
    """sum_l coords[l] * rows[l] in Fractions."""
    return tuple(sum((c * r[k] for c, r in zip(coords, rows)), ZERO) for k in range(len(rows[0])))


# -- products, traces, center ---------------------------------------------------


def fraction_multiply(alg, u, v) -> tuple:
    """u v summed term by term in Fractions."""
    out = [ZERO] * alg.dim
    right = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in right:
            cell = alg.structure.get((i, j))
            if cell:
                ab = a * b
                for k, c in cell.items():
                    out[k] += ab * c
    return tuple(out)


def fraction_subspace_product(alg, a, b) -> Subspace:
    prods = [fraction_multiply(alg, u, v) for u in a.canonical_rows for v in b.canonical_rows]
    return Subspace(alg.dim, [p for p in prods if not is_zero_vec(p)])


def fraction_trace_form(alg) -> list:
    """form[i][j] = trace of left multiplication by e_i * e_j, from the
    traces tvec[k] of the left multiplications by the basis."""
    n = alg.dim
    tvec = [sum((alg.mul_basis(k, m).get(m, ZERO) for m in range(n)), ZERO) for k in range(n)]
    return [tuple(sum((c * tvec[k] for k, c in alg.mul_basis(i, j).items()), ZERO)
                  for j in range(n)) for i in range(n)]


def fraction_trace_radical(alg) -> Subspace:
    """x lies in the radical iff trace(left multiplication by x*y on the
    unital hull) vanishes for every basis y of the hull."""
    from algebra_fixtures import adjoin_unit  # here, since algebra_fixtures imports solve
    n = alg.dim
    return nullspace([col[:n] for col in zip(*fraction_trace_form(adjoin_unit(alg)))], n)


def fraction_center(alg) -> Subspace:
    """The x with x e_i = e_i x for every i, one equation per (i, k) read
    off the plain structure constants."""
    n = alg.dim
    rows = [tuple(alg.mul_basis(j, i).get(k, ZERO) - alg.mul_basis(i, j).get(k, ZERO)
                  for j in range(n)) for i in range(n) for k in range(n)]
    return nullspace(rows, n)


# -- the block matrix of the center --------------------------------------------


def fraction_block_matrix(alg, rows, z) -> list:
    """Multiplication by z on span(rows), in the coordinates of rows: one
    solve per row."""
    cols = list(zip(*rows))
    mat_rows = []
    for b in rows:
        coords = solve([tuple(r) for r in cols], fraction_multiply(alg, z, b))
        if coords is None:
            raise AssertionError("block is not closed under multiplication")
        mat_rows.append(coords)
    return [tuple(mat_rows[i][j] for i in range(len(rows))) for j in range(len(rows))]


# -- the complement's section ----------------------------------------------------


def fraction_section_correction(alg, qalg, lift_cols, jk, j2k):
    """Solve for h with h(xy) - s(x)h(y) - h(x)s(y) = -defect(x,y) mod J^2k
    on dense Fraction equations.  lift_cols[i] is the current section image
    of quotient basis i; returns the corrected columns, or the same
    columns when already clean."""
    q, n = qalg.dim, alg.dim
    jk_rows = list(jk.canonical_rows)
    r = len(jk_rows)
    defects = {}
    for i in range(q):
        for j in range(q):
            target = fraction_combine(lift_cols, [qalg.mul_basis(i, j).get(u, ZERO)
                                                  for u in range(q)])
            defects[(i, j)] = tuple(
                a - b for a, b in zip(target, alg.multiply(lift_cols[i], lift_cols[j])))
    if all(is_zero_vec(fraction_reduce(j2k, d)) for d in defects.values()):
        return lift_cols
    rows, rhs = [], []
    for i in range(q):
        for j in range(q):
            base = fraction_reduce(j2k, defects[(i, j)])
            coeff_rows = [[ZERO] * (q * r) for _ in range(n)]
            prod_coords = qalg.mul_basis(i, j)
            for u in range(q):
                for b in range(r):
                    contrib = tuple(prod_coords.get(u, ZERO) * x for x in jk_rows[b])
                    if u == j:
                        contrib = tuple(a - c for a, c in
                                        zip(contrib, alg.multiply(lift_cols[i], jk_rows[b])))
                    if u == i:
                        contrib = tuple(a - c for a, c in
                                        zip(contrib, alg.multiply(jk_rows[b], lift_cols[j])))
                    for c, x in enumerate(fraction_reduce(j2k, contrib)):
                        coeff_rows[c][u * r + b] = x
            for c in range(n):
                if any(coeff_rows[c]) or base[c]:
                    rows.append(tuple(coeff_rows[c]))
                    rhs.append(-base[c])
    sol = solve(rows, rhs)
    if sol is None:
        raise AssertionError("complement lifting system has no solution")
    return [tuple(a + b for a, b in zip(lift_cols[u],
                                        fraction_combine(jk_rows, sol[u * r:(u + 1) * r])))
            for u in range(q)]


def fraction_malcev(alg, rad, quotient):
    """structure._malcev on Fraction sections: the lift of A/J's basis
    corrected level by level along the radical filtration by
    fraction_section_correction."""
    qalg, _, lift = quotient
    cols = [lift(unit_vec(qalg.dim, i)) for i in range(qalg.dim)]
    jk = rad
    while not jk.is_zero():
        j2k = subspace_product(alg, jk, jk)
        cols = fraction_section_correction(alg, qalg, cols, jk, j2k)
        jk = j2k
    return SplittingData(Subspace(alg.dim, cols), rad, [], cols)

