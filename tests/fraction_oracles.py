"""Fraction-built linear algebra, products, trace form, center, block
matrix, quotient and complement lifting: independent oracles for the
integer kernels of semigraded (integer_product, subspace_product,
quotient_algebra, and structure's _trace_form, _trace_radical, center,
_block_matrix, the section correction of _malcev and the conjugation of
_graded_malcev), each written on the plain structure constants in
Fraction arithmetic, the radical's trace form on the unital hull
itself.  The dense helpers (is_zero_vec, vec, solve, mat_vec, mat_mul)
are the ones the package ran on before its kernels moved to integer
rows, and multiply and mul_basis are the Fraction product and the basis
lookup that GradedAlgebra carried until no caller in the package was
left."""

from semigraded.gralgebra import GradedAlgebra, subspace_product
from semigraded.linalg import (ZERO, Subspace, frac, fraction_row, nullspace, rref, scaled_row,
                               unit_vec)
from semigraded.semigroup import trivial_semigroup
from semigraded.structure import SplittingData

# -- dense Fraction matrices --------------------------------------------------


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


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


def mul_basis(alg, i, j) -> dict:
    """e_i e_j as {k: Fraction}, read off the structure constants."""
    return alg.structure.get((i, j), {})


def multiply(alg, u, v) -> tuple:
    """u v as a tuple of Fractions: the integer product of u and v scaled
    to integers (scaled_row), over one common denominator."""
    (iu, du), (iv, dv) = scaled_row(u), scaled_row(v)
    return fraction_row(alg.integer_product(iu, iv), du * dv * alg.integer_table()[1])


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
    tvec = [sum((mul_basis(alg, k, m).get(m, ZERO) for m in range(n)), ZERO) for k in range(n)]
    return [tuple(sum((c * tvec[k] for k, c in mul_basis(alg, i, j).items()), ZERO)
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
    rows = [tuple(mul_basis(alg, j, i).get(k, ZERO) - mul_basis(alg, i, j).get(k, ZERO)
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
            target = fraction_combine(lift_cols, [mul_basis(qalg, i, j).get(u, ZERO)
                                                  for u in range(q)])
            defects[(i, j)] = tuple(
                a - b for a, b in zip(target, multiply(alg, lift_cols[i], lift_cols[j])))
    if all(is_zero_vec(fraction_reduce(j2k, d)) for d in defects.values()):
        return lift_cols
    rows, rhs = [], []
    for i in range(q):
        for j in range(q):
            base = fraction_reduce(j2k, defects[(i, j)])
            coeff_rows = [[ZERO] * (q * r) for _ in range(n)]
            prod_coords = mul_basis(qalg, i, j)
            for u in range(q):
                for b in range(r):
                    contrib = tuple(prod_coords.get(u, ZERO) * x for x in jk_rows[b])
                    if u == j:
                        contrib = tuple(a - c for a, c in
                                        zip(contrib, multiply(alg, lift_cols[i], jk_rows[b])))
                    if u == i:
                        contrib = tuple(a - c for a, c in
                                        zip(contrib, multiply(alg, jk_rows[b], lift_cols[j])))
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
    fraction_section_correction.  The section is (cols, 1), Fraction
    columns over the denominator 1."""
    qalg, _, lift = quotient
    cols = [tuple(lift(unit_vec(qalg.dim, i))) for i in range(qalg.dim)]
    jk = rad
    while not jk.is_zero():
        j2k = subspace_product(alg, jk, jk)
        cols = fraction_section_correction(alg, qalg, cols, jk, j2k)
        jk = j2k
    return SplittingData(Subspace(alg.dim, cols), rad, [], (cols, 1))


# -- the quotient and the graded complement --------------------------------------


def fraction_quotient_algebra(alg, ideal, graded):
    """gralgebra.quotient_algebra through the ideal's canonical Fraction
    rows: (Q, project, lift), project giving the true Q-coordinates of any
    vector as Fractions and Q's constants summed in Fractions."""
    n = alg.dim
    pivot_rows = dict(zip(ideal.pivots, ideal.canonical_rows))
    reps = [c for c in range(n) if c not in pivot_rows]
    qdim = len(reps)
    rep_pos = {c: k for k, c in enumerate(reps)}
    # a canonical row is 0 at the other pivots, so v reduces to v minus
    # v[p] times the row of each pivot p, read at the representatives
    pivot_parts = {p: [(rep_pos[c], x) for c, x in enumerate(row) if x and c in rep_pos]
                   for p, row in pivot_rows.items()}

    def project_sparse(items):
        out = [ZERO] * qdim
        for k, x in items:
            if k in rep_pos:
                out[rep_pos[k]] += x
            else:
                for a, y in pivot_parts[k]:
                    out[a] -= x * y
        return tuple(out)

    def project(v):
        return project_sparse((k, x) for k, x in enumerate(v) if x)

    def lift(coords):
        v = [ZERO] * n
        for k, c in enumerate(reps):
            v[c] = coords[k]
        return tuple(v)

    structure = {}
    for a, i in enumerate(reps):
        for b, j in enumerate(reps):
            coords = project_sparse(mul_basis(alg, i, j).items())
            cell = {k: c for k, c in enumerate(coords) if c != 0}
            if cell:
                structure[(a, b)] = cell
    if graded:
        degree = tuple(alg.degree[c] for c in reps)
        semigroup = alg.semigroup
    else:
        degree = (0,) * qdim
        semigroup = trivial_semigroup()
    unit = project(alg.unit) if alg.unit is not None else None
    if unit is not None and is_zero_vec(unit):
        unit = None
    q = GradedAlgebra(
        dim=qdim,
        basis_labels=tuple(alg.basis_labels[c] for c in reps),
        structure=structure,
        degree=degree,
        semigroup=semigroup,
        unit=unit,
        name=(alg.name + "/I") if alg.name else "",
    )
    return q, project, lift


def fraction_unit_components(alg) -> dict:
    """{t: e_t}: the homogeneous components of the unit, as Fractions."""
    parts = {}
    for t in alg.support():
        e = tuple(x if alg.degree[i] == t else ZERO for i, x in enumerate(alg.unit))
        if not is_zero_vec(e):
            parts[t] = e
    return parts


def fraction_graded_malcev(alg, rad, quotient):
    """structure._graded_malcev in Fractions: the complement of
    fraction_malcev, its section s, and the coordinates of
    fraction_quotient_algebra's project; u = sum_t e_t s(e_t + J), its
    inverse sum_k (-j)^k for j = u - 1, and u c u^-1 for every column c,
    through fraction_multiply.  The section is (cols, 1)."""
    plain = fraction_malcev(alg, rad, quotient)
    (cols, _), log = plain.section, []
    _, project, _ = fraction_quotient_algebra(alg, rad, graded=False)
    u = [ZERO] * alg.dim
    for e in fraction_unit_components(alg).values():
        image = fraction_multiply(alg, e, fraction_combine(cols, project(e)))
        u = [a + b for a, b in zip(u, image)]
    j = [a - b for a, b in zip(u, alg.unit)]
    if not is_zero_vec(j):
        minus_j = [-x for x in j]
        uinv = term = alg.unit
        while not is_zero_vec(term := fraction_multiply(alg, term, minus_j)):
            uinv = [a + b for a, b in zip(uinv, term)]
        if fraction_multiply(alg, u, uinv) != tuple(alg.unit):
            raise AssertionError("conjugator is not invertible")
        cols = [fraction_multiply(alg, fraction_multiply(alg, u, c), uinv) for c in cols]
        log.append("conjugated by u = sum_t e_t f_t")
    return SplittingData(Subspace(alg.dim, cols), rad, log, (cols, 1))

