"""Fraction-built products, trace form, center and block matrix:
independent oracles for the integer kernels of semigraded
(GradedAlgebra.multiply and integer_product, subspace_product, and
structure's _trace_form, _trace_radical, center and _block_matrix), each
written on the plain structure constants in Fraction arithmetic, the
radical's trace form on the unital hull itself."""

from semigraded.linalg import ZERO, Subspace, is_zero_vec, nullspace, solve

from algebra_fixtures import adjoin_unit


def fraction_multiply(alg, u, v) -> tuple:
    """u v summed term by term in Fractions."""
    out = [ZERO] * alg.dim
    right = [(j, b) for j, b in enumerate(v) if b != 0]
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
    prods = [fraction_multiply(alg, u, v) for u in a.rows for v in b.rows]
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
    n = alg.dim
    return nullspace([col[:n] for col in zip(*fraction_trace_form(adjoin_unit(alg)))], n)


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


def fraction_center(alg) -> Subspace:
    """The x with x e_i = e_i x for every i, one equation per (i, k) read
    off the plain structure constants."""
    n = alg.dim
    rows = [tuple(alg.mul_basis(j, i).get(k, ZERO) - alg.mul_basis(i, j).get(k, ZERO)
                  for j in range(n)) for i in range(n) for k in range(n)]
    return nullspace(rows, n)
