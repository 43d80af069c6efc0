"""Algebra constructions only the tests use: the catalog's names, the
direct sum of two algebras graded by one semigroup, the unital hull, and
the unit found by a linear solve."""

from semigraded.gralgebra import _CATALOG_BUILDERS, GradedAlgebra
from semigraded.linalg import ONE, ZERO, unit_vec
from semigraded.semigroup import trivial_semigroup
from fraction_oracles import mul_basis, solve


class SemigroupMismatch(ValueError):
    """The summands of a direct sum are graded by different semigroups."""


def catalog_names():
    return sorted(_CATALOG_BUILDERS)


def direct_sum(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    if a.semigroup != b.semigroup:
        raise SemigroupMismatch("direct summands must share the grading semigroup")
    n = a.dim
    structure = {}
    for (i, j), cell in a.structure.items():
        structure[(i, j)] = dict(cell)
    for (i, j), cell in b.structure.items():
        structure[(i + n, j + n)] = {k + n: c for k, c in cell.items()}
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = tuple(a.unit) + tuple(b.unit)
    return GradedAlgebra(
        dim=n + b.dim,
        basis_labels=tuple(f"L:{l}" for l in a.basis_labels) + tuple(f"R:{l}" for l in b.basis_labels),
        structure=structure,
        degree=tuple(a.degree) + tuple(b.degree),
        semigroup=a.semigroup,
        unit=unit,
        name=f"{a.name}(+){b.name}" if a.name and b.name else "",
    )


def find_unit(alg: GradedAlgebra):
    """The two-sided unit as a coordinate vector, or None.

    Solves u * e_i = e_i and e_i * u = e_i for all basis e_i.
    """
    n = alg.dim
    rows, rhs = [], []
    for i in range(n):
        # sum_j u_j (e_j e_i) = e_i  and  sum_j u_j (e_i e_j) = e_i
        for k in range(n):
            rows.append(tuple(mul_basis(alg, j, i).get(k, ZERO) for j in range(n)))
            rhs.append(ONE if k == i else ZERO)
            rows.append(tuple(mul_basis(alg, i, j).get(k, ZERO) for j in range(n)))
            rhs.append(ONE if k == i else ZERO)
    return solve(rows, rhs)


def adjoin_unit(alg: GradedAlgebra) -> GradedAlgebra:
    """A + Q*1 with a fresh unit basis vector appended.

    The result is carried as an ungraded algebra (trivial semigroup):
    the adjoined unit has no meaningful degree.
    """
    n = alg.dim
    structure = {}
    for (i, j), cell in alg.structure.items():
        structure[(i, j)] = dict(cell)
    for i in range(n + 1):
        structure[(i, n)] = {i: ONE}
        structure[(n, i)] = {i: ONE}
    structure[(n, n)] = {n: ONE}
    return GradedAlgebra(
        dim=n + 1,
        basis_labels=alg.basis_labels + ("1",),
        structure=structure,
        degree=(0,) * (n + 1),
        semigroup=trivial_semigroup(),
        unit=unit_vec(n + 1, n),
        name=(alg.name + "+") if alg.name else "",
    )
