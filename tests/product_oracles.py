"""Dict-built products of basis elements: independent oracles for the
integer tables of semigraded (GradedAlgebra.integer_table, cell_table and
the word products built on them), written as a sparse product of dicts on
the plain structure constants and a depth-first walk over the words."""

from semigraded.codim import DEFAULT_BLOCK_CAP
from semigraded.errors import ResourceLimit


def eval_table(alg):
    """Structure constants as (i, j) -> ((k, c), ...) for mul_sparse.

    The constants are plain ints when every one is integral: hot loops
    (long products of basis elements) run noticeably faster on ints
    than on Fractions.
    """
    integral = all(c.denominator == 1 for cell in alg.structure.values()
                   for c in cell.values())
    return {key: tuple((k, c.numerator if integral else c) for k, c in cell.items())
            for key, cell in alg.structure.items()}


def mul_sparse(table, u, v) -> dict:
    """Product of the sparse vectors u and v (dicts index -> coefficient)
    under an eval_table; zero coefficients are dropped."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            cell = table.get((i, j))
            if cell:
                ab = a * b
                for k, c in cell:
                    out[k] = out.get(k, 0) + ab * c
    return {k: c for k, c in out.items() if c != 0}


def product_cache(alg, n: int, max_entries: int = DEFAULT_BLOCK_CAP):
    """Sparse product vectors of every ordered basis tuple up to length n;
    a tuple is absent when a proper prefix of it multiplies to zero.
    Raises ResourceLimit once the cache holds more than max_entries tuples."""
    table = eval_table(alg)
    cache = {}
    # depth first with an explicit stack: a recursive closure would be a
    # reference cycle that keeps the whole cache alive until a full gc pass
    stack = [((b,), {b: 1}) for b in reversed(range(alg.dim))]
    while stack:
        key, value = stack.pop()
        cache[key] = value
        if len(cache) > max_entries:
            raise ResourceLimit(f"product cache for n = {n} passes {max_entries} entries",
                                context=n)
        if value and len(key) < n:
            stack.extend((key + (b,), mul_sparse(table, value, {b: 1}))
                         for b in reversed(range(alg.dim)))
    return cache
