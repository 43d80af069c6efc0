"""Exact linear algebra over the rationals, on integer kernels.

rref scales its rows to integers and eliminates fraction-free; eliminate
reduces sparse rows (dicts column -> value) as integers; span_closure
grows a basis with eliminate.  Fraction appears only at the boundary:
in the canonical rows rref returns, on which Subspace equality and
hashing rest, and in the dense helpers (Subspace.reduce, solve, the
matrix and polynomial helpers), whose dimensions stay at a few dozen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import takewhile

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries) -> tuple:
    return tuple(frac(x) for x in entries)


def unit_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def add_vec(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub_vec(u, v):
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def integer_row(row) -> list:
    """The row times the lcm of its denominators, as a list of ints; the
    entries may be anything frac takes."""
    if all(type(x) is int for x in row):
        return list(row)
    row = [frac(x) for x in row]
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices).

    Gauss-Jordan on the rows scaled to integers, fraction-free: each
    update is an integer combination of two rows, divided by its gcd.
    Dividing by the pivots at the end gives the canonical rows of the row
    space, as tuples of Fraction.
    """
    rows = [r for r in map(integer_row, rows) if any(r)]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        p = prow[c]
        for k, row in enumerate(rows):
            f = row[c]
            if f and k != r:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*new)
                rows[k] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
    return [tuple(Fraction(x, row[c]) if x else ZERO for x in row)
            for row, c in zip(rows, pivots)], pivots


def eliminate(echelon: dict, row) -> bool:
    """Reduce a sparse row (dict col -> value) against echelon (pivot col ->
    integer row) and add what is left as a new pivot row; True when the row
    was independent of the echelon.

    Fraction-free elimination with per-row gcd reduction.  A row with a
    non-integral entry is first scaled by the lcm of its denominators,
    which leaves the rank unchanged; integer rows stay plain ints.
    """
    work = {c: v for c, v in row.items() if v != 0}
    if not all(isinstance(v, int) for v in work.values()):
        work = dict(zip(work, integer_row(work.values())))
    while work:
        pc = min(work)
        prow = echelon.get(pc)
        if prow is None:
            g = math.gcd(*work.values()) if len(work) > 1 else abs(work[pc])
            if g > 1:
                work = {c: v // g for c, v in work.items()}
            echelon[pc] = work
            return True
        a, b = prow[pc], work[pc]
        new = {}
        for c, v in work.items():
            new[c] = a * v
        for c, v in prow.items():
            n = new.get(c, 0) - b * v
            if n:
                new[c] = n
            else:
                new.pop(c, None)
        work = new
    return False


def sparse_map(images):
    """The linear map e_j -> images[j] on sparse rows, images[j] being
    ((column, coefficient), ...); zero coefficients are dropped."""
    def apply(v):
        out = {}
        for j, x in v.items():
            for k, c in images[j]:
                out[k] = out.get(k, 0) + c * x
        return {k: c for k, c in out.items() if c}
    return apply


def span_closure(ambient: int, seeds, maps) -> list:
    """A basis of the smallest subspace of Q^ambient that holds the seeds
    and is closed under the linear maps, as the sparse rows it kept.

    Breadth first: each round applies every map to the rows the round
    before kept, and keeps a row only when eliminate finds it independent
    of the rows kept so far.  The images of every kept row are then in
    the span, so the span is closed when a round keeps nothing; the
    search also stops at ambient rows.
    """
    echelon, basis, candidates = {}, [], iter(seeds)
    while True:
        kept = [v for v in takewhile(lambda _: len(echelon) < ambient, candidates)
                if eliminate(echelon, v)]
        if not kept:
            return basis
        basis += kept
        candidates = (f(v) for v in kept for f in maps)


class Subspace:
    """A subspace of Q^n stored as a reduced-echelon basis.

    Instances are immutable; two subspaces are equal iff their canonical
    bases coincide.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows=(), _reduced=False):
        self.ambient = ambient
        if _reduced:
            self.rows = tuple(rows)
            self.pivots = tuple(next(i for i, x in enumerate(r) if x != 0) for r in self.rows)
        else:
            red, piv = rref(rows)
            self.rows = tuple(red)
            self.pivots = tuple(piv)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [unit_vec(ambient, i) for i in range(ambient)], _reduced=True)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"

    def is_zero(self) -> bool:
        return not self.rows

    def reduce(self, v):
        """Residue of v after elimination against the basis rows."""
        v = list(map(frac, v))
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                for j in range(p, self.ambient):
                    v[j] -= f * row[j]
        return tuple(v)

    def contains(self, v) -> bool:
        return is_zero_vec(self.reduce(v))

    def sum(self, other: "Subspace") -> "Subspace":
        assert self.ambient == other.ambient
        return Subspace(self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0], read the intersection off the
        rows whose left half became zero."""
        assert self.ambient == other.ambient
        n = self.ambient
        block = []
        for r in self.rows:
            block.append(tuple(r) + tuple(r))
        for r in other.rows:
            block.append(tuple(r) + (ZERO,) * n)
        red, _ = rref(block)
        inter = []
        for row in red:
            if is_zero_vec(row[:n]):
                right = row[n:]
                if not is_zero_vec(right):
                    inter.append(right)
        return Subspace(n, inter)


def nullspace(rows, ncols: int) -> Subspace:
    """Kernel of the matrix with the given rows, as a subspace of Q^ncols."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return Subspace(ncols, basis)


def solve(rows, rhs):
    """One solution x of (rows) x = rhs, or None.  rows are equations."""
    aug = [tuple(map(frac, r)) + (frac(b),) for r, b in zip(rows, rhs)]
    n = len(rows[0]) if rows else 0
    red, pivots = rref(aug)
    x = [ZERO] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None  # 0 = 1 row
        x[p] = row[n]
    return tuple(x)


def matrix_rank(rows) -> int:
    red, _ = rref(rows)
    return len(red)


def mat_vec(matrix, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in matrix)


def mat_mul(a, b):
    """Product of dense matrices given as rows; zero terms are skipped."""
    cols = list(zip(*b))
    return [tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in cols)
            for row in a]


def minimal_polynomial(op_matrix):
    """Monic minimal polynomial of a square rational matrix.

    Returned as a coefficient list [c0, c1, ..., 1] (lowest degree first).
    Found from the first linear dependence among I, M, M^2, ...
    """
    n = len(op_matrix)
    ident = [unit_vec(n, i) for i in range(n)]
    powers = [ident]
    cur = ident
    for _ in range(n):
        cur = mat_mul(cur, op_matrix)
        powers.append([tuple(r) for r in cur])
        # flatten each power into a vector and look for a dependence
        flat = [sum((list(p[i]) for i in range(n)), []) for p in powers]
        dep = solve([tuple(row) for row in zip(*flat[:-1])], flat[-1])
        if dep is not None:
            coeffs = [-c for c in dep] + [ONE]
            return coeffs
    raise AssertionError("no minimal polynomial found within dimension bound")


def poly_at(coeffs, x):
    """Value at x of the polynomial with low-first coefficients."""
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots(coeffs):
    """All rational roots of a rational-coefficient polynomial.

    coeffs are low-first.  Uses the rational root theorem on the integer
    rescaling of the polynomial.
    """
    coeffs = [frac(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    # strip zero roots
    roots = []
    while coeffs[0] == 0:
        if 0 not in roots:
            roots.append(Fraction(0))
        coeffs = coeffs[1:]
        if len(coeffs) == 1:
            return roots
    if len(coeffs) == 1:
        return roots
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(m):
        out = []
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.append(d)
                out.append(m // d)
            d += 1
        return out

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and poly_at(ints, cand) == 0:
                    roots.append(cand)
    return roots
