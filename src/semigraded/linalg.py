"""Exact linear algebra over the rationals.

Subspace, rref and the matrix helpers work on dense rows of Fraction;
their dimensions stay small (a few dozen at most), so dense rational
elimination is both fast enough and free of numerical questions.
eliminate works on sparse rows (dicts column -> int or Fraction) and
keeps integers, for the long rows of evaluation blocks and operator
closures.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries) -> tuple:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def add_vec(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub_vec(u, v):
    return tuple(a - b for a, b in zip(u, v))


def scale_vec(c, u):
    c = frac(c)
    return tuple(c * a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
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
        d = math.lcm(*(v.denominator for v in work.values()))
        work = {c: int(v * d) for c, v in work.items()}
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
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), _reduced=True)

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

    def coordinates(self, v):
        """Coefficients of v in the echelon basis, or None if v is outside."""
        v = list(map(frac, v))
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c != 0:
                for j in range(p, self.ambient):
                    v[j] -= c * row[j]
        if not is_zero_vec(v):
            return None
        return tuple(coeffs)

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
            block.append(tuple(r) + zero_vec(n))
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


def poly_eval_matrix(coeffs, m):
    """Evaluate a polynomial (low-first coefficients) at a square matrix."""
    n = len(m)
    acc = [[ZERO] * n for _ in range(n)]
    power = [unit_vec(n, i) for i in range(n)]
    for c in coeffs:
        if c != 0:
            for i in range(n):
                acc[i] = [a + c * p for a, p in zip(acc[i], power[i])]
        power = mat_mul(power, m)
    return [tuple(r) for r in acc]


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
