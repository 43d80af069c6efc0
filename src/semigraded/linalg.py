"""Exact linear algebra over the rationals, on integer kernels.

_echelon scales its rows to integers and eliminates fraction-free; rref
and Subspace divide its rows by their pivots once, for the canonical
rows.  A Subspace keeps both: equality and hashing rest on the canonical
Fraction rows, and sum, intersect, contains and the product kernels of
gralgebra read its integer rows, as nullspace builds its basis in ints.
eliminate reduces sparse rows (dicts column -> value) as integers, and
span_closure grows a basis with it.  rational_roots lifts roots modulo a
prime and reads them back as fractions, in Python ints.  Fraction
arithmetic is left to the dense helpers (Subspace.reduce, the matrix and
polynomial helpers), whose dimensions stay at a few dozen.
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


def scaled_row(row) -> tuple:
    """(ints, d): the row times d, the lcm of its denominators, as a list
    of ints; the entries may be anything frac takes."""
    types = set(map(type, row))
    if types <= {int}:
        return list(row), 1
    if not types <= {int, Fraction}:
        row = [frac(x) for x in row]
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def integer_row(row) -> list:
    """The row times the lcm of its denominators, as a list of ints."""
    return scaled_row(row)[0]


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices),
    the rows the canonical rows of the row space, as tuples of Fraction:
    the integer rows of _echelon divided by their pivots."""
    rows, pivots = _echelon(rows)
    return _canonical(rows, pivots), pivots


def _canonical(rows, pivots) -> list:
    return [tuple(Fraction(x, row[c]) if x else ZERO for x in row)
            for row, c in zip(rows, pivots)]


def _echelon(rows):
    """(rows, pivots): a reduced echelon basis of the row space as integer
    rows, each a nonzero multiple of its canonical row.

    Gauss-Jordan on the rows scaled to integers, fraction-free: each
    update is an integer combination of two rows, divided by its gcd.
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
    return rows, pivots


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
    """A subspace of Q^n stored as a reduced-echelon basis: its canonical
    rows, as tuples of Fraction, and the same rows as integer tuples, each
    a nonzero multiple of its canonical row, for the integer kernels.

    Instances are immutable; two subspaces are equal iff their canonical
    bases coincide.
    """

    __slots__ = ("ambient", "rows", "pivots", "integer_rows")

    def __init__(self, ambient: int, rows=()):
        self.ambient = ambient
        ints, piv = _echelon(rows)
        self.rows = tuple(_canonical(ints, piv))
        self.pivots = tuple(piv)
        self.integer_rows = tuple(map(tuple, ints))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        """Q^ambient, its canonical rows the unit vectors, with no elimination."""
        full = cls.__new__(cls)
        full.ambient, full.pivots = ambient, tuple(range(ambient))
        full.rows = tuple(unit_vec(ambient, i) for i in range(ambient))
        full.integer_rows = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        return full

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
        """Whether v reduces to zero, fraction-free on the integer rows."""
        v = integer_row(v)
        for row, p in zip(self.integer_rows, self.pivots):
            f = v[p]
            if f:
                a = row[p]
                v = [a * x - f * y for x, y in zip(v, row)]
        return not any(v)

    def sum(self, other: "Subspace") -> "Subspace":
        assert self.ambient == other.ambient
        return Subspace(self.ambient, self.integer_rows + other.integer_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0], read the intersection off the
        rows whose left half became zero."""
        assert self.ambient == other.ambient
        n = self.ambient
        block = [r + r for r in self.integer_rows] + [r + (0,) * n for r in other.integer_rows]
        return Subspace(n, [row[n:] for row in _echelon(block)[0] if not any(row[:n])])


def nullspace(rows, ncols: int) -> Subspace:
    """Kernel of the matrix with the given rows, as a subspace of Q^ncols:
    for each free column f, e_f minus the canonical rows' entries at f
    placed at their pivots, times the lcm of the pivot entries."""
    red, pivots = _echelon(rows)
    scale = math.lcm(*(row[p] for row, p in zip(red, pivots)))
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    return Subspace(ncols, basis)


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
    """Value at x of the polynomial with low-first coefficients: an int
    when they and x are."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_divmod(a, b):
    """(quotient, remainder) of Fraction polynomials, low-first, b's
    leading coefficient nonzero."""
    a, q = list(a), [ZERO] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c, s = a[-1] / b[-1], len(a) - len(b)
        q[s] = c
        for i, x in enumerate(b):
            a[s + i] -= c * x
        _trim(a)
    return q, a


def rational_roots(coeffs):
    """All rational roots of a rational-coefficient polynomial, coeffs
    low-first, each once, in increasing order.

    Exact in Python ints, with no divisors of the coefficients listed (the
    p-adic method of R. Loos, SIAM J. Comput. 12, 1983).  Past its zero
    roots, the polynomial's square-free part g, scaled to integers, has
    only simple roots; modulo a prime p that divides neither g's leading
    coefficient nor g' at a root of g mod p, each root mod p lifts by
    Newton's step to one root mod p^k > 2 |g_0| |g_d|, and a rational root
    u/v of g, |u| dividing g_0 and v dividing g_d, is the one fraction of
    that size with its residue (rational reconstruction).  A candidate is
    kept only when the polynomial vanishes at it exactly.
    """
    coeffs = _trim([frac(c) for c in coeffs])
    zeros = next((i for i, c in enumerate(coeffs) if c), 0)
    roots, coeffs = [ZERO] if zeros else [], coeffs[zeros:]
    if len(coeffs) < 2:
        return roots
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    a, b = coeffs, derivative
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    g = integer_row(_poly_divmod(coeffs, a)[0])
    content = math.gcd(*g)
    g = [c // content for c in g]
    low, lead = abs(g[0]), abs(g[-1])
    dg = [i * c for i, c in enumerate(g)][1:]
    p = 2
    while True:
        p += 1
        if lead % p == 0 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        residues = [r for r in range(p) if poly_at(g, r) % p == 0]
        if all(poly_at(dg, r) % p for r in residues):
            break
    for r in residues:
        m = p
        while m <= 2 * low * lead:
            m *= m
            r = (r - poly_at(g, r) * pow(poly_at(dg, r), -1, m)) % m
        # the first remainder of the extended Euclid on (m, r) below |g_0|
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > low:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 and poly_at(g, Fraction(r1, t1)) == 0:
            roots.append(Fraction(r1, t1))
    return sorted(roots)
