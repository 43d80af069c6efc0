"""Exact linear algebra over the rationals, on integer kernels.

integer_rref scales its rows to integers, eliminates fraction-free and
divides each row by its gcd, signed so that its pivot entry is positive:
the one basis of the row space that a Subspace stores, and on which its
equality and hashing rest.  rref and Subspace.canonical_rows divide those
rows by their pivots, for the canonical Fraction rows; sum, intersect,
contains, nullspace and minimal_polynomial stay in ints.  eliminate
reduces sparse rows (dicts column -> value) as integers, and span_closure
grows a basis with it.  rational_roots lifts roots modulo a prime
(is_prime) and reads them back as fractions, in Python ints.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import takewhile

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def unit_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


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


def fraction_row(row, d: int) -> tuple:
    """The integer row divided by d, as a tuple of Fraction: the inverse
    of scaled_row."""
    return tuple(Fraction(x, d) if x else ZERO for x in row)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices),
    the rows the canonical rows of the row space, as tuples of Fraction:
    the integer rows of integer_rref divided by their pivots."""
    rows, pivots = integer_rref(rows)
    return _canonical(rows, pivots), pivots


def _canonical(rows, pivots) -> list:
    return [fraction_row(row, row[c]) for row, c in zip(rows, pivots)]


def scaled_canonical(rows, pivots):
    """(rows, lcm): the canonical rows of integer echelon rows (each divided
    by its pivot entry) times lcm, the lcm of the pivot entries, in ints."""
    lcm = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    return [[x * (lcm // row[p]) for x in row] for row, p in zip(rows, pivots)], lcm


def integer_rref(rows):
    """(rows, pivots): the reduced echelon basis of the row space as lists
    of ints, each row divided by the gcd of its entries and signed so that
    its pivot entry is positive.  Each row is the one such multiple of its
    canonical row (1 at its pivot, 0 at the other pivots), so the rows are
    unique for the space.

    Gauss-Jordan on the rows scaled to integers, fraction-free (after
    Bareiss, Math. Comp. 22, 1968): each update is an integer combination
    of two rows, divided by its gcd.
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
    del rows[len(pivots):]
    for k, (row, c) in enumerate(zip(rows, pivots)):
        g = math.gcd(*row) if row[c] > 0 else -math.gcd(*row)
        if g != 1:
            rows[k] = [x // g for x in row]
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
    """A subspace of Q^n stored as one basis: the integer rows of
    integer_rref, unique for the space, on which equality and hashing
    rest.  canonical_rows divides them by their pivots, on demand.

    Instances are immutable.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows=()):
        self.ambient = ambient
        ints, piv = integer_rref(rows)
        self.rows = tuple(map(tuple, ints))
        self.pivots = tuple(piv)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        """Q^ambient, its rows the unit vectors, with no elimination."""
        full = cls.__new__(cls)
        full.ambient, full.pivots = ambient, tuple(range(ambient))
        full.rows = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        return full

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def canonical_rows(self) -> tuple:
        """The rows divided by their pivot entries, as tuples of Fraction:
        1 at their own pivot and 0 at the others."""
        return tuple(_canonical(self.rows, self.pivots))

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

    def contains(self, v) -> bool:
        """Whether v reduces to zero, fraction-free on the rows."""
        v = integer_row(v)
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                a = row[p]
                v = [a * x - f * y for x, y in zip(v, row)]
        return not any(v)

    def sum(self, other: "Subspace") -> "Subspace":
        assert self.ambient == other.ambient
        return Subspace(self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0], read the intersection off the
        rows whose left half became zero."""
        assert self.ambient == other.ambient
        n = self.ambient
        block = [r + r for r in self.rows] + [r + (0,) * n for r in other.rows]
        return Subspace(n, [row[n:] for row in integer_rref(block)[0] if not any(row[:n])])


def nullspace(rows, ncols: int) -> Subspace:
    """Kernel of the matrix with the given rows, as a subspace of Q^ncols:
    for each free column f, e_f minus the canonical rows' entries at f
    placed at their pivots, times the lcm of the pivot entries."""
    red, pivots = integer_rref(rows)
    red, scale = scaled_canonical(red, pivots)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return Subspace(ncols, basis)


def matrix_rank(rows) -> int:
    red, _ = rref(rows)
    return len(red)


def minimal_polynomial(matrix) -> list:
    """Monic minimal polynomial of a square integer matrix, as its
    coefficients lowest degree first: the first linear dependence among
    I, M, M^2, ..., read off the kernel of their flattened entries.  The
    coefficients are integers, since the minimal polynomial divides the
    characteristic polynomial, which is monic in Z[x] (Gauss's lemma); so
    the kernel's one row is plus or minus them.
    """
    n = len(matrix)
    cols = list(zip(*matrix))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    flats = [[x for row in power for x in row]]
    for _ in range(n):
        power = [[sum(map(operator.mul, row, col)) for col in cols] for row in power]
        flats.append([x for row in power for x in row])
        dependence = nullspace(list(zip(*flats)), len(flats))
        if not dependence.is_zero():
            row = dependence.rows[0]
            return [c // row[-1] for c in row]
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


def is_prime(p: int) -> bool:
    """Whether p < 3215031751 (past 2 ** 31) is prime: Miller-Rabin on the
    bases 2, 3, 5 and 7, which no composite below that bound passes."""
    if p in (2, 3, 5, 7):
        return True
    if p < 2 or p % 2 == 0:
        return False
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


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
        if lead % p == 0 or not is_prime(p):
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
