"""Graded codimension sequences by block evaluation and rank.

The multilinear monomials of length n split by degree assignment; a
monomial evaluates to zero on every substitution whose degrees disagree
with its own, so the quotient dimension is the sum over assignments of
the rank of one evaluation block.  Assignments with the same multiset of
degrees have blocks of equal rank, so one block per multiset is built,
gathered with numpy from a table of word products.  Ranks run over two
~30-bit primes by default (a certified lower bound, labelled as such) or
over exact rationals on request.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .errors import BadParam, EmptySequence, ResourceLimit
from .gralgebra import GradedAlgebra, mul_sparse, with_trivial_grading

# verified 30-bit primes; per-block choices are drawn from this bank
PRIME_BANK = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717,
    1073741689, 1073741671, 1073741663, 1073741651, 1073741621, 1073741567,
    1073741561, 1073741527, 1073741503, 1073741477,
)

DEFAULT_BLOCK_CAP = 10 ** 7

CERT_EXACT = "exact"
CERT_MODULAR_STABLE = "modular lower bound, stable across >= 2 primes"
CERT_MODULAR_UNSTABLE = "modular lower bound, primes disagree"


@dataclass
class EvaluationBlock:
    assignment: tuple            # degree index per variable
    n_rows: int                  # permutations
    n_cols: int                  # substitutions x coordinates (nonzero only)
    rank: int
    certification: str


@dataclass
class CodimResult:
    n: int
    value: int
    certification: str
    blocks: list = field(default_factory=list)
    seconds: float = 0.0


def _product_cache(alg: GradedAlgebra, n: int, max_entries: int = DEFAULT_BLOCK_CAP):
    """Sparse product vectors of every ordered basis tuple up to length n;
    a tuple is absent when a proper prefix of it multiplies to zero.
    Raises ResourceLimit once the cache holds more than max_entries tuples."""
    table = alg.eval_table()
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


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    m = mat % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        below = np.nonzero(m[r + 1:, c])[0]
        if below.size:
            idx = below + (r + 1)
            m[idx] = (m[idx] - np.outer(m[idx, c], m[r])) % p
        r += 1
    return r


def _eliminate(echelon: dict, row) -> bool:
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


def _rank_exact(rows_entries) -> int:
    """Rank over Q of sparse rows given as dicts col -> value."""
    echelon = {}
    return sum(_eliminate(echelon, row) for row in rows_entries)


def independent_rows(rows) -> list:
    """Indices of the sparse rows (dicts col -> value) that are independent
    over Q of the rows before them."""
    echelon = {}
    return [i for i, row in enumerate(rows) if _eliminate(echelon, row)]


def _residue(v, p: int) -> int:
    """An int or Fraction reduced mod p."""
    return v % p if isinstance(v, int) else v.numerator * pow(v.denominator, -1, p) % p


def block_rank(rows, ncols: int, p=None) -> int:
    """Rank of sparse rows (dicts col -> value, col < ncols): over Q when p
    is None, else over GF(p) after a dense reduction of every entry."""
    if p is None:
        return _rank_exact(rows)
    mat = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            mat[i, j] = _residue(v, p)
    return _rank_mod_p(mat, p)


def _checked_primes(primes) -> tuple:
    """primes as a tuple, once it holds at least two distinct primes, each
    below 2 ** 31 so that products of two residues fit in int64."""
    primes = tuple(primes)
    if len(set(primes)) < 2 or not all(
            isinstance(p, int) and 2 <= p < 2 ** 31
            and all(p % q for q in range(2, math.isqrt(p) + 1)) for p in primes):
        raise BadParam(f"primes must hold at least 2 distinct primes p with "
                       f"2 <= p < 2**31, got {list(primes)}")
    return primes


def _block_primes(seed, assignment):
    rng = random.Random(f"{seed}:{','.join(map(str, assignment))}")
    return tuple(rng.sample(PRIME_BANK, 2))


class _WordTable:
    """The length-n words of alg with a nonzero product, found by their
    base-dim code; the row past the last word is the zero vector of every
    word left out (a zero product, or a zero prefix and so no cache entry).
    Also holds what every block of length n shares: the permutations of
    range(n) in lexicographic order and the basis of each component."""

    def __init__(self, alg: GradedAlgebra, n: int, max_entries: int):
        cache = _product_cache(alg, n, max_entries)
        dim = alg.dim
        # dim ** n stays far below 2 ** 63 while the block cap holds and the
        # |support| ** n assignments fit in memory
        words = sorted(key for key, value in cache.items() if len(key) == n and value)
        self.powers = dim ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.codes = np.array(words, dtype=np.int64).reshape(-1, n) @ self.powers
        self.dim = dim
        entries = [(i, k, c) for i, w in enumerate(words) for k, c in cache[w].items()]
        self._at = tuple(np.array([e[j] for e in entries], dtype=np.int64) for j in (0, 1))
        self.coefs = [e[2] for e in entries]
        self.nonzero = self.table([True] * len(entries), bool)
        self.perms = np.array(list(permutations(range(n))), dtype=np.int64)
        self.comp = {t: alg.component_indices(t) for t in alg.support()}

    def table(self, values, dtype):
        """(words + 1) x dim array holding values[e] at the place of the
        e-th product coefficient (listed in self.coefs), zero elsewhere."""
        out = np.zeros((len(self.codes) + 1, self.dim), dtype=dtype)
        out[self._at] = np.array(values, dtype=dtype)
        return out

    def rows(self, words):
        """Table row of every code in words; the zero row for one not listed."""
        idx = np.searchsorted(self.codes, words)
        hit = idx < len(self.codes)
        hit[hit] = self.codes[idx[hit]] == words[hit]
        idx[~hit] = len(self.codes)
        return idx


# target number of block entries gathered at once
_CHUNK_ENTRIES = 1 << 18


class _BlockLayout:
    """Where each entry of the block of one assignment comes from, before
    any values.

    Row i is the permutation words.perms[i]; column (s, k) is coordinate k
    of the s-th substitution of the assignment's degrees, lexicographically.
    Per substitution chunk this keeps the table row of every (permutation,
    substitution) word and the mask of the chunk's columns that are
    nonzero in some row; n_cols counts those columns.
    """

    def __init__(self, words: _WordTable, assignment):
        subs = np.array(list(product(*(words.comp[t] for t in assignment))), dtype=np.int64)
        perms = words.perms
        self.n_rows = len(perms)
        step = max(1, _CHUNK_ENTRIES // (self.n_rows * words.dim))
        self.chunks = []
        for lo in range(0, len(subs), step):
            idx = words.rows(subs[lo:lo + step][:, perms] @ words.powers).T
            keep = words.nonzero[idx].reshape(self.n_rows, -1).any(axis=0)
            self.chunks.append((idx, keep))
        self.n_cols = sum(int(keep.sum()) for _, keep in self.chunks)

    def matrix(self, table: np.ndarray) -> np.ndarray:
        """The block's n_rows x n_cols matrix with entries from table."""
        out = np.empty((self.n_rows, self.n_cols), dtype=table.dtype)
        j = 0
        for idx, keep in self.chunks:
            piece = table[idx].reshape(self.n_rows, -1)[:, keep]
            out[:, j:j + piece.shape[1]] = piece
            j += piece.shape[1]
        return out


def exact_blocks(alg: GradedAlgebra, n: int, assignments,
                 max_entries: int = DEFAULT_BLOCK_CAP):
    """Yield (assignment, rows, n_cols): the exact evaluation block of each
    assignment (a degree per variable) in turn.

    Row i is the monomial whose word is the i-th permutation of range(n) in
    lexicographic order, as a sparse dict column -> value with int or
    Fraction values; the n_cols columns are the (substitution, coordinate)
    pairs that are nonzero in some row.  Raises ResourceLimit once the
    product cache passes max_entries.
    """
    words = _WordTable(alg, n, max_entries)
    table = words.table(words.coefs, object)
    for a in assignments:
        layout = _BlockLayout(words, a)
        block = layout.matrix(table)
        at, cols = np.nonzero(block)
        values = block[at, cols].tolist()
        cols = cols.tolist()
        ends = np.searchsorted(at, np.arange(layout.n_rows + 1)).tolist()
        rows = [dict(zip(cols[lo:hi], values[lo:hi])) for lo, hi in zip(ends, ends[1:])]
        yield a, rows, layout.n_cols


def graded_codim(alg: GradedAlgebra, n: int, mode: str = "modular",
                 primes=None, seed: int = 0,
                 max_block_entries: int = DEFAULT_BLOCK_CAP) -> CodimResult:
    """The n-th graded codimension of alg.

    Renaming the variables permutes a block's rows and columns, so its
    rank and column count depend only on the multiset of its degrees: one
    block is ranked per sorted representative and every assignment of the
    orbit is reported with that block's figures.

    mode "modular": per-block ranks over two primes (drawn per
    representative from the seed unless primes are given, which must be at
    least two distinct primes below 2 ** 31); equal ranks across primes are
    reported as a stable modular lower bound.  mode "exact": rational
    ranks, certification "exact".
    """
    if n < 1:
        raise EmptySequence("n must be >= 1")
    if mode not in ("modular", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if primes is not None:
        primes = _checked_primes(primes)
    t0 = time.monotonic()
    support = alg.support()
    comp = {t: alg.component_indices(t) for t in support}
    n_perms = math.factorial(n)
    # lexicographic over semigroup element indices keeps output reproducible;
    # the first assignment of each orbit is its sorted representative
    assignments = list(product(support, repeat=n))
    reps = list(dict.fromkeys(tuple(sorted(a)) for a in assignments))
    for rep in reps:
        entry_bound = n_perms * math.prod(len(comp[t]) for t in rep) * alg.dim
        if entry_bound > max_block_entries:
            raise ResourceLimit(
                f"block for assignment {rep} needs {entry_bound} entries "
                f"(cap {max_block_entries})", context=rep)
    if mode == "exact":
        ranked = {rep: (n_cols, _rank_exact(rows), CERT_EXACT)
                  for rep, rows, n_cols in exact_blocks(alg, n, reps, max_block_entries)}
    else:
        words = _WordTable(alg, n, max_block_entries)
        residue_tables = {}
        ranked = {}
        for rep in reps:
            layout = _BlockLayout(words, rep)
            ranks = []
            for p in (primes or _block_primes(seed, rep)):
                if p not in residue_tables:
                    residue_tables[p] = words.table([_residue(c, p) for c in words.coefs],
                                                    np.int64)
                ranks.append(_rank_mod_p(layout.matrix(residue_tables[p]), p))
            cert = CERT_MODULAR_STABLE if len(set(ranks)) == 1 else CERT_MODULAR_UNSTABLE
            ranked[rep] = (layout.n_cols, max(ranks), cert)
    blocks = [EvaluationBlock(a, n_perms, *ranked[tuple(sorted(a))]) for a in assignments]
    total = sum(b.rank for b in blocks)
    if mode == "exact":
        certification = CERT_EXACT
    elif all(b.certification == CERT_MODULAR_STABLE for b in blocks):
        certification = CERT_MODULAR_STABLE
    else:
        certification = CERT_MODULAR_UNSTABLE
    return CodimResult(n, total, certification, blocks, time.monotonic() - t0)


def ordinary_codim(alg: GradedAlgebra, n: int, **kw) -> CodimResult:
    return graded_codim(with_trivial_grading(alg), n, **kw)


def codim_sequence(alg: GradedAlgebra, n_max: int, mode: str = "modular", **kw):
    return [graded_codim(alg, n, mode=mode, **kw) for n in range(1, n_max + 1)]


def exponent_estimate(values):
    """Diagnostic growth estimates for a positive codimension sequence.

    Returns n-th roots and the least-squares slope of ln c_n against n;
    at reachable n these are descriptive only, nothing here converges.
    """
    values = list(values)
    if not values:
        raise EmptySequence("no codimension values supplied")
    if any(v <= 0 for v in values):
        raise EmptySequence("growth estimates need strictly positive entries")
    roots = [v ** (1.0 / (i + 1)) for i, v in enumerate(values)]
    xs = [float(i + 1) for i in range(len(values))]
    ys = [math.log(v) for v in values]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    den = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den if den else 0.0
    return {"roots": roots, "slope": slope}
