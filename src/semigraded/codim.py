"""Graded codimension sequences by block evaluation and rank.

The multilinear monomials of length n split by degree assignment; a
monomial evaluates to zero on every substitution whose degrees disagree
with its own, so the quotient dimension is the sum over assignments of
the rank of one evaluation block.  Ranks run over two ~30-bit primes by
default (a certified lower bound, labelled as such) or over exact
rationals on request.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .errors import EmptySequence, ResourceLimit
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


def _product_cache(alg: GradedAlgebra, n: int):
    """Sparse product vectors of every ordered basis tuple up to length n;
    a tuple is absent when a proper prefix of it multiplies to zero."""
    table = alg.eval_table()
    cache = {}

    def extend(key, value):
        cache[key] = value
        if value and len(key) < n:
            for b in range(alg.dim):
                extend(key + (b,), mul_sparse(table, value, {b: 1}))

    for b in range(alg.dim):
        extend((b,), {b: 1})
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


def _rank_exact(rows_entries) -> int:
    """Rank over Q of sparse rows given as dicts col -> value.

    Fraction-free elimination with per-row gcd reduction.  A row with a
    non-integral entry is first scaled by the lcm of its denominators,
    which leaves the rank unchanged; integer rows stay plain ints.
    """
    echelon = {}  # pivot_col -> integer row dict
    rank = 0
    for row in rows_entries:
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
                rank += 1
                break
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
    return rank


def block_rank(rows, ncols: int, p=None) -> int:
    """Rank of sparse rows (dicts col -> value, col < ncols): over Q when p
    is None, else over GF(p) after a dense reduction of every entry."""
    if p is None:
        return _rank_exact(rows)
    mat = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            mat[i, j] = v % p if isinstance(v, int) else v.numerator * pow(v.denominator, -1, p) % p
    return _rank_mod_p(mat, p)


def _block_primes(seed, assignment):
    rng = random.Random(f"{seed}:{','.join(map(str, assignment))}")
    return tuple(rng.sample(PRIME_BANK, 2))


def graded_codim(alg: GradedAlgebra, n: int, mode: str = "modular",
                 primes=None, seed: int = 0,
                 max_block_entries: int = DEFAULT_BLOCK_CAP) -> CodimResult:
    """The n-th graded codimension of alg.

    mode "modular": per-block ranks over two primes (drawn per block
    from the seed unless primes are given); equal ranks across primes are
    reported as a stable modular lower bound.  mode "exact": rational
    ranks, certification "exact".
    """
    if n < 1:
        raise EmptySequence("n must be >= 1")
    if mode not in ("modular", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.monotonic()
    support = alg.support()
    comp = {t: alg.component_indices(t) for t in support}
    cache = _product_cache(alg, n)
    perms = list(permutations(range(n)))
    blocks = []
    total = 0
    stable = True
    # lexicographic over semigroup element indices keeps output reproducible
    for assignment in product(support, repeat=n):
        choices = [comp[t] for t in assignment]
        n_subs = math.prod(len(c) for c in choices)
        entry_bound = len(perms) * n_subs * alg.dim
        if entry_bound > max_block_entries:
            raise ResourceLimit(
                f"block for assignment {assignment} needs {entry_bound} entries "
                f"(cap {max_block_entries})", context=assignment)
        substs = list(product(*choices))
        # collect sparse rows; columns keyed by (substitution index, coordinate)
        col_index = {}
        rows_entries = []
        for perm in perms:
            row = {}
            for s_idx, sub in enumerate(substs):
                # a key absent from the cache had a zero prefix product
                value = cache.get(tuple(sub[k] for k in perm))
                if not value:
                    continue
                for coord, c in value.items():
                    key = (s_idx, coord)
                    j = col_index.setdefault(key, len(col_index))
                    row[j] = c
            rows_entries.append(row)
        if mode == "exact":
            rank = block_rank(rows_entries, len(col_index))
            cert = CERT_EXACT
        else:
            ps = tuple(primes) if primes else _block_primes(seed, assignment)
            ranks = [block_rank(rows_entries, len(col_index), p) for p in ps]
            rank = max(ranks)
            cert = CERT_MODULAR_STABLE if len(set(ranks)) == 1 else CERT_MODULAR_UNSTABLE
            if cert == CERT_MODULAR_UNSTABLE:
                stable = False
        blocks.append(EvaluationBlock(assignment, len(perms), len(col_index), rank, cert))
        total += rank
    if mode == "exact":
        certification = CERT_EXACT
    else:
        certification = CERT_MODULAR_STABLE if stable else CERT_MODULAR_UNSTABLE
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
