"""Graded codimension sequences by block evaluation and rank.

The multilinear monomials of length n split by degree assignment; a
monomial evaluates to zero on every substitution whose degrees disagree
with its own, so the quotient dimension is the sum over assignments of
the rank of one evaluation block.  Assignments with the same multiset of
degrees have blocks of equal rank, so one block per multiset is built,
scattered with numpy from the words of nonzero product whose degrees sort
to it, grouped once per length by those degrees (_WordTable), their
products formed one length at a time with integer-scaled
structure constants (_word_products).
A block's rank is split by the graded cocharacter: per multipartition of
its degrees, the rank of the block's rows combined by a certified basis
of one isotypic piece of the group algebra.  That basis lies in the group
algebra of the Young subgroup H of the degrees on each right coset of H,
so the rows of every coset are combined by one matrix F over H, a
Kronecker product of one certified factor per degree.
isotypic_slices scatters each block once and combines it by the rows of
F of the slices that get ranked; slice_ranks ranks each slice M once, into
the one record that graded_codim sums and from which
cochar.multiplicities induces the ordinary cocharacter.  M is ranked
through its Gram matrix G along its longer side: over exact rationals on
request, where rank_Q(G) = rank_Q(M), else modulo two ~30-bit primes, in
stacks of one elimination each (a certified lower bound, labelled as
such), where rank_p(G) <= rank_p(M) <= rank_Q(M).  Below 2 ** 29, where G
mod p lost rank on some catalog slices, a prime ranks M itself.  A stack
holds layers next to each other in shape order, zero padded to the
largest, within STACK_ENTRIES entries unless one layer alone passes it,
and each step of its elimination pivots every layer on its first nonzero
entry in row-major order (_eliminate).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, groupby, product

import numpy as np

from .errors import BadParam, EmptySequence, HypothesisViolated, ResourceLimit
from .gralgebra import GradedAlgebra, merge_entries, with_trivial_grading
from .linalg import eliminate, is_prime
from .young import YoungTableau, hook_dim, partitions_of, spanning_permutations, young_subgroup

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
    slices: dict = field(default_factory=dict)  # the record of slice_ranks


def _product_cache(alg: GradedAlgebra, n: int, max_entries: int = DEFAULT_BLOCK_CAP):
    """{word: {coordinate: value}} for every word of length 1 to n with a
    nonzero product, lexicographically (so after its prefixes), its values
    those of _word_products at its length, every length read from one pass
    (_word_levels).  Raises ResourceLimit exactly where
    _word_products(alg, n, max_entries) does."""
    cache = {}
    for words, at, coord, values in _word_levels(alg, n, max_entries):
        words = list(map(tuple, words.tolist()))
        for w, k, v in zip(at.tolist(), coord.tolist(), values.tolist()):
            cache.setdefault(words[w], {})[k] = v
    return dict(sorted(cache.items()))


def _word_products(alg: GradedAlgebra, n: int, max_entries: int = DEFAULT_BLOCK_CAP):
    """(words, at, coord, values): the length-n words of alg with a nonzero
    product, lexicographically, one per row, and the nonzero coefficients
    of their products as entries (word, coordinate, value) in (word,
    coordinate) order, scaled to integers by the lcm of their denominators
    (ranks over Q unchanged); int64, or Python ints past its range.  The
    last level of _word_levels, which raises ResourceLimit for it."""
    for level in _word_levels(alg, n, max_entries):
        pass
    return level


def _word_levels(alg: GradedAlgebra, n: int, max_entries: int = DEFAULT_BLOCK_CAP):
    """Yield _word_products(alg, m, max_entries) for m = 1 to n, in turn.

    Formed one level at a time: the structure constants scaled to integers
    by their lcm L (GradedAlgebra.cell_table) act on the nonzero entries of
    the level before, each entry (w, i, v) joining the constants c_(i b)^k
    into the entry (wb, k, v c), equal (wb, k) merged (merge_entries), so a
    word whose prefix multiplies to zero drops out with it.  Level m then
    carries L ** (m - 1) times the products; dividing by the gcd of that
    power and every value gives the lcm scaling.  Raises ResourceLimit
    before a level takes the words formed (dim at length 1, then dim per
    word of nonzero product of the length before, summed) or the joined
    entries past max_entries, the levels before it already yielded."""
    dim = alg.dim
    cells = alg.cell_table()
    # an entry of level m is a sum of products of m - 1 constants, at most
    # (dim * max |constant|) ** (m - 1)
    dtype = np.int64 if (dim * cells.top) ** (n - 1) < 2 ** 63 else object
    refused = ResourceLimit(f"product cache for n = {n} passes {max_entries} entries", context=n)
    words = np.arange(dim, dtype=np.int64)[:, None]
    at = coord = np.arange(dim, dtype=np.int64)
    values = np.ones(dim, dtype=dtype)
    formed = dim
    for m in range(1, n + 1):
        if formed > max_entries:
            raise refused
        if m > 1:
            src, cell = cells.join(coord * dim, coord * dim + dim, max_entries, refused)
            # (word formed, coordinate) as one code, word formed = w * dim + b
            codes, values = merge_entries((at[src] * dim + cells.letter[cell]) * dim
                                          + cells.target[cell],
                                          values[src] * cells.constant[cell])
            formed_words, at = np.unique(codes // dim, return_inverse=True)
            coord = codes % dim
            words = np.concatenate([words[formed_words // dim], (formed_words % dim)[:, None]],
                                   axis=1)
        scale = math.gcd(cells.scale ** (m - 1), int(np.gcd.reduce(values))) if len(values) else 1
        yield words, at, coord, values // scale
        formed += len(words) * dim


def _rank_mod_p(stack: np.ndarray, moduli) -> tuple:
    """The rank of each layer of an integer stack (int64 or Python ints)
    modulo its own prime p < 2 ** 31 in moduli, from one elimination
    (_eliminate); stack holds the layers' rows one layer after another,
    len(stack) // len(moduli) rows each."""
    moduli = np.array(moduli, dtype=np.int64)[:, None, None]
    m = stack.reshape(len(moduli), len(stack) // len(moduli), stack.shape[1])
    return tuple(_eliminate(_residues(m, moduli).astype(np.int64, copy=False), moduli))


def _residues(m: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """m mod moduli, in [0, p), as a new array: numpy divides by a
    broadcast int64 modulus several times faster than it takes remainders."""
    out = m // moduli
    out *= moduli
    return np.subtract(m, out, out=out)


# the entries of one stack of _rank_layers, and of one chunk of rows that a
# step of _eliminate updates: small enough that each temporary stays in cache
STACK_ENTRIES = 2 ** 13


def _eliminate(m: np.ndarray, moduli: np.ndarray) -> list:
    """The rank of each layer of m (layers x rows x cols, reduced) modulo
    the matching entry of moduli (layers x 1 x 1); m is overwritten.

    Each step every layer pivots on its first nonzero entry in row-major
    order of its rows left, so every row above the pivot row is zero, and
    updates all its rows without division (row <- piv row - f prow mod p,
    f the row's entry in the pivot column), which zeroes the pivot row
    too: no row moves, and the leading row, now zero in every layer, is
    dropped.  A layer whose rows left are zero leaves with its rank."""
    ranks, rank = [0] * len(m), 0
    at = np.arange(len(m))  # the input layer each layer of m holds
    while True:
        flat = m.reshape(len(m), -1)
        if not flat.shape[1]:
            for k in at:
                ranks[k] = rank
            return ranks
        first = (flat != 0).argmax(axis=1)
        layer = np.arange(len(m))
        pivot = flat[layer, first]
        done = pivot == 0
        if done.any():
            for k in at[done]:
                ranks[k] = rank
            live = ~done
            m, moduli, at, first, pivot = m[live], moduli[live], at[live], first[live], pivot[live]
            if not len(m):
                return ranks
            layer = layer[:len(m)]
        top, col = np.divmod(first, m.shape[2])
        prow, f, piv = m[layer, top][:, None], m[layer, :, col][..., None], pivot[:, None, None]
        chunk = max(1, STACK_ENTRIES // prow.size)
        for lo in range(0, m.shape[1], chunk):
            rest = m[:, lo:lo + chunk]
            rest *= piv
            rest -= f[:, lo:lo + chunk] * prow
            quotient = rest // moduli
            quotient *= moduli
            rest -= quotient
        m = m[:, 1:]
        rank += 1


def _rank_layers(layers: list):
    """Set ranks[j] to the rank of each layer (matrix, p, ranks, j) mod p,
    by _rank_mod_p on the layers sorted by shape, in stacks zero padded to
    their largest layer and within STACK_ENTRIES entries, which keeps each
    temporary near 64 kB; empties layers."""
    layers.sort(key=lambda layer: layer[0].shape)
    while layers:
        rows = cols = take = 0
        for mat, *_ in layers:
            r, c = max(rows, mat.shape[0]), max(cols, mat.shape[1])
            if take and (take + 1) * r * c > STACK_ENTRIES:
                break
            rows, cols, take = r, c, take + 1
        group, layers[:take] = layers[:take], []
        wide = any(g[0].dtype == object for g in group)
        stack = np.zeros((take, rows, cols), dtype=object if wide else np.int64)
        for k, (mat, *_) in enumerate(group):
            stack[k, :mat.shape[0], :mat.shape[1]] = mat
        for (_, _, ranks, j), rank in zip(group, _rank_mod_p(stack.reshape(take * rows, cols),
                                                             [g[1] for g in group])):
            ranks[j] = rank


def _rank_exact(rows_entries) -> int:
    """Rank over Q of sparse rows given as dicts col -> value."""
    echelon = {}
    return sum(eliminate(echelon, row) for row in rows_entries)


def _checked_primes(primes, n: int) -> tuple:
    """primes as a tuple, once it holds at least two distinct primes, each
    above n, where the group algebras of S_n and its Young subgroups are
    semisimple (below it the per-multipartition split would lose rank), and
    below 2 ** 31 so that products of two residues fit in int64."""
    primes = tuple(primes)
    if len(set(primes)) < 2 or not all(
            isinstance(p, int) and n < p < 2 ** 31 and is_prime(p) for p in primes):
        raise BadParam(f"primes must hold at least 2 distinct primes p with "
                       f"{n} = n < p < 2**31, got {list(primes)}")
    return primes


@lru_cache(maxsize=None)
def _block_primes(seed, assignment):
    rng = random.Random(f"{seed}:{','.join(map(str, assignment))}")
    return tuple(rng.sample(PRIME_BANK, 2))


class _WordTable:
    """The length-n words of alg with a nonzero product, grouped by the
    degrees they sort to and within each group by their degree arrangement
    (their positions' degrees, unsorted), with their letters sorted stably
    by degree; their product coefficients as entries (word, coordinate,
    value) in word order, scaled to integers by the lcm of their
    denominators (ranks over Q unchanged)."""

    def __init__(self, alg: GradedAlgebra, n: int, max_entries: int):
        words, at, coord, values = _word_products(alg, n, max_entries)
        degrees = np.array(alg.degree, dtype=np.int64)[words]
        order = np.argsort(degrees, axis=1, kind="stable")
        sorted_degrees = np.take_along_axis(degrees, order, axis=1)
        # (substitution, coordinate) codes stay far below 2 ** 63 under the block cap
        self.powers = alg.dim ** np.arange(n, 0, -1, dtype=np.int64)
        # a code per arrangement and per sorted arrangement: one place per
        # position, its degree's index in the support (fewer than dim)
        support = alg.support()
        arrangement = np.searchsorted(support, degrees) @ self.powers
        group = np.searchsorted(support, sorted_degrees) @ self.powers
        by_group = np.lexsort((arrangement, group))
        self.sorted = np.take_along_axis(words, order, axis=1)[by_group]
        group, arrangement = group[by_group], arrangement[by_group]
        # the entries follow their words to their new places
        at = np.argsort(by_group)[at]
        by_word = np.argsort(at, kind="stable")
        self.at, self.coord = at[by_word], coord[by_word]
        # per sorted degrees: its words lo to hi and entries e0 to e1, and
        # the number of distinct arrangements among them; per word, the
        # number of its arrangement among its group's
        bounds = np.flatnonzero(np.diff(group, prepend=-1, append=-1))
        changes = np.cumsum(np.diff(arrangement, prepend=-1) != 0)
        self.coset = changes - np.repeat(changes[bounds[:-1]], np.diff(bounds))
        lo, hi = bounds[:-1], bounds[1:]
        self.groups = {tuple(sorted_degrees[by_group[w]].tolist()): (w, end, e0, e1, n_cosets)
                       for w, end, e0, e1, n_cosets in zip(
                           lo.tolist(), hi.tolist(), *np.searchsorted(self.at, [lo, hi]).tolist(),
                           (self.coset[hi - 1] + 1).tolist())}
        # every partial sum of a combined entry is an integer of size at most
        # n! * max |value|, exact in float32 below 2 ** 24 and float64 below 2 ** 53
        bound = math.factorial(n) * int(np.abs(values).max(initial=0))
        self.values = values[by_word].astype(np.float32 if bound < 2 ** 24
                                             else np.float64 if bound < 2 ** 53 else object)

    def scatter(self, rep, young: np.ndarray, max_entries: int):
        """(rows, cols, values, n_cosets, n_cols): the nonzero entries of
        rep's block, cols increasing, its rows grouped per right coset of the
        Young subgroup young (H).  A word w whose degrees sort to rep lands
        at the rows pi = h o pi_0, h in H and pi_0 the stable sort of its
        degrees, all in the coset H.pi_0 that its degree arrangement names:
        at row j * n_cosets + c, c the number of that arrangement among those
        present and j the index of h in young; and at the columns (s, k) in
        lexicographic order: s = w o pi^-1 and k a coordinate of w's
        product.  Raises ResourceLimit before allocating more than
        max_entries triples."""
        lo, hi, e0, e1, n_cosets = self.groups.get(tuple(rep), (0, 0, 0, 0, 0))
        triples = len(young) * (e1 - e0)
        if triples > max_entries:
            raise ResourceLimit(f"block for assignment {rep} scatters {triples} entries "
                                f"(cap {max_entries})", context=rep)
        at = self.at[e0:e1]
        rows = self.coset[at, None] + n_cosets * np.arange(len(young))
        # s[h[v]] is the v-th sorted letter of w
        codes = (self.sorted[lo:hi] @ self.powers[young].T)[at - lo] + self.coord[e0:e1, None]
        order = np.argsort(codes, axis=None)
        codes = codes.ravel()[order]
        # a column per run of equal codes, numbered in order
        cols = np.cumsum(np.diff(codes, prepend=codes[:1]) != 0)
        values = np.repeat(self.values[e0:e1], len(young))[order]
        return (rows.ravel()[order], cols, values, n_cosets,
                int(cols[-1]) + 1 if len(cols) else 0)


def _combine(basis: np.ndarray, rows, cols, values, n_cosets: int, n_cols: int) -> np.ndarray:
    """The block holding values at (rows, cols), cols increasing, combined
    per right coset by basis (rows per coset x |H|): row j * n_cosets + c
    of the block is h_j o g_c, so each coset's |H| rows are combined by the
    same matrix.  Returns basis rows x n_cosets x n_cols, one dense column
    chunk of about 2 ** 18 entries (a few MB) per matrix product; in int64,
    or in Python ints for object values."""
    per_coset = basis.shape[1]
    step = max(1, 2 ** 18 // max(1, per_coset * n_cosets))
    basis = basis.astype(values.dtype)
    out = np.empty((len(basis), n_cosets, n_cols),
                   dtype=object if values.dtype == object else np.int64)
    ends = np.searchsorted(cols, range(0, n_cols + step, step)).tolist()
    for lo, a, b in zip(range(0, n_cols, step), ends, ends[1:]):
        width = min(step, n_cols - lo)
        chunk = np.zeros((per_coset * n_cosets, width), dtype=values.dtype)
        chunk[rows[a:b], cols[a:b] - lo] = values[a:b]
        product = basis @ chunk.reshape(per_coset, n_cosets * width)
        out[:, :, lo:lo + width] = product.reshape(len(basis), n_cosets, width)
    return out


def _gram(rows: np.ndarray) -> np.ndarray:
    """The Gram matrix of an integer matrix M along its longer side: M.M^T
    when M has no more rows than columns, else M^T.M.  Its rank over Q is
    M's, since M.M^T x = 0 gives |M^T x|^2 = 0; mod p it is at most M's.
    Exact: in float64 while long side * max |entry| ** 2 < 2 ** 53 (every
    partial sum an integer in range), cast to int64; in Python ints past it."""
    m = rows if rows.shape[0] <= rows.shape[1] else rows.T
    if m.shape[1] * int(np.abs(m).max(initial=0)) ** 2 < 2 ** 53:
        m = m.astype(np.float64)
        return (m @ m.T).astype(np.int64)
    m = m.astype(object)
    return m @ m.T


def _dict_rows(mat: np.ndarray) -> list:
    """The rows of a dense matrix as sparse dicts col -> nonzero value."""
    return [{c: v for c, v in enumerate(row) if v} for row in mat.tolist()]


# -- the isotypic split ---------------------------------------------------------
#
# Renaming the variables of one degree among themselves maps a block's row
# space to itself, so the row space is a module over the Young subgroup
# H = prod_t S_{n_t} of the assignment's composition (n_t).  Over Q, or
# GF(p) with p > n, it splits into irreducibles indexed by multipartitions
# <lambda> = (lambda_t |- n_t), and its dimension is the sum over <lambda>
# of d_<lambda> * m_<lambda>: the dimension of the irreducible times its
# multiplicity, the graded cocharacter (Di Vincenzo, Comm. Algebra 24,
# 1996).  m_<lambda> is the rank of the block's rows combined by a basis of
# the right ideal e_<lambda>.KS_n, whose elements e_<lambda>.h.g have h a
# product of per-factor spanning_permutations and g a coset representative
# of H in S_n.  e_<lambda>.h lies in KH, so every right coset H.g of the
# block's rows is combined by the same matrix F over H, the Kronecker
# product of one factor F_lambda per degree (_young_factor).

@lru_cache(maxsize=None)
def _young_factor(lam) -> np.ndarray:
    """F_lambda: the read-only int8 matrix over the k! permutations of
    range(k), k = |lambda|, in lexicographic order, whose row for h in
    spanning_permutations(lam) is e_T.h, T the column-major tableau: it
    holds sign(sigma) at x o h for every term x = rho o sigma of e_T
    (YoungTableau.symmetrizer_words).

    Certified a basis of e_T.KS_k, of dimension hook_dim(lam): that many
    rows, whose Gram matrix has full rank modulo a bank prime, so over Q."""
    k = lam.n
    terms, signs = YoungTableau.column_major(lam).symmetrizer_words()
    spanning = np.array(spanning_permutations(lam), dtype=np.int64)
    words = terms[:, spanning]
    # the lexicographic rank of x o h from its Lehmer code
    later = np.triu(np.ones((k, k), dtype=bool), 1)
    digits = ((words[..., None, :] < words[..., :, None]) & later).sum(axis=-1)
    cols = digits @ np.array([math.factorial(k - 1 - j) for j in range(k)], dtype=np.int64)
    factor = np.zeros((len(spanning), math.factorial(k)), dtype=np.int8)
    factor[np.arange(len(spanning)), cols] = np.array(signs)[:, None]
    wide = factor.astype(np.int64)
    if len(spanning) != hook_dim(lam) or \
            _rank_mod_p(wide @ wide.T, (PRIME_BANK[0],)) != (len(spanning),):
        raise HypothesisViolated(f"the rows built for {lam} are not a basis of e.KS_{k}")
    factor.flags.writeable = False
    return factor


@lru_cache(maxsize=None)
def _multipartitions(composition) -> tuple:
    """The multipartitions (lambda_t |- n_t) of a composition (n_t), as
    tuples of Partitions, in the order of the slices of _isotypic_basis."""
    return tuple(product(*(list(partitions_of(k)) for k in composition)))


@lru_cache(maxsize=None)
def _isotypic_basis(composition: tuple, chosen: tuple):
    """(F, pieces) for a composition (n_t) of n and the multipartitions
    chosen of it, a nonempty tuple in _multipartitions' order (all of them
    for the full basis).  F is a read-only int8 matrix over the Young
    subgroup H, in young_subgroup's order, whose rows are the elements
    e_<lambda>.h stacked per chosen multipartition <lambda>: the Kronecker
    product of the factors F_lambda_t (_young_factor); pieces lists
    (d_<lambda>, row slice) per chosen <lambda>.

    A Kronecker product of full-rank factors has full rank, so each slice
    has d_<lambda> independent rows; placed on the multinomial right cosets
    H.g, whose supports are disjoint, they give d_<lambda> * multinomial
    independent elements e_<lambda>.h.g, a basis of e_<lambda>.KS_n."""
    blocks = [reduce(np.kron, map(_young_factor, shapes)) for shapes in chosen]
    ends = np.cumsum([0] + [len(b) for b in blocks]).tolist()
    basis = np.concatenate(blocks)
    basis.flags.writeable = False
    return basis, tuple((len(b), slice(lo, hi)) for b, lo, hi in zip(blocks, ends, ends[1:]))


def _composition(rep) -> tuple:
    """The number of variables of each degree of a sorted assignment."""
    return tuple(len(list(run)) for _, run in groupby(rep))


@lru_cache(maxsize=None)
def _involutions(k: int) -> int:
    """The involutions of S_k, a(k) = a(k-1) + (k-1) a(k-2): the sum of
    hook_dim over the partitions of k."""
    a, b = 1, 1  # a(j-1), a(j)
    for j in range(2, k + 1):
        a, b = b, b + (j - 1) * a
    return b


def _basis_rows(composition) -> int:
    """The rows of the full _isotypic_basis of composition, without
    building it."""
    return math.prod(map(_involutions, composition))


def check_request(alg: GradedAlgebra, n: int, mode: str = "modular", primes=None,
                  max_block_entries: int = DEFAULT_BLOCK_CAP):
    """Every check slice_ranks makes before it builds anything, in its
    order; nothing is built.  Returns (primes, reps): the checked primes (or
    None) and the sorted representative of every orbit of degree
    assignments, lexicographically, each the first assignment of its orbit.
    Raises ResourceLimit when the isotypic basis that combines each coset
    of a representative's block, rows x |H| entries (H its Young subgroup),
    passes max_block_entries."""
    if n < 1:
        raise EmptySequence("n must be >= 1")
    if mode not in ("modular", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    primes = None if primes is None else _checked_primes(primes, n)
    reps = list(combinations_with_replacement(alg.support(), n))
    for rep in reps:
        composition = _composition(rep)
        rows, young = _basis_rows(composition), math.prod(map(math.factorial, composition))
        if rows * young > max_block_entries:
            raise ResourceLimit(
                f"block for assignment {rep} needs a {rows} x {young} "
                f"isotypic basis (cap {max_block_entries})", context=rep)
    return primes, reps


def isotypic_slices(alg: GradedAlgebra, n: int, chosen,
                    max_block_entries: int = DEFAULT_BLOCK_CAP):
    """Yield (rep, n_cols, slices) per sorted representative of chosen (as
    check_request returns them, each mapped to a tuple of multipartitions
    of its composition in _multipartitions' order), slices listing (shapes,
    d_<lambda>, rows) per multipartition <lambda> that chosen[rep] holds:
    rows is the block combined by that slice of _isotypic_basis on each
    right coset of the Young subgroup that holds a word, an integer matrix
    of rank m_<lambda> over Q and of rank at most m_<lambda> mod p > n.
    The block is scattered once (_WordTable.scatter) and combined by the
    basis of its chosen multipartitions only (_combine); a representative
    with none chosen is skipped, neither scattered nor combined.
    ResourceLimit is raised before either step allocates more than
    max_block_entries triples or combined entries."""
    words = _WordTable(alg, n, max_block_entries)
    for rep, wanted in chosen.items():
        if not wanted:
            continue
        composition = _composition(rep)
        rows, cols, values, n_cosets, n_cols = words.scatter(
            rep, young_subgroup(composition), max_block_entries)
        basis, pieces = _isotypic_basis(composition, wanted)
        if len(basis) * n_cosets * n_cols > max_block_entries:
            raise ResourceLimit(
                f"block for assignment {rep} combines into {len(basis) * n_cosets} x {n_cols} "
                f"entries (cap {max_block_entries})", context=rep)
        combined = _combine(basis, rows, cols, values, n_cosets, n_cols)
        yield rep, n_cols, [(shapes, d, combined[piece].reshape(d * n_cosets, n_cols))
                            for shapes, (d, piece) in zip(wanted, pieces)]
        del combined  # freed before the next block is combined


def slice_ranks(alg: GradedAlgebra, n: int, mode: str = "modular", primes=None,
                seed: int = 0, max_block_entries: int = DEFAULT_BLOCK_CAP, keep=None) -> dict:
    """The one record of the ranks of the slices of degree n
    (isotypic_slices, after check_request's checks), which graded_codim
    and cochar.multiplicities read: {rep: (n_cols, {shapes: (d_<lambda>,
    ranks per prime)})} per sorted representative.  mode "modular" ranks
    each slice's Gram matrix (_gram), or the slice for a prime below
    2 ** 29, modulo two primes (given, or drawn per representative from
    the seed) in stacks (_rank_layers); "exact" ranks the Gram matrix over
    Q.  A slice whose lambda_t has more rows than dim A_t alternates in
    more degree-t variables than A_t has dimensions, so it is recorded as
    zero, unranked, and its rows of the basis are not combined.  keep, a
    predicate on the multipartition, confines the record to the slices it
    accepts, and the combining to their rows; a representative with no
    slice left to rank is neither scattered nor combined and is recorded
    with its zero slices and None for its column count.  graded_codim
    never sets keep, and its every representative has a slice to rank,
    the multipartition ((n_t)) of one row per degree.  max_block_entries
    also caps the entries of the layers held for ranking."""
    primes, reps = check_request(alg, n, mode, primes, max_block_entries)
    dims = {t: len(alg.component_indices(t)) for t in alg.support()}
    block_primes = {rep: (None,) if mode == "exact" else primes or _block_primes(seed, rep)
                    for rep in reps}
    record, chosen, layers = {}, {}, []
    for rep in reps:
        kept = [shapes for shapes in _multipartitions(_composition(rep))
                if keep is None or keep(shapes)]
        record[rep] = (None, {shapes: (math.prod(map(hook_dim, shapes)),
                                       [0] * len(block_primes[rep])) for shapes in kept})
        chosen[rep] = tuple(shapes for shapes in kept if all(
            len(lam) <= dims[t] for t, lam in zip(sorted(set(rep)), shapes)))
    for rep, n_cols, slices in isotypic_slices(alg, n, chosen, max_block_entries):
        record[rep] = (n_cols, record[rep][1])
        for shapes, _, rows in slices:
            ranks = record[rep][1][shapes][1]
            gram = _gram(rows)
            if mode == "exact":
                ranks[0] = _rank_exact(_dict_rows(gram))
            else:
                layers += [(gram if p > 2 ** 29 else rows, p, ranks, j)
                           for j, p in enumerate(block_primes[rep])]
        slices = rows = None  # the block is freed before the next one is combined
        if sum(layer[0].size for layer in layers) > max_block_entries:
            _rank_layers(layers)
    _rank_layers(layers)
    return record


def graded_codim(alg: GradedAlgebra, n: int, mode: str = "modular",
                 primes=None, seed: int = 0,
                 max_block_entries: int = DEFAULT_BLOCK_CAP) -> CodimResult:
    """The n-th graded codimension of alg: per block and prime, the ranks
    of slice_ranks (arguments as there) weighted by d_<lambda> and summed;
    the result carries the record as slices.  Renaming the variables
    permutes a block's rows and columns, so every assignment of a sorted
    representative's orbit is reported with its block's figures, certified
    exact, or a modular lower bound, stable when its primes agree."""
    t0 = time.monotonic()
    record = slice_ranks(alg, n, mode, primes, seed, max_block_entries)
    ranked = {}
    for rep, (n_cols, slices) in record.items():
        ranks = [sum(column) for column in zip(*([d * r for r in rs] for d, rs in slices.values()))]
        ranked[rep] = (n_cols, max(ranks), CERT_EXACT if mode == "exact" else CERT_MODULAR_STABLE
                       if len(set(ranks)) == 1 else CERT_MODULAR_UNSTABLE)
    # lexicographic over semigroup element indices keeps output reproducible
    blocks = [EvaluationBlock(a, math.factorial(n), *ranked[tuple(sorted(a))])
              for a in product(alg.support(), repeat=n)]
    certs = {b.certification for b in blocks}
    certification = CERT_MODULAR_UNSTABLE if CERT_MODULAR_UNSTABLE in certs else certs.pop()
    return CodimResult(n, sum(b.rank for b in blocks), certification, blocks,
                       time.monotonic() - t0, record)


def ordinary_codim(alg: GradedAlgebra, n: int, **kw) -> CodimResult:
    return graded_codim(with_trivial_grading(alg), n, **kw)


def codim_sequence(alg: GradedAlgebra, n_max: int, mode: str = "modular", **kw):
    """[graded_codim(alg, n, mode, **kw) for n = 1 to n_max], every n first
    through check_request, so an over-cap n is refused before any c_n is
    computed.  Raises BadParam for n_max < 1: the sequence would be empty."""
    if n_max < 1:
        raise BadParam(f"n_max must be at least 1, got {n_max}")
    for n in range(1, n_max + 1):
        check_request(alg, n, mode, kw.get("primes"),
                      kw.get("max_block_entries", DEFAULT_BLOCK_CAP))
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
