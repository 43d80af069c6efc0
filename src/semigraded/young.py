"""Partitions, Young tableaux, symmetrizers and characters: the
symmetric-group side shared by the codimension engine and the
multiplicity code.  Young subgroups, tableau groups and the terms of a
Young symmetrizer are built here only, as numpy words, each signed by
permutation_signs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from types import MappingProxyType

import numpy as np

from .errors import HypothesisViolated


# -- partitions ----------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """lambda_i with 1-based i; zero beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(tuple(sum(1 for p in self.parts if p >= c)
                               for c in range(1, self.parts[0] + 1)))

    def column_heights(self):
        """The column lengths, left to right, as a new list: the parts of
        the conjugate, computed once per partition."""
        return list(self._column_heights)

    @cached_property
    def _column_heights(self) -> tuple:
        return self.conjugate().parts

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_of(n: int, max_parts=None):
    """Weakly decreasing positive tuples summing to n, lexicographically
    decreasing."""
    def gen(remaining, cap, length):
        if remaining == 0:
            yield ()
            return
        if max_parts is not None and length == max_parts:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first, length + 1):
                yield (first,) + rest
    for parts in gen(n, n, 0):
        yield Partition(parts)


@lru_cache(maxsize=None)
def hook_dim(lam: Partition) -> int:
    """n! over the product of hook lengths."""
    parts = lam.parts
    # column j holds the rows longer than j
    columns = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j) + (columns[j] - i) - 1
    return math.factorial(lam.n) // hooks


# -- tableaux and symmetrizers --------------------------------------------------

@dataclass(frozen=True)
class YoungTableau:
    shape: Partition
    rows: tuple  # tuple of tuples of variable indices (0-based)

    @classmethod
    def column_major(cls, shape: Partition):
        """Fill boxes 0..n-1 down each column, left to right."""
        heights = shape.column_heights()
        rows = [[] for _ in shape.parts]
        counter = 0
        for c, h in enumerate(heights):
            for r in range(h):
                rows[r].append(counter)
                counter += 1
        return cls(shape, tuple(tuple(r) for r in rows))

    def columns(self):
        heights = self.shape.column_heights()
        return [tuple(self.rows[r][c] for r in range(h)) for c, h in enumerate(heights)]

    def _relabelled(self, cells, composition) -> np.ndarray:
        """The Young subgroup of composition acting on the places of cells,
        the tableau's entries in some reading order, as words over the
        entries: word[cells[i]] = cells[w[i]] for each word w of
        young_subgroup(composition)."""
        cells = np.array(cells, dtype=np.int64)
        return cells[young_subgroup(composition)[:, np.argsort(cells)]]

    def row_words(self) -> np.ndarray:
        """The row group, one int64 word per element in young_subgroup's
        order, word[v] the image of entry v, which stays in its row.  The
        entries must be 0..n-1, in any filling."""
        return self._relabelled(np.concatenate(self.rows), self.shape.parts)

    def column_words(self) -> tuple:
        """(words, signs): the column group as row_words gives the row
        group, and the sign of each element as a Python int."""
        heights = tuple(self.shape.column_heights())
        return (self._relabelled(np.concatenate(self.columns()), heights),
                permutation_signs(young_subgroup(heights)))

    def symmetrizer_words(self) -> tuple:
        """(terms, signs): the terms x = rho o sigma of the Young symmetrizer
        e_T = sum of sign(sigma) rho.sigma, rho over the row group and sigma
        over the column group, as words x[v] = rho[sigma[v]], rho outermost,
        and sign(sigma) of each as a Python int."""
        rows, (columns, signs) = self.row_words(), self.column_words()
        return rows[:, columns].reshape(-1, self.shape.n), signs * len(rows)


@lru_cache(maxsize=None)
def young_subgroup(composition) -> np.ndarray:
    """The Young subgroup of a composition (k_t), one read-only int8 word
    per element: factor t permutes the k_t places after those of the
    factors before it, lexicographically, the first factor outermost."""
    words = np.zeros((1, 0), dtype=np.int64)
    for k in composition:
        factor = np.array(list(permutations(range(k))))
        words = np.concatenate([np.repeat(words, len(factor), axis=0),
                                np.tile(factor + words.shape[1], (len(words), 1))], axis=1)
    words = words.astype(np.int8)
    words.flags.writeable = False
    return words


def permutation_signs(words) -> list:
    """The sign of each permutation of range(k), one per row of words, as
    Python ints (safe against overflow beside exact values): -1 to the
    number of its inversions."""
    words = np.asarray(words)
    k = words.shape[1]
    # the pairs of places j < i whose entries stand in the other order
    inversions = ((words[:, :, None] < words[:, None, :]) & np.tri(k, k, -1, dtype=bool)).sum(
        axis=(1, 2))
    return ((-1) ** inversions).tolist()


def standard_tableaux(shape: Partition):
    """The standard fillings of shape by 0..n-1 (rows and columns
    increasing), as tuples of rows."""
    rows = [[] for _ in shape.parts]
    out = []

    def fill(k):
        if k == shape.n:
            out.append(tuple(map(tuple, rows)))
            return
        # lowest row first: the first filling is the column-major one
        for i in reversed(range(len(shape.parts))):
            if len(rows[i]) < shape.parts[i] and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(k)
                fill(k + 1)
                rows[i].pop()
    fill(0)
    return out


def spanning_permutations(lam: Partition) -> list:
    """Permutations h of range(n) whose elements e_T.h form a basis of the
    right ideal e_T.KS_n, T the column-major tableau: per standard tableau
    S, h is the inverse of the map sigma_S sending each entry of T to the
    entry of S in the same box.  Inverting every group element maps e_T.h
    to sigma_S.b_T.a_T (column sum, then row sum), the polytabloid of S in
    the Specht module KS_n.b_T.a_T, and the standard polytabloids are a
    basis over any field (James, LNM 682, 1978, Thm 8.4).  Their number is
    checked to be hook_dim(lam)."""
    column_major = YoungTableau.column_major(lam)
    basis = []
    for rows in standard_tableaux(lam):
        h = [0] * lam.n
        for t_row, s_row in zip(column_major.rows, rows):
            for t, s in zip(t_row, s_row):
                h[s] = t
        basis.append(tuple(h))
    if len(basis) != hook_dim(lam):
        raise HypothesisViolated(
            f"e_T.KS_n has dimension {len(basis)} for {lam}, not {hook_dim(lam)}")
    return basis


# -- characters and induction ----------------------------------------------------

@lru_cache(maxsize=None)
def _character(parts: tuple, rho: tuple) -> int:
    """chi^lambda at a permutation of cycle type rho, by Murnaghan-Nakayama:
    remove a border strip of length rho[0] in every way, each with sign
    (-1)^(its height - 1).  In beta-numbers beta_i = lambda_i + l - 1 - i
    that moves one beta down by r onto a free place, and the height - 1 is
    the number of betas it passes."""
    if not rho:
        return 1
    r, length = rho[0], len(parts)
    beta = [p + length - 1 - i for i, p in enumerate(parts)]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            passed = sum(b - r < c < b for c in beta)
            moved = sorted([c for c in beta if c != b] + [b - r], reverse=True)
            shape = tuple(c - (length - 1 - i) for i, c in enumerate(moved))
            total += (-1) ** passed * _character(tuple(p for p in shape if p), rho[1:])
    return total


def _centralizer_order(rho: tuple) -> int:
    """z_rho = prod_i i^(m_i) * m_i!, m_i the number of cycles of length i."""
    return math.prod(i ** m * math.factorial(m) for i, m in Counter(rho).items())


@lru_cache(maxsize=None)
def induction_coefficients(shapes: tuple):
    """The Littlewood-Richardson coefficients c^lambda_<mu> of a
    multipartition <mu> = shapes (a tuple of Partitions mu_t |- n_t): the
    multiplicity of S^lambda in the S^{mu_1} x ... x S^{mu_k} of the Young
    subgroup prod_t S_{n_t} induced to S_n.  By Frobenius reciprocity

        c^lambda_<mu> = sum over (rho_t |- n_t) of
                        prod_t chi^{mu_t}(rho_t) / z_{rho_t} * chi^lambda(U rho_t),

    U rho_t the cycle type that joins the parts of every rho_t.  Returns a
    read-only mapping lambda -> c, listing only the lambda with c != 0."""
    # the induced character, as a weight per cycle type of S_n
    weights = {(): Fraction(1)}
    for mu in shapes:
        factor = {rho.parts: Fraction(_character(mu.parts, rho.parts),
                                      _centralizer_order(rho.parts))
                  for rho in partitions_of(mu.n)}
        joined = {}
        for rho, w in weights.items():
            for sigma, v in factor.items():
                if v:
                    key = tuple(sorted(rho + sigma, reverse=True))
                    joined[key] = joined.get(key, 0) + w * v
        weights = joined
    n = sum(mu.n for mu in shapes)
    out = {}
    for lam in partitions_of(n):
        c = sum(w * _character(lam.parts, rho) for rho, w in weights.items())
        if c.denominator != 1:
            raise HypothesisViolated(f"induced multiplicity {c} of {lam} from {shapes}")
        if c:
            out[lam] = int(c)
    return MappingProxyType(out)
