"""The block scatter as the engine took it before its words were grouped:
every word's sorted degrees compared with the representative's, and the
arrangements present found by np.unique, once per representative."""

import math

import numpy as np

from semigraded.codim import _word_products
from semigraded.errors import ResourceLimit


class MaskedWordTable:
    """The length-n words of alg with a nonzero product in lexicographic
    order, their letters and degrees sorted stably by degree and a code of
    their degree arrangement; their product coefficients as entries (word,
    coordinate, value), as codim._WordTable holds them."""

    def __init__(self, alg, n: int, max_entries: int):
        words, self.at, self.coord, values = _word_products(alg, n, max_entries)
        degrees = np.array(alg.degree, dtype=np.int64)[words]
        order = np.argsort(degrees, axis=1, kind="stable")
        self.degrees = np.take_along_axis(degrees, order, axis=1)
        self.sorted = np.take_along_axis(words, order, axis=1)
        self.powers = alg.dim ** np.arange(n, 0, -1, dtype=np.int64)
        self.arrangement = np.searchsorted(alg.support(), degrees) @ self.powers
        bound = math.factorial(n) * int(np.abs(values).max(initial=0))
        self.values = values.astype(np.float32 if bound < 2 ** 24
                                    else np.float64 if bound < 2 ** 53 else object)

    def scatter(self, rep, young: np.ndarray, max_entries: int):
        """(rows, cols, values, n_cosets, n_cols) as codim._WordTable.scatter
        gives them, from a mask over every word."""
        mine = (self.degrees == rep).all(axis=1)
        take = mine[self.at]
        triples = len(young) * int(take.sum())
        if triples > max_entries:
            raise ResourceLimit(f"block for assignment {rep} scatters {triples} entries "
                                f"(cap {max_entries})", context=rep)
        local = (np.cumsum(mine) - 1)[self.at[take]]
        arrangements, coset = np.unique(self.arrangement[mine], return_inverse=True)
        rows = coset[local, None] + len(arrangements) * np.arange(len(young))
        codes = (self.sorted[mine] @ self.powers[young].T)[local] + self.coord[take, None]
        order = np.argsort(codes, axis=None)
        codes = codes.ravel()[order]
        cols = np.cumsum(np.diff(codes, prepend=codes[:1]) != 0)
        values = np.repeat(self.values[take], len(young))[order]
        return (rows.ravel()[order], cols, values, len(arrangements),
                int(cols[-1]) + 1 if len(cols) else 0)
