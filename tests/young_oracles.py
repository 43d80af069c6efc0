"""Dict-built Young symmetrizers: independent oracles for the word-built
groups and signs of semigraded.young, written element by element as
variable -> variable maps, with the sign of a permutation from its cycle
count rather than its inversions."""

from itertools import permutations, product

import numpy as np


def row_group(tableau):
    """All row-preserving substitutions as variable->variable dicts."""
    groups = [list(permutations(row)) for row in tableau.rows]
    for combo in product(*groups):
        mapping = {}
        for row, image in zip(tableau.rows, combo):
            mapping.update(dict(zip(row, image)))
        yield mapping


def column_group_signed(tableau):
    columns = tableau.columns()
    for combo in product(*[list(permutations(col)) for col in columns]):
        mapping = {}
        sign = 1
        for col, image in zip(columns, combo):
            mapping.update(dict(zip(col, image)))
            sign *= perm_sign(col, image)
        yield mapping, sign


def perm_sign(domain, image):
    pos = {v: i for i, v in enumerate(domain)}
    perm = [pos[v] for v in image]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        mu = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            mu += 1
        if mu % 2 == 0:
            sign = -sign
    return sign


def symmetrizer(tableau):
    """The terms (g, sign) of e_T = sum of sign(sigma) rho.sigma over the row
    group and the signed column group of the tableau T, each g a variable
    map (both groups map the tableau's entries onto themselves)."""
    column_group = list(column_group_signed(tableau))
    return [({v: rho[w] for v, w in sigma.items()}, sign)
            for rho in row_group(tableau)
            for sigma, sign in column_group]


def direct_product(factors) -> np.ndarray:
    """The words of the direct product of per-factor words, factor t acting
    on the variables after those of the factors before it."""
    words = np.zeros((1, 0), dtype=np.int64)
    for w in factors:
        words = np.concatenate([np.repeat(words, len(w), axis=0),
                                np.tile(w + words.shape[1], (len(words), 1))], axis=1)
    return words
