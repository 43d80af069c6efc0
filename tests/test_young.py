from itertools import permutations

import pytest

from semigraded.young import YoungTableau, partitions_of, permutation_signs, young_subgroup
from young_oracles import column_group_signed, perm_sign, row_group, symmetrizer


def every_filling(lam):
    """Every tableau of shape lam filled by 0..n-1, row by row in each
    order of the entries, the column-major one among them."""
    for entries in permutations(range(lam.n)):
        rows, at = [], 0
        for part in lam.parts:
            rows.append(entries[at:at + part])
            at += part
        yield YoungTableau(lam, tuple(rows))


def signed_maps(words, signs):
    """The words as a sorted list of (map, sign), a map a tuple of images."""
    return sorted(zip(map(tuple, words.tolist()), signs))


def oracle_maps(terms, n):
    """The dict oracle's (map, sign) terms in the form of signed_maps."""
    return sorted((tuple(g[v] for v in range(n)), sign) for g, sign in terms)


@pytest.mark.parametrize("n", range(1, 6))
def test_tableau_words_match_the_dict_groups_on_every_filling(n):
    for lam in partitions_of(n):
        for tableau in every_filling(lam):
            rows = tableau.row_words()
            assert signed_maps(rows, [1] * len(rows)) == \
                oracle_maps(((g, 1) for g in row_group(tableau)), n), tableau
            assert signed_maps(*tableau.column_words()) == \
                oracle_maps(column_group_signed(tableau), n), tableau
            terms, signs = tableau.symmetrizer_words()
            assert signed_maps(terms, signs) == oracle_maps(symmetrizer(tableau), n), tableau
            # signs reach exact sums as Python ints, which cannot overflow
            assert all(type(s) is int for s in signs)


@pytest.mark.parametrize("k", range(1, 9))
def test_permutation_signs_match_the_cycle_count(k):
    perms = list(permutations(range(k)))
    assert permutation_signs(perms) == [perm_sign(tuple(range(k)), p) for p in perms]


def test_young_subgroup_is_the_lexicographic_direct_product():
    words = young_subgroup((2, 1, 3))
    assert words.tolist() == [list(a) + [2] + [3 + c for c in b]
                              for a in permutations(range(2)) for b in permutations(range(3))]
    assert words.dtype.name == "int8" and not words.flags.writeable


@pytest.mark.parametrize("n", range(9))
def test_column_heights_are_the_conjugate_parts(n):
    for lam in partitions_of(n):
        heights = lam.column_heights()
        assert heights == list(lam.conjugate().parts), lam
        # each call returns a list of its own, so a caller's change stays its own
        heights.append(0)
        assert lam.column_heights() == list(lam.conjugate().parts), lam
