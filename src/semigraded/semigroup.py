"""Finite semigroups given by multiplication tables.

Elements are indices 0..n-1 with display labels.  table[i][j] is the
index of the product element_i * element_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import NotAssociative, OrderTooLarge, UnknownTag, WrongOrder

ENUMERATION_ORDER_CAP = 4


@dataclass(frozen=True)
class FiniteSemigroup:
    labels: tuple
    table: tuple  # tuple of tuples of indices

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def index_of(self, label) -> int:
        return self.labels.index(label)

    def __repr__(self):
        return f"FiniteSemigroup({list(self.labels)})"


def make_semigroup(labels, table) -> FiniteSemigroup:
    labels = tuple(labels)
    n = len(labels)
    table = tuple(tuple(row) for row in table)
    if len(table) != n or any(len(row) != n for row in table):
        raise WrongOrder(f"table must be {n}x{n}")
    for row in table:
        for x in row:
            if not (isinstance(x, int) and 0 <= x < n):
                raise WrongOrder(f"table entry {x!r} is not a valid element index")
    for i in range(n):
        for j in range(n):
            ij = table[i][j]
            for k in range(n):
                if table[ij][k] != table[i][table[j][k]]:
                    raise NotAssociative((labels[i], labels[j], labels[k]))
    return FiniteSemigroup(labels, table)


def opposite_semigroup(s: FiniteSemigroup) -> FiniteSemigroup:
    n = s.order
    return FiniteSemigroup(s.labels, tuple(tuple(s.table[j][i] for j in range(n)) for i in range(n)))


def is_left_zero_band(s: FiniteSemigroup) -> bool:
    return all(s.table[i][j] == i for i in range(s.order) for j in range(s.order))


def is_right_zero_band(s: FiniteSemigroup) -> bool:
    return all(s.table[i][j] == j for i in range(s.order) for j in range(s.order))


def is_cancellative(s: FiniteSemigroup) -> bool:
    n = s.order
    for c in range(n):
        col = [s.table[a][c] for a in range(n)]
        row = [s.table[c][a] for a in range(n)]
        if len(set(col)) < n or len(set(row)) < n:
            return False
    return True


# canonical order-2 tables, element order matches the labels
_CATALOG = {
    "T1": (("0", "1"), ((0, 0), (0, 1))),          # multiplicative {0,1}
    "T2": (("0", "v"), ((0, 0), (0, 0))),          # all products zero
    "T3": (("e1", "e2"), ((0, 1), (0, 1))),        # right zero band
    "T3op": (("e1", "e2"), ((0, 0), (1, 1))),      # left zero band
    "Z2": (("0", "1"), ((0, 1), (1, 0))),          # the group of order 2
    "Trivial": (("e",), ((0,),)),
}

ORDER2_TAGS = ("T1", "T2", "T3", "T3op", "Z2")


def catalog_semigroup(tag: str) -> FiniteSemigroup:
    if tag not in _CATALOG:
        raise UnknownTag(f"unknown semigroup tag {tag!r}")
    labels, table = _CATALOG[tag]
    return make_semigroup(labels, table)


def trivial_semigroup() -> FiniteSemigroup:
    return catalog_semigroup("Trivial")


def are_isomorphic(a: FiniteSemigroup, b: FiniteSemigroup) -> bool:
    if a.order != b.order:
        return False
    n = a.order
    for perm in permutations(range(n)):
        if all(perm[a.table[i][j]] == b.table[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            return True
    return False


def classify_order2(s: FiniteSemigroup) -> str:
    """The isomorphism tag of a two-element semigroup.

    T3 and T3op are anti-isomorphic but distinct tags here; transposing
    the table swaps them.
    """
    if s.order != 2:
        raise WrongOrder("classification table covers order 2 only")
    for tag in ORDER2_TAGS:
        if are_isomorphic(s, catalog_semigroup(tag)):
            return tag
    raise AssertionError("order-2 semigroup matches no class; table not associative?")


def enumerate_semigroups(order: int):
    """All associative tables on {0..order-1}, by backtracking.

    Entries are filled row by row; every triple whose three lookups are
    already defined is checked immediately, which prunes hard enough to
    make order 4 (3492 tables) quick.
    """
    if order < 1:
        raise WrongOrder("order must be positive")
    if order > ENUMERATION_ORDER_CAP:
        raise OrderTooLarge(f"enumeration is capped at order {ENUMERATION_ORDER_CAP}")
    n = order
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[None] * n for _ in range(n)]
    out = []

    def consistent(i, j):
        # check all triples that involve the fresh cell and are fully defined
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc is None:
                        continue
                    left = table[ab][c]
                    right = table[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def fill(pos):
        if pos == len(cells):
            out.append(FiniteSemigroup(tuple(str(k) for k in range(n)),
                                       tuple(tuple(row) for row in table)))
            return
        i, j = cells[pos]
        for v in range(n):
            table[i][j] = v
            if consistent(i, j):
                fill(pos + 1)
            table[i][j] = None

    fill(0)
    return out


def isomorphism_classes(semigroups):
    """Group a list of semigroups into isomorphism classes (representatives kept)."""
    classes = []
    for s in semigroups:
        for cls in classes:
            if are_isomorphic(s, cls[0]):
                cls.append(s)
                break
        else:
            classes.append([s])
    return classes
