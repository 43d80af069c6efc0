"""Partitions, Young symmetrizers, the theta bookkeeping function, the
explicit witness polynomials with their substitution tableaux, and exact
multiplicities at small degree, induced from codim.slice_ranks.

One evaluator serves the alternation check and the witnesses:
alternating_values, a batched signed subset sum in which a letter may
fill a position only when their classes match.  A witness is a product
of alternating columns; its value at a substitution is one such sum over
its columns laid end to end, each letter confined to its own column
(apply_symmetrizer, which evaluates every item of one degree together).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby

import numpy as np

# _rank_exact is unused here: perfbench's tracer wraps this binding too
from .codim import DEFAULT_BLOCK_CAP, _product_cache, _rank_exact, slice_ranks
from .errors import (
    BadParam,
    BetaInvalid,
    HypothesisViolated,
    ResourceLimit,
    SizeMismatch,
    TooManyParts,
    UnsupportedAlgebra,
)
from .gralgebra import CellTable, GradedAlgebra, merge_entries
from .linalg import frac
# hook_dim and partitions_of are used through this module by its callers
from .young import (
    Partition,
    YoungTableau,
    hook_dim,
    induction_coefficients,
    partitions_of,
    permutation_signs,
)


# -- shapes -----------------------------------------------------------------------

def dim_bounds(lam: Partition, q: int):
    """Multinomial upper bound and the shifted-factorial lower bound.

    The lower bound is an exact rational, not floored.
    """
    if len(lam) > q:
        raise TooManyParts(f"{lam} has more than {q} parts")
    n = lam.n
    upper = math.factorial(n)
    for p in lam.parts:
        upper //= math.factorial(p)
    padded = list(lam.parts) + [0] * (q - len(lam))
    denom = 1
    for p in padded:
        denom *= math.factorial(p + q - 1)
    lower = Fraction(math.factorial(n), denom)
    return {"upper": upper, "lower": lower}


# -- polynomials ----------------------------------------------------------------


def alternating_values(cells: CellTable, letters, classes, pos_classes,
                       max_entries: int = DEFAULT_BLOCK_CAP) -> list:
    """Per row of letters (T rows of h basis indices), classes (the class
    of each letter) and pos_classes (the class of each position), all T x
    h: the sum over the orderings pi of the row's letters of sign(pi) *
    letters[pi(0)] ... letters[pi(h-1)] that fill every position k with a
    letter of class pos_classes[k], the other orderings dropped.  The
    alternation check takes the letters' degrees as classes; a witness
    takes (column, degree), its columns laid end to end (apply_symmetrizer).
    One dict coordinate -> nonzero value per row: ints, or Fractions when
    the structure constants are not all integral.

    Formed one position at a time over the entries (row, placed,
    coordinate, value), placed the bit mask of the row's letters already
    placed: the orderings of a set share every continuation, so 2^h * h
    products replace h! words.  Each entry is paired with every unplaced
    letter j of its row whose class fits the next position, joined with
    the integer cells of its coordinate and that letter (cells, the
    table of GradedAlgebra.cell_table), signed by the inversions j adds,
    #{i placed : i > j}, and equal (row, placed, coordinate) are merged
    (merge_entries).  The last level carries scale ** (h - 1) times the
    sums.  Exact: int64 while prod over classes c of (letters of class
    c)! * (dim * max |constant|) ** (h - 1) < 2 ** 63 on every row, which
    bounds every partial sum, Python ints past it.  Raises ResourceLimit
    before a level takes more than max_entries pairs or joined entries,
    or when its codes would pass int64."""
    if not len(letters):
        return []
    letters = np.asarray(letters, dtype=np.int64)
    fits = np.asarray(classes, dtype=np.int64)
    pos_classes = np.asarray(pos_classes, dtype=np.int64)
    rows, h = letters.shape
    if h == 0:
        raise BadParam("an alternating sum needs at least one letter")
    dim = cells.dim
    refused = ResourceLimit(f"alternating sums of {h} letters pass {max_entries} entries",
                            context=h)
    if (rows << h) * dim >= 2 ** 63:
        raise refused
    orderings = max(math.prod(math.factorial(len(list(run))) for _, run in groupby(row))
                    for row in {tuple(row) for row in np.sort(fits, axis=1).tolist()})
    dtype = np.int64 if orderings * (dim * cells.top) ** (h - 1) < 2 ** 63 else object
    bit = np.left_shift(1, np.arange(h, dtype=np.int64))
    row, j = np.nonzero(fits == pos_classes[:, :1])
    placed, coord, values = bit[j], letters[row, j], np.ones(len(row), dtype=dtype)
    for m in range(1, h):
        free = (placed[:, None] & bit) == 0
        entry, j = np.nonzero(free & (fits == pos_classes[:, m, None])[row])
        if len(entry) > max_entries:
            raise refused
        # the letters placed after j, counted from the right
        after = np.cumsum(~free[:, ::-1], axis=1)[:, ::-1][entry, j]
        signed = values[entry] * (1 - 2 * (after & 1))
        pair = coord[entry] * dim + letters[row[entry], j]
        src, cell = cells.join(pair, pair + 1, max_entries, refused)
        codes = ((row[entry] << h | placed[entry] | bit[j]) * dim)[src] + cells.target[cell]
        codes, values = merge_entries(codes, signed[src] * cells.constant[cell])
        coord, codes = codes % dim, codes // dim
        row, placed = codes >> h, codes & (1 << h) - 1
    ends = np.searchsorted(row, np.arange(rows + 1)).tolist()
    coord, values = coord.tolist(), values.tolist()
    if cells.scale > 1:
        values = [Fraction(v, cells.scale ** (h - 1)) for v in values]
    return [dict(zip(coord[lo:hi], values[lo:hi])) for lo, hi in zip(ends, ends[1:])]


@dataclass(frozen=True)
class AlternatingColumn:
    """The witness factor of one tableau column: the sum over sigma in
    S_h of sign(sigma) times the word whose position k holds
    variables[sigma(slots[k])] and is restricted to degree
    pos_degrees[k].  It alternates in its variables whatever the slots
    and degrees are.  With pi = sigma o slots it is sign(slots) times the
    alternating sum of its letters in the order of variables."""

    variables: tuple  # the column's variable indices, top to bottom
    slots: tuple
    pos_degrees: tuple


@dataclass
class FactoredPolynomial:
    """Ordered product of alternating columns on pairwise disjoint
    variable sets.

    The witnesses live here: expanding the product is hopeless at the
    sizes the certificates need.  Laid end to end, each letter confined
    to its own column, the columns' orderings are the block-diagonal
    orderings of all letters, whose sign is the product of the columns'
    signs: the value of the product on a substitution is one confined
    alternating sum (apply_symmetrizer).
    """

    n: int
    factors: list  # AlternatingColumn

    def laid_end_to_end(self, alg, letters) -> tuple:
        """(sign, classes, pos_classes) of letters, an int64 array whose
        rows substitute the variables column by column: f there is sign
        times the row's alternating sum with the class of a letter or
        position i * (max degree + 1) + its degree in column i.  classes
        has the shape of letters, pos_classes one entry per position."""
        width = max(alg.degree) + 1
        offsets = np.array([i * width for i, c in enumerate(self.factors) for _ in c.variables])
        # the slots laid end to end: a block-diagonal permutation, signed
        # by the product of its blocks' signs
        slots = []
        for c in self.factors:
            slots += [len(slots) + s for s in c.slots]
        [sign] = permutation_signs([slots])
        classes = offsets + np.asarray(alg.degree)[letters]
        pos = offsets + np.array([t for c in self.factors for t in c.pos_degrees])
        return sign, classes, pos


# -- Young symmetrizer application ----------------------------------------------


def _row_labels(tableau: YoungTableau, tau) -> list:
    """Per row of tableau, its labels tau[v] and their multiplicities."""
    return [Counter(tau[v] for v in row) for row in tableau.rows]


def _substitutions(tableau: YoungTableau, labels) -> np.ndarray:
    """The distinct substitutions v -> tau[rho(v)], rho over the row group
    of tableau, one int64 row each over the variables 0..n-1: each row of
    the tableau filled with an ordering of its labels (_row_labels).
    Every place starts at its row's last distinct label, and the places of
    each other label are chosen in turn, in every way, among those still
    holding it."""
    base, chosen = [0] * tableau.shape.n, []
    for row, counts in zip(tableau.rows, labels):
        *others, (last, _) = counts.items()
        for v in row:
            base[v] = last
        chosen += [(np.array(row), last, label, count) for label, count in others]
    words = np.array([base], dtype=np.int64)
    for row, last, label, count in chosen:
        free = row[np.nonzero(words[:, row] == last)[1]].reshape(len(words), -1)
        places = free[:, list(combinations(range(free.shape[1]), count))].reshape(-1, count)
        words = np.repeat(words, len(places) // len(words), axis=0)
        words[np.arange(len(words))[:, None], places] = label
    return words


def apply_symmetrizer(alg, items) -> list:
    """The value of the symmetrized polynomial e_T.f on the substitution
    tau, as a vector, for each (tableau T, f, tau) of items, f's columns
    sitting one on each column of T.

    e_T = sum over the row group R and the column group C of sign(sigma)
    rho.sigma, and f alternates in each column, so e_T.f at tau is
    |C| = prod(column height factorials) times the sum over rho in R of f
    at tau o rho.  tau o rho fills each row of T with an ordering of the
    row's labels, and each distinct ordering comes from prod over rows of
    prod over labels (label multiplicity)! elements rho: f is evaluated
    once per distinct substitution (_substitutions), and the sum taken
    times that weight.  f on a substitution is sign(slots of every
    column) times the alternating sum of its columns' letters laid end to
    end, of class (column, degree) at every letter and position
    (FactoredPolynomial.laid_end_to_end); the substitutions of every item
    with as many letters go to one alternating_values call.  Before
    anything is built, raises SizeMismatch when f and T differ in length,
    BadParam when f's columns do not sit on T's, and ResourceLimit when an
    item's distinct substitutions times its n letters, the entries they
    are built of, pass codim.DEFAULT_BLOCK_CAP.
    """
    labels, weights = [], []  # per item: _row_labels, and |C| times the rho per substitution
    for tableau, f, tau in items:
        shape = tableau.shape
        if f.n != shape.n:
            raise SizeMismatch("polynomial length does not match the tableau")
        if (sorted(tuple(sorted(c.variables)) for c in f.factors)
                != sorted(tuple(sorted(c)) for c in tableau.columns())):
            raise BadParam("the symmetrizer needs the polynomial's columns on the "
                           "tableau's columns")
        labels.append(_row_labels(tableau, tau))
        repeats = [math.prod(map(math.factorial, c.values())) for c in labels[-1]]
        count = math.prod(math.factorial(len(row)) // r for row, r in zip(tableau.rows, repeats))
        if count * shape.n > DEFAULT_BLOCK_CAP:
            raise ResourceLimit(f"the symmetrizer of shape {shape.parts} takes {count} "
                                f"distinct substitutions of {shape.n} letters "
                                f"(cap {DEFAULT_BLOCK_CAP} letters)", context=shape.parts)
        weights.append(math.prod(map(math.factorial, shape.column_heights())) * math.prod(repeats))
    batches = {}  # letters per row -> [(letters, their classes, position classes)]
    plans = []    # per item: (letters per row, its rows in that batch, their weight)
    for (tableau, f, _), row_labels, weight in zip(items, labels, weights):
        variables = [v for c in f.factors for v in c.variables]
        letters = _substitutions(tableau, row_labels)[:, variables]
        sign, fits, pos = f.laid_end_to_end(alg, letters)
        batch = batches.setdefault(len(variables), [])
        start = sum(len(part[0]) for part in batch)
        plans.append((len(variables), slice(start, start + len(letters)), sign * weight))
        batch.append((letters, fits, np.broadcast_to(pos, letters.shape)))
    cells = alg.cell_table()
    values = {}
    for h, batch in batches.items():
        # an item alone in its batch goes as it is, its position classes unbuilt
        parts = [part[0] if len(batch) == 1 else np.concatenate(part) for part in zip(*batch)]
        values[h] = alternating_values(cells, *parts)
    out = []
    for h, rows, weight in plans:
        total = {}
        for value in values[h][rows]:
            for k, x in value.items():
                total[k] = total.get(k, 0) + x
        out.append(tuple(frac(weight * total.get(k, 0)) for k in range(alg.dim)))
    return out


# -- the theta function -----------------------------------------------------------

def theta(alg: GradedAlgebra, basis_index: int) -> int:
    """Column minus row of the matrix unit behind a catalog basis element."""
    if alg.matrix_positions is None:
        raise UnsupportedAlgebra("algebra carries no matrix-unit positions")
    i, j = alg.matrix_positions[basis_index]
    return j - i


def theta_scan(alg: GradedAlgebra, n_max: int):
    """Exhaustively check additivity and the [-1, 1] window of theta on
    all nonzero products of at most n_max basis elements, read from the
    integer word products (codim._product_cache).  Raises ResourceLimit
    when they would form more words than codim's default cap."""
    if alg.matrix_positions is None:
        raise UnsupportedAlgebra("algebra carries no matrix-unit positions")
    violations = []
    # the cache lists the nonzero products, a word after its prefixes
    products = _product_cache(alg, n_max)
    for seq, value in products.items():
        theta_sum = sum(theta(alg, b) for b in seq)
        if len(value) != 1:
            violations.append(("support", seq))
        else:
            t = theta(alg, next(iter(value)))
            if t != theta_sum or not (-1 <= theta_sum <= 1):
                violations.append(("theta", seq, theta_sum, t))
    return {"ok": not violations, "violations": violations, "products_checked": len(products)}


# -- witness construction ----------------------------------------------------------

@dataclass
class BetaDecomposition:
    variant: str
    values: dict            # column-kind name -> count, e.g. {"f3": 1, ...}
    surplus: int = 0        # tall columns left without a compensating column


@dataclass
class WitnessData:
    shape: Partition
    tableau: YoungTableau
    beta: BetaDecomposition
    f: FactoredPolynomial
    tau: dict               # variable -> basis index
    column_kinds: list      # kind name per column, left to right


class _VariantTable:
    def __init__(self, q, words, columns, tall_first):
        self.q = q                    # the tall column height
        self.words = words            # name -> (slots, pos_degrees)
        self.columns = columns        # name -> substitution labels, top down
        self.tall_first = tall_first  # pair orientation: tall column first?
        # heights q..1 and the kinds available at each height
        self.kinds_by_height = {}
        for name, (slots, _) in words.items():
            self.kinds_by_height.setdefault(len(slots), []).append(name)
        for names in self.kinds_by_height.values():
            names.sort(key=lambda s: int(s[1:]))


_T1 = _VariantTable(
    q=7,
    words={
        "f1": ((2, 1, 5, 3, 4, 0, 6), (0, 1, 0, 1, 0, 0, 1)),
        "f2": ((2, 1, 5, 3, 4, 0), (0, 1, 0, 1, 0, 0)),
        "f3": ((4, 3, 0, 1, 2), (0, 1, 0, 1, 0)),
        "f4": ((1, 2, 4, 3, 0), (1, 0, 1, 1, 0)),
        "f5": ((3, 0, 1, 2), (1, 0, 1, 0)),
        "f6": ((1, 2, 3, 0), (1, 1, 1, 0)),
        "f7": ((0, 1, 2), (0, 1, 0)),
        "f8": ((1, 2, 0), (1, 1, 0)),
        "f9": ((0, 1), (0, 1)),
        "f10": ((1, 0), (0, 0)),
        "f11": ((0,), (0,)),
        "f12": ((0,), (1,)),
    },
    columns={
        "f1": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e22,0)", "(e12,0)", "(e12,e12)"],
        "f2": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e22,0)", "(e12,0)"],
        "f3": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e22,0)"],
        "f4": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)", "(e12,e12)"],
        "f5": ["(e21,0)", "(e11,e11)", "(e11,0)", "(e22,e22)"],
        "f6": ["(e21,0)", "(e11,e11)", "(e12,e12)", "(e22,e22)"],
        "f7": ["(e21,0)", "(e11,e11)", "(e11,0)"],
        "f8": ["(e21,0)", "(e11,e11)", "(e12,e12)"],
        "f9": ["(e21,0)", "(e11,e11)"],
        "f10": ["(e21,0)", "(e12,0)"],
        "f11": ["(e21,0)"],
        "f12": ["(e11,e11)"],
    },
    tall_first=True,
)

_T3 = _VariantTable(
    q=6,
    words={
        "f1": ((2, 4, 3, 1, 0, 5), (0, 1, 0, 1, 0, 0)),
        "f2": ((0, 2, 4, 1, 3), (0, 0, 1, 1, 0)),
        "f3": ((3, 1, 0, 2), (0, 1, 0, 0)),
        "f4": ((0, 2, 3, 1), (0, 0, 1, 1)),
        "f5": ((1, 0, 2), (1, 0, 0)),
        "f6": ((1, 0, 2), (1, 0, 1)),
        "f7": ((1, 0), (1, 0)),
        "f8": ((0, 1), (0, 0)),
        "f9": ((0,), (0,)),
        "f10": ((0,), (1,)),
    },
    columns={
        "f1": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)", "(e12,e12)", "(e12,0)"],
        "f2": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)", "(e12,e12)"],
        "f3": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e22,0)"],
        "f4": ["(e21,0)", "(e22,e22)", "(e11,0)", "(e12,e12)"],
        "f5": ["(e21,0)", "(e22,e22)", "(e11,0)"],
        "f6": ["(e21,0)", "(e22,e22)", "(e12,e12)"],
        "f7": ["(e21,0)", "(e22,e22)"],
        "f8": ["(e21,0)", "(e12,0)"],
        "f9": ["(e21,0)"],
        "f10": ["(e22,e22)"],
    },
    tall_first=False,
)

_VARIANTS = {"T1": _T1, "T3": _T3}


def _variant(name):
    if name not in _VARIANTS:
        raise HypothesisViolated(f"no witness construction for variant {name!r}")
    return _VARIANTS[name]


def choose_beta(variant: str, lam: Partition) -> BetaDecomposition:
    """Deterministic counts of the column kinds.

    Compensating (odd-indexed) columns are filled greedily from the
    tallest down; the boundary case where one tall column stays
    uncompensated is admitted with surplus 1.
    """
    v = _variant(variant)
    q = v.q
    if lam.part(q + 1) > 0:
        raise HypothesisViolated(f"{variant} witnesses need at most {q} parts")
    tall = lam.part(q)
    forced = lam.part(q - 1) - lam.part(q)  # the f2 columns
    values = {"f1": tall, "f2": forced}
    need = tall
    for h in range(q - 2, 0, -1):
        odd, even = v.kinds_by_height[h]
        cap = lam.part(h) - lam.part(h + 1)
        take = min(need, cap)
        values[odd] = take
        values[even] = cap - take
        need -= take
    if need > 1:
        raise HypothesisViolated(
            f"columns cannot compensate the tall blocks: short by {need}")
    return BetaDecomposition(variant, values, surplus=need)


def build_witness(variant: str, lam: Partition, alg: GradedAlgebra) -> WitnessData:
    """Assemble the witness polynomial and its substitution tableau on
    alg's basis labels, with the column counts of choose_beta.

    The shape's columns are typed left to right: tall columns first,
    then the forced height-(q-1) kind, then at each lower height the
    compensating kind before the neutral kind.  The product order pairs
    each tall column with one compensating column (orientation fixed per
    variant); an uncompensated tall column, which occurs exactly on the
    boundary stratum, goes right after the pairs, before the neutral
    columns.
    """
    v = _variant(variant)
    beta = choose_beta(variant, lam)
    label_index = {l: i for i, l in enumerate(alg.basis_labels)}

    # type every column, left to right, in weakly decreasing height
    kinds = ["f1"] * beta.values.get("f1", 0) + ["f2"] * beta.values.get("f2", 0)
    for h in range(v.q - 2, 0, -1):
        odd, even = v.kinds_by_height[h]
        kinds += [odd] * beta.values.get(odd, 0) + [even] * beta.values.get(even, 0)
    heights = [len(v.words[k][0]) for k in kinds]
    if heights != lam.column_heights():
        raise BetaInvalid("column kinds do not reproduce the shape")

    tableau = YoungTableau.column_major(lam)
    columns = tableau.columns()

    tau = {}
    factors_by_column = []
    for col_vars, kind in zip(columns, kinds):
        slots, degs = v.words[kind]
        factors_by_column.append(AlternatingColumn(col_vars, slots, degs))
        for var, label in zip(col_vars, v.columns[kind]):
            if label not in label_index:
                raise UnsupportedAlgebra(f"{variant} witnesses need the basis label "
                                         f"{label}, missing from {alg.name or 'the algebra'}")
            tau[var] = label_index[label]

    # product order: compensated pairs, surplus tall column, then neutrals
    tall_idx = [i for i, k in enumerate(kinds) if k == "f1"]
    odd_idx = [i for i, k in enumerate(kinds)
               if k not in ("f1", "f2") and int(k[1:]) % 2 == 1]
    order = []
    for a, b in zip(tall_idx, odd_idx):
        order.extend([a, b] if v.tall_first else [b, a])
    order.extend(tall_idx[len(odd_idx):])          # the surplus column, if any
    remaining = [i for i, k in enumerate(kinds) if i not in order]
    remaining.sort(key=lambda i: (int(kinds[i][1:]), i))
    order.extend(remaining)

    f = FactoredPolynomial(lam.n, [factors_by_column[i] for i in order])
    return WitnessData(lam, tableau, beta, f, tau, kinds)


def multiplicity_nonzero_certificate(alg: GradedAlgebra, variant: str, shapes) -> dict:
    """{lambda: True when lambda's assembled witness evaluates to a nonzero
    vector} for the shapes, all witnesses in one apply_symmetrizer call.

    A sufficient certificate for nonzero multiplicity; False only means
    the certificate failed, never that the multiplicity vanishes.
    """
    data = [build_witness(variant, lam, alg=alg) for lam in shapes]
    values = apply_symmetrizer(alg, [(w.tableau, w.f, w.tau) for w in data])
    return {w.shape: any(c != 0 for c in value) for w, value in zip(data, values)}


def format_witness_report(alg: GradedAlgebra, data: WitnessData, value) -> str:
    """Human-readable witness report: shape, column counts, the filled
    substitution diagram, and the symmetrized value."""
    lines = [f"shape: {data.shape.parts}  (n = {data.shape.n})"]
    counts = {k: v for k, v in sorted(data.beta.values.items()) if v}
    lines.append(f"column counts: {counts}  surplus: {data.beta.surplus}")
    lines.append(f"columns left to right: {' '.join(data.column_kinds)}")
    lines.append("substitution diagram (rows of the tableau):")
    for row in data.tableau.rows:
        lines.append("  " + " | ".join(alg.basis_labels[data.tau[v]] for v in row))
    nonzero = {alg.basis_labels[i]: str(c) for i, c in enumerate(value) if c != 0}
    lines.append(f"symmetrized value: {nonzero if nonzero else 'zero'}")
    lines.append(f"verdict: {'nonzero' if nonzero else 'certificate failed'}")
    return "\n".join(lines)


# -- exact multiplicities -----------------------------------------------------------

def multiplicities(alg: GradedAlgebra, shapes) -> dict:
    """{lambda: m_lambda} for shapes of one degree n, m_lambda the
    multiplicity of lambda's irreducible in the multilinear quotient (every
    degree assignment's multilinear polynomials modulo the graded
    identities), induced from the exact codim.slice_ranks of the slices
    some shape induces from; n = 8 of T1-T3 is refused before anything is
    built, as their live basis passes the default cap whatever the shapes
    (codim.check_request), and computed for the zero-band algebras.
    Raises BadParam for no shapes, mixed degrees or a shape without boxes."""
    want = dict.fromkeys(shapes)
    degrees = {lam.n for lam in want}
    if len(degrees) != 1 or 0 in degrees:
        raise BadParam(f"shapes of one degree n >= 1 are needed, got degrees {sorted(degrees)}")
    [n] = degrees
    record = slice_ranks(alg, n, "exact", keep=lambda parts: not want.keys().isdisjoint(
        induction_coefficients(parts)))
    return induce_multiplicities(record, want)


def induce_multiplicities(record: dict, shapes) -> dict:
    """{lambda: m_lambda} for shapes of an exact slice_ranks record's degree
    (graded_codim's exact .slices is one): as a representative's assignments
    form an S_n-orbit, stabilized by the Young subgroup of its composition,
    m_lambda sums c^lambda_<mu> * m_<mu> over its slices <mu>, c from
    young.induction_coefficients and m_<mu> the slice's rank."""
    want = dict.fromkeys(shapes, 0)
    for _, slices in record.values():
        for parts, (_, [rank]) in slices.items():
            coefs = induction_coefficients(parts)
            want = {lam: m + coefs.get(lam, 0) * rank for lam, m in want.items()}
    return want


def multiplicity_exact(alg: GradedAlgebra, lam: Partition) -> int:
    """m_lambda of one shape, combining and ranking only the slices it
    induces from, and scattering only the blocks that hold one;
    multiplicities takes the shapes of a degree at once."""
    return multiplicities(alg, [lam])[lam]


def alternation_vanishing_check(alg: GradedAlgebra, n: int, trials: int = 200,
                                seed: int = 0):
    """Random full alternations in more variables than the dimension.

    Each trial draws a decorated monomial and a degree-respecting basis
    substitution, alternates over all n variables, and expects zero (two
    of the substituted elements must coincide).  Any nonzero value is an
    implementation bug and is reported.  Every trial is evaluated in one
    alternating_values call.
    """
    if n <= alg.dim:
        raise SizeMismatch("need strictly more variables than the dimension")
    words, degrees, subs = _alternation_trials(alg, n, trials, seed)
    values = alternating_values(alg.cell_table(), subs, np.array(alg.degree)[subs],
                                np.take_along_axis(degrees, words, axis=1))
    failures = [{"trial": trial, "word": words[trial].tolist(),
                 "degrees": degrees[trial].tolist(), "substitution": subs[trial].tolist(),
                 "value": value}
                for trial, value in enumerate(values) if value]
    return {"ok": not failures, "failures": failures, "trials": trials}


def _alternation_trials(alg: GradedAlgebra, n: int, trials: int, seed: int) -> tuple:
    """alternation_vanishing_check's draws, as trials x n arrays (words,
    degrees, substitutions): each word a shuffle of the n variables (the
    argsort of random keys), each variable's degree drawn from the support
    and its basis element from that degree's component (random words
    modulo their sizes).  All three read one block of random 64-bit words
    from random.Random(seed): numpy's own generators would cost the import
    of their module, about 6 MB."""
    rng = random.Random(seed)
    keys, degree, element = np.frombuffer(rng.randbytes(24 * trials * n),
                                          dtype=np.uint64).reshape(3, trials, n)
    support = alg.support()
    comp = [alg.component_indices(t) for t in support]
    table = np.array([c + [0] * (alg.dim - len(c)) for c in comp], dtype=np.int64)
    picks = (degree % np.uint64(len(support))).astype(np.int64)
    sizes = np.array([len(c) for c in comp], dtype=np.uint64)[picks]
    subs = table[picks, (element % sizes).astype(np.int64)]
    return np.argsort(keys, axis=1), np.array(support, dtype=np.int64)[picks], subs
