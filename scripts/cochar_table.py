#!/usr/bin/env python3
"""Tabulate the exact cocharacter of one catalog algebra in one degree.

Prints m_lambda, d_lambda and m_lambda * d_lambda for every partition
lambda of N, then their sum against the exact graded codimension c_N,
which it must equal.  Exits 1 on a mismatch.

    python3 scripts/cochar_table.py --catalog thm_T1_fractional --n 5
"""

import argparse
import sys

from semigraded.cochar import hook_dim, multiplicity_exact, partitions_of
from semigraded.codim import graded_codim
from semigraded.gralgebra import parse_catalog_spec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--catalog", required=True, help="catalog spec, e.g. 'mk_column_graded(2)'")
    ap.add_argument("--n", type=int, required=True)
    args = ap.parse_args()

    alg = parse_catalog_spec(args.catalog)
    print(f"{args.catalog}  (dim {alg.dim}), n = {args.n}")
    print(f"{'shape':<18}{'m':>8}{'d':>6}{'m*d':>10}")
    total = 0
    for lam in partitions_of(args.n):
        m = multiplicity_exact(alg, lam)
        d = hook_dim(lam)
        total += m * d
        print(f"{str(lam.parts):<18}{m:>8}{d:>6}{m * d:>10}")
    c_n = graded_codim(alg, args.n, mode="exact").value
    verdict = "ok" if total == c_n else "MISMATCH"
    print(f"sum m*d = {total}, exact c_{args.n} = {c_n}: {verdict}")
    return 0 if total == c_n else 1


if __name__ == "__main__":
    sys.exit(main())
