#!/usr/bin/env python3
"""Scan graded codimension sequences across the catalog.

Computes c_1..c_N for the interesting catalog algebras in modular mode,
prints the per-n values with n-th roots and the ratios c_n/c_(n-1), and
cross-checks the two degree-7 algebras against each other termwise.
--max-block-entries sets the block cap; c_7 fits under the default, and
an --n-max past it is refused before any c_n is printed, as the CLI
refuses it: one JSON line on stderr and exit 3.
"""

import argparse
import sys

from semigraded.cli import json_errors
from semigraded.codim import DEFAULT_BLOCK_CAP, codim_sequence, exponent_estimate
from semigraded.gralgebra import parse_catalog_spec

DEFAULT_TARGETS = [
    "thm_T1_fractional",
    "thm_T2_fractional",
    "thm_T3_fractional",
    "mk_column_graded(2)",
    "utk_column_graded(2)",
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--targets", nargs="*", default=DEFAULT_TARGETS)
    ap.add_argument("--max-block-entries", type=int, default=DEFAULT_BLOCK_CAP)
    args = ap.parse_args()

    algebras = {spec: parse_catalog_spec(spec) for spec in args.targets}
    # codim_sequence refuses an over-cap n before computing any c_n, and
    # nothing is printed before every sequence is in
    results = {spec: codim_sequence(alg, args.n_max, seed=args.seed,
                                    max_block_entries=args.max_block_entries)
               for spec, alg in algebras.items()}
    sequences = {spec: [r.value for r in seq] for spec, seq in results.items()}
    for spec, seq in results.items():
        est = exponent_estimate(sequences[spec])
        print(f"{spec}  (dim {algebras[spec].dim})")
        prev = None
        for r, root in zip(seq, est["roots"]):
            ratio = f"{r.value / prev:.4f}" if prev else "-"
            print(f"  n={r.n}: c_n={r.value}  root={root:.4f}  ratio={ratio}  "
                  f"[{r.certification}]  {r.seconds:.2f}s")
            prev = r.value
        print(f"  log-slope {est['slope']:.4f}")

    a = sequences.get("thm_T1_fractional")
    b = sequences.get("thm_T2_fractional")
    if a and b:
        ok = a == b
        print(f"degree-7 sequences agree termwise: {ok}")
        if not ok:
            sys.exit(1)


if __name__ == "__main__":
    with json_errors():
        main()
