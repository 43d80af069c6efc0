#!/usr/bin/env python3
"""Print witness reports for every admissible shape at small degree.

Walks the partitions of n for the chosen variant, builds the witness
where the construction applies, evaluates every witness in one call,
and prints the substitution diagram and the symmetrized value.  A shape
counts as certified only when that value is nonzero; the script exits 1
when any certificate fails.
"""

import argparse
import sys

from semigraded.cli import json_errors
from semigraded.cochar import (
    apply_symmetrizer,
    build_witness,
    format_witness_report,
    partitions_of,
)
from semigraded.errors import HypothesisViolated
from semigraded.gralgebra import paper_catalog


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", choices=["T1", "T3"], default="T3")
    ap.add_argument("--n", type=int, default=6)
    args = ap.parse_args()

    alg = paper_catalog("thm_T1_fractional" if args.variant == "T1"
                        else "thm_T3_fractional")
    witnesses, outside = {}, {}
    for lam in partitions_of(args.n):
        try:
            witnesses[lam] = build_witness(args.variant, lam, alg=alg)
        except HypothesisViolated as exc:
            outside[lam] = exc
    values = dict(zip(witnesses, apply_symmetrizer(
        alg, [(w.tableau, w.f, w.tau) for w in witnesses.values()])))
    certified = failed = 0
    for lam in partitions_of(args.n):
        if lam in outside:
            print(f"-- {lam.parts}: outside the construction ({outside[lam]})\n")
            continue
        if any(c != 0 for c in values[lam]):
            certified += 1
        else:
            failed += 1
        print(format_witness_report(alg, witnesses[lam], values[lam]))
        print()
    print(f"{certified} shapes certified, {len(outside)} outside the construction")
    if failed:
        print(f"{failed} certificates failed")
    return 1 if failed else 0


if __name__ == "__main__":
    with json_errors():
        sys.exit(main())
