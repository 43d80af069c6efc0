#!/usr/bin/env python3
"""Sweep the pairing-polytope maximum over a range of dimensions.

For each q the numeric optimum is compared against the closed form
(q-3) + 2*sqrt(2); the q = 7 and q = 6 rows carry the two headline
values 6.8284... and 5.8284...  Exits 1 when any difference or certified
gap exceeds 1e-9, so the sweep can gate a run.  The growth-bound table
of one q is `semigraded bounds --q Q --n-max N --out FILE`.
"""

import argparse
import sys

from semigraded.asympt import lemma_max_closed_form, lemma_max_polytope, maximize_phi
from semigraded.cli import json_errors

GATE = 1e-9


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q-min", type=int, default=4)
    ap.add_argument("--q-max", type=int, default=10)
    args = ap.parse_args()
    if args.q_min < 4:
        ap.error("--q-min must be at least 4, where the closed form starts")

    print("q, method, numeric max, closed form, difference, certified gap")
    failed = False
    for q in range(args.q_min, args.q_max + 1):
        res = maximize_phi(lemma_max_polytope(q))
        closed = lemma_max_closed_form(q)
        diff = abs(res.value - closed.value)
        failed = failed or diff > GATE or res.certified_gap > GATE
        print(f"{q}, {res.method}, {res.value:.12f}, {closed.value:.12f}, "
              f"{diff:.2e}, {res.certified_gap:.2e}")
    if failed:
        print(f"FAIL: a difference or certified gap exceeds {GATE}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    with json_errors():
        main()
