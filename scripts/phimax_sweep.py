#!/usr/bin/env python3
"""Sweep the pairing-polytope maximum over a range of dimensions.

For each q the numeric optimum is compared against the closed form
(q-3) + 2*sqrt(2); the q = 7 and q = 6 rows carry the two headline
values 6.8284... and 5.8284...  Exits 1 when any difference or certified
gap exceeds 1e-9, so the sweep can gate a run.  Optionally writes the
growth-bound CSV for one q.
"""

import argparse
import sys

from semigraded.asympt import (
    bound_report,
    lemma_max_closed_form,
    lemma_max_polytope,
    maximize_phi,
)

GATE = 1e-9


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q-min", type=int, default=4)
    ap.add_argument("--q-max", type=int, default=10)
    ap.add_argument("--bound-csv", help="write the n,d_pow_n,c_n,hook_lower table here")
    ap.add_argument("--bound-q", type=int, default=7)
    ap.add_argument("--bound-n-max", type=int, default=20)
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

    if args.bound_csv:
        closed = lemma_max_closed_form(args.bound_q)
        rows = bound_report(closed.value, range(1, args.bound_n_max + 1),
                            alpha=closed.point)
        with open(args.bound_csv, "w", encoding="utf-8") as fh:
            fh.write("n,d_pow_n,c_n,hook_lower\n")
            for r in rows:
                fh.write(f"{r['n']},{r['d_pow_n']:.6f},,{r['hook_lower']}\n")
        print(f"wrote {args.bound_csv}")
    if failed:
        print(f"FAIL: a difference or certified gap exceeds {GATE}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
