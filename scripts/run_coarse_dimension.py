#!/usr/bin/env python3
"""Coarse dimension of the built witness sets along a growing prime family:
profile the formula lists, schedule the profiles, build H per structure at
its level, and track ln|H| / ln|M| falling as the sizes grow.

Usage: python scripts/run_coarse_dimension.py [--lo 101] [--hi 1499]
       [--mu 0.4] [--out reports/coarse_dim.csv]
"""

import argparse
import csv
import os
import sys

from hlab.asymptotics import profile_family
from hlab.finitemodels import make_prime_field, primes_in
from hlab.folang import parse_formula
from hlab.hsequence import (
    COARSE_DIM,
    FormulaSchedule,
    build_sequence,
    coarse_dimension_series,
    schedule_in,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=101)
    ap.add_argument("--hi", type=int, default=1499)
    ap.add_argument("--mu", type=float, default=0.4)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="reports/coarse_dim.csv")
    args = ap.parse_args()

    family = [make_prime_field(p) for p in primes_in(args.lo, args.hi)]
    sig = family[0].sig
    cover = [parse_formula("exists z. z*z = x - y", sig), parse_formula("!(x = y)", sig)]
    avoid = [parse_formula("x = z", sig), parse_formula("x = z + 1", sig)]
    sched = FormulaSchedule(
        cover=tuple(profile_family(family, pf) for pf in cover),
        avoid=tuple(profile_family(family, pf) for pf in avoid),
    )
    plan = schedule_in(family, sched, args.mu, mode=COARSE_DIM)
    build_sequence(plan, threads=args.threads)
    series = coarse_dimension_series(plan)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in series.csv_rows():
            writer.writerow(row)

    built = [r for r in series.rows if r[1] >= 1]
    print(f"{len(series.rows)} structures, {len(built)} built")
    if series.first_window_avg is not None:
        print(f"window-averaged ratio: {series.first_window_avg:.4f} at the small end, "
              f"{series.last_window_avg:.4f} at the large end "
              f"({'non-increasing' if series.nonincreasing else 'INCREASING'})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
