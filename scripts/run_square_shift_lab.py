#!/usr/bin/env python3
"""Square-shift experiment over prime fields: profile the family, run strict
builds wherever the size threshold holds, verify the axioms on every build,
and print a summary table.

Usage: python scripts/run_square_shift_lab.py [--lo 101] [--hi 1201]
       [--mu 0.4] [--out reports/square_shift]

With two cover and two avoid formulas at mu = 0.4 the size threshold opens
a little above six hundred; smaller primes are listed as below threshold.
"""

import argparse
import math
import os
import sys
import time

from hlab._util import atomic_write_text, dump_json
from hlab.asymptotics import profile_family
from hlab.finitemodels import make_prime_field, primes_in
from hlab.folang import parse_formula
from hlab.hgreedy import STRICT, build_h, derive_config, size_threshold_ok
from hlab.haxioms import run_axiom_checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=101)
    ap.add_argument("--hi", type=int, default=1201)
    ap.add_argument("--mu", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--extension-samples", type=int, default=500)
    ap.add_argument("--out", default="reports/square_shift")
    args = ap.parse_args()

    t0 = time.perf_counter()
    family = [make_prime_field(p) for p in primes_in(args.lo, args.hi)]
    if len(family) < 2:
        print("need at least two primes in the interval", file=sys.stderr)
        return 2
    sig = family[0].sig
    cover = [parse_formula("exists z. z*z = x - y", sig), parse_formula("!(x = y)", sig)]
    avoid = [parse_formula("x = z", sig), parse_formula("x = z + 1", sig)]
    cover_profiles = [profile_family(family, pf, seed=args.seed) for pf in cover]
    avoid_profiles = [profile_family(family, pf, seed=args.seed) for pf in avoid]
    cfg = derive_config(cover_profiles, avoid_profiles, args.mu)
    print(f"profiled {len(family)} prime fields in {time.perf_counter() - t0:.2f}s")
    print(f"constants: c_gamma={cfg.c_gamma} ell0={cfg.ell0} k0={cfg.k0} "
          f"size bound {cfg.c_delta_gamma}*ln|M|")

    rows = []
    all_ok = True
    for M in family:
        if not size_threshold_ok(cfg, M).ok:
            rows.append((M.size, "-", "-", "below threshold"))
            continue
        h_set, report = build_h(M, cfg, STRICT)
        axioms = run_axiom_checks(
            M, h_set, cfg, extension_samples=args.extension_samples, seed=args.seed
        )
        ok = report.all_passed and axioms.passed
        all_ok &= ok
        ratio = len(h_set) / (cfg.c_delta_gamma * math.log(M.size))
        rows.append((M.size, len(h_set), f"{ratio:.3f}", "ok" if ok else "FAILED"))

    print(f"\n{'p':>6} {'|H|':>5} {'|H| / bound':>12}  status")
    for size, h, ratio, status in rows:
        print(f"{size:>6} {h:>5} {ratio:>12}  {status}")

    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(
        os.path.join(args.out, "summary.json"),
        dump_json({"config": cfg.summary(), "rows": rows}),
    )
    print(f"\nwrote {args.out}/summary.json in {time.perf_counter() - t0:.2f}s total")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
