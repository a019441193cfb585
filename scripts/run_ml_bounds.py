#!/usr/bin/env python3
"""Bracket the maximum-likelihood frame error rate from both sides.

Every decoded frame is classified against the transmitted codeword: certified
correct decodes contribute to neither counter, wrong outputs that are strictly
more likely than the transmitted word must also defeat an ML decoder (lower
bound), and any uncertified or wrong frame caps what ML could fix (upper
bound).  Growing the trial budget tightens the bracket from both ends.

    python3 scripts/run_ml_bounds.py --snr 5 --frames 10000 --budgets 16,64,256
"""

import argparse
import sys

from treechase.sim import SweepConfig, parse_code_spec, run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--code", default="2,4,15,11")
    ap.add_argument("--snr", type=float, default=5.0)
    ap.add_argument("--frames", type=int, default=10000)
    ap.add_argument("--budgets", default="16,64,256", help="comma list of trial budgets")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    try:
        p, m, n, k = parse_code_spec(args.code)
    except ValueError as exc:
        ap.error(str(exc))
    budgets = [int(v) for v in args.budgets.split(",")]

    print(f"{'L':>6} {'lower':>10} {'FER':>10} {'upper':>10} {'gap':>10}")
    prev_gap = None
    for L in budgets:
        cfg = SweepConfig(p=p, m=m, n=n, k=k, snr_db=(args.snr,),
                          algorithms=("tcgs",), L=L,
                          max_frames=args.frames, min_errors=0,
                          seed=args.seed, workers=args.workers)
        row = run_sweep(cfg)[0]
        gap = row.e_upper_rate - row.e_lower_rate
        note = ""
        if prev_gap is not None and gap > prev_gap:
            note = "  (wider than previous budget)"
        prev_gap = gap
        print(f"{L:>6} {row.e_lower_rate:10.5f} {row.fer:10.5f}"
              f" {row.e_upper_rate:10.5f} {gap:10.5f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
