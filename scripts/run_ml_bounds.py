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
import math
import sys

from treechase.cli import sweep_config, sweep_flags
from treechase.sim import run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 parents=[sweep_flags(frames=10000)])
    ap.add_argument("--snr", type=float, default=5.0)
    ap.add_argument("--budgets", default="16,64,256", help="comma list of trial budgets")
    args = ap.parse_args(argv)

    try:
        cfgs = [sweep_config(args, snr_db=(args.snr,), algorithms=("tcgs",), L=int(v),
                             min_errors=0) for v in args.budgets.split(",")]
        print(f"{'L':>6} {'lower':>10} {'FER':>10} {'upper':>10} {'gap':>10}")
        prev_gap = math.inf
        for cfg in cfgs:
            row = run_sweep(cfg)[0]
            gap = row.e_upper_rate - row.e_lower_rate
            note = "  (wider than previous budget)" if gap > prev_gap else ""
            prev_gap = gap
            print(f"{cfg.L:>6} {row.e_lower_rate:10.5f} {row.fer:10.5f}"
                  f" {row.e_upper_rate:10.5f} {gap:10.5f}{note}")
    except ValueError as exc:
        ap.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
