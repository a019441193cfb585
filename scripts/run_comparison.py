#!/usr/bin/env python3
"""Compare tree-search Chase, low-complexity Chase, and plain hard-decision
decoding over an AWGN sweep.

Writes one CSV row per (algorithm, SNR) point and prints a side-by-side
summary with 99% Wilson intervals on the frame error rate.

Typical run (a few minutes single-core):

    python3 scripts/run_comparison.py --snr 4:7:0.5 --frames 20000 --out comparison.csv
"""

import argparse
import sys
from contextlib import nullcontext

from treechase.cli import sweep_config, sweep_flags
from treechase.sim import parse_snr_spec, rows_to_csv, run_sweep, wilson_interval


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], parents=[sweep_flags()])
    ap.add_argument("--snr", default="4:7:0.5", help="SNR spec in dB, start:stop:step or a,b,c")
    ap.add_argument("--L", type=int, default=16, help="tree-search trial budget")
    ap.add_argument("--eta", type=int, default=4, help="low-complexity Chase flip coordinates")
    ap.add_argument("--min-errors", type=int, default=100,
                    help="stop a point early once this many frame errors are seen (0: never)")
    ap.add_argument("--out", default=None, help="CSV path (default: stdout only)")
    args = ap.parse_args(argv)

    try:
        cfg = sweep_config(args, snr_db=parse_snr_spec(args.snr), algorithms=("tcgs", "lcc", "hdd"),
                           L=args.L, eta=args.eta, min_errors=args.min_errors)
        # --out opens before the sweep runs, so an unwritable path costs no decoding
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except (ValueError, OSError) as exc:
        ap.error(str(exc))

    with out as fh:
        rows = run_sweep(cfg)
        fh.write(rows_to_csv(rows, timing=True))
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)

    print()
    print(f"{'SNR':>5}  {'alg':<5} {'FER':>10}  {'99% interval':>22}  {'avg trials':>10}")
    for r in sorted(rows, key=lambda r: r.snr_db):  # stable: each SNR's rows in algorithm order
        lo, hi = wilson_interval(r.frame_errors, r.frames)
        print(f"{r.snr_db:5.2f}  {r.algorithm:<5} {r.fer:10.3e}  [{lo:.3e}, {hi:.3e}]"
              f"  {r.avg_trials:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
