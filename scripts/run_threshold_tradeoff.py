#!/usr/bin/env python3
"""Measure what the sphere-exit test buys and what it costs.

With a threshold epsilon set, the decoder gives up as soon as every pattern
left in the frontier is guaranteed to land outside the noise ball that holds
all but an epsilon fraction of channel realizations.  That rule REPLACES the
frontier optimality certificate, so typical frames tend to search longer (the
cheap certified exit is gone) while frames whose received point falls outside
the ball exit almost immediately instead of burning the whole budget.  Larger
epsilon shrinks the ball, moves more frames into the give-up class, and puts
a floor near epsilon on the frame error rate.  This script sweeps epsilon at
a fixed SNR so both effects are visible in one table.

    python3 scripts/run_threshold_tradeoff.py --snr 5 --frames 10000
"""

import argparse
import sys

from treechase.cli import sweep_config, sweep_flags
from treechase.sim import run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 parents=[sweep_flags(frames=10000)])
    ap.add_argument("--snr", type=float, default=5.0)
    ap.add_argument("--L", type=int, default=64)
    ap.add_argument("--eps", default="0,1e-4,1e-3,1e-2,1e-1",
                    help="comma list; 0 disables the sphere test")
    args = ap.parse_args(argv)

    try:
        cfgs = [sweep_config(args, snr_db=(args.snr,), algorithms=("tcgs",), L=args.L,
                             min_errors=0, threshold_eps=float(tok) or None)
                for tok in args.eps.split(",")]
        print(f"{'epsilon':>10} {'FER':>10} {'avg trials':>11} {'frame errors':>13}")
        for cfg in cfgs:
            row = run_sweep(cfg)[0]
            label = f"{cfg.threshold_eps:g}" if cfg.threshold_eps else "off"
            print(f"{label:>10} {row.fer:10.3e} {row.avg_trials:11.4f} {row.frame_errors:13d}")
    except ValueError as exc:
        ap.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
