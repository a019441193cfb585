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

from treechase.sim import SweepConfig, parse_code_spec, run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--code", default="2,4,15,11")
    ap.add_argument("--snr", type=float, default=5.0)
    ap.add_argument("--L", type=int, default=64)
    ap.add_argument("--frames", type=int, default=10000)
    ap.add_argument("--eps", default="0,1e-4,1e-3,1e-2,1e-1",
                    help="comma list; 0 disables the sphere test")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    try:
        p, m, n, k = parse_code_spec(args.code)
    except ValueError as exc:
        ap.error(str(exc))

    print(f"{'epsilon':>10} {'FER':>10} {'avg trials':>11} {'frame errors':>13}")
    for tok in args.eps.split(","):
        eps = float(tok)
        cfg = SweepConfig(p=p, m=m, n=n, k=k, snr_db=(args.snr,),
                          algorithms=("tcgs",), L=args.L,
                          max_frames=args.frames, min_errors=0,
                          seed=args.seed, workers=args.workers,
                          threshold_eps=eps if eps > 0 else None)
        row = run_sweep(cfg)[0]
        label = "off" if eps == 0 else f"{eps:g}"
        print(f"{label:>10} {row.fer:10.3e} {row.avg_trials:11.4f} {row.frame_errors:13d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
