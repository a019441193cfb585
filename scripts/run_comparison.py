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

from treechase.sim import SweepConfig, parse_code_spec, parse_snr_spec, rows_to_csv, run_sweep
from treechase.stats import wilson_interval


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--code", default="2,4,15,11",
                    help="p,m,n,k (default: the [15,11] code over GF(16))")
    ap.add_argument("--snr", default="4:7:0.5", help="SNR spec in dB, start:stop:step or a,b,c")
    ap.add_argument("--L", type=int, default=16, help="tree-search trial budget")
    ap.add_argument("--eta", type=int, default=4, help="low-complexity Chase flip coordinates")
    ap.add_argument("--frames", type=int, default=20000)
    ap.add_argument("--min-errors", type=int, default=100,
                    help="stop a point early once this many frame errors are seen (0: never)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout only)")
    args = ap.parse_args(argv)

    try:
        p, m, n, k = parse_code_spec(args.code)
    except ValueError as exc:
        ap.error(str(exc))
    cfg = SweepConfig(p=p, m=m, n=n, k=k,
                      snr_db=parse_snr_spec(args.snr),
                      algorithms=("tcgs", "lcc", "hdd"),
                      L=args.L, eta=args.eta,
                      max_frames=args.frames, min_errors=args.min_errors,
                      seed=args.seed, workers=args.workers)
    rows = run_sweep(cfg)

    csv_text = rows_to_csv(rows, timing=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(csv_text)

    by_snr = {}
    for r in rows:
        by_snr.setdefault(r.snr_db, {})[r.algorithm] = r
    print()
    print(f"{'SNR':>5}  {'alg':<5} {'FER':>10}  {'99% interval':>22}  {'avg trials':>10}")
    for snr in sorted(by_snr):
        for alg in ("tcgs", "lcc", "hdd"):
            r = by_snr[snr].get(alg)
            if r is None:
                continue
            lo, hi = wilson_interval(r.frame_errors, r.frames)
            print(f"{snr:5.2f}  {alg:<5} {r.fer:10.3e}  [{lo:.3e}, {hi:.3e}]  {r.avg_trials:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
