#!/usr/bin/env python3
"""Alternating pairs of benchmark runs of two checkouts, judged metric by metric.

    python3 scripts/bench_pairs.py --base DIR --change DIR --workload W \\
        [--seed 0] [--pairs 10]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, T being the `run_seconds` of the base's
BENCHMARK.json, the length the gain and bound rules are judged at.  The base
runs first in even pairs and the change first in odd ones.  A run that exits
non-zero or reports `correct: false` stops the script with exit status 1.

For every end-to-end metric that the base checkout's BENCHMARK.json declares,
it prints each side's median and quartiles and the pairs the change won (ties
count for neither side).  "gain" says whether a gain may be claimed: at least
ten pairs, at least nine tenths of them won, and medians further apart than
the base's interquartile range.  "WORSE" flags a change median worse than the
base median by more than the metric's bound, a fraction of the base median.
"UNRESOLVED" flags a metric whose runs spread too widely to judge against
that bound: either side's interquartile range is wider than it, and not
every change run beats every base run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdict on one metric from paired runs: base[i] and change[i] are
    pair i's values, better is "lower" or "higher".

    Returns each side's (q1, median, q3), the change's wins, the number of
    pairs, whether a gain may be claimed, whether the change's median is
    worse than the base's by more than bound times the base median, and
    whether the spread leaves that unresolved: an interquartile range wider
    than the bound on either side, unless every change run beats every base
    run.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair, and at least one pair")
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - c) > 0: the change is better
    qb = tuple(float(v) for v in np.percentile(base, [25, 50, 75]))
    qc = tuple(float(v) for v in np.percentile(change, [25, 50, 75]))
    pairs = len(base)
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    gain = pairs >= 10 and 10 * wins >= 9 * pairs and sign * (qb[1] - qc[1]) > qb[2] - qb[0]
    limit = bound * abs(qb[1])
    worse = sign * (qc[1] - qb[1]) > limit
    unresolved = (max(qb[2] - qb[0], qc[2] - qc[0]) > limit
                  and not all(sign * (b - c) > 0 for b in base for c in change))
    return {"base": qb, "change": qc, "wins": wins, "pairs": pairs, "gain": gain,
            "worse": worse, "unresolved": unresolved}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced benchmark run in checkout: its end-to-end metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"refused: {' '.join(cmd)} in {checkout} exited {proc.returncode}"
                         + ("" if result is None else " and reported correct: false"))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    with open(os.path.join(args.base, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed, seconds))
        print(f"# pair {i + 1}: " + "  ".join(
            f"{m['name']} {runs['base'][-1][m['name']]:.6g} -> {runs['change'][-1][m['name']]:.6g}"
            for m in metrics), flush=True)

    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs; "
          "each side: q1 / median / q3")
    for m in metrics:
        name = m["name"]
        s = summarize([r[name] for r in runs["base"]], [r[name] for r in runs["change"]],
                      m["better"], m["bound"])
        base, change = ("{:.6g} / {:.6g} / {:.6g}".format(*s[side]) for side in ("base", "change"))
        print(f"{name:<18} base {base:<32} change {change:<32} wins {s['wins']}/{s['pairs']}  "
              f"gain {'yes' if s['gain'] else 'no'}"
              + (f"  WORSE by more than {m['bound']:g}" if s["worse"] else "")
              + ("  UNRESOLVED: spread wider than the bound" if s["unresolved"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
