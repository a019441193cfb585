"""Self-test of the benchmark: a few frames of every workload, traced twice.

Each traced run must pass every correctness check, and the two runs must give
identical exact counts (trials, updates, exits, span calls, galois ops).  The
metric names and units the benchmark prints must match BENCHMARK.json.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

import run

FRAMES = {"rs15-4db-tcgs": 40, "rs15-4db-lcc": 40, "rs255-6db-tcgs": 4}


def checked(name: str, traced: bool) -> tuple[dict, dict]:
    bench = run.Bench(name, 7, frames=FRAMES[name])
    metrics, counts = run.run_traced(bench, dump=False) if traced else run.run_e2e(bench, 0)
    if bench.problems:
        raise AssertionError(f"{name}: {dict(bench.problems)}")
    return metrics, counts


def report(ok: bool, what: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    return ok


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for name in run.WORKLOADS:
        metrics, first = checked(name, traced=True)
        _, second = checked(name, traced=True)
        ok &= report(first == second, f"{name}: {FRAMES[name]} frames, exact counts identical "
                                      f"across two runs ({first['trials']} trials, exits "
                                      f"{first['exits']})")
    e2e, _ = checked("rs15-4db-tcgs", traced=False)
    for key, names, printed in (("end_to_end", run.END_TO_END, e2e),
                                ("per_layer", run.PER_LAYER, metrics)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        ok &= report(declared == [(n, printed[n][1]) for n in names],
                     f"BENCHMARK.json {key} names and units match the printed metrics")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
