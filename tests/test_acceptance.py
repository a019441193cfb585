"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package and reports a single
PASS/FAIL line through the terminal reporter.  pytest captures the line, so it
shows under `pytest -rA` (in the captured output) or `pytest -s`, not under
plain `pytest -v`.
The worked-example values asserted here are an independent re-statement of the
frozen fixture numbers, not a diff against the packaged trace, so regressions
in either the decoder or the fixture generation are caught.
"""

import itertools
import math
import time

import numpy as np
import pytest

from treechase.channel import chi2_threshold, modulate, transmit
from treechase.chase import bound_B, build_atom_chain
from treechase.decoder import DecoderConfig, tcgs_decode
from treechase.galois import BinaryField, PrimeField
from treechase.interp import (
    backward_remove,
    bivar_eval,
    factorize,
    forward_add,
)
from treechase.rscode import encode
from treechase.sim import SweepConfig, run_point, run_sweep, rows_to_csv, wilson_interval

from conftest import pam_pi, random_lam, weights_of
from reference import (codebook, interpolate_points, minimal_decompose, mld_oracle,
                       pattern_from_ranks, rank_of)


@pytest.fixture(scope="module")
def report(request):
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def _line(msg: str) -> None:
        if tr is not None:
            tr.write_line(msg)

    return _line


def check(report, ok: bool, label: str, detail: str) -> None:
    report(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


PRINTED_CHAIN = [(3, 2), (1, 3), (3, 3), (2, 2), (1, 2), (0, 2), (3, 1), (1, 4),
                 (2, 3), (3, 4), (1, 1), (0, 3), (0, 1), (2, 4), (0, 4), (2, 1)]


def test_acceptance_golden_trace(report, capsys):
    from importlib import resources

    from treechase.cli import main
    t0 = time.perf_counter()
    pi_path = str(resources.files("treechase") / "fixtures" / "example1.pi")
    rc = main(["replay", "--pi", pi_path, "--L", "16"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.splitlines()

    ok = rc == 0 and elapsed < 1.0
    detail = f"exit={rc} runtime={elapsed * 1e3:.0f}ms"
    if ok:
        z_line = next(ln for ln in out if ln.startswith("Z "))
        ok &= z_line == "Z z=1,0,2,0"
        atoms = [ln.split() for ln in out if ln.startswith("ATOM ")]
        got_chain = [(int(t[2].split("=")[1]), int(t[3].split("=")[1])) for t in atoms]
        ok &= got_chain == PRINTED_CHAIN
        pops = [float(ln.rsplit("bound=", 1)[1]) for ln in out if ln.startswith("POP ")]
        expected_pops = {0: 0.12, 1: 0.20, 2: 0.26, 8: 0.48, 9: 0.49}
        ok &= len(pops) == 10 and all(
            abs(pops[i] - v) <= 5e-3 for i, v in expected_pops.items())
        hdds = [ln for ln in out if ln.startswith("HDD ") and "result=u" in ln]
        for token in ("msg=1+3x weight=0.9400", "msg=1+4x weight=0.6200",
                      "msg=1+2x weight=0.4800"):
            ok &= any(token in ln for ln in hdds)
        exit_line = out[-1]
        ok &= exit_line.startswith("EXIT reason=certified_tree trials=10 msg=1+2x")
        detail += f" pops={len(pops)} exit={exit_line.split()[1]}"
    check(report, ok, "golden-trace", detail)


def test_acceptance_certified_equals_mld(report, code54, code76):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    mismatches = 0
    certified = {code54: 0, code76: 0}
    for code in (code54, code76):
        for _ in range(1000):
            pi, _ = pam_pi(code, rng)
            res = tcgs_decode(code, pi, DecoderConfig(max_trials=64))
            if res.certified:
                certified[code] += 1
                _, cw = mld_oracle(code, pi)
                if res.codeword != cw:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0 and all(v > 0 for v in certified.values())
    check(report, ok, "certified-equals-mld",
          f"mismatches={mismatches} certified={list(certified.values())}"
          f" of 2x1000, {elapsed:.1f}s")


def hdd_decode(code, z):
    basis = interpolate_points(code.field, code.k, zip(code.eval_points, z))
    found = factorize(basis, code.eval_points)
    return None if found is None else found[0]


def test_acceptance_hdd_radius(report, code54, code16):
    failures = 0
    total = 0
    # exhaustive: every message of the small code, every pattern of weight <= 1
    patterns = [(None, 0)] + [(j, d) for j in range(4) for d in range(1, 5)]
    for msg, _ in codebook(code54):
        cw = encode(code54, msg)
        want = list(msg)
        while want and want[-1] == 0:
            want.pop()
        for j, d in patterns:
            z = list(cw)
            if j is not None:
                z[j] = code54.field.add(z[j], d)
            got = hdd_decode(code54, z)
            total += 1
            if got != want:
                failures += 1
    # sampled: random weight <= t_min patterns on the production-size code
    rng = np.random.default_rng(77)
    for _ in range(1000):
        msg = [int(v) for v in rng.integers(0, 16, size=11)]
        cw = encode(code16, msg)
        z = list(cw)
        wt = int(rng.integers(0, code16.t_min + 1))
        for j in rng.choice(15, size=wt, replace=False):
            z[j] ^= int(rng.integers(1, 16))
        got = hdd_decode(code16, z)
        total += 1
        want = msg
        while want and want[-1] == 0:
            want = want[:-1]
        if got is None or got != want:
            failures += 1
    check(report, failures == 0, "hdd-radius",
          f"failures={failures} of {total} (25x17 exhaustive + 1000 sampled)")


def test_acceptance_greedy_equals_exhaustive(report):
    rng = np.random.default_rng(55)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        q = int(rng.integers(3, 8))
        t_min = int(rng.integers(1, 3))
        chain = build_atom_chain(weights_of(random_lam(n, q, rng)))
        ranks, coords = [], set()
        start = int(rng.integers(0, chain.size))
        for r in range(start, chain.size):
            if chain.coords[r] not in coords and rng.random() < 0.35:
                ranks.append(r)
                coords.add(chain.coords[r])
                if len(ranks) == 2:
                    break
        f = pattern_from_ranks(chain, ranks)
        eligible = [r for r in range((f[-1] + 1) if f else 0, chain.size)
                    if chain.coords[r] not in coords]
        best = math.inf
        for combo in itertools.combinations(eligible, t_min):
            cs = {chain.coords[r] for r in combo}
            if len(cs) == t_min:
                best = min(best, math.fsum(chain.weights[r] for r in f + combo))
        got = bound_B(chain, f, t_min)
        if not (got == best or abs(got - best) < 1e-12):
            mismatches += 1
    check(report, mismatches == 0, "greedy-equals-exhaustive",
          f"mismatches={mismatches} of 1000 instances (n<=6, q<=7)")


def test_acceptance_interpolation_roundtrip(report):
    rng = np.random.default_rng(313)
    fields = [PrimeField(5), PrimeField(7), BinaryField(4)]
    violations = 0
    for i in range(1000):
        field = fields[i % 3]
        q = field.q
        n = int(rng.integers(2, min(q, 10)))
        k = int(rng.integers(1, n + 1))
        xs = tuple(int(v) for v in rng.permutation(q)[:n])
        ys = [int(v) for v in rng.integers(0, q, size=n)]
        basis = interpolate_points(field, k, zip(xs, ys))
        before = factorize(basis, xs)
        j = int(rng.integers(0, n))
        removed = backward_remove(basis, xs[j])
        restored = forward_add(removed, xs[j], ys[j])
        for b in (removed, restored):
            for P in b.polys:
                if any(bivar_eval(field, P, x, y) != 0 for x, y in b.points.items()):
                    violations += 1
        if factorize(restored, xs) != before:
            violations += 1
    check(report, violations == 0, "interpolation-roundtrip",
          f"violations={violations} over 1000 bases (GF5/GF7/GF16)")


def test_acceptance_minimal_decomposition(report, code54):
    def upper_rank(h):
        return h[-1] if h else -1

    rng = np.random.default_rng(606)
    violations = 0
    checked = 0
    t_min = code54.t_min
    for _ in range(100):
        chain = build_atom_chain(weights_of(random_lam(4, 5, rng)))
        rank = rank_of(chain)
        for _, cw in codebook(code54):
            e = tuple(code54.field.sub(0, c) for c in cw)  # z = 0
            wt = sum(1 for v in e if v)
            if wt < t_min:
                continue
            checked += 1
            f, g = minimal_decompose(chain, e, t_min)
            # enumerate every h with e = h + g', wt(g') <= t_min
            support = [j for j, v in enumerate(e) if v]
            members = []
            for keep in range(max(0, wt - t_min), wt + 1):
                for kept in itertools.combinations(support, keep):
                    ranks = [rank[(j, e[j])] for j in kept]
                    members.append(pattern_from_ranks(chain, ranks))
            weight = {h: math.fsum(chain.weights[r] for r in h) for h in members + [f]}
            min_w = min(weight[h] for h in members)
            min_ru = min(map(upper_rank, members))
            if weight[f] > min_w or upper_rank(f) > min_ru:
                violations += 1
    check(report, violations == 0, "minimal-decomposition",
          f"violations={violations} over {checked} patterns x 100 weighings")


def test_acceptance_comparative_claim(report):
    t0 = time.perf_counter()
    cfg = SweepConfig(p=2, m=4, n=15, k=11, snr_db=(5.0, 6.0),
                      algorithms=("tcgs", "lcc"), L=16, eta=4,
                      max_frames=20000, min_errors=0, seed=0, workers=1)
    rows = {(r.algorithm, r.snr_db): r for r in run_sweep(cfg)}
    elapsed = time.perf_counter() - t0
    parts = []
    ok = elapsed < 600.0
    for snr in (5.0, 6.0):
        t, l = rows[("tcgs", snr)], rows[("lcc", snr)]
        ok &= t.fer <= l.fer and t.avg_trials <= l.avg_trials
        wt = wilson_interval(t.frame_errors, t.frames)
        wl = wilson_interval(l.frame_errors, l.frames)
        parts.append(f"{snr:g}dB fer {t.fer:.2e}[{wt[0]:.1e},{wt[1]:.1e}]"
                     f" vs {l.fer:.2e}[{wl[0]:.1e},{wl[1]:.1e}],"
                     f" trials {t.avg_trials:.3f} vs {l.avg_trials:.3f}")
    check(report, ok, "comparative-claim",
          "; ".join(parts) + f"; {elapsed:.0f}s")


def test_acceptance_ml_bound_sandwich(report):
    gaps = []
    ok = True
    details = []
    for L in (16, 64, 256):
        cfg = SweepConfig(p=2, m=4, n=15, k=11, snr_db=(5.0,),
                          algorithms=("tcgs",), L=L, max_frames=10000,
                          min_errors=0, seed=0, workers=1)
        row = run_point(cfg, "tcgs", 5.0)
        ok &= row.e_lower_rate <= row.fer <= row.e_upper_rate
        gaps.append(row.e_upper_rate - row.e_lower_rate)
        details.append(f"L={L} [{row.e_lower_rate:.4f},{row.fer:.4f},{row.e_upper_rate:.4f}]")
    ok &= gaps[0] >= gaps[1] >= gaps[2]
    check(report, ok, "ml-bound-sandwich",
          " ".join(details) + f" gaps={['%.4f' % g for g in gaps]}")


def test_acceptance_chi2_calibration(report, code16):
    eps, dof = 1e-2, 60
    sigma = 0.6
    T = sigma * sigma * chi2_threshold(eps, dof)
    signal = modulate(code16.field, (0,) * 15)
    rng = np.random.default_rng(40961)
    total, hits = 0, 0
    chunk = 100_000
    for _ in range(10):
        tiled = np.tile(signal, chunk)
        received = transmit(tiled, sigma, rng)
        d2 = ((received - tiled).reshape(chunk, dof) ** 2).sum(axis=1)
        hits += int((d2 >= T).sum())
        total += chunk
    emp = hits / total
    target = eps / 2.0
    se = math.sqrt(target * (1.0 - target) / total)
    ok = abs(emp - target) <= 3.0 * se
    detail = (f"empirical={emp:.5f} target={target:.5f} "
              f"off by {abs(emp - target) / se:.2f} se (limit 3)")
    check(report, ok, "chi2-calibration", detail)


def test_acceptance_worker_determinism(report):
    base = dict(p=2, m=4, n=15, k=11, snr_db=(5.0, 6.0), algorithms=("tcgs",),
                L=16, max_frames=3000, min_errors=100, seed=404)
    csv1 = rows_to_csv(run_sweep(SweepConfig(workers=1, **base)))
    csv2 = rows_to_csv(run_sweep(SweepConfig(workers=2, **base)))
    csv3 = rows_to_csv(run_sweep(SweepConfig(workers=5, **base)))
    ok = csv1 == csv2 == csv3
    check(report, ok, "worker-determinism",
          f"1 vs 2 vs 5 workers, {len(csv1)} bytes{'' if ok else ' DIFFER'}")
