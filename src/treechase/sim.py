"""Seeded Monte-Carlo frame-error sweeps.

Frames are generated from per-frame random streams keyed by (seed, frame
index), so frame i is the same message and noise realization no matter how
many workers run the sweep or which algorithm consumes it; reruns are
byte-reproducible.  Stopping is evaluated at fixed-size chunk boundaries
(again worker-independent): a sweep point ends at max_frames or once
min_errors frame errors have accumulated, whichever comes first.

A SweepConfig holds its code, built once when the config is built: every
point, every config check and every forked worker reads that one cfg.code, so
they share one field and the caches keyed by it (channel's sign table,
galois.lagrange_table).  _point is the one place that builds a sweep point,
the context (cfg, code, sigma, decode, config) that _run_frame reads: the
noise sigma of its SNR, the check that its likelihoods leave room to weigh,
and the decode function and config of its algorithm.  tcgs is the tree
search, lcc the Gray-walk Chase baseline, and hdd one hard-decision trial of
the tree decoder (it ignores threshold_eps).  In threshold mode tcgs gets the
log-likelihood floor of its point's n*m BPSK samples (channel.loglik_floor),
so the decoder itself never sees the noise variance.
A SweepConfig builds every point through it when it is built, and run_point
stores the point's context in _CTX once, in the parent, then maps _run_frame
over each chunk's frame indices, in process or over a fork pool whose workers
inherit _CTX; the parent counts the outcomes in frame order.

The CSV report deliberately writes 0.000 in the wall_seconds column unless
timing is explicitly requested, because measured wall time is the one field
that would break byte-for-byte reproducibility.  _snr_label is the one format
of the snr_db column, and SweepConfig rejects two SNR points that it prints
alike (4 and 4.0000001), so no two rows share a label.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .baselines import LccConfig, classify_ml, lcc_decode
from .channel import (_WEIGHT_TOTAL_MAX, frame_rng, likelihoods, loglik_floor, modulate,
                      sigma_from_snr_db, transmit)
from .decoder import DecoderConfig, tcgs_decode
from .galois import _is_real, check_count
from .rscode import CodeParams, encode, make_code

ALGORITHMS = ("tcgs", "lcc", "hdd")
CHUNK = 1000
MAX_SNR_STEPS = 10_000  # an a:b:step range holds at most this many steps
CSV_HEADER = "algorithm,snr_db,frames,frame_errors,fer,avg_trials,e_upper_rate,e_lower_rate,wall_seconds"


@dataclass(frozen=True)
class SweepConfig:
    """One sweep; ValueError on construction unless every point can run.

    code is not an argument: it is built from p, m, n and k, and is left out of
    ==, hash and repr, which the other fields determine."""

    p: int = 2
    m: int = 4
    n: int = 15
    k: int = 11
    snr_db: tuple[float, ...] = (5.0,)
    algorithms: tuple[str, ...] = ("tcgs",)
    L: int = 16
    eta: int = 4
    max_frames: int = 20000
    min_errors: int = 100  # 0 disables the error target
    seed: int = 0
    threshold_eps: float | None = None
    genie: bool = False
    workers: int = 1
    code: CodeParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # ValueError for a code that cannot exist
        object.__setattr__(self, "code", make_code(self.p, self.m, self.n, self.k))
        if self.p != 2:
            raise ValueError("sweeps simulate BPSK, which needs a binary field (p = 2)")
        for name in ("algorithms", "snr_db"):  # a str would split into its characters
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)):
                raise ValueError(f"{name} must be a tuple or list, not {type(values).__name__}")
            object.__setattr__(self, name, tuple(values))  # a list leaves the config unhashable
        if not all(map(_is_real, self.snr_db)):
            raise ValueError(f"snr_db points must be real numbers (a bool is none): {self.snr_db}")
        if not self.algorithms:
            raise ValueError("no algorithms selected")
        if not self.snr_db:
            raise ValueError("no SNR points")
        for what, values in (("algorithm", self.algorithms), ("SNR point", self.snr_db)):
            if len(set(values)) < len(values):  # a repeated point decodes its frames again
                raise ValueError(f"repeated {what} in {values}")
        seen = {}
        for snr_db in self.snr_db:  # rows_to_csv would print two rows under one label
            label = _snr_label(snr_db)
            if label in seen:
                raise ValueError(f"SNR points {seen[label]!r} and {snr_db!r} both print as {label}")
            seen[label] = snr_db
        for name, least in (("L", 1), ("max_frames", 1), ("min_errors", 0), ("workers", 1),
                            ("seed", 0)):
            check_count(name, getattr(self, name), least)
        if "lcc" in self.algorithms and not 0 <= self.eta <= self.n:
            raise ValueError("eta must be in [0, n]")
        if self.threshold_eps is not None and not (_is_real(self.threshold_eps)
                                                   and 0.0 < self.threshold_eps < 1.0):
            raise ValueError("threshold_eps must be in (0, 1)")
        if not isinstance(self.genie, (bool, np.bool_)):  # any truthy value would switch it on
            raise ValueError(f"genie must be a bool, got {self.genie!r}")
        for snr_db in self.snr_db:  # a threshold floor loads scipy before any worker forks
            for alg in self.algorithms:
                _point(self, alg, snr_db)


@dataclass
class SweepRow:
    """One (algorithm, SNR) sweep point: frame, ML-bound and trial counts;
    add counts one frame."""

    algorithm: str
    snr_db: float
    frames: int = 0
    frame_errors: int = 0
    e_upper: int = 0
    e_lower: int = 0
    trials: int = 0
    wall_seconds: float = 0.0

    def add(self, error: bool, eu: int, el: int, trials: int) -> None:
        if not (el <= int(error) <= eu):
            raise ValueError("per-frame bound ordering violated")
        self.frames += 1
        self.frame_errors += int(error)
        self.e_upper += eu
        self.e_lower += el
        self.trials += trials

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0

    @property
    def avg_trials(self) -> float:
        return self.trials / self.frames if self.frames else 0.0

    @property
    def e_upper_rate(self) -> float:
        return self.e_upper / self.frames if self.frames else 0.0

    @property
    def e_lower_rate(self) -> float:
        return self.e_lower / self.frames if self.frames else 0.0


def wilson_interval(successes: int, trials: int, z: float = 2.5758293035489004) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 99% level)."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def draw_frame(code: CodeParams, sigma: float, seed: int, idx: int) -> tuple[tuple, np.ndarray]:
    """Frame idx of a sweep: the transmitted codeword and its likelihood matrix,
    drawn from the frame's own stream frame_rng(seed, idx)."""
    rng = frame_rng(seed, idx)
    tx = encode(code, [int(v) for v in rng.integers(0, code.field.q, size=code.k)])
    r = transmit(modulate(code.field, tx), sigma, rng)
    return tx, likelihoods(code.field, code.n, r, sigma * sigma)


def _point(cfg: SweepConfig, alg: str, snr_db: float) -> tuple:
    """The context (cfg, code, sigma, decode, config) of algorithm alg at
    snr_db; ValueError for an SNR whose likelihoods are too large to weigh or
    an unknown algorithm.  The decoders are looked up in this module's globals
    at each call, so wrappers that perfbench/tracing.py swaps in are the ones
    that run."""
    sigma = sigma_from_snr_db(snr_db, cfg.k / cfg.n)
    sigma2 = sigma * sigma
    # a noiseless frame's soft weights total n*m*q / sigma^2; twice that leaves
    # room for the noise
    if 2 * cfg.n * cfg.m * 2**cfg.m / sigma2 > _WEIGHT_TOTAL_MAX:
        raise ValueError(f"SNR {snr_db} dB gives likelihoods too large to weigh")
    if alg == "tcgs":
        eps = cfg.threshold_eps
        floor = None if eps is None else loglik_floor(cfg.n * cfg.m, sigma2, eps)
        return cfg, cfg.code, sigma, tcgs_decode, DecoderConfig(max_trials=cfg.L, loglik_floor=floor)
    if alg == "hdd":
        return cfg, cfg.code, sigma, tcgs_decode, DecoderConfig(max_trials=1)
    if alg == "lcc":
        return cfg, cfg.code, sigma, lcc_decode, LccConfig(eta=cfg.eta)
    raise ValueError(f"unknown algorithm {alg!r} (choose from {ALGORITHMS})")


_CTX: tuple | None = None  # the running point's, inherited by forked workers


def _run_frame(idx: int) -> tuple[bool, int, int, int]:
    """Draw, decode and classify frame idx of the running point."""
    cfg, code, sigma, decode, dec_cfg = _CTX
    tx, pi = draw_frame(code, sigma, cfg.seed, idx)
    res = decode(code, pi, dec_cfg, genie_codeword=tx if cfg.genie else None)
    err = res.codeword is None or tuple(res.codeword) != tx
    return (err, *classify_ml(code, pi, res, tx), res.trials)


def run_point(cfg: SweepConfig, alg: str, snr_db: float) -> SweepRow:
    global _CTX
    start = time.perf_counter()
    row = SweepRow(alg, snr_db)
    _CTX = _point(cfg, alg, snr_db)
    with ExitStack() as stack:
        pool = None
        if cfg.workers > 1:
            from multiprocessing import get_context

            pool = stack.enter_context(get_context("fork").Pool(cfg.workers))
        for lo in range(0, cfg.max_frames, CHUNK):
            if 0 < cfg.min_errors <= row.frame_errors:
                break
            frames = range(lo, min(lo + CHUNK, cfg.max_frames))
            share = math.ceil(len(frames) / cfg.workers)  # each worker maps one even share
            for outcome in pool.map(_run_frame, frames, share) if pool else map(_run_frame, frames):
                row.add(*outcome)
    row.wall_seconds = time.perf_counter() - start
    return row


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    return [run_point(cfg, alg, snr) for alg in cfg.algorithms for snr in cfg.snr_db]


def _snr_label(snr_db: float) -> str:
    """The snr_db cell of a CSV row: 4.0 prints as 4."""
    return f"{snr_db:g}"


def rows_to_csv(rows: list[SweepRow], timing: bool = False) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in rows:
        wall = r.wall_seconds if timing else 0.0
        out.write(f"{r.algorithm},{_snr_label(r.snr_db)},{r.frames},{r.frame_errors},"
                  f"{r.fer:.8g},{r.avg_trials:.8g},{r.e_upper_rate:.8g},"
                  f"{r.e_lower_rate:.8g},{wall:.3f}\n")
    return out.getvalue()


def parse_snr_spec(spec: str) -> tuple[float, ...]:
    """Either 'a:b:step' (finite inclusive endpoints, finite positive step, at
    most MAX_SNR_STEPS steps) or 'v1,v2,...'."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad SNR range {spec!r}, expected a:b:step")
        a, b, step = (float(t) for t in parts)
        if not (math.isfinite(a) and math.isfinite(b) and 0.0 < step < math.inf):
            raise ValueError(f"bad SNR range {spec!r}: a, b and step must be finite, step > 0")
        steps = (b - a) / step  # finite a, b and step can still overflow this to +-inf
        if steps > MAX_SNR_STEPS:
            raise ValueError(f"SNR range {spec!r} spans more than {MAX_SNR_STEPS} steps")
        count = round(max(steps, -1.0))
        vals = [a + i * step for i in range(count + 1) if a + i * step <= b + 1e-9]
        if not vals:
            raise ValueError(f"empty SNR range {spec!r}")
        return tuple(vals)
    return tuple(float(t) for t in spec.split(",") if t.strip())
