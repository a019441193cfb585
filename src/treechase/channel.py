"""BPSK/AWGN channel model and symbol-level soft information.

Each q-ary symbol (q = 2^m) is sent as m BPSK uses, least significant bit
first, with bit b mapped to the real sample 1 - 2b.  The receiver keeps the
per-symbol log-likelihood matrix pi with one row per field value and one
column per code coordinate:

    pi[i][j] = sum_b log N(r[j][b]; sign of bit b of value i, sigma^2)

Everything downstream works on pi alone; noise variance follows the
Eb/N0 convention sigma^2 = 1 / (2 * rate * 10^(snr_db / 10)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .galois import Field


def sigma_from_snr_db(snr_db: float, rate: float) -> float:
    """Noise sigma at Eb/N0 = snr_db dB; ValueError unless sigma^2 is finite and > 0."""
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^(snr_db/10) overflowed, or underflowed to 0
        sigma2 = 0.0
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"SNR {snr_db} dB gives no finite positive noise variance")
    return math.sqrt(sigma2)


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Independent per-frame stream; identical regardless of worker layout."""
    return np.random.default_rng((seed, frame_index))


def modulate(field: Field, codeword) -> np.ndarray:
    """Codeword -> n*m array of +-1 samples, LSB-first within each symbol.

    Binary fields only: m bits carry a GF(2^m) symbol, but not a GF(p) one.
    """
    if field.p != 2:
        raise ValueError(f"BPSK carries GF(2^m) symbols only, not GF({field.p}^{field.m})")
    c = np.asarray(codeword, dtype=np.int64)
    bits = (c[:, None] >> np.arange(field.m)[None, :]) & 1
    return (1.0 - 2.0 * bits).reshape(-1)


def transmit(signal: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return signal + sigma * rng.standard_normal(signal.shape)


def likelihoods(field: Field, n: int, samples: np.ndarray, sigma2: float) -> np.ndarray:
    """(q, n) matrix of per-symbol Gaussian log-likelihoods; binary fields only."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    m = field.m
    r = np.asarray(samples, dtype=np.float64).reshape(n, m)
    signs = modulate(field, range(field.q)).reshape(field.q, m)
    d = r[None, :, :] - signs[:, None, :]
    return -(d * d).sum(axis=2) / (2.0 * sigma2) - 0.5 * m * math.log(2.0 * math.pi * sigma2)


def check_pi(pi, q: int, n: int) -> np.ndarray:
    """pi as float64; ValueError unless it is a real (q, n) array.

    Decoder entry check.  Integer and low-precision weights and sums would
    wrap or round, so the decoder reads only the float64 copy.  Finiteness is
    checked on the soft weights (soft_weights), which every entry of pi
    enters.
    """
    if not isinstance(pi, np.ndarray) or pi.dtype.kind not in "iuf":
        kind = pi.dtype if isinstance(pi, np.ndarray) else type(pi).__name__
        raise ValueError(f"pi must be a real numeric array, got {kind}")
    if pi.shape != (q, n):
        raise ValueError(f"pi shape {pi.shape} != ({q}, {n})")
    return pi.astype(np.float64, copy=False)


def hard_decision(pi: np.ndarray) -> tuple[int, ...]:
    """Columnwise argmax; ties resolve to the smallest field value."""
    return tuple(pi.argmax(axis=0).tolist())


# The total of all soft weights may be at most half the largest float: every
# weight a certificate or the frontier compares sums at most one weight per
# coordinate, so its exact value stays below the total, which numpy's rounded
# sum misses by far less than a factor of 2, and no math.fsum can overflow.
_WEIGHT_TOTAL_MAX = sys.float_info.max / 2


@dataclass
class SoftWeights:
    """The front end of one decode: the hard decision z of pi and the weights
    lam[d-1][j] = pi[z_j][j] - pi[z_j - d][j] >= 0 for d in 1..q-1 about it.

    mins[j] is the lightest weight of coordinate j, the cost of its cheapest
    single-symbol change; z_weight is pattern_weight(z), the weight of the
    hypothesis that the zero codeword was sent.
    """

    lam: np.ndarray  # shape (q-1, n)
    z: tuple[int, ...]
    mins: tuple[float, ...]  # lam.min(axis=0)
    z_weight: float

    def pattern_weight(self, e) -> float:
        """Total weight of an error vector (0 entries contribute nothing),
        correctly rounded (math.fsum) as every weight a certificate compares."""
        item = self.lam.item  # a Python float per entry, no numpy scalar
        return math.fsum([item(ej - 1, j) for j, ej in enumerate(e) if ej])


def soft_weights(field: Field, pi: np.ndarray) -> SoftWeights:
    """The front end of pi (float64, one row per field value): z by columnwise
    argmax (ties to the smallest value), the weights about it, their minima
    per coordinate and the weight of z, in one pass.

    ValueError unless the total of all weights is at most half the largest
    float: a NaN or infinite entry of pi makes some weight NaN or infinite,
    and a huge finite one could make a sum of weights overflow.
    """
    zv = pi.argmax(axis=0)
    # rows[d][j] = pi[z_j - d][j], z_j - d in the field: XOR in characteristic 2,
    # integers mod p otherwise; row 0 holds the top entries pi[z_j][j]
    idx = zv ^ field.deltas if field.p == 2 else (zv - field.deltas) % field.p
    rows = pi[idx, np.arange(zv.size)]
    top = rows[0]
    lam = top - rows[1:]
    if not lam.sum() <= _WEIGHT_TOTAL_MAX:  # also False for a NaN total
        raise ValueError("pi has non-finite entries, or entries too large to weigh")
    # weight of z: for z_j != 0, top_j - pi[0][j] is the weight lam[z_j - 1][j],
    # the same float64 difference; for z_j = 0 it is 0
    return SoftWeights(lam, tuple(zv.tolist()), tuple(lam.min(axis=0).tolist()),
                       math.fsum((top - pi[0]).tolist()))


# ---------------------------------------------------------------------------
# Likelihood matrix files: first line "q n", then q rows of n reals.

def save_pi(path: str, pi: np.ndarray) -> None:
    q, n = pi.shape
    with open(path, "w") as fh:
        fh.write(f"{q} {n}\n")
        for row in pi:
            fh.write(" ".join(f"{v:.6g}" for v in row) + "\n")


def load_pi(path: str) -> np.ndarray:
    with open(path) as fh:
        stripped = (line.split("#", 1)[0] for line in fh)
        raw = [line.split() for line in stripped if line.strip()]
    if not raw:
        raise ValueError(f"{path}: empty likelihood file")
    try:
        q, n = (int(t) for t in raw[0])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad header {raw[0]!r}") from exc
    if q < 2 or n < 1:
        raise ValueError(f"{path}: bad dimensions q={q} n={n}")
    if len(raw) - 1 != q:
        raise ValueError(f"{path}: expected {q} matrix rows, found {len(raw) - 1}")
    rows = []
    for i, toks in enumerate(raw[1:]):
        if len(toks) != n:
            raise ValueError(f"{path}: row {i} has {len(toks)} entries, expected {n}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: non-numeric entry") from exc
    pi = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(pi)):
        raise ValueError(f"{path}: non-finite entries")
    return pi
