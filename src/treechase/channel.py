"""BPSK/AWGN channel model and symbol-level soft information.

Each q-ary symbol (q = 2^m) is sent as m BPSK uses, least significant bit
first, with bit b mapped to the real sample 1 - 2b.  The receiver keeps the
per-symbol log-likelihood matrix pi with one row per field value and one
column per code coordinate:

    pi[i][j] = sum_b log N(r[j][b]; sign of bit b of value i, sigma^2)

Everything downstream works on pi alone; noise variance follows the
Eb/N0 convention sigma^2 = 1 / (2 * rate * 10^(snr_db / 10)).  Threshold
mode's sphere reaches the decoder the same way, as loglik_floor: the least
log-likelihood sum_j pi[c_j][j] of a codeword whose samples lie within the
chi-square radius of the received ones.  scipy is imported inside
chi2_threshold, that radius's quantile, so importing the package does not
load it: only threshold mode's floor and `treechase chi2` do.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    ValueError for a symbol that is no field element: one outside [0, q),
    whose bits past the m-th would be dropped or would wrap onto those of a
    field element, or a non-integer, which the int64 cast would truncate.
    """
    if field.p != 2:
        raise ValueError(f"BPSK carries GF(2^m) symbols only, not GF({field.p}^{field.m})")
    if not field.are_elements(codeword):
        raise ValueError(f"GF({field.q}) symbols are integers in [0, {field.q})")
    c = np.asarray(codeword, dtype=np.int64)
    bits = (c[:, None] >> np.arange(field.m)[None, :]) & 1
    return (1.0 - 2.0 * bits).reshape(-1)


def transmit(signal: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """signal plus Gaussian noise of standard deviation sigma; sigma = 0 is the
    noiseless channel.  ValueError unless 0 <= sigma < inf (a NaN fails too)."""
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and >= 0")
    return signal + sigma * rng.standard_normal(signal.shape)


@lru_cache(maxsize=16)
def _signs(field: Field) -> np.ndarray:
    """The (q, m) read-only samples of every value of field, modulated once per
    field; modulate's ValueError for a prime field is not cached."""
    signs = modulate(field, range(field.q)).reshape(field.q, field.m)
    signs.flags.writeable = False
    return signs


def likelihoods(field: Field, n: int, samples: np.ndarray, sigma2: float) -> np.ndarray:
    """(q, n) matrix of per-symbol Gaussian log-likelihoods; binary fields only.
    ValueError unless 0 < sigma2 < inf (a NaN fails too)."""
    if not 0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be finite and > 0")
    m = field.m
    r = np.asarray(samples, dtype=np.float64).reshape(n, m)
    d = r[None, :, :] - _signs(field)[:, None, :]
    return -(d * d).sum(axis=2) / (2.0 * sigma2) - 0.5 * m * math.log(2.0 * math.pi * sigma2)


def chi2_threshold(epsilon: float, dof: int) -> float:
    """Upper (epsilon/2)-quantile T of chi-square: Pr{X >= T} = epsilon / 2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if dof < 1:
        raise ValueError("dof must be >= 1")
    from scipy.special import chdtri

    return float(chdtri(dof, epsilon / 2.0))


def loglik_floor(dof: int, sigma2: float, eps: float) -> float:
    """Threshold mode's floor for dof real Gaussian samples of variance sigma2:
    the least total log-likelihood of a word whose squared distance to the
    received samples is at most sigma2 * chi2_threshold(eps, dof), the radius
    that noise exceeds with probability eps / 2.  It inverts likelihoods'
    normalization; scipy loads on the first call."""
    return -chi2_threshold(eps, dof) / 2 - dof / 2 * math.log(2.0 * math.pi * sigma2)


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
    about it in symbol layout: W[v][j] = pi[z_j][j] - pi[v][j] >= 0 is the
    weight of changing z_j to v, and W[z_j][j] = +inf marks no change.

    zv is z as the argmax array, z the same symbols as a tuple.  mins[j] is
    the lightest weight of coordinate j off z_j, the cost of its cheapest
    single-symbol change; z_weight is pattern_weight(z), the weight of the
    hypothesis that the zero codeword was sent.  A decode that trial 1
    settles reads nothing else.

    The atom (j, d) is the change of z_j by d, to v = z_j - d, of weight
    W[v][j].  The atom chain is the sorted view of W itself: coords and
    weights are parallel lists indexed by 0-based rank, ascending by (weight,
    coord, symbol v), and atom(rank) is (coord, d).  They are the sorted
    arrays' .tolist() results, uncopied, which no reader mutates.  The one
    stable argsort behind them runs the first time one of them is read, so
    only the tree's pops or a trace pay for it; lcc's second-best symbols are
    the argmin of their own columns of W.
    """

    field: Field
    W: np.ndarray  # shape (q, n)
    zv: np.ndarray  # shape (n,), integer
    z: tuple[int, ...]
    mins: tuple[float, ...]
    z_weight: float

    def pattern_weight(self, e) -> float:
        """Total weight of an error vector, sum_j W[z_j - e_j][j] (0 entries of
        e contribute nothing), correctly rounded (math.fsum) as every weight a
        certificate compares."""
        item, sub, z = self.W.item, self.field.sub, self.z  # item: a Python float, no numpy scalar
        return math.fsum([item(sub(z[j], ej), j) for j, ej in enumerate(e) if ej])

    @property
    def size(self) -> int:
        return self.W.size - self.zv.size

    @cached_property
    def _order(self) -> np.ndarray:
        """Indices j*q + v of W.T by (weight, coord, symbol), cut to the atoms:
        the sort is stable, so entries of equal weight keep index order, and
        the n +inf entries (no change) sort after every atom."""
        return np.argsort(self.W.T.ravel(), kind="stable")[:self.size]

    @cached_property
    def coords(self) -> list[int]:
        return (self._order // self.field.q).tolist()

    @cached_property
    def weights(self) -> list[float]:
        return self.W.T.ravel()[self._order].tolist()

    def atom(self, rank: int) -> tuple[int, int]:
        """(coordinate, delta) of the atom at rank."""
        j, v = divmod(int(self._order[rank]), self.field.q)
        return (j, self.field.sub(self.z[j], v))


def soft_weights(field: Field, pi: np.ndarray) -> SoftWeights:
    """The front end of pi (float64, one row per field value): z by columnwise
    argmax (ties to the smallest value), the weights about it, their minima
    per coordinate and the weight of z, in one pass with no field arithmetic.

    ValueError unless the total of all weights is at most half the largest
    float: a NaN or infinite entry of pi makes some weight NaN or infinite,
    and a huge finite one could make a sum of weights overflow.
    """
    zv = pi.argmax(axis=0)
    cols = np.arange(zv.size)
    top = pi[zv, cols]
    tops = top.tolist()
    # an infinite top entry is rejected before it is subtracted from itself (NaN,
    # and a numpy warning); a NaN total, from a NaN entry, fails the comparison
    if math.inf in tops or -math.inf in tops or not (W := top - pi).sum() <= _WEIGHT_TOTAL_MAX:
        raise ValueError("pi has non-finite entries, or entries too large to weigh")
    # weight of z: for z_j != 0, W[0][j] is the weight of changing z_j to 0; for z_j = 0 it is 0
    z_weight = math.fsum(W[0].tolist())
    W[zv, cols] = np.inf  # no change: each column's minimum is its lightest change
    return SoftWeights(field, W, zv, tuple(zv.tolist()), tuple(W.min(axis=0).tolist()), z_weight)


# ---------------------------------------------------------------------------
# Likelihood matrix files: first line "q n", then q rows of n reals.

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
