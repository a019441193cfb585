"""Gray-coded low-complexity Chase baseline and ML-performance bookkeeping.

The baseline is the second pattern order over the decoder's trial engine
(decoder._Search), which runs the first trial, every point swap, the Kaneko
and genie exits and the budget of 2^eta trials, and fills in the result.
The order itself ranks coordinates by the gap between the two best column
log-likelihoods, takes the eta least reliable positions, and walks all
2^eta hard-decision test vectors built from {best, second-best} symbols in
Gray-code order, so consecutive vectors differ in a single coordinate and
each costs one trial.

classify_ml sandwiches the simulated ML frame-error rate: every frame
contributes indicator bounds e_lower <= E_ML <= e_upper based on whether the
decode was certified and whether its output out-scores the transmitted word;
sim.SweepRow counts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import check_pi, soft_weights
from .decoder import DecodeResult, _Search
from .galois import check_count
from .rscode import CodeParams, check_word

# Unused here: the benchmark tracer (perfbench/tracing.py) wraps these names in this module.
from .channel import hard_decision  # noqa: F401
from .chase import build_atom_chain, kaneko_B0  # noqa: F401
from .interp import backward_remove, factorize, forward_add  # noqa: F401
from .rscode import encode  # noqa: F401


@dataclass(frozen=True)
class LccConfig:
    """eta least reliable positions; 2^eta test vectors; eta an integer in [0, n]."""

    eta: int = 4

    def __post_init__(self):
        check_count("eta", self.eta, 0)


def lcc_decode(code: CodeParams, pi: np.ndarray, cfg: LccConfig | None = None,
               genie_codeword: tuple[int, ...] | None = None) -> DecodeResult:
    cfg = cfg or LccConfig()
    if cfg.eta > code.n:
        raise ValueError("eta must be <= n")
    s = _Search(code, pi, 1 << cfg.eta, genie_codeword, None)
    z = s.sw.z

    def gray_walk(basis):
        # reliability of a coordinate = weight of its cheapest single-symbol change,
        # ties to the lower coordinate; built only for frames trial 1 did not settle
        lrps = np.argsort(s.sw.mins, kind="stable")[:cfg.eta]
        # the cheapest change of each, ties to the smallest symbol: W[z_j][j] = +inf
        second = s.sw.W[:, lrps].argmin(axis=0).tolist()
        lrps = lrps.tolist()
        for i in range(1, 1 << cfg.eta):
            # Gray code i flips bit b = ctz(i): lrps[b] holds its second-best
            # symbol exactly when bit b of the Gray word i ^ (i >> 1) is set
            b = (i & -i).bit_length() - 1
            j = lrps[b]
            s.res.steps += 1
            basis, exit_reason = s.trial(basis, j, second[b] if (i ^ (i >> 1)) >> b & 1 else z[j])
            if exit_reason is not None:  # the last test vector's trial returns the budget exit
                return exit_reason

    return s.run(gray_walk)


def classify_ml(code: CodeParams, pi: np.ndarray, result: DecodeResult,
                transmitted: tuple[int, ...]) -> tuple[int, int]:
    """Per-frame ML-error indicator bounds (e_upper, e_lower).

    Correct and certified frames cannot be ML errors (0, 0); correct but
    uncertified frames might be (1, 0); wrong outputs that strictly out-score
    the transmitted word definitely are (1, 1); other wrong outputs,
    including score ties, count only toward the upper bound (1, 0).
    pi must pass the decoders' entry check (a real (q, n) array) on every
    path, and transmitted must be a word of the code's shape: n symbols in
    [0, q).  A wrong output is weighed through the decoders' front end, so
    there pi's values raise the decoders' ValueError too: non-finite entries,
    or entries too large to weigh.
    """
    pi = check_pi(pi, code.field.q, code.n)  # as the decoder reads it
    tx = check_word(code, transmitted)
    if result.codeword is not None and tuple(result.codeword) == tx:
        return (0, 0) if result.certified else (1, 0)
    if result.codeword is None:
        return (1, 0)
    sw = soft_weights(code.field, pi)  # the decoder's z, so its e* is sw.z - c*
    w_tx = sw.pattern_weight(map(code.field.sub, sw.z, tx))  # the weight of e_tx = z - tx
    return (1, 1) if result.best_weight < w_tx else (1, 0)
