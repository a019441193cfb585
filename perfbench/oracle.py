"""Per-frame correctness checks that share no code with the field under test.

The checks rebuild GF(2^m) from its primitive polynomial with their own
numpy tables and re-derive every decoder claim from the likelihood matrix:

  * the message has degree < k and re-encodes to the returned codeword;
  * best_weight equals sum_j (pi[z_j, j] - pi[c_j, j]) within 1e-9;
  * a certified output scores at least as high as the transmitted word;
  * exit_reason is one of the five documented reasons.
"""

from __future__ import annotations

import numpy as np

# Same field representation as the package: bit i of an element is the
# coefficient of alpha^i, alpha a root of this polynomial.
PRIMITIVE_POLY = {4: 0x13, 8: 0x11D}

EXIT_REASONS = frozenset({"certified_tree", "certified_kaneko", "budget_exhausted",
                          "threshold_reached", "genie_found"})
CERTIFIED = frozenset({"certified_tree", "certified_kaneko"})
WEIGHT_TOL = 1e-9


class Oracle:
    """Independent [n, k] RS encoder over GF(2^m), evaluating at alpha^0..alpha^(n-1)."""

    def __init__(self, m: int, n: int, k: int):
        q = 1 << m
        order = q - 1
        exp = np.zeros(order, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= PRIMITIVE_POLY[m]
        self.n, self.k, self.q, self.order = n, k, q, order
        self.exp, self.log = exp, log
        self.cols = np.arange(n)

    def encode(self, message) -> np.ndarray:
        u = np.asarray(message, dtype=np.int64)
        deg = np.flatnonzero(u)
        if deg.size == 0:
            return np.zeros(self.n, dtype=np.int64)
        # u_i * alpha^(i*j) in the log domain, then XOR-sum over i
        logs = (self.log[u[deg]][:, None] + deg[:, None] * self.cols[None, :]) % self.order
        return np.bitwise_xor.reduce(self.exp[logs], axis=0)

    def score(self, pi: np.ndarray, c) -> float:
        return float(pi[np.asarray(c, dtype=np.int64), self.cols].sum())

    def weight(self, pi: np.ndarray, c) -> float:
        """sum_j pi[z_j, j] - pi[c_j, j], z the columnwise argmax."""
        c = np.asarray(c, dtype=np.int64)
        return float((pi.max(axis=0) - pi[c, self.cols]).sum())

    def check(self, pi: np.ndarray, tx, res) -> str | None:
        """Reason the decode result is wrong, or None when every check holds."""
        if res.exit_reason not in EXIT_REASONS:
            return "unknown exit reason"
        if res.message is None:
            if res.codeword is not None or res.exit_reason in CERTIFIED:
                return "certified or codeword without a message"
            c = np.zeros(self.n, dtype=np.int64)  # running hypothesis is still e* = z
        else:
            if len(res.message) > self.k or any(not 0 <= v < self.q for v in res.message):
                return "message degree >= k or symbol out of range"
            c = self.encode(res.message)
            if res.codeword is None or tuple(int(v) for v in c) != tuple(res.codeword):
                return "message does not re-encode to the codeword"
        if abs(self.weight(pi, c) - res.best_weight) > WEIGHT_TOL:
            return "best_weight differs from the recomputed weight"
        if res.exit_reason in CERTIFIED and self.score(pi, c) < self.score(pi, tx) - WEIGHT_TOL:
            return "certified output scores below the transmitted codeword"
        return None

    def ml_bounds(self, pi: np.ndarray, tx, res) -> tuple[bool, int, int]:
        """(frame error, e_upper, e_lower) by the sweep's documented rule."""
        if res.codeword is not None and tuple(res.codeword) == tuple(tx):
            return False, (0 if res.exit_reason in CERTIFIED else 1), 0
        if res.codeword is None:
            return True, 1, 0
        return True, 1, int(res.best_weight < self.weight(pi, tx))
