"""One trial engine and the best-first tree search that drives it.

A trial is one hard-decision decode: the inherited interpolation basis with
one point swapped, then one factorization attempt.  The basis holds the test
vector it interpolates (GroebnerBasis.points, a mapping x -> y), so a swap
names only the coordinate and its new symbol: backward_remove(basis, x)
releases the old one, forward_add(basis, x, y) constrains the new one.
factorize(basis, xs) returns None or the message and its codeword (u, c) in
one call.  _Search is the engine every decoder shares.  It owns the front
end (one soft_weights pass over pi gives the hard decision z, the soft
weights, their per-coordinate minima and the weight of z; the atom chain
wraps the weights) and the running hypothesis (the lightest error pattern
e* whose subtraction from z gives a codeword), and it runs every trial: run
makes the first (z interpolated in closed form), hands that basis to a
pattern order, and assembles the DecodeResult from the exit reason the
order returns; trial makes each later one.  A decoder is only its pattern
order: tcgs_decode pops flipping patterns best-first by their bound B, and
baselines.lcc_decode Gray-walks the test vectors of its least reliable
positions.  Certificates:

  certified_tree    at a pop, weight(e*) <= B(front pattern): nothing lighter
                    can be generated by any unexplored pattern.
  certified_kaneko  a freshly improved hypothesis e satisfies
                    weight(e) <= B0(e): no rival hypothesis can be lighter.

A result is maximum-likelihood exactly when one of the two certificates
fired.  Without a certificate the search stops on the trial budget, on the
likelihood-sphere threshold (threshold mode), or on matching a supplied
transmitted codeword (genie mode, simulation shortcut).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import check_pi, soft_weights
from .chase import AtomChain, bound_B, kaneko_B0, leftmost_child, next_sibling, render_pattern
from .galois import poly_str
from .interp import GroebnerBasis, backward_remove, factorize, forward_add, interpolate
from .rscode import CodeParams, check_word
from .stats import chi2_threshold

# Unused here: the benchmark tracer (perfbench/tracing.py) wraps these names in this module.
from .channel import hard_decision  # noqa: F401
from .chase import build_atom_chain  # noqa: F401
from .rscode import encode  # noqa: F401

EXIT_CERTIFIED_TREE = "certified_tree"
EXIT_CERTIFIED_KANEKO = "certified_kaneko"
EXIT_BUDGET = "budget_exhausted"
EXIT_THRESHOLD = "threshold_reached"
EXIT_GENIE = "genie_found"

CERTIFIED_EXITS = frozenset({EXIT_CERTIFIED_TREE, EXIT_CERTIFIED_KANEKO})


@dataclass(frozen=True)
class DecoderConfig:
    """max_trials is the hard-decision decode budget L (>= 1).

    threshold_eps switches on threshold termination; it needs sigma2 and a
    characteristic-2 field, and it replaces the tree certificate test at each
    pop by the sphere-exit test bound >= T_z.
    """

    max_trials: int = 16
    threshold_eps: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if self.threshold_eps is not None:
            if not 0.0 < self.threshold_eps < 1.0:
                raise ValueError("threshold_eps must be in (0, 1)")
            if self.sigma2 is None or self.sigma2 <= 0:
                raise ValueError("threshold mode needs sigma2 > 0")


@dataclass
class DecodeResult:
    message: list[int] | None
    codeword: tuple[int, ...] | None
    best_error: tuple[int, ...]
    best_weight: float
    trials: int
    steps: int
    exit_reason: str

    @property
    def forward_ops(self) -> int:
        """Koetter updates: trial 1 interpolates in closed form, and every later
        trial makes one forward and one backward update."""
        return self.trials - 1

    @property
    def backward_ops(self) -> int:
        return self.trials - 1

    @property
    def certified(self) -> bool:
        """True when a certificate fired: no codeword has a smaller weight than
        the output, each weight the correctly rounded sum (math.fsum) of its
        soft weights.

        Which of several codewords tied for the smallest weight is returned is
        unspecified, and may differ from the lexicographic tie-break of the
        tests' exhaustive oracle (tests/reference.py, mld_oracle).
        """
        return self.exit_reason in CERTIFIED_EXITS


class _Search:
    """The state of one decode, shared by every pattern order.

    The order picks which basis to try next; the engine interpolates, swaps
    points, attempts each basis, counts the trials, and assembles the result.
    """

    def __init__(self, code: CodeParams, pi: np.ndarray,
                 genie_codeword: tuple[int, ...] | None, trace: list[str] | None):
        field = code.field
        self.pi = pi = check_pi(pi, field.q, code.n)
        self.code, self.sub, self.d_min, self.trace = code, field.sub, code.d_min, trace
        self.sw = sw = soft_weights(field, pi)  # ValueError for non-finite or huge pi
        self.z = z = sw.z
        self.chain = chain = AtomChain(sw.lam, sw.mins)
        self.genie = check_word(code, genie_codeword) if genie_codeword is not None else None
        # running hypothesis: initially e* = z itself (codeword 0, no message kept yet)
        self.e_star, self.w_star = z, sw.z_weight
        self.u_star: list[int] | None = None
        self.c_star: tuple[int, ...] | None = None
        self.trials = self.steps = 0
        if trace is not None:
            trace.append(f"CODE q={field.q} n={code.n} k={code.k}")
            trace.append("Z z=" + ",".join(str(v) for v in z))
            for r in range(chain.size):
                c, d = chain.atom(r)
                trace.append(f"ATOM rank={r + 1} coord={c} delta={d} weight={chain.weights[r]:.4f}")
            trace.append(f"INIT weight={self.w_star:.4f}")

    def run(self, order: Callable[[GroebnerBasis], str]) -> DecodeResult:
        """Interpolate z in closed form and attempt it; unless that exits, order
        runs the later trials from its basis and returns the exit reason."""
        code = self.code
        basis = interpolate(code.field, code.k, code.eval_points, self.z)
        self.trials = 1
        exit_reason = self.attempt(basis, "0") or order(basis)
        if exit_reason in CERTIFIED_EXITS and self.u_star is None:
            # e* is still z itself, so the certified output is the zero codeword
            self.u_star = []
            self.c_star = tuple([0] * code.n)
        if self.trace is not None:
            msg = poly_str(self.u_star) if self.u_star is not None else "none"
            self.trace.append(f"EXIT reason={exit_reason} trials={self.trials} msg={msg} "
                              f"weight={self.w_star:.4f}")
        return DecodeResult(message=self.u_star, codeword=self.c_star, best_error=self.e_star,
                            best_weight=self.w_star, trials=self.trials, steps=self.steps,
                            exit_reason=exit_reason)

    def trial(self, basis: GroebnerBasis, j: int, y_new: int,
              pattern: str = "") -> tuple[GroebnerBasis, str | None]:
        """One later trial: y_new replaces the basis's value at coordinate j (one
        backward and one forward update), then the attempt."""
        x = self.code.eval_points[j]
        basis = forward_add(backward_remove(basis, x), x, y_new)
        self.trials += 1
        return basis, self.attempt(basis, pattern)

    def attempt(self, basis: GroebnerBasis, pattern: str) -> str | None:
        """Factorize, update the running best, fire Kaneko / genie exits.

        pattern labels the trial in the trace.
        """
        trace = self.trace
        found = factorize(basis, self.code.eval_points)
        if found is None:
            if trace is not None:
                trace.append(f"HDD trial={self.trials} step={self.steps} pattern={pattern} "
                             "result=none")
            return None
        u, c = found
        e = tuple(map(self.sub, self.z, c))
        w = self.sw.pattern_weight(e)
        improved = w < self.w_star or (self.u_star is None and w == self.w_star)
        if improved:
            self.e_star, self.w_star, self.u_star, self.c_star = e, w, u, c
            b0 = kaneko_B0(self.chain, e, self.d_min)
        if trace is not None:
            tail = f" b0={b0:.4f}" if improved else ""
            trace.append(f"HDD trial={self.trials} step={self.steps} pattern={pattern} "
                         f"result=u msg={poly_str(u)} weight={w:.4f} "
                         f"improved={int(improved)}{tail}")
        if not improved:
            return None
        if w <= b0:
            return EXIT_CERTIFIED_KANEKO
        if self.genie is not None and c == self.genie:
            return EXIT_GENIE
        return None


def tcgs_decode(code: CodeParams, pi: np.ndarray, cfg: DecoderConfig | None = None,
                genie_codeword: tuple[int, ...] | None = None,
                trace: list[str] | None = None) -> DecodeResult:
    """Decode a likelihood matrix pi (one row per field value, one column per
    coordinate) into the most plausible message found within the budget."""
    cfg = cfg or DecoderConfig()
    field = code.field
    if cfg.threshold_eps is not None and field.p != 2:
        raise ValueError("threshold mode requires a characteristic-2 field")
    s = _Search(code, pi, genie_codeword, trace)
    chain, z, sub = s.chain, s.z, s.sub
    t_min, L = code.t_min, cfg.max_trials

    def tree_order(basis):
        # threshold setup, only for frames that reach the tree: T_z in soft-weight
        # units, from the Euclidean sphere test
        T_z = None
        if cfg.threshold_eps is not None:
            pi, s2 = s.pi, cfg.sigma2  # pi as float64
            T = s2 * chi2_threshold(cfg.threshold_eps, code.n * field.m)
            log_norm = 0.5 * field.m * math.log(2.0 * math.pi * s2)
            resid_z = -2.0 * s2 * (float(sum(pi[zj, j] for j, zj in enumerate(z)))
                                   + code.n * log_norm)
            T_z = (T - resid_z) / (2.0 * s2)
        # A heap of (bound, len(f), f, parent basis): bound, then Hamming weight,
        # then leftmost ranks.  The keys are unique: f's ranks name the pattern and
        # the tree holds each pattern once, so a comparison never reaches the basis
        # (a tie would raise TypeError, not misorder).
        # No cap at the b trials left: each pop spends a trial or exits, so a node
        # with b better nodes ahead of it is never popped and a cap changes nothing.
        frontier: list[tuple] = []
        if s.trials < L:  # grow the tree only while a pop can follow
            # the root's leftmost child is the chain's first atom, which always exists
            first = leftmost_child(chain, ())
            frontier.append((bound_B(chain, first, t_min), 1, first, basis))
        while s.trials < L:
            if not frontier:
                # frontier exhaustion is always exact: every pattern of the tree was tried
                return EXIT_CERTIFIED_TREE
            bound, _, f, f_basis = heapq.heappop(frontier)
            s.steps += 1
            pat_str = ""  # only trace lines read the rendered pattern
            if trace is not None:
                pat_str = render_pattern(chain, f)
                trace.append(f"POP step={s.steps} pattern={pat_str} bound={bound:.4f}")
            if T_z is not None:
                if bound >= T_z:
                    return EXIT_THRESHOLD
            elif s.w_star <= bound:
                return EXIT_CERTIFIED_TREE
            # the last atom of f replaces z at its coordinate
            j, delta = chain.atom(f[-1])
            nb, exit_reason = s.trial(f_basis, j, sub(z[j], delta), pat_str)
            if exit_reason is not None:
                return exit_reason
            if s.trials == L:
                break  # no pop follows, so no child or sibling would be read
            # the child extends the swapped basis; the sibling swaps from the parent's
            for g, g_basis in ((leftmost_child(chain, f), nb), (next_sibling(chain, f), f_basis)):
                if g is not None:
                    heapq.heappush(frontier, (bound_B(chain, g, t_min), len(g), g, g_basis))
        return EXIT_BUDGET

    return s.run(tree_order)


def decode_with_trace(code: CodeParams, pi: np.ndarray,
                      cfg: DecoderConfig | None = None) -> tuple[DecodeResult, list[str]]:
    lines: list[str] = []
    res = tcgs_decode(code, pi, cfg, trace=lines)
    return res, lines


def compare_traces(got_lines: list[str], expected_lines: list[str]) -> tuple[bool, str]:
    """Line-by-line comparison; the diagnostic pinpoints the first divergence."""
    expected = [ln.rstrip("\n") for ln in expected_lines if ln.strip()]
    if not expected:
        raise ValueError("expected trace is empty")
    got = [ln.rstrip("\n") for ln in got_lines if ln.strip()]
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return False, f"line {i + 1}: got {a!r}, expected {b!r}"
    if len(got) != len(expected):
        return False, f"length mismatch: got {len(got)} lines, expected {len(expected)}"
    return True, "ok"
