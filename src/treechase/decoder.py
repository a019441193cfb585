"""Best-first soft-decision decoder over the flipping-pattern tree.

The decoder keeps one running hypothesis: the lightest error pattern e* whose
subtraction from the hard decision z gives a codeword.  Search states are
flipping patterns ordered by their bound B; each popped pattern costs one
backward point removal, one forward point insertion, and one factorization
attempt on the inherited interpolation basis ("one trial" = one hard-decision
decode).  Certificates:

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

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import check_pi, hard_decision, soft_weights
from .chase import (
    ROOT,
    TreeNode,
    bound_B,
    build_atom_chain,
    kaneko_B0,
    leftmost_child,
    next_sibling,
    render_pattern,
)
from .galois import poly_str
from .interp import backward_remove, factorize, forward_add, interpolate_prefix
from .rscode import CodeParams, codebook, encode
from .stats import chi2_threshold

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
    backward_ops: int
    forward_ops: int

    @property
    def certified(self) -> bool:
        return self.exit_reason in CERTIFIED_EXITS


def tcgs_decode(code: CodeParams, pi: np.ndarray, cfg: DecoderConfig | None = None,
                genie_codeword: tuple[int, ...] | None = None,
                trace: list[str] | None = None) -> DecodeResult:
    """Decode a likelihood matrix pi (one row per field value, one column per
    coordinate) into the most plausible message found within the budget."""
    cfg = cfg or DecoderConfig()
    field = code.field
    check_pi(pi, field.q, code.n)
    sub = field.sub
    z = hard_decision(pi)
    sw = soft_weights(field, pi, z)
    chain = build_atom_chain(sw)
    t_min, d_min = code.t_min, code.d_min
    L = cfg.max_trials

    if trace is not None:
        trace.append(f"CODE q={field.q} n={code.n} k={code.k}")
        trace.append("Z z=" + ",".join(str(v) for v in z))
        for r in range(chain.size):
            c, d = chain.atom(r)
            trace.append(f"ATOM rank={r + 1} coord={c} delta={d} weight={chain.weights[r]:.4f}")

    # threshold setup: T_z in soft-weight units, from the Euclidean sphere test
    T_z = None
    if cfg.threshold_eps is not None:
        if field.p != 2:
            raise ValueError("threshold mode requires a characteristic-2 field")
        dof = code.n * field.m
        s2 = cfg.sigma2
        T = s2 * chi2_threshold(cfg.threshold_eps, dof)
        log_norm = 0.5 * field.m * math.log(2.0 * math.pi * s2)
        resid_z = -2.0 * s2 * (float(sum(pi[zj, j] for j, zj in enumerate(z))) + code.n * log_norm)
        T_z = (T - resid_z) / (2.0 * s2)

    # running hypothesis: initially e* = z itself (codeword 0, no message kept yet)
    e_star = z
    w_star = sw.pattern_weight(z)
    u_star: list[int] | None = None
    c_star: tuple[int, ...] | None = None

    if trace is not None:
        trace.append(f"INIT weight={w_star:.4f}")

    basis = interpolate_prefix(field, code.k, zip(code.eval_points[:code.k], z))
    for j in range(code.k, code.n):
        basis = forward_add(basis, code.eval_points[j], z[j])
    forward_ops = code.n - code.k
    backward_ops = 0
    trials = 1
    steps = 0
    exit_reason: str | None = None

    def attempt(b, pat_str: str) -> str | None:
        """Factorize, update the running best, fire Kaneko / genie exits."""
        nonlocal e_star, w_star, u_star, c_star
        u = factorize(b)
        if u is None:
            if trace is not None:
                trace.append(f"HDD trial={trials} step={steps} pattern={pat_str} result=none")
            return None
        c = encode(code, u)
        e = tuple(sub(zj, cj) for zj, cj in zip(z, c))
        w = sw.pattern_weight(e)
        improved = w < w_star or (u_star is None and w == w_star)
        if improved:
            e_star, w_star, u_star, c_star = e, w, u, c
            b0 = kaneko_B0(chain, e, d_min)
        if trace is not None:
            tail = f" b0={b0:.4f}" if improved else ""
            trace.append(f"HDD trial={trials} step={steps} pattern={pat_str} result=u "
                         f"msg={poly_str(u)} weight={w:.4f} improved={int(improved)}{tail}")
        if not improved:
            return None
        if w <= b0:
            return EXIT_CERTIFIED_KANEKO
        if genie_codeword is not None and c == tuple(genie_codeword):
            return EXIT_GENIE
        return None

    exit_reason = attempt(basis, "0")

    frontier: list[TreeNode] = []
    dropped = False
    if exit_reason is None:
        first = leftmost_child(chain, ROOT)
        if first is not None:
            frontier.append(TreeNode(first, bound_B(chain, first, t_min), basis))
        while trials < L:
            if not frontier:
                # tree exhausted; exact search unless the cap discarded nodes
                exit_reason = EXIT_BUDGET if dropped else EXIT_CERTIFIED_TREE
                break
            node = frontier.pop(0)
            steps += 1
            f = node.pattern
            pat_str = render_pattern(chain, f)
            if trace is not None:
                trace.append(f"POP step={steps} pattern={pat_str} bound={node.bound:.4f}")
            if T_z is not None:
                if node.bound >= T_z:
                    exit_reason = EXIT_THRESHOLD
                    break
            elif w_star <= node.bound:
                exit_reason = EXIT_CERTIFIED_TREE
                break
            # one-point swap: last atom of f replaces z at its coordinate
            j, delta = chain.atom(f.ranks[-1])
            x = code.eval_points[j]
            nb = backward_remove(node.basis, x, z[j])
            backward_ops += 1
            nb = forward_add(nb, x, sub(z[j], delta))
            forward_ops += 1
            trials += 1
            exit_reason = attempt(nb, pat_str)
            if exit_reason is not None:
                break
            child = leftmost_child(chain, f)
            if child is not None:
                cnode = TreeNode(child, bound_B(chain, child, t_min), nb)
                bisect.insort(frontier, cnode, key=TreeNode.key)
            sib = next_sibling(chain, f)
            if sib is not None:
                snode = TreeNode(sib, bound_B(chain, sib, t_min), node.basis)
                bisect.insort(frontier, snode, key=TreeNode.key)
            cap = L - trials
            if len(frontier) > cap:
                del frontier[cap:]
                dropped = True
        else:
            exit_reason = EXIT_BUDGET

    if exit_reason in CERTIFIED_EXITS and u_star is None:
        # e* is still z itself, so the certified output is the zero codeword
        u_star = []
        c_star = tuple([0] * code.n)

    if trace is not None:
        msg = poly_str(u_star) if u_star is not None else "none"
        trace.append(f"EXIT reason={exit_reason} trials={trials} msg={msg} weight={w_star:.4f}")

    return DecodeResult(message=u_star, codeword=c_star, best_error=e_star,
                        best_weight=w_star, trials=trials, steps=steps,
                        exit_reason=exit_reason, backward_ops=backward_ops,
                        forward_ops=forward_ops)


@lru_cache(maxsize=8)
def _codebook_scores_setup(code: CodeParams):
    msgs, cws = zip(*codebook(code))
    return list(msgs), np.array(cws, dtype=np.int64)


def mld_oracle(code: CodeParams, pi: np.ndarray) -> tuple[list[int], tuple[int, ...]]:
    """Exhaustive maximum-likelihood decode; ties favour the lexicographically
    smallest message coefficient vector.  Only for small codes (q^k <= 1e6)."""
    msgs, cws = _codebook_scores_setup(code)
    cols = np.arange(code.n)
    scores = pi[cws, cols[None, :]].sum(axis=1)
    best = scores.max()
    tied = np.flatnonzero(scores == best)
    pick = min(tied, key=lambda i: tuple(msgs[i] + [0] * (code.k - len(msgs[i]))))
    return list(msgs[pick]), tuple(int(v) for v in cws[pick])


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


def verify_trace(code: CodeParams, pi: np.ndarray, cfg: DecoderConfig,
                 expected_lines: list[str]) -> tuple[bool, str]:
    """Re-run the decode and compare traces against an expected transcript."""
    _, got = decode_with_trace(code, pi, cfg)
    return compare_traces(got, expected_lines)
