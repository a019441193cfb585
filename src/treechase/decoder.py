"""One trial engine and the best-first tree search that drives it.

A trial is one hard-decision decode: the inherited interpolation basis with
one point swapped, then one factorization attempt.  The basis holds the test
vector it interpolates (GroebnerBasis.points, a mapping x -> y), so a swap
names only the coordinate and its new symbol: backward_remove(basis, x)
releases the old one, forward_add(basis, x, y) constrains the new one.
factorize(basis, xs) returns None or the message and its codeword (u, c) in
one call.  _Search is the engine every decoder shares.  It owns the front
end (one soft_weights pass over pi gives the hard decision z, the soft
weights in symbol layout, their per-coordinate minima and the weight of z;
the sorted view of those weights, the atom chain, is built only when the tree
or a trace reads it) and res, the DecodeResult it returns, which it fills in
as it runs: the running hypothesis (the lightest error pattern e* whose
subtraction from z gives a codeword, its weight w*, message u* and codeword
c*) is res.best_error, res.best_weight, res.message and res.codeword, and
res.trials and res.steps are the counters the pattern order advances.  The
engine runs every trial and holds the trial budget: run makes the first (z
interpolated in closed form), hands that basis to a pattern order unless
the budget is one trial, sets res.exit_reason to the reason the order
returns and returns res; trial makes each later one and returns the budget
exit when it spends the last trial.  A decoder is only its pattern order,
which names the trials and never counts them: tcgs_decode pops flipping
patterns best-first by their bound B, and baselines.lcc_decode Gray-walks
the test vectors of its least reliable positions.  Certificates:

  certified_tree    at a pop, weight(e*) <= B(front pattern): nothing lighter
                    can be generated by any unexplored pattern.  After the
                    trial that spends the budget the same test reads the
                    front of the frontier without a pop: no trial, no step.
  certified_kaneko  a freshly improved hypothesis e satisfies
                    weight(e) <= B0(e): no rival hypothesis can be lighter.

A result is maximum-likelihood exactly when one of the two certificates
fired.  Without a certificate the search stops on the trial budget, on the
likelihood-sphere threshold (threshold mode), or on matching a supplied
transmitted codeword (genie mode, simulation shortcut).  Threshold mode reads
the sphere as DecoderConfig.loglik_floor, the least total log-likelihood
sum_j pi[c_j][j] of a codeword inside it: a pop whose bound reaches
T_z = (the log-likelihood of z) - loglik_floor exits, since every pattern left
lands outside.  The decoder reads pi and nothing about the channel, so every
mode runs over any field.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import check_pi, soft_weights
from .chase import bound_B, kaneko_B0, leftmost_child, next_sibling, render_pattern
from .galois import _is_real, check_count, poly_str
from .interp import GroebnerBasis, backward_remove, factorize, forward_add, interpolate
from .rscode import CodeParams, check_word

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
    """max_trials is the hard-decision decode budget L, an integer >= 1.

    loglik_floor switches on threshold termination: it is the least total
    log-likelihood sum_j pi[c_j][j] a codeword c inside the sphere can have
    (channel.loglik_floor gives it for the BPSK/AWGN channel), and it replaces
    the tree certificate test at each pop by the sphere-exit test bound >= T_z.
    It is None or a finite real number (a bool is none).
    """

    max_trials: int = 16
    loglik_floor: float | None = None

    def __post_init__(self):
        check_count("max_trials", self.max_trials, 1)
        if self.loglik_floor is not None and not (_is_real(self.loglik_floor)
                                                  and math.isfinite(self.loglik_floor)):
            raise ValueError("loglik_floor must be finite")


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
        """Koetter updates, forward or backward: trial 1 interpolates in closed
        form, and every later trial makes one forward and one backward update."""
        return self.trials - 1

    backward_ops = forward_ops

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

    The order only names the basis to try next; the engine interpolates,
    swaps points, attempts each basis, ends the search once budget trials
    are spent (it is the only source of EXIT_BUDGET) and fills in res, the
    DecodeResult it returns: res.best_error, res.best_weight, res.message and
    res.codeword are the running hypothesis e*, w*, u*, c*, and res.trials
    and res.steps count the trials and the order's moves.
    """

    def __init__(self, code: CodeParams, pi: np.ndarray, budget: int,
                 genie_codeword: tuple[int, ...] | None, trace: list[str] | None):
        field = code.field
        self.pi = pi = check_pi(pi, field.q, code.n)
        self.code, self.budget, self.trace = code, budget, trace
        self.sw = sw = soft_weights(field, pi)  # ValueError for non-finite or huge pi
        self.genie = check_word(code, genie_codeword) if genie_codeword is not None else None
        # running hypothesis: initially e* = z itself (codeword 0, no message kept yet);
        # run sets the exit reason
        self.res = DecodeResult(message=None, codeword=None, best_error=sw.z,
                                best_weight=sw.z_weight, trials=0, steps=0, exit_reason="")
        if trace is not None:
            trace.append(f"CODE q={field.q} n={code.n} k={code.k}")
            trace.append("Z z=" + ",".join(str(v) for v in sw.z))
            for r in range(sw.size):
                c, d = sw.atom(r)
                trace.append(f"ATOM rank={r + 1} coord={c} delta={d} weight={sw.weights[r]:.4f}")
            trace.append(f"INIT weight={sw.z_weight:.4f}")

    def run(self, order: Callable[[GroebnerBasis], str]) -> DecodeResult:
        """Interpolate z in closed form and attempt it; unless that exits or
        spends the budget, order runs the later trials from its basis and
        returns the exit reason."""
        code, res = self.code, self.res
        basis = interpolate(code.field, code.k, code.eval_points, self.sw.zv)
        res.trials = 1
        res.exit_reason = self.attempt(basis, "0") or self.spent() or order(basis)
        if res.exit_reason in CERTIFIED_EXITS and res.message is None:
            # e* is still z itself, so the certified output is the zero codeword
            res.message, res.codeword = [], tuple([0] * code.n)
        if self.trace is not None:
            msg = poly_str(res.message) if res.message is not None else "none"
            self.trace.append(f"EXIT reason={res.exit_reason} trials={res.trials} msg={msg} "
                              f"weight={res.best_weight:.4f}")
        return res

    def trial(self, basis: GroebnerBasis, j: int, y_new: int,
              pattern: str = "") -> tuple[GroebnerBasis, str | None]:
        """One later trial: y_new replaces the basis's value at coordinate j (one
        backward and one forward update), then the attempt.  Its exit is the
        attempt's, else EXIT_BUDGET when this trial spent the budget."""
        x = self.code.eval_points[j]
        basis = forward_add(backward_remove(basis, x), x, y_new)
        self.res.trials += 1
        return basis, self.attempt(basis, pattern) or self.spent()

    def spent(self) -> str | None:
        """EXIT_BUDGET once the trials made reach the budget, else None."""
        return EXIT_BUDGET if self.res.trials == self.budget else None

    def attempt(self, basis: GroebnerBasis, pattern: str) -> str | None:
        """Factorize, update the running best, fire Kaneko / genie exits.

        pattern labels the trial in the trace.
        """
        code, res, trace = self.code, self.res, self.trace
        found = factorize(basis, code.eval_points)
        if found is None:
            if trace is not None:
                trace.append(f"HDD trial={res.trials} step={res.steps} pattern={pattern} "
                             "result=none")
            return None
        u, c = found
        e = tuple(map(code.field.sub, self.sw.z, c))
        w = self.sw.pattern_weight(e)
        improved = w < res.best_weight or (res.message is None and w == res.best_weight)
        if improved:
            res.best_error, res.best_weight, res.message, res.codeword = e, w, u, c
            b0 = kaneko_B0(self.sw, e, code.d_min)
        if trace is not None:
            tail = f" b0={b0:.4f}" if improved else ""
            trace.append(f"HDD trial={res.trials} step={res.steps} pattern={pattern} "
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
    s = _Search(code, pi, cfg.max_trials, genie_codeword, trace)
    sw, z, sub, res = s.sw, s.sw.z, code.field.sub, s.res
    t_min = code.t_min

    def tree_order(basis):
        # threshold setup, only for frames that reach the tree: T_z in soft-weight
        # units, how far below z's log-likelihood the sphere reaches
        T_z = None
        if cfg.loglik_floor is not None:
            # plain float adds in coordinate order (no numpy overflow warning; sum()
            # compensates from Python 3.12 on, which would change the bits)
            top = 0.0
            for v in s.pi[z, range(code.n)].tolist():
                top += v
            T_z = top - cfg.loglik_floor
            if not math.isfinite(T_z):
                raise ValueError("pi is too large for the threshold residual of z")
        # A heap of (bound, len(f), f, parent basis): bound, then Hamming weight,
        # then leftmost ranks.  The keys are unique: f's ranks name the pattern and
        # the tree holds each pattern once, so a comparison never reaches the basis
        # (a tie would raise TypeError, not misorder).
        # No cap at the b trials left: each pop spends a trial or exits, so a node
        # with b better nodes ahead of it is never popped and a cap changes nothing.
        # The root's leftmost child is the chain's first atom, which always exists.
        first = leftmost_child(sw, ())
        frontier = [(bound_B(sw, first, t_min), 1, first, basis)]
        while frontier:
            bound, _, f, f_basis = heapq.heappop(frontier)
            res.steps += 1
            pat_str = ""  # only trace lines read the rendered pattern
            if trace is not None:
                pat_str = render_pattern(sw, f)
                trace.append(f"POP step={res.steps} pattern={pat_str} bound={bound:.4f}")
            if T_z is not None:
                if bound >= T_z:
                    return EXIT_THRESHOLD
            elif res.best_weight <= bound:
                return EXIT_CERTIFIED_TREE
            # the last atom of f replaces z at its coordinate
            j, delta = sw.atom(f[-1])
            nb, exit_reason = s.trial(f_basis, j, sub(z[j], delta), pat_str)
            if exit_reason not in (None, EXIT_BUDGET):
                return exit_reason
            # the child extends the swapped basis; the sibling swaps from the parent's
            for g, g_basis in ((leftmost_child(sw, f), nb), (next_sibling(sw, f), f_basis)):
                if g is not None:
                    heapq.heappush(frontier, (bound_B(sw, g, t_min), len(g), g, g_basis))
            if exit_reason is not None:
                # the budget is spent, but the next pop's certificate needs no trial;
                # threshold mode gives up instead, as its T_z test certifies nothing
                certified = T_z is None and (not frontier or res.best_weight <= frontier[0][0])
                return EXIT_CERTIFIED_TREE if certified else exit_reason
        # frontier exhaustion is always exact: every pattern of the tree was tried
        return EXIT_CERTIFIED_TREE

    return s.run(tree_order)


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
