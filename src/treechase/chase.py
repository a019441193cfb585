"""Ordered error-pattern search space for soft-decision Chase decoding.

An atom is a single-coordinate modification (j, delta): subtract delta from
the hard decision at coordinate j, giving the symbol v = z_j - delta.  Atoms
carry the nonnegative soft weight W[v][j] and are totally ordered by (weight,
coordinate, v); the sorted sequence is the atom chain, and every error
hypothesis is a rank-increasing sub-chain with distinct coordinates (a
flipping pattern).
A pattern is the plain tuple of its strictly increasing ranks; the root is ().

For a code with half-distance radius t_min, a pattern f opens the candidate
set G(f) of t_min-coordinate completions further down the chain; the greedy
scan gives min over G(f) exactly, and

    B(f) = weight(f) + greedy_min(f)

lower-bounds the weight of every error hypothesis whose minimal decomposition
starts with f.  B is monotone along the sibling order and from parent to
child, which is what makes best-first traversal with a priority queue exact.

Every weight a certificate or the frontier compares (B, the Kaneko floor B0,
and SoftWeights.pattern_weight) is math.fsum of its atom weights: the
correctly rounded exact sum, whatever the order of its terms.  Rounding is
monotone, so each inequality the bounds satisfy in exact arithmetic holds
between the rounded values too, and a certificate w(e*) <= B means that no
codeword has a smaller rounded weight.

The chain is the sorted view of the weight table (channel.SoftWeights:
coords, weights and atom(rank), one stable argsort of the coordinate-major
weights W.T on first read, whose index order is (coordinate, v), so ties need
no second key).  bound_B and both tree moves are one greedy scan of the chain
past the pattern.  The Kaneko floor kaneko_B0 needs no chain and no sort at
all: the first atom a scan of the sorted chain meets on each coordinate is
that coordinate's lightest, so the floor is the sum of the d_min - wt(e)
smallest per-coordinate minima (SoftWeights.mins) outside the support of e.
Which of several tied coordinates is picked does not change the multiset of
weights, so the sum is the chain scan's to the bit, and frames that stop at a
Kaneko certificate, or never search the tree (lcc), never pay for the sort.
"""

from __future__ import annotations

import math

from .channel import SoftWeights


def build_atom_chain(sw: SoftWeights) -> SoftWeights:
    """sw, whose sorted view is the chain; ValueError for a negative weight.

    The decoder reads sw itself: soft_weights takes z by argmax, so its
    weights are never negative.
    """
    if min(sw.mins, default=0.0) < 0.0:
        raise ValueError("negative soft weight: z must be the columnwise argmax")
    return sw


def render_pattern(sw: SoftWeights, f: tuple[int, ...]) -> str:
    if not f:
        return "0"
    return "+".join(f"({c},{d})" for c, d in map(sw.atom, f))


def _greedy_scan(coords, start: int, taken: set[int], need: int) -> list[int] | None:
    """Indices of the first need fresh coordinates from index start on.

    A coordinate is fresh the first time the scan meets it outside taken,
    which the scan extends as it goes.  Returns None when fewer than need
    fresh coordinates remain, and [] when need <= 0.
    """
    picks: list[int] = []
    if need <= 0:
        return picks
    for r in range(start, len(coords)):
        c = coords[r]
        if c not in taken:
            taken.add(c)
            picks.append(r)
            if len(picks) == need:
                return picks
    return None


def bound_B(sw: SoftWeights, f: tuple[int, ...], t_min: int) -> float:
    """B(f): the weight of f plus the exact min over G(f), the t_min atoms past
    f's last rank on fresh coordinates; +inf when fewer than t_min remain."""
    coords = sw.coords
    picks = _greedy_scan(coords, f[-1] + 1 if f else 0, {coords[r] for r in f}, t_min)
    if picks is None:
        return math.inf
    weights = sw.weights
    return math.fsum([weights[r] for r in f + tuple(picks)])


def _extend(sw: SoftWeights, head: tuple[int, ...], start: int) -> tuple[int, ...] | None:
    """head plus the first atom at rank >= start on a coordinate head does not use, or None."""
    coords = sw.coords
    pick = _greedy_scan(coords, start, {coords[r] for r in head}, 1)
    return None if pick is None else head + (pick[0],)


def leftmost_child(sw: SoftWeights, f: tuple[int, ...]) -> tuple[int, ...] | None:
    """Lowest-rank extension of f on an unused coordinate, or None."""
    return _extend(sw, f, f[-1] + 1 if f else 0)


def next_sibling(sw: SoftWeights, f: tuple[int, ...]) -> tuple[int, ...] | None:
    """Replace f's last atom by the next valid one at a higher rank, or None."""
    if not f:
        raise ValueError("the empty pattern has no siblings")
    return _extend(sw, f[:-1], f[-1] + 1)


def kaneko_B0(sw: SoftWeights, e, d_min: int) -> float:
    """Early-termination floor: every rival hypothesis weighs at least this much.

    The (d_min - wt(e)) lightest atoms on coordinates outside the support of
    e, one per coordinate, summed; 0 once e already touches d_min coordinates,
    +inf when fewer coordinates remain.  A decoded hypothesis whose weight does
    not exceed its own floor is maximum-likelihood.
    """
    rest = [w for w, v in zip(sw.mins, e) if not v]
    need = d_min - (len(e) - len(rest))
    if need > len(rest):
        return math.inf
    return math.fsum(sorted(rest)[:need]) if need > 0 else 0.0
