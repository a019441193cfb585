"""Ordered error-pattern search space for soft-decision Chase decoding.

An atom is a single-coordinate modification (j, delta): subtract delta from
the hard decision at coordinate j.  Atoms carry the nonnegative soft weight
lam_j(delta) and are totally ordered by (weight, coordinate, delta); the
sorted sequence is the atom chain, and every error hypothesis is a
rank-increasing sub-chain with distinct coordinates (a flipping pattern).

For a code with half-distance radius t_min, a pattern f opens the candidate
set G(f) of t_min-coordinate completions further down the chain; the greedy
scan gives min over G(f) exactly, and

    B(f) = weight(f) + greedy_min(f)

lower-bounds the weight of every error hypothesis whose minimal decomposition
starts with f.  B is monotone along the sibling order and from parent to
child, which is what makes best-first traversal with a priority queue exact.

AtomChain holds the weight table and sorts it the first time the tree search
(or a trace) reads a rank.  The Kaneko floor kaneko_B0 needs only the first
atom of each coordinate in chain order, so it reads a per-coordinate floor
instead: coordinates ordered by (lightest weight, coordinate).  That is the
order in which the chain scan meets them, so the floor sums the same floats
in the same order, and frames that stop at a Kaneko certificate, or never
search the tree (lcc), never pay for the sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import SoftWeights


@dataclass(frozen=True, eq=False)
class AtomChain:
    """All n*(q-1) atoms of lam[d-1][j], sorted ascending on first read.

    coords, deltas and weights are parallel tuples indexed by 0-based rank;
    the lexsort behind them runs the first time one of them is read.
    """

    lam: np.ndarray  # shape (q-1, n)

    @property
    def n(self) -> int:
        return self.lam.shape[1]

    @property
    def size(self) -> int:
        return self.lam.size

    @cached_property
    def _order(self) -> np.ndarray:
        """Flat lam indices (d-1)*n + j sorted by (weight, coord, delta)."""
        qm1, n = self.lam.shape
        flat = np.arange(qm1 * n)
        return np.lexsort((flat // n, flat % n, self.lam.ravel()))

    @cached_property
    def coords(self) -> tuple[int, ...]:
        return tuple((self._order % self.n).tolist())

    @cached_property
    def deltas(self) -> tuple[int, ...]:
        return tuple((self._order // self.n + 1).tolist())

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.lam.ravel()[self._order].tolist())

    @cached_property
    def rank_of(self) -> dict[tuple[int, int], int]:
        """0-based rank of each atom (coord, delta); built on first use."""
        return {a: r for r, a in enumerate(zip(self.coords, self.deltas))}

    @cached_property
    def floor(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Coordinates ordered by (lightest atom weight, coordinate), with that weight.

        This is the order in which a scan of the sorted chain first meets
        each coordinate, so sums over it equal the chain scan bit for bit.
        """
        mins = self.lam.min(axis=0)
        order = np.argsort(mins, kind="stable")
        return tuple(order.tolist()), tuple(mins[order].tolist())

    def atom(self, rank: int) -> tuple[int, int]:
        return (self.coords[rank], self.deltas[rank])


def build_atom_chain(sw: SoftWeights) -> AtomChain:
    if sw.lam.size and float(sw.lam.min()) < 0.0:
        raise ValueError("negative soft weight: z must be the columnwise argmax")
    return AtomChain(sw.lam)


@dataclass(frozen=True)
class FlippingPattern:
    """Strictly rank-increasing atom ranks with pairwise distinct coordinates."""

    ranks: tuple[int, ...]
    coords: frozenset[int]
    weight: float  # the atom weights summed left to right in rank order

    @property
    def upper_rank(self) -> int:
        """Rank of the last atom; -1 for the empty pattern (scan sentinel)."""
        return self.ranks[-1] if self.ranks else -1


ROOT = FlippingPattern((), frozenset(), 0.0)


def pattern_from_ranks(chain: AtomChain, ranks) -> FlippingPattern:
    ranks = tuple(sorted(ranks))
    coords = [chain.coords[r] for r in ranks]
    if len(set(coords)) != len(coords):
        raise ValueError("pattern atoms must sit on distinct coordinates")
    # weight summed in rank order so equal patterns always get bit-equal weights
    return FlippingPattern(ranks, frozenset(coords),
                           sum(chain.weights[r] for r in ranks))


def pattern_atoms(chain: AtomChain, f: FlippingPattern) -> list[tuple[int, int]]:
    return [chain.atom(r) for r in f.ranks]


def render_pattern(chain: AtomChain, f: FlippingPattern) -> str:
    if not f.ranks:
        return "0"
    return "+".join(f"({c},{d})" for c, d in pattern_atoms(chain, f))


def greedy_g_min(chain: AtomChain, f: FlippingPattern, t_min: int) -> float:
    """Exact min weight over G(f): t_min atoms past R_u(f) on fresh coordinates.

    Returns +inf when fewer than t_min such atoms remain.
    """
    if t_min == 0:
        return 0.0
    taken = set(f.coords)
    total = 0.0
    got = 0
    coords, weights = chain.coords, chain.weights
    for r in range(f.upper_rank + 1, len(coords)):
        c = coords[r]
        if c in taken:
            continue
        taken.add(c)
        total += weights[r]
        got += 1
        if got == t_min:
            return total
    return math.inf


def bound_B(chain: AtomChain, f: FlippingPattern, t_min: int) -> float:
    return f.weight + greedy_g_min(chain, f, t_min)


def _extend(chain: AtomChain, ranks: tuple[int, ...], taken: frozenset[int], weight: float,
            start: int) -> FlippingPattern | None:
    """ranks plus the first atom at rank >= start on a coordinate not in taken, or None."""
    coords = chain.coords
    for r in range(start, len(coords)):
        c = coords[r]
        if c not in taken:
            return FlippingPattern(ranks + (r,), taken | {c}, weight + chain.weights[r])
    return None


def leftmost_child(chain: AtomChain, f: FlippingPattern) -> FlippingPattern | None:
    """Lowest-rank extension of f on an unused coordinate, or None."""
    return _extend(chain, f.ranks, f.coords, f.weight, f.upper_rank + 1)


def next_sibling(chain: AtomChain, f: FlippingPattern) -> FlippingPattern | None:
    """Replace f's last atom by the next valid one at a higher rank, or None."""
    if not f.ranks:
        raise ValueError("the empty pattern has no siblings")
    head = f.ranks[:-1]
    return _extend(chain, head, frozenset(chain.coords[r] for r in head),
                   sum(chain.weights[r] for r in head), f.ranks[-1] + 1)


def kaneko_B0(chain: AtomChain, e, d_min: int) -> float:
    """Early-termination floor: every rival hypothesis weighs at least this much.

    Greedy sum of the (d_min - wt(e)) lightest atoms on coordinates outside
    the support of e; 0 once e already touches d_min coordinates.  A decoded
    hypothesis whose weight does not exceed its own floor is maximum-likelihood.
    """
    support = {j for j, v in enumerate(e) if v}
    need = d_min - len(support)
    if need <= 0:
        return 0.0
    total = 0.0
    coords, weights = chain.floor
    for c, w in zip(coords, weights):
        if c in support:
            continue
        total += w
        need -= 1
        if need == 0:
            return total
    return math.inf


def minimal_decompose(chain: AtomChain, e, t_min: int) -> tuple[FlippingPattern, FlippingPattern]:
    """Split e's atoms (rank-sorted) into the minimal pattern f and tail g.

    f keeps all but the t_min highest-ranked atoms of e; g keeps those t_min.
    This is the unique split with |supp(g)| = t_min, disjoint supports and
    R_u(f) < R_l(g).
    """
    ranks = sorted(chain.rank_of[(j, v)] for j, v in enumerate(e) if v)
    if len(ranks) < t_min:
        raise ValueError("wt(e) < t_min: the minimal pattern degenerates to the empty one")
    cut = len(ranks) - t_min
    return (pattern_from_ranks(chain, ranks[:cut]),
            pattern_from_ranks(chain, ranks[cut:]))


def pattern_key(bound: float, f: FlippingPattern) -> tuple[float, int, tuple[int, ...]]:
    """Total search order: bound, then Hamming weight, then leftmost position."""
    return (bound, len(f.ranks), f.ranks)
