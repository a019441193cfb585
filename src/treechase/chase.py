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
(or a trace) reads a rank: one stable argsort of the coordinate-major weights,
whose index order is (coordinate, delta), so ties need no second key.  A
pattern is its ranks and weight; coordinates are read off the chain.  Both
bounds are one greedy scan: greedy_g_min walks the chain past the pattern,
and the Kaneko floor kaneko_B0 walks a per-coordinate floor instead,
coordinates ordered by (lightest weight, coordinate).  That is the order in
which the chain scan meets them, so the floor sums the same floats in the
same order, and frames that stop at a Kaneko certificate, or never search the
tree (lcc), never pay for the sort.
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

    coords and weights are parallel tuples indexed by 0-based rank; the sort
    behind them runs the first time one of them is read.
    """

    lam: np.ndarray  # shape (q-1, n)

    @property
    def size(self) -> int:
        return self.lam.size

    @cached_property
    def _order(self) -> np.ndarray:
        """Atom indices j*(q-1) + d-1 sorted by (weight, coord, delta).

        The sort is stable, so atoms of equal weight keep index order, which
        is (coord, delta).
        """
        return np.argsort(self.lam.T.ravel(), kind="stable")

    @cached_property
    def coords(self) -> tuple[int, ...]:
        return tuple((self._order // self.lam.shape[0]).tolist())

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.lam.T.ravel()[self._order].tolist())

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
        """(coordinate, delta) of the atom at rank."""
        j, d = divmod(int(self._order[rank]), self.lam.shape[0])
        return (j, d + 1)


def build_atom_chain(sw: SoftWeights) -> AtomChain:
    if sw.lam.size and float(sw.lam.min()) < 0.0:
        raise ValueError("negative soft weight: z must be the columnwise argmax")
    return AtomChain(sw.lam)


@dataclass(frozen=True)
class FlippingPattern:
    """Strictly rank-increasing atom ranks with pairwise distinct coordinates."""

    ranks: tuple[int, ...]
    weight: float  # the atom weights summed left to right in rank order

    @property
    def upper_rank(self) -> int:
        """Rank of the last atom; -1 for the empty pattern (scan sentinel)."""
        return self.ranks[-1] if self.ranks else -1


ROOT = FlippingPattern((), 0.0)


def render_pattern(chain: AtomChain, f: FlippingPattern) -> str:
    if not f.ranks:
        return "0"
    return "+".join(f"({c},{d})" for c, d in map(chain.atom, f.ranks))


def _greedy_sum(coords, weights, start: int, taken: set[int], need: int) -> float:
    """Weights summed at the first need fresh coordinates from index start on.

    A coordinate is fresh the first time the scan meets it outside taken,
    which the scan extends as it goes.  Returns +inf when fewer than need
    fresh coordinates remain, and 0 when need <= 0.
    """
    if need <= 0:
        return 0.0
    total = 0.0
    for r in range(start, len(coords)):
        c = coords[r]
        if c in taken:
            continue
        taken.add(c)
        total += weights[r]
        need -= 1
        if need == 0:
            return total
    return math.inf


def greedy_g_min(chain: AtomChain, f: FlippingPattern, t_min: int) -> float:
    """Exact min weight over G(f): t_min atoms past R_u(f) on fresh coordinates.

    Returns +inf when fewer than t_min such atoms remain.
    """
    coords = chain.coords
    return _greedy_sum(coords, chain.weights, f.upper_rank + 1,
                       {coords[r] for r in f.ranks}, t_min)


def bound_B(chain: AtomChain, f: FlippingPattern, t_min: int) -> float:
    return f.weight + greedy_g_min(chain, f, t_min)


def _extend(chain: AtomChain, head: tuple[int, ...], weight: float,
            start: int) -> FlippingPattern | None:
    """head plus the first atom at rank >= start on a coordinate head does not use, or None."""
    coords = chain.coords
    taken = {coords[r] for r in head}
    for r in range(start, len(coords)):
        if coords[r] not in taken:
            return FlippingPattern(head + (r,), weight + chain.weights[r])
    return None


def leftmost_child(chain: AtomChain, f: FlippingPattern) -> FlippingPattern | None:
    """Lowest-rank extension of f on an unused coordinate, or None."""
    return _extend(chain, f.ranks, f.weight, f.upper_rank + 1)


def next_sibling(chain: AtomChain, f: FlippingPattern) -> FlippingPattern | None:
    """Replace f's last atom by the next valid one at a higher rank, or None."""
    if not f.ranks:
        raise ValueError("the empty pattern has no siblings")
    head = f.ranks[:-1]
    weight = 0.0
    for r in head:  # left to right, as leftmost_child sums; sum() compensates from Python 3.12
        weight += chain.weights[r]
    return _extend(chain, head, weight, f.ranks[-1] + 1)


def kaneko_B0(chain: AtomChain, e, d_min: int) -> float:
    """Early-termination floor: every rival hypothesis weighs at least this much.

    Greedy sum of the (d_min - wt(e)) lightest atoms on coordinates outside
    the support of e; 0 once e already touches d_min coordinates.  A decoded
    hypothesis whose weight does not exceed its own floor is maximum-likelihood.
    """
    support = {j for j, v in enumerate(e) if v}
    coords, weights = chain.floor
    return _greedy_sum(coords, weights, 0, support, d_min - len(support))


def pattern_key(bound: float, f: FlippingPattern) -> tuple[float, int, tuple[int, ...]]:
    """Total search order: bound, then Hamming weight, then leftmost position."""
    return (bound, len(f.ranks), f.ranks)
