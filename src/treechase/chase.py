"""Ordered error-pattern search space for soft-decision Chase decoding.

An atom is a single-coordinate modification (j, delta): subtract delta from
the hard decision at coordinate j.  Atoms carry the nonnegative soft weight
lam_j(delta) and are totally ordered by (weight, coordinate, delta); the
sorted sequence is the atom chain, and every error hypothesis is a
rank-increasing sub-chain with distinct coordinates (a flipping pattern).
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

AtomChain holds the weight table and sorts it the first time the tree search
(or a trace) reads a rank: one stable argsort of the coordinate-major weights,
whose index order is (coordinate, delta), so ties need no second key.
Coordinates are read off the chain.  bound_B and both tree moves are one
greedy scan of the chain past the pattern.  The Kaneko floor kaneko_B0 needs
no chain and no sort at all: the first atom a scan of the sorted chain meets
on each coordinate is that coordinate's lightest, so the floor is the sum of
the d_min - wt(e) smallest per-coordinate minima (AtomChain.mins) outside the
support of e.  Which of several tied coordinates is picked does not change
the multiset of weights, so the sum is the chain scan's to the bit, and
frames that stop at a Kaneko certificate, or never search the tree (lcc),
never pay for the sort.
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
    behind them runs the first time one of them is read.  mins holds each
    coordinate's lightest atom weight, the weight of its cheapest
    single-symbol change (SoftWeights.mins), unsorted.
    """

    lam: np.ndarray  # shape (q-1, n)
    mins: tuple[float, ...]  # lam.min(axis=0)

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

    def atom(self, rank: int) -> tuple[int, int]:
        """(coordinate, delta) of the atom at rank."""
        j, d = divmod(int(self._order[rank]), self.lam.shape[0])
        return (j, d + 1)


def build_atom_chain(sw: SoftWeights) -> AtomChain:
    """The chain of sw's weights; ValueError for a negative one.

    The decoder builds AtomChain(sw.lam, sw.mins) itself: soft_weights takes
    z by argmax, so its weights are never negative.
    """
    if min(sw.mins, default=0.0) < 0.0:
        raise ValueError("negative soft weight: z must be the columnwise argmax")
    return AtomChain(sw.lam, sw.mins)


def render_pattern(chain: AtomChain, f: tuple[int, ...]) -> str:
    if not f:
        return "0"
    return "+".join(f"({c},{d})" for c, d in map(chain.atom, f))


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


def bound_B(chain: AtomChain, f: tuple[int, ...], t_min: int) -> float:
    """B(f): the weight of f plus the exact min over G(f), the t_min atoms past
    f's last rank on fresh coordinates; +inf when fewer than t_min remain."""
    coords = chain.coords
    picks = _greedy_scan(coords, f[-1] + 1 if f else 0, {coords[r] for r in f}, t_min)
    if picks is None:
        return math.inf
    weights = chain.weights
    return math.fsum([weights[r] for r in f + tuple(picks)])


def _extend(chain: AtomChain, head: tuple[int, ...], start: int) -> tuple[int, ...] | None:
    """head plus the first atom at rank >= start on a coordinate head does not use, or None."""
    coords = chain.coords
    pick = _greedy_scan(coords, start, {coords[r] for r in head}, 1)
    return None if pick is None else head + (pick[0],)


def leftmost_child(chain: AtomChain, f: tuple[int, ...]) -> tuple[int, ...] | None:
    """Lowest-rank extension of f on an unused coordinate, or None."""
    return _extend(chain, f, f[-1] + 1 if f else 0)


def next_sibling(chain: AtomChain, f: tuple[int, ...]) -> tuple[int, ...] | None:
    """Replace f's last atom by the next valid one at a higher rank, or None."""
    if not f:
        raise ValueError("the empty pattern has no siblings")
    return _extend(chain, f[:-1], f[-1] + 1)


def kaneko_B0(chain: AtomChain, e, d_min: int) -> float:
    """Early-termination floor: every rival hypothesis weighs at least this much.

    The (d_min - wt(e)) lightest atoms on coordinates outside the support of
    e, one per coordinate, summed; 0 once e already touches d_min coordinates,
    +inf when fewer coordinates remain.  A decoded hypothesis whose weight does
    not exceed its own floor is maximum-likelihood.
    """
    rest = [w for w, v in zip(chain.mins, e) if not v]
    need = d_min - (len(e) - len(rest))
    if need > len(rest):
        return math.inf
    return math.fsum(sorted(rest)[:need]) if need > 0 else 0.0
