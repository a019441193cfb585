"""Reference helpers that only the tests use.

Each one is an oracle the package is checked against, kept out of the package
because no decode, sweep or CLI path calls it:

  poly_add, poly_mul    dense polynomial sum and product through Field.add/mul
  chi2_sf               the chi-square tail, inverse of stats.chi2_threshold
  rank_of               atom (coord, delta) -> 0-based rank in an AtomChain
  pattern_from_ranks    the FlippingPattern of a rank set
  minimal_decompose     the split of an error pattern behind the tree's
                        completeness argument
  interpolate_points    the fold of forward_add from {1, y}, which
                        interp.interpolate reduces to in closed form
"""

from __future__ import annotations

from scipy.special import gammaincc

from treechase.chase import AtomChain, FlippingPattern
from treechase.galois import Field, poly_trim
from treechase.interp import BivarPoly, GroebnerBasis, forward_add


def poly_add(field: Field, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    add = field.add
    out = list(a)
    for i, v in enumerate(b):
        out[i] = add(out[i], v)
    return poly_trim(out)


def poly_mul(field: Field, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    add, mul = field.add, field.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            out[i + j] = add(out[i + j], mul(av, bv))
    return poly_trim(out)


def chi2_sf(x: float, dof: int) -> float:
    """Pr{X >= x} for X chi-square with dof degrees of freedom."""
    return float(gammaincc(dof / 2.0, x / 2.0))


def rank_of(chain: AtomChain) -> dict[tuple[int, int], int]:
    """0-based rank of each atom (coord, delta)."""
    return {chain.atom(r): r for r in range(chain.size)}


def pattern_from_ranks(chain: AtomChain, ranks) -> FlippingPattern:
    ranks = tuple(sorted(ranks))
    if len({chain.coords[r] for r in ranks}) != len(ranks):
        raise ValueError("pattern atoms must sit on distinct coordinates")
    # weight summed in rank order so equal patterns always get bit-equal weights
    return FlippingPattern(ranks, sum(chain.weights[r] for r in ranks))


def minimal_decompose(chain: AtomChain, e, t_min: int) -> tuple[FlippingPattern, FlippingPattern]:
    """Split e's atoms (rank-sorted) into the minimal pattern f and tail g.

    f keeps all but the t_min highest-ranked atoms of e; g keeps those t_min.
    This is the unique split with |supp(g)| = t_min, disjoint supports and
    R_u(f) < R_l(g).
    """
    ranks_by_atom = rank_of(chain)
    ranks = sorted(ranks_by_atom[(j, v)] for j, v in enumerate(e) if v)
    if len(ranks) < t_min:
        raise ValueError("wt(e) < t_min: the minimal pattern degenerates to the empty one")
    cut = len(ranks) - t_min
    return (pattern_from_ranks(chain, ranks[:cut]),
            pattern_from_ranks(chain, ranks[cut:]))


def interpolate_points(field: Field, k: int, points) -> GroebnerBasis:
    """Fold forward_add over a point sequence, starting from {1, y}, the basis
    of all q0 + q1*y (no points)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    basis = GroebnerBasis(field, k, (BivarPoly((1,), ()), BivarPoly((), (1,))), ())
    for x, y in points:
        basis = forward_add(basis, x, y)
    return basis
