"""Reference helpers that only the tests use.

Each one is an oracle the package is checked against, kept out of the package
because no decode, sweep or CLI path calls it:

  is_prime              primality by trial division, which the package
                        leaves to GF(p)'s generator search
  poly_add, poly_mul    dense polynomial sum and product through Field.add/mul
  chi2_sf               the chi-square tail, inverse of channel.chi2_threshold
  rank_of               atom (coord, delta) -> 0-based rank in the atom chain
  pattern_from_ranks    the flipping pattern (sorted rank tuple) of a rank set
  minimal_decompose     the split of an error pattern behind the tree's
                        completeness argument
  interpolate_points    the fold of forward_add from {1, y}, which
                        interp.interpolate reduces to in closed form
  factorize_by_division interp.factorize by one general division of q0 by
                        q1 and a Horner pass of u at each root of q1
  wdeg_key              a bivariate polynomial's (1, k-1)-weighted degree
                        and leading-monomial y-degree, read off both parts
  minimal               a basis's element of least weighted degree
  codebook              every (message, codeword) pair of a small code
  mld_oracle            exhaustive maximum-likelihood decode of a small code
  bw_decode             Berlekamp-Welch bounded-distance decode of a word,
                        by linear algebra with no interpolation module
  isd_oracle            the lightest codeword under a weight bound, by
                        enumerating an information set: exact where
                        mld_oracle's codebook is too large
  front_end             the decoder's front end as separate steps (hard
                        decision, soft weights about it, per-coordinate
                        minima, weight of z), which channel.soft_weights fuses
  save_pi               write a likelihood matrix file, as channel.load_pi
                        reads it
  traced                a tcgs_decode and its trace lines
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.special import gammaincc

from treechase.channel import SoftWeights, check_pi
from treechase.decoder import DecodeResult, DecoderConfig, tcgs_decode
from treechase.galois import Field, lagrange_table, poly_trim
from treechase.interp import BivarPoly, GroebnerBasis, forward_add
from treechase.rscode import CodeParams, encode


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


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


def rank_of(chain: SoftWeights) -> dict[tuple[int, int], int]:
    """0-based rank of each atom (coord, delta)."""
    return {chain.atom(r): r for r in range(chain.size)}


def pattern_from_ranks(chain: SoftWeights, ranks) -> tuple[int, ...]:
    ranks = tuple(sorted(ranks))
    if len({chain.coords[r] for r in ranks}) != len(ranks):
        raise ValueError("pattern atoms must sit on distinct coordinates")
    return ranks


def minimal_decompose(chain: SoftWeights, e, t_min: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
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
    basis = GroebnerBasis(field, k, (BivarPoly([1], []), BivarPoly([], [1])), {})
    for x, y in points:
        basis = forward_add(basis, x, y)
    return basis


def factorize_by_division(basis: GroebnerBasis, xs) -> tuple[list[int], tuple[int, ...]] | None:
    """interp.factorize's (u, c) or None, read without the error locator's
    structure: u = q0/(-q1) by poly_divrem when element 1 is minimal and the
    quotient has degree < k, and c_j = u(x_j) at each node root of q1, y_j
    elsewhere."""
    field, k, (P0, P) = basis.field, basis.k, basis.polys
    q1 = P.q1
    if len(P0.q0) < len(q1) + k or len(P.q0) - len(q1) >= k:
        return None
    u, rem = field.poly_divrem(P.q0, field.poly_scale(list(q1), field.sub(0, 1)))
    if rem:
        return None
    c = [y if v else field.poly_eval(u, x)
         for x, y, v in zip(xs, map(basis.points.__getitem__, xs), field.poly_evals(q1, xs))]
    return u, tuple(c)


_NEG = -(10**9)  # stand-in for the weighted degree of a zero part


def wdeg_key(k: int, P: BivarPoly) -> tuple[int, int]:
    """(weighted degree, leading-monomial y-degree) under the (1, k-1) order,
    ties to the y-bearing monomial; a zero part never leads."""
    d0 = len(P.q0) - 1 if P.q0 else _NEG
    d1 = len(P.q1) - 1 + (k - 1) if P.q1 else _NEG
    return (max(d0, d1), 1 if d1 >= d0 else 0)


def minimal(basis: GroebnerBasis) -> BivarPoly:
    """The element of least (1, k-1)-weighted degree, element 0 on ties, as
    factorize picks it."""
    return min(basis.polys, key=lambda P: wdeg_key(basis.k, P))


@lru_cache(maxsize=8)
def codebook(code: CodeParams) -> list[tuple[list[int], tuple[int, ...]]]:
    """All (message, codeword) pairs; intended for small codes (q^k <= 1e6).

    Messages come in lexicographic order of their coefficient vectors
    (u_0, ..., u_{k-1}), u_0 most significant, so the first of several tied
    messages is the lexicographically smallest.
    """
    if code.field.q**code.k > 1_000_000:
        raise ValueError("codebook too large to enumerate")
    msgs = (poly_trim(list(u)) for u in product(range(code.field.q), repeat=code.k))
    return [(u, encode(code, u)) for u in msgs]


@lru_cache(maxsize=8)
def _codebook_scores_setup(code: CodeParams):
    msgs, cws = zip(*codebook(code))
    return list(msgs), np.array(cws, dtype=np.int64)


def mld_oracle(code: CodeParams, pi: np.ndarray) -> tuple[list[int], tuple[int, ...]]:
    """Exhaustive maximum-likelihood decode, scored in float64 as the decoders
    score; ties favour the lexicographically smallest message coefficient
    vector, the first in codebook order.  Only for small codes (q^k <= 1e6)."""
    pi = check_pi(pi, code.field.q, code.n)
    if not np.isfinite(pi).all():
        raise ValueError("pi has non-finite entries")
    msgs, cws = _codebook_scores_setup(code)
    pick = int(np.argmax(pi[cws, np.arange(code.n)].sum(axis=1)))
    return list(msgs[pick]), tuple(int(v) for v in cws[pick])


def bw_decode(code: CodeParams, word) -> list[int] | None:
    """The message whose codeword lies within t = floor((n - k)/2) of word, by
    Berlekamp-Welch: Q(x_j) = y_j*E(x_j) at every node, for Q of degree
    < k + t and E monic of degree t, solved by Gauss-Jordan elimination
    through Field.add/sub/mul/inv alone; u = Q/E by long division.  None
    unless the system is consistent, E divides Q exactly and u's codeword lies
    within t of word.  u has degree < k by construction, and is trimmed as
    factorize trims it."""
    f, n, k = code.field, code.n, code.k
    add, sub, mul = f.add, f.sub, f.mul
    t = (n - k) // 2
    width = k + 2 * t  # Q's k + t coefficients, then E's t below its leading 1
    rows = []
    for x, y in zip(code.eval_points, word):
        xp = [1]
        for _ in range(k + t):
            xp.append(mul(xp[-1], x))
        rows.append(xp[:k + t] + [sub(0, mul(y, v)) for v in xp[:t]] + [mul(y, xp[t])])
    pivots = []
    for col in range(width):
        r = len(pivots)
        pick = next((i for i in range(r, n) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        s = f.inv(rows[r][col])
        rows[r] = [mul(s, v) for v in rows[r]]
        for i in range(n):
            if i != r and (c := rows[i][col]):
                rows[i] = [sub(a, mul(c, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    if any(row[width] for row in rows[len(pivots):]):
        return None  # no (Q, E) fits every node
    sol = [0] * width  # free unknowns 0: every solution's Q/E is u when u exists
    for row, col in zip(rows, pivots):
        sol[col] = row[width]
    rem, E = sol[:k + t], sol[k + t:] + [1]
    u = [0] * k
    for i in range(k + t - 1, t - 1, -1):  # E is monic: the quotient's terms read off rem
        u[i - t] = c = rem[i]
        for j, e in enumerate(E):
            rem[i - t + j] = sub(rem[i - t + j], mul(c, e))
    if any(rem):
        return None
    far = 0
    for x, y in zip(code.eval_points, word):
        c = 0
        for v in reversed(u):
            c = add(mul(c, x), v)
        far += c != y
    return poly_trim(u) if far <= t else None


def isd_oracle(code: CodeParams, pi: np.ndarray, bound: float,
               cap: int) -> tuple[tuple[int, ...] | None, float, int]:
    """(c, w, leaves): the lightest codeword c of weight w <= bound, or (None,
    inf) when there is none, and the number of leaves enumerated.  The weight
    of c is the decoder's, sum_j pi[z_j][j] - pi[c_j][j] about the hard
    decision z, one math.fsum.

    Any k coordinates of an RS code are an information set: their symbols
    name one codeword.  The k coordinates with the largest mins (the costliest
    to change) are enumerated depth-first, each one's symbols by ascending
    weight, and a branch is cut once its partial weight exceeds bound (with a
    relative slack of 1e-12 for the partial sums' rounding): every weight is
    >= 0, so no codeword within bound is cut.  A leaf re-encodes its k symbols
    through the Lagrange basis of their nodes.  RuntimeError past cap leaves.
    """
    field = code.field
    pi = check_pi(pi, field.q, code.n)
    if not np.isfinite(pi).all():
        raise ValueError("pi has non-finite entries")
    zv, cols = pi.argmax(axis=0), np.arange(code.n)
    W = pi[zv, cols] - pi  # W[v][j]: the weight of c_j = v, 0 at v = z_j
    off_z = W.copy()
    off_z[zv, cols] = np.inf
    info = np.argsort(-off_z.min(axis=0), kind="stable")[:code.k].tolist()
    z = zv.tolist()
    # per information coordinate, its (weight, symbol) pairs by ascending weight
    choices = [sorted((float(W[v, j]), v) for v in range(field.q)) for j in info]
    log_rows = lagrange_table(field, tuple(code.eval_points[j] for j in info))[0]
    limit = bound * (1 + 1e-12)
    best: tuple[tuple[int, ...] | None, float] = (None, math.inf)
    leaves = 0
    ys = [0] * code.k

    def descend(depth: int, partial: float) -> None:
        nonlocal best, leaves
        if depth == code.k:
            leaves += 1
            if leaves > cap:
                raise RuntimeError(f"isd_oracle: more than {cap} leaves under bound {bound}")
            c = tuple(field.poly_evals(field.poly_combine(log_rows, ys), code.eval_points))
            w = math.fsum([W.item(cj, j) for j, cj in enumerate(c) if cj != z[j]])
            if w <= bound and w < best[1]:
                best = (c, w)
            return
        for w, v in choices[depth]:
            if partial + w > limit:
                break  # the later symbols weigh no less
            ys[depth] = v
            descend(depth + 1, partial + w)

    descend(0, 0.0)
    return best[0], best[1], leaves


def front_end(field: Field, pi: np.ndarray):
    """(z, lam, mins, weight of z) of a float64 pi, one step at a time: z the
    columnwise argmax, lam[d-1][j] = pi[z_j][j] - pi[z_j - d][j] with z_j - d
    taken by Field.sub, mins = lam.min(axis=0), and the weight of z as
    SoftWeights.pattern_weight sums an error vector."""
    q, n = pi.shape
    z = tuple(int(np.argmax(pi[:, j])) for j in range(n))
    lam = np.array([[pi[z[j], j] - pi[field.sub(z[j], d), j] for j in range(n)]
                    for d in range(1, q)])
    mins = tuple(float(lam[:, j].min()) for j in range(n))
    return z, lam, mins, math.fsum([float(lam[zj - 1, j]) for j, zj in enumerate(z) if zj])


def save_pi(path: str, pi: np.ndarray) -> None:
    """First line "q n", then q rows of n reals."""
    q, n = pi.shape
    with open(path, "w") as fh:
        fh.write(f"{q} {n}\n")
        for row in pi:
            fh.write(" ".join(f"{v:.6g}" for v in row) + "\n")


def traced(code: CodeParams, pi: np.ndarray,
           cfg: DecoderConfig | None = None) -> tuple[DecodeResult, list[str]]:
    lines: list[str] = []
    res = tcgs_decode(code, pi, cfg, trace=lines)
    return res, lines
