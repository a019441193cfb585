"""Incremental bivariate interpolation for multiplicity-1 list decoding.

The decoder maintains a two-element Groebner basis {Q0, Q1} of the module of
polynomials q0(x) + q1(x)*y that vanish on a set of points (x_j, y_j) with
distinct x coordinates, with deg_y <= 1.  Polynomials are ordered by
(1, k-1)-weighted degree, ties broken in favour of the y-bearing leading
monomial.  The basis is positional: element 0 leads y-free and element 1
leads with y, so their weighted degrees are len(P0.q0) - 1 and
len(P1.q1) + k - 2.  interpolate returns the y-free leader first, and every
update keeps each element's leading term in its slot: an element multiplied
or divided by (x - x_j) keeps its leading position, and one that has a
multiple of the lower-order element subtracted keeps its own leader, which
sits in the other position and so is higher.

Three point operations keep the basis updated in O(n) per call:

  forward_add     adjoin one interpolation point (Koetter's update)
  backward_remove delete one interpolation point (division update)
  factorize       read a degree-< k message and its codeword off the
                  minimal basis element

Both point updates are one elimination step (_eliminate) over the elements'
discrepancies at x_j: forward_add multiplies the lower-order element by
(x - x_j), backward_remove divides the eliminated one by it.

A decode starts from interpolate, which builds the basis for all n points of
the hard decision in closed form.  The module is spanned by N = prod (x - x_j)
and y - R, R the interpolant of degree < n (galois.lagrange_table); cancelling
the leading terms of these two against each other until they sit in
different positions (one y-free, one y-bearing) leaves a Groebner basis of
the module, the reduction of Gao (2003) and Alekhnovich (2005): one
poly_divrem per pass, and one poly_submul for the y-parts' co-factor.  Its
minimal element equals that of the fold of forward_add from {1, y} up to a
nonzero scalar, so factorize reads the same message off it, and off every
basis the point updates derive from it; factorize also reads the codeword
off that element instead of re-encoding the message.

A basis owns its point set, the mapping x -> y of the word it interpolates:
a point swap names only the x it releases and the new y it constrains.

All operations are pure: they return new objects and never mutate their
inputs, so bases branched across search-tree nodes may share structure.
That is the operations' contract, not enforced: every trial builds the
records, so they are slotted dataclasses and not frozen ones, whose
constructor costs about twice as much.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import Field, lagrange_table


@dataclass(slots=True)
class BivarPoly:
    """q0(x) + q1(x) * y with list coefficients, low degree first."""

    q0: tuple[int, ...]
    q1: tuple[int, ...]


def bivar_eval(field: Field, P: BivarPoly, x: int, y: int) -> int:
    return field.add(field.poly_eval(P.q0, x), field.mul(y, field.poly_eval(P.q1, x)))


@dataclass(slots=True)
class GroebnerBasis:
    field: Field
    k: int
    polys: tuple[BivarPoly, BivarPoly]
    points: dict[int, int]  # x -> y; never mutated, so bases may share it


def _eliminate(basis: GroebnerBasis, d: tuple[int, int]) -> tuple[int, BivarPoly]:
    """One Koetter elimination step over the discrepancies d = (d0, d1).

    mu is the lower-order element among those with d[mu] != 0 (element 0,
    whose leader is y-free, when the weighted degrees tie); R = P[nu] -
    (d[nu]/d[mu])*P[mu] is the other element with its discrepancy cancelled,
    one multiply-subtract per part (P[nu] itself when d[nu] is already 0).
    Koetter's d[mu]*P[nu] - d[nu]*P[mu] is d[mu]*R: every element is kept
    only up to a unit, which changes no leading term, root or message
    u = -q0/q1.
    """
    field, k, P = basis.field, basis.k, basis.polys
    mu = 0 if d[0] and (not d[1] or len(P[0].q0) < len(P[1].q1) + k) else 1
    nu = 1 - mu
    if not d[nu]:
        return mu, P[nu]
    ratio = [field.mul(d[nu], field.inv(d[mu]))]
    submul = field.poly_submul
    return mu, BivarPoly(tuple(submul(P[nu].q0, P[mu].q0, ratio)),
                         tuple(submul(P[nu].q1, P[mu].q1, ratio)))


def forward_add(basis: GroebnerBasis, x: int, y: int) -> GroebnerBasis:
    """Koetter update: constrain the module to also vanish at (x, y).

    The discrepancies d = (P0(x, y), P1(x, y)) are never both zero at a new x:
    N_S, the product of (x - x_j) over the interpolated points, is a y-free
    element of the module, so an F[x]-combination of P0 and P1, and N_S(x) != 0.
    """
    field, k = basis.field, basis.k
    if x in basis.points:
        raise ValueError(f"x = {x} already interpolated")
    P = basis.polys
    mu, R = _eliminate(basis, (bivar_eval(field, P[0], x, y), bivar_eval(field, P[1], x, y)))
    M = BivarPoly(tuple(field.poly_mul_linear(P[mu].q0, x)),
                  tuple(field.poly_mul_linear(P[mu].q1, x)))
    return GroebnerBasis(field, k, (M, R) if mu == 0 else (R, M), {**basis.points, x: y})


def backward_remove(basis: GroebnerBasis, x: int) -> GroebnerBasis:
    """Release the constraint at x, enlarging the module by one point.

    The y-parts (P0.q1(x), P1.q1(x)) are never both zero at an interpolated x:
    y - R_S, with R_S the interpolant of the points S, lies in the module and
    has q1 = 1, so 1 is an F[x]-combination of P0.q1 and P1.q1.  The
    RuntimeError below therefore flags a basis that is not a basis of the module.
    """
    field, k = basis.field, basis.k
    if x not in basis.points:
        raise ValueError(f"x = {x} not interpolated")
    P = basis.polys
    e = (field.poly_eval(P[0].q1, x), field.poly_eval(P[1].q1, x))
    if e == (0, 0):
        raise RuntimeError("degenerate basis: no y-part is nonzero at the removed x")
    mu, R = _eliminate(basis, e)
    R = BivarPoly(tuple(field.poly_div_linear(R.q0, x)), tuple(field.poly_div_linear(R.q1, x)))
    points = basis.points.copy()
    del points[x]
    return GroebnerBasis(field, k, (P[mu], R) if mu == 0 else (R, P[mu]), points)


def factorize(basis: GroebnerBasis, xs) -> tuple[list[int], tuple[int, ...]] | None:
    """Message u = -q0/q1 of the minimal basis element, and its codeword at
    the interpolated nodes xs, if the message exists.

    The minimal element is the one of least (1, k-1)-weighted degree (element
    0 on ties).  It yields u (a coefficient list, possibly empty, meaning the
    zero message) when q1 divides q0 exactly and the quotient has degree < k;
    otherwise factorize returns None.  A quotient of degree >= k is rejected
    from the degrees alone, before dividing, and the division is by -q1, so
    the quotient is u itself.  Element 0 leads y-free, so its degree check
    always rejects it: only element 1 is read, and only when it is minimal.

    The codeword is read off the same element instead of encoding u: q0 =
    -u*q1 and the element vanishes at every point (x_j, y_j), so q1(x_j) *
    (y_j - u(x_j)) = 0.  c_j is y_j wherever q1(x_j) != 0, and u is evaluated
    only at the roots of q1, which are at most deg q1.  A constant q1 has
    none, so then c is the interpolated word; a linear one has the one root
    -q1[0]/q1[1], read in closed form and kept only when it is a node; a
    longer one is scanned at every node (poly_evals).
    """
    field, k, (P0, P) = basis.field, basis.k, basis.polys
    q1 = P.q1
    if len(P0.q0) < len(q1) + k or len(P.q0) - len(q1) >= k:
        return None
    minus_one = field.sub(0, 1)  # 1 in characteristic 2, where -q1 is q1
    u, rem = field.poly_divrem(P.q0, q1 if minus_one == 1 else field.poly_scale(q1, minus_one))
    if rem:
        return None
    c = list(map(basis.points.__getitem__, xs))
    if len(q1) == 2:
        r = field.mul(field.sub(0, q1[0]), field.inv(q1[1]))
        if r in basis.points:
            c[xs.index(r)] = field.poly_eval(u, r)
    elif len(q1) > 2:
        for j, v in enumerate(field.poly_evals(q1, xs)):
            if not v:
                c[j] = field.poly_eval(u, xs[j])
    return u, tuple(c)


def interpolate(field: Field, k: int, xs: tuple[int, ...], ys) -> GroebnerBasis:
    """The Groebner basis of the q0 + q1*y that vanish at the points (x_j, y_j)
    (xs a tuple of distinct nodes, at least one; ys as many values): {N, y - R}
    reduced under the (1, k-1) order, y-free leader first.

    While both elements lead y-free, the higher one's leading terms are
    cancelled against the lower one's by one division of their q0 parts (a
    step of Euclid's algorithm), and the two swap roles.  Each pass is
    unimodular, so the pair stays a basis of the module; once the lower
    element leads with y, the leading terms sit in different positions, which
    makes the pair a Groebner basis.
    """
    if not xs or len(xs) != len(ys):
        raise ValueError("interpolation needs at least one node and one value per node")
    log_rows, N = lagrange_table(field, xs)  # ValueError for duplicate xs
    # R - y, the interpolant's element up to the unit -1, saves negating R
    r0, s0, r1, s1 = N, [], field.poly_combine(log_rows, ys), [field.sub(0, 1)]
    while len(r1) > len(s1) + k - 1:  # deg r1 > deg s1 + k - 1: r1 + s1*y leads y-free
        quo, rem = field.poly_divrem(r0, r1)
        r0, s0, r1, s1 = r1, s1, rem, field.poly_submul(s0, quo, s1)
    return GroebnerBasis(field, k, (BivarPoly(tuple(r0), tuple(s0)),
                                    BivarPoly(tuple(r1), tuple(s1))), dict(zip(xs, ys)))
