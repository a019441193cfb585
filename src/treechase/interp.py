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
                  minimal basis element: the error locator q1's roots among
                  the nodes, one synthetic division of q0 per root, and
                  Forney's formula for the codeword at each root

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
off that element instead of re-encoding the message.  interpolate takes the
hard decision as the front end's argmax array, which poly_combine indexes
as it is.

A basis owns its point set, the mapping x -> y of the word it interpolates:
a point swap names only the x it releases and the new y it constrains.

All operations are pure: they return new objects and never mutate their
inputs, so bases branched across search-tree nodes may share structure.
That is the operations' contract, not enforced: every trial builds the
records, so they are slotted dataclasses and not frozen ones, whose
constructor costs about twice as much, and they hold the lists the galois
kernels return, uncopied, the same list often in several bases.  A caller
that mutated one would change every basis that shares it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import Field, lagrange_table


@dataclass(slots=True)
class BivarPoly:
    """q0(x) + q1(x) * y: coefficient lists, low degree first, trimmed (no
    trailing zeros), as the galois kernels return them."""

    q0: list[int]
    q1: list[int]


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
    return mu, BivarPoly(submul(P[nu].q0, P[mu].q0, ratio), submul(P[nu].q1, P[mu].q1, ratio))


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
    M = BivarPoly(field.poly_mul_linear(P[mu].q0, x), field.poly_mul_linear(P[mu].q1, x))
    return GroebnerBasis(field, k, (M, R) if mu == 0 else (R, M), {**basis.points, x: y})


def backward_remove(basis: GroebnerBasis, x: int) -> GroebnerBasis:
    """Release the constraint at x, enlarging the module by one point.

    The y-parts (P0.q1(x), P1.q1(x)) are never both zero at an interpolated x:
    y - R_S, with R_S the interpolant of the points S, lies in the module and
    has q1 = 1, so 1 is an F[x]-combination of P0.q1 and P1.q1.  The
    eliminated element has q1(x) = 0, and q0(x) = 0 since it vanishes at
    (x, y), so both its parts divide by the linear factor at x with
    remainder 0 (Field.poly_synth_div).  Both RuntimeErrors below therefore
    flag a basis that is not a basis of the module.
    """
    field, k = basis.field, basis.k
    if x not in basis.points:
        raise ValueError(f"x = {x} not interpolated")
    P = basis.polys
    e = (field.poly_eval(P[0].q1, x), field.poly_eval(P[1].q1, x))
    if e == (0, 0):
        raise RuntimeError("degenerate basis: no y-part is nonzero at the removed x")
    mu, R = _eliminate(basis, e)
    (q0, rem0, _), (q1, rem1, _) = field.poly_synth_div(R.q0, x), field.poly_synth_div(R.q1, x)
    if rem0 or rem1:
        raise RuntimeError("inexact division by linear factor")
    R = BivarPoly(q0, q1)
    points = basis.points.copy()
    del points[x]
    return GroebnerBasis(field, k, (P[mu], R) if mu == 0 else (R, P[mu]), points)


def factorize(basis: GroebnerBasis, xs) -> tuple[list[int], tuple[int, ...]] | None:
    """Message u = -q0/q1 of the minimal basis element, and its codeword at
    the interpolated nodes xs (every x of basis.points), if the message exists.

    The minimal element is the one of least (1, k-1)-weighted degree (element
    0 on ties).  It yields u (a coefficient list, possibly empty, meaning the
    zero message) when q1 divides q0 exactly and the quotient has degree < k;
    otherwise factorize returns None.  Element 0 leads y-free, so its degree
    check always rejects it: only element 1 is read, and only when it is
    minimal; a quotient of degree >= k is rejected from the degrees alone.

    q1 is the error locator.  If u exists, Lambda*(y - u), with Lambda the
    product of (x - x_j) over the nodes where y_j != u(x_j), lies in the
    module, and every a*(y - u) in it has Lambda | a; element 1 is minimal, so
    q1 = lead*Lambda: it has deg q1 distinct roots r_1..r_e among the nodes.
    A linear q1's root is read in closed form; any other q1 is evaluated at
    every node (one poly_evals pass).  Fewer distinct node roots than deg q1
    mean no message.  Q_0 = -q0/lead is then divided by each (x - r_i) in
    turn (Field.poly_synth_div), every remainder 0, else no message:
    Q_i = u*prod_{j>i} (x - r_j), so Q_e = u with no general division, and
    the quotient's value Q_i(r_i), the kernel's second Horner accumulator,
    gives the codeword at the root as in Forney's formula,
    u(r_i) = Q_i(r_i) / prod_{j>i} (r_i - r_j), with no evaluation of u.
    Elsewhere c_j is y_j, since q1(x_j)*(y_j - u(x_j)) = 0.
    """
    field, k, (P0, P) = basis.field, basis.k, basis.polys
    q1 = P.q1
    e = len(q1) - 1
    if len(P0.q0) <= e + k or len(P.q0) - e > k:
        return None
    if e == 1:
        r = field.mul(field.sub(0, q1[0]), field.inv(q1[1]))
        if r not in basis.points:
            return None
        roots = [xs.index(r)]
    elif e:
        roots = [j for j, v in enumerate(field.poly_evals(q1, xs)) if not v]
        if len(roots) < e:
            return None
    else:
        roots = []
    # -q0/lead = u * prod_i (x - r_i); after the division by (x - r_i), u times
    # the later roots' factors, whose value at r_i the Forney step divides out
    quo = field.poly_scale(P.q0, field.sub(0, field.inv(q1[-1])))
    c = list(map(basis.points.__getitem__, xs))
    for j in roots:
        quo, rem, c[j] = field.poly_synth_div(quo, xs[j])
        if rem:
            return None
    for i, j in enumerate(roots[:-1]):
        den = 1
        for later in roots[i + 1:]:
            den = field.mul(den, field.sub(xs[j], xs[later]))
        c[j] = field.mul(c[j], field.inv(den))
    return quo, tuple(c)


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
    ys = np.asarray(ys)  # the decoder's argmax array as it is; a sequence is copied
    # R - y, the interpolant's element up to the unit -1, saves negating R
    r0, s0, r1, s1 = list(N), [], field.poly_combine(log_rows, ys), [field.sub(0, 1)]
    while len(r1) > len(s1) + k - 1:  # deg r1 > deg s1 + k - 1: r1 + s1*y leads y-free
        quo, rem = field.poly_divrem(r0, r1)
        r0, s0, r1, s1 = r1, s1, rem, field.poly_submul(s0, quo, s1)
    return GroebnerBasis(field, k, (BivarPoly(r0, s0), BivarPoly(r1, s1)), dict(zip(xs, ys.tolist())))
