import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treechase.galois import BinaryField, PrimeField, lagrange_table, make_field, poly_trim
from treechase.interp import (
    BivarPoly,
    GroebnerBasis,
    backward_remove,
    bivar_eval,
    factorize,
    forward_add,
    interpolate,
)

from reference import factorize_by_division, interpolate_points, minimal, wdeg_key

GF5 = PrimeField(5)
GF7 = PrimeField(7)
GF16 = BinaryField(4)


def vanishes_everywhere(basis) -> bool:
    return all(bivar_eval(basis.field, P, x, y) == 0
               for P in basis.polys for x, y in basis.points.items())


def assert_reads_codeword(basis, xs):
    """factorize finds no message, or a degree-< k one and its values at xs."""
    found = factorize(basis, xs)
    if found is not None:
        u, c = found
        assert len(u) <= basis.k and c == tuple(basis.field.poly_evals(u, xs))


def assert_rejected(update, basis, *args):
    """update(basis, *args) raises ValueError and leaves basis as it was."""
    polys, points = basis.polys, dict(basis.points)
    with pytest.raises(ValueError):
        update(basis, *args)
    assert basis.polys == polys and basis.points == points


def leading_terms_split(basis) -> bool:
    """A well-formed basis is positional: element 0 leads y-free, element 1 with y."""
    return [wdeg_key(basis.k, P)[1] for P in basis.polys] == [0, 1]


def test_wdeg_key_orders_by_weighted_degree():
    k = 2
    assert wdeg_key(k, BivarPoly([1], [])) == (0, 0)           # 1
    assert wdeg_key(k, BivarPoly([], [1])) == (1, 1)           # y, weight k-1
    assert wdeg_key(k, BivarPoly([0, 0, 1], [])) == (2, 0)     # x^2
    # tie deg q0 = deg q1 + k - 1 resolves to the y-bearing monomial
    assert wdeg_key(k, BivarPoly([0, 1], [1])) == (1, 1)


def test_empty_interpolation_is_unit_module():
    b = interpolate_points(GF5, 2, ())
    assert b.polys[0].q0 == [1] and not b.polys[0].q1
    assert not b.polys[1].q0 and b.polys[1].q1 == [1]
    with pytest.raises(ValueError):
        interpolate_points(GF5, 0, ())


def test_forward_add_maintains_invariants_gf7():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        xs = rng.permutation(7)[:n]
        basis = interpolate_points(GF7, 3, ())
        for x in xs:
            basis = forward_add(basis, int(x), int(rng.integers(0, 7)))
            assert vanishes_everywhere(basis)
            assert leading_terms_split(basis)


def test_forward_add_rejects_duplicate_x():
    basis = interpolate_points(GF5, 2, [(0, 1), (1, 0)])
    assert_rejected(forward_add, basis, 0, 3)
    assert_rejected(forward_add, basis, 1, 0)  # the point itself


def test_backward_remove_unknown_point():
    basis = interpolate_points(GF5, 2, [(0, 1), (1, 0)])
    assert_rejected(backward_remove, basis, 2)
    assert_rejected(backward_remove, backward_remove(basis, 0), 0)  # removed already


def test_backward_remove_rejects_a_basis_that_misses_its_points():
    """Element 1 shifted by a constant no longer vanishes at the points, so
    the eliminated element's division by (x - x_j) leaves a remainder."""
    basis = interpolate_points(GF5, 2, [(0, 1), (1, 0), (2, 3)])
    P0, P1 = basis.polys
    shifted = BivarPoly(GF5.poly_submul(P1.q0, [1], [1]), P1.q1)
    broken = GroebnerBasis(GF5, 2, (P0, shifted), dict(basis.points))
    for x in basis.points:
        with pytest.raises(RuntimeError, match="inexact"):
            backward_remove(broken, x)


def test_backward_then_forward_restores_factorization():
    rng = np.random.default_rng(7)
    for trial in range(60):
        field = GF16 if trial % 2 else GF7
        q = field.q
        n = int(rng.integers(3, min(q, 9)))
        k = int(rng.integers(1, n))
        xs = tuple(int(v) for v in rng.permutation(np.arange(1, q))[:n])
        ys = [int(v) for v in rng.integers(0, q, size=n)]
        basis = interpolate_points(field, k, zip(xs, ys))
        before = factorize(basis, xs)
        j = int(rng.integers(0, n))
        removed = backward_remove(basis, xs[j])
        assert vanishes_everywhere(removed) and leading_terms_split(removed)
        restored = forward_add(removed, xs[j], ys[j])
        assert vanishes_everywhere(restored) and leading_terms_split(restored)
        assert factorize(restored, xs) == before
        assert wdeg_key(k, minimal(restored)) == wdeg_key(k, minimal(basis))


def test_factorize_reads_message_from_clean_interpolation(code54):
    # points on the curve y = u(x) factor back to u
    from treechase.rscode import encode
    u = [1, 2]
    cw = encode(code54, u)
    basis = interpolate_points(GF5, 2, zip(code54.eval_points, cw))
    assert factorize(basis, code54.eval_points) == (u, cw)


@pytest.mark.parametrize("p, m, n, k", [(5, 1, 4, 2), (7, 1, 6, 2), (2, 4, 15, 11)])
def test_factorize_reads_the_codeword_for_every_locator_degree(p, m, n, k):
    """A codeword with e <= (n - k) // 2 symbol errors: the error locator q1
    has degree e (constant, linear with its root read in closed form, or
    longer and scanned), and factorize returns the message and its encoding."""
    from treechase.rscode import encode, make_code
    code = make_code(p, m, n, k)
    field, xs = code.field, code.eval_points
    rng = np.random.default_rng(7)
    degrees = set()
    for _ in range(60):
        u = poly_trim(rng.integers(0, field.q, size=k).tolist())
        cw = encode(code, u)
        word = list(cw)
        errors = int(rng.integers(0, (n - k) // 2 + 1))
        for j in rng.choice(n, size=errors, replace=False).tolist():
            word[j] = field.add(word[j], int(rng.integers(1, field.q)))
        basis = interpolate(field, k, xs, tuple(word))
        assert factorize(basis, xs) == (u, cw)
        degrees.add(len(basis.polys[1].q1) - 1)
    assert degrees == set(range((n - k) // 2 + 1))


def test_factorize_none_when_no_root():
    # hard decision of the worked example is not a codeword: first basis pops
    # a valid u only because min-weight element divides; perturb to break it
    basis = interpolate_points(GF5, 2, [(0, 1), (1, 0), (2, 2), (3, 1)])
    found = factorize(basis, (0, 1, 2, 3))
    if found is not None:
        assert len(poly_trim(found[0])) <= 2


def test_factorize_zero_message_is_empty_list(code54):
    basis = interpolate_points(GF5, 2, zip(code54.eval_points, (0, 0, 0, 0)))
    assert factorize(basis, code54.eval_points) == ([], (0, 0, 0, 0))


def test_degree_k_quotient_rejected():
    # y values from a degree-2 polynomial with k = 2: quotient too big
    f = GF7
    coeffs = [1, 0, 1]
    pts = [(x, f.poly_eval(coeffs, x)) for x in range(7)]
    basis = interpolate_points(f, 2, pts)
    assert factorize(basis, tuple(range(7))) is None


def test_interpolate_points_equals_fold():
    pts = [(0, 1), (1, 0), (2, 2), (3, 1)]
    a = interpolate_points(GF5, 2, pts)
    b = interpolate_points(GF5, 2, ())
    for x, y in pts:
        b = forward_add(b, x, y)
    assert a.polys == b.polys and a.points == b.points


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=7,
                unique_by=lambda p: p[0]),
       st.integers(1, 4))
def test_module_membership_property(points, k):
    basis = interpolate_points(GF7, k, points)
    assert vanishes_everywhere(basis)
    assert leading_terms_split(basis)
    # weighted degrees grow by exactly one per added point in total
    total = sum(wdeg_key(k, P)[0] for P in basis.polys)
    assert total == len(points) + (k - 1)


@settings(max_examples=60)
@given(st.sampled_from([GF7, GF16]), st.data())
def test_forward_then_backward_restores_point_set(field, data):
    xs = data.draw(st.lists(st.integers(0, field.q - 1), min_size=2, max_size=9, unique=True))
    ys = data.draw(st.lists(st.integers(0, field.q - 1), min_size=len(xs), max_size=len(xs)))
    k = data.draw(st.integers(1, len(xs) - 1))
    basis = interpolate_points(field, k, zip(xs[:-1], ys[:-1]))
    added = forward_add(basis, xs[-1], ys[-1])
    assert vanishes_everywhere(added) and leading_terms_split(added)
    removed = backward_remove(added, xs[-1])
    assert removed.points == basis.points
    assert vanishes_everywhere(removed)
    assert leading_terms_split(removed)


@settings(max_examples=120)
@given(st.sampled_from([GF5, GF7, GF16, BinaryField(8)]), st.integers(1, 5), st.data())
def test_random_walk_keeps_update_preconditions(field, k, data):
    """Random forward_add / backward_remove walks from the empty basis over up to 12
    distinct x.  At a new x the discrepancies are never both zero (the y-free
    product of (x - x_j) lies in the module), which is why forward_add has no
    all-vanishing branch; at an interpolated x the y-parts are never both zero
    (y - R_S lies in the module and has q1 = 1), so backward_remove never raises.
    After every update the basis holds the walked word, keeps its y-free
    leader in slot 0, and factorize reads a codeword that agrees with its
    message."""
    pool = data.draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=12, unique=True))
    basis, word = interpolate_points(field, k, ()), {}
    for _ in range(data.draw(st.integers(1, 30))):
        fresh = [x for x in pool if x not in word]
        if fresh and (not word or data.draw(st.booleans())):
            x, y = data.draw(st.sampled_from(fresh)), data.draw(st.integers(0, field.q - 1))
            assert tuple(bivar_eval(field, P, x, y) for P in basis.polys) != (0, 0)
            basis = forward_add(basis, x, y)
            word[x] = y
        else:
            x = data.draw(st.sampled_from(sorted(word)))
            basis = backward_remove(basis, x)
            del word[x]
        assert basis.points == word
        assert vanishes_everywhere(basis) and leading_terms_split(basis)
        assert_reads_codeword(basis, tuple(word))
        for x in word:
            assert tuple(field.poly_eval(P.q1, x) for P in basis.polys) != (0, 0)


# --- interpolate: the closed form of the fold, {N, y - R} reduced ---

CLOSED_FORM_FIELDS = [GF5, GF7, GF16, BinaryField(8)]


def proportional(field, P, Q) -> bool:
    """P = c*Q for some nonzero c."""
    c = field.mul((P.q1 or P.q0)[-1], field.inv((Q.q1 or Q.q0)[-1]))
    return c != 0 and [field.poly_scale(Q.q0, c), field.poly_scale(Q.q1, c)] == [P.q0, P.q1]


def assert_same_module(got, ref):
    """Two Groebner bases of one module: vanishing, positional, equal leading
    terms, the minimal element unique up to a nonzero scalar, and so one
    factorization."""
    k = got.k
    assert vanishes_everywhere(got) and vanishes_everywhere(ref)
    assert leading_terms_split(got) and leading_terms_split(ref)
    assert sorted(wdeg_key(k, P) for P in got.polys) == sorted(wdeg_key(k, P) for P in ref.polys)
    assert proportional(got.field, minimal(got), minimal(ref))
    xs = tuple(got.points)
    assert factorize(got, xs) == factorize(ref, xs)


@st.composite
def interpolation_problems(draw):
    """(field, k, xs, ys): random values, or a degree-< k curve with a few
    errors, so that factorize finds a message on some draws."""
    field = draw(st.sampled_from(CLOSED_FORM_FIELDS))
    xs = draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=min(field.q, 20),
                       unique=True))
    k = draw(st.integers(1, len(xs)))
    value = st.integers(0, field.q - 1)
    if draw(st.booleans()):
        ys = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    else:
        u = draw(st.lists(value, min_size=k, max_size=k))
        errors = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
        keep = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
        ys = [field.add(field.poly_eval(u, x), 0 if kept else e)
              for x, e, kept in zip(xs, errors, keep)]
    return field, k, tuple(xs), ys


@settings(max_examples=200)
@given(interpolation_problems(), st.data())
def test_interpolate_matches_fold(problem, data):
    """interpolate and the fold of forward_add from {1, y} give bases of one
    module, and keep doing so along a random walk of one-point swaps, each
    basis holding the walked word and reading a codeword of its message."""
    field, k, xs, ys = problem
    got, ref = interpolate(field, k, xs, ys), interpolate_points(field, k, zip(xs, ys))
    word = dict(zip(xs, ys))
    assert (got.field, got.k, got.points) == (ref.field, ref.k, word)
    assert leading_terms_split(got)  # y-free leader first
    assert_same_module(got, ref)
    assert_reads_codeword(got, xs)
    for _ in range(data.draw(st.integers(0, 8))):
        x = data.draw(st.sampled_from(xs))
        word[x] = data.draw(st.integers(0, field.q - 1))
        got = forward_add(backward_remove(got, x), x, word[x])
        ref = forward_add(backward_remove(ref, x), x, word[x])
        assert got.points == ref.points == word
        assert_same_module(got, ref)
        assert_reads_codeword(got, xs)


EDGE_CASE_FIELDS = ([make_field(p) for p in (2, 3, 5, 7, 257)]
                    + [make_field(2, m) for m in (2, 4, 8)])


@pytest.mark.parametrize("field", EDGE_CASE_FIELDS, ids=repr)
def test_interpolate_edge_cases(field):
    n = min(field.q, 6)
    cases = [[(0, 0)], [(1, field.q - 1)],      # one point
             [(x, 0) for x in range(n)],        # all-zero values: R = 0
             [(x, 1) for x in range(n)],        # constant values
             [(x, x) for x in range(n - 1, -1, -1)]]
    for points in cases:
        xs, ys = zip(*points)
        for k in range(1, len(points) + 1):
            assert_same_module(interpolate(field, k, xs, ys), interpolate_points(field, k, points))


def test_interpolate_rejects_bad_points():
    with pytest.raises(ValueError):
        interpolate(GF7, 2, (), ())
    for xs, ys in (((0, 4), (1,)), ((0,), (1, 2)), ((), (1,))):  # a value per node
        with pytest.raises(ValueError):
            interpolate(GF7, 2, xs, ys)
    with pytest.raises(ValueError):
        interpolate(GF7, 2, (0, 4, 0), (1, 2, 3))
    for _ in range(2):  # the Lagrange table's cache keeps no exception: each call raises
        with pytest.raises(ValueError):
            interpolate(GF16, 1, (5, 5), (1, 1))


# --- purity: bases share their coefficient lists, so no operation mutates them ---

def assert_holds_trimmed_lists(basis, N):
    """Every part of every element is a trimmed list, and none is N."""
    for part in (part for P in basis.polys for part in (P.q0, P.q1)):
        assert type(part) is list and part == poly_trim(list(part)) and part is not N


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([GF5, GF16, BinaryField(8)]), st.data())
def test_no_operation_mutates_its_inputs(field, data):
    """The records hold the lists the kernels return, and a basis shares them
    with the bases derived from it, across search-tree branches.  interpolate
    never hands out lagrange_table's cached N and leaves it as it was; along
    a walk of point swaps, factorize, backward_remove and forward_add each
    leave their input basis equal to a deep copy taken before the call; every
    polynomial a basis holds is a trimmed list; and factorize's message, which
    a decode result hands to its caller, is none of them."""
    value = st.integers(0, field.q - 1)
    xs = tuple(data.draw(st.lists(value, min_size=2, max_size=min(field.q, 16), unique=True)))
    k = data.draw(st.integers(1, len(xs) - 1))
    ys = data.draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    N = lagrange_table(field, xs)[1]
    N_before, ys_before = copy.deepcopy(N), list(ys)
    basis = interpolate(field, k, xs, ys)
    assert ys == ys_before
    for _ in range(data.draw(st.integers(1, 8))):
        assert_holds_trimmed_lists(basis, N)
        before = copy.deepcopy((basis.polys, basis.points))
        found = factorize(basis, xs)
        assert (basis.polys, basis.points) == before
        if found is not None:
            assert all(found[0] is not part for P in basis.polys for part in (P.q0, P.q1))
        x = data.draw(st.sampled_from(xs))
        removed = backward_remove(basis, x)
        assert (basis.polys, basis.points) == before
        assert_holds_trimmed_lists(removed, N)
        before = copy.deepcopy((removed.polys, removed.points))
        basis = forward_add(removed, x, data.draw(value))
        assert (removed.polys, removed.points) == before
    assert_holds_trimmed_lists(basis, N)
    assert lagrange_table(field, xs)[1] is N and N == N_before


# --- factorize: the error locator's roots against one general division ---

REFERENCE_FIELDS = [GF5, GF7, BinaryField(3), GF16, BinaryField(8)]


@st.composite
def decoding_problems(draw):
    """(field, k, xs, word): n distinct nodes, a codeword of a message of
    degree < k (often the zero message) and 0..n-k symbol errors."""
    field = draw(st.sampled_from(REFERENCE_FIELDS))
    value = st.integers(0, field.q - 1)
    n = draw(st.integers(2, min(field.q, 16)))
    xs = tuple(draw(st.lists(value, min_size=n, max_size=n, unique=True)))
    k = draw(st.integers(1, n - 1))
    u = draw(st.one_of(st.just([]), st.lists(value, min_size=k, max_size=k)))
    word = field.poly_evals(u, xs)
    for j in draw(st.permutations(range(n)))[:draw(st.integers(0, n - k))]:
        word[j] = field.add(word[j], draw(st.integers(1, field.q - 1)))
    return field, k, xs, word


@settings(max_examples=300, deadline=None)
@given(decoding_problems(), st.data())
def test_factorize_equals_the_division(problem, data):
    """factorize returns exactly the (u, c) of one general division of q0 by
    q1, or None where it finds none: on the closed-form basis of a word with
    0..n-k errors and on every basis of a random walk of point swaps from it."""
    field, k, xs, word = problem
    basis = interpolate(field, k, xs, word)
    assert factorize(basis, xs) == factorize_by_division(basis, xs)
    for _ in range(data.draw(st.integers(0, 8))):
        x = data.draw(st.sampled_from(xs))
        basis = forward_add(backward_remove(basis, x), x, data.draw(st.integers(0, field.q - 1)))
        assert factorize(basis, xs) == factorize_by_division(basis, xs)


def locator_cases(basis, xs) -> set[str]:
    """The cases of factorize's root logic a basis reaches (none when the
    degree checks reject it first)."""
    field, k, (P0, P) = basis.field, basis.k, basis.polys
    q1 = P.q1
    if len(P0.q0) < len(q1) + k or len(P.q0) - len(q1) >= k:
        return set()
    cases = {"zero q0"} if not P.q0 else set()
    node_roots = sum(not v for v in field.poly_evals(q1, xs))
    if len(q1) == 1:
        cases.add("constant q1")
    elif len(q1) == 2 and not node_roots:
        cases.add("linear q1, root not a node")
    elif len(q1) == 3 and field.p == 2 and not q1[1]:
        cases.add("repeated root")
    if node_roots < len(q1) - 1:
        cases.add("fewer node roots than deg q1")
    return cases


def test_factorize_covers_every_locator_case():
    """Seeded words with 0..n-k errors, and swap walks from them, reach each
    case of the root logic (the zero message, a constant q1, a linear q1 whose
    root is no node, a repeated root in characteristic 2, fewer node roots than
    deg q1), and factorize agrees with the division on every basis."""
    from treechase.rscode import make_code
    seen: set[str] = set()
    for p, m, n, k in [(7, 1, 6, 2), (2, 3, 7, 3), (2, 4, 15, 11), (2, 4, 12, 4)]:
        code = make_code(p, m, n, k)
        field, xs = code.field, code.eval_points
        rng = np.random.default_rng(n * 10 + k)
        for _ in range(300):
            u = [] if rng.random() < 0.3 else rng.integers(0, field.q, size=k).tolist()
            word = field.poly_evals(u, xs)
            for j in rng.permutation(n)[:rng.integers(0, n - k + 1)].tolist():
                word[j] = field.add(word[j], int(rng.integers(1, field.q)))
            basis = interpolate(field, k, xs, word)
            for step in range(4):
                if step:
                    x = xs[int(rng.integers(0, n))]
                    basis = forward_add(backward_remove(basis, x), x, int(rng.integers(0, field.q)))
                assert factorize(basis, xs) == factorize_by_division(basis, xs)
                seen |= locator_cases(basis, xs)
    assert seen == {"zero q0", "constant q1", "linear q1, root not a node", "repeated root",
                    "fewer node roots than deg q1"}
