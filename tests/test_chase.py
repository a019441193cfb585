import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from treechase.channel import soft_weights
from treechase.chase import (
    bound_B,
    build_atom_chain,
    kaneko_B0,
    leftmost_child,
    next_sibling,
    render_pattern,
)
from treechase.galois import PrimeField

from conftest import fields_and_pis, random_lam, weights_of
from reference import codebook, minimal_decompose, pattern_from_ranks, rank_of

GF5 = PrimeField(5)


def chain_from_lam(lam: np.ndarray):
    qm1, n = lam.shape
    return build_atom_chain(weights_of(lam))


@pytest.fixture(scope="module")
def ex_chain(example1_pi):
    return build_atom_chain(soft_weights(GF5, example1_pi))


def ranks_of(chain, atoms):
    return [rank_of(chain)[a] for a in atoms]


def coords_of(chain, f):
    return {chain.coords[r] for r in f}


def weight_of(chain, f):
    """A pattern's weight, one correctly rounded sum as bound_B takes it."""
    return math.fsum(chain.weights[r] for r in f)


def test_chain_matches_printed_order(ex_chain):
    printed = [(3, 2), (1, 3), (3, 3), (2, 2), (1, 2), (0, 2), (3, 1), (1, 4),
               (2, 3), (3, 4), (1, 1), (0, 3), (0, 1), (2, 4), (0, 4), (2, 1)]
    got = [ex_chain.atom(r) for r in range(ex_chain.size)]
    assert got == printed
    assert list(ex_chain.weights) == sorted(ex_chain.weights)


def lexsort_atoms(lam: np.ndarray) -> list[tuple[int, int, float]]:
    """Reference chain of weights_of(lam): (coord, delta, weight) sorted by the
    three keys weight, coord, symbol, where the atom (j, d) changes z_j = 0 to
    the symbol -d mod q."""
    qm1, n = lam.shape
    flat = np.arange(qm1 * n)
    order = np.lexsort((-(flat // n + 1) % (qm1 + 1), flat % n, lam.ravel()))
    return [(int(i % n), int(i // n) + 1, float(lam.ravel()[i])) for i in order]


@st.composite
def weight_tables(draw):
    """(q-1, n) tables of real weights, or of a few integer levels so that atoms tie."""
    shape = (draw(st.integers(1, 15)), draw(st.integers(1, 20)))
    levels = draw(st.sampled_from([st.floats(0.0, 3.0),
                                   st.integers(0, 3).map(float),
                                   st.integers(0, 1).map(float)]))
    return draw(hnp.arrays(np.float64, shape, elements=levels))


@settings(max_examples=300, deadline=None)
@given(weight_tables())
def test_atom_order_equals_three_key_lexsort(lam):
    chain = chain_from_lam(lam)
    ref = lexsort_atoms(lam)
    assert list(chain.coords) == [c for c, _, _ in ref]
    assert list(chain.weights) == [w for _, _, w in ref]
    assert [chain.atom(r) for r in range(chain.size)] == [(c, d) for c, d, _ in ref]
    assert all(rank_of(chain)[(c, d)] == r for r, (c, d, _) in enumerate(ref))


def test_chain_rejects_negative_weights():
    lam = np.array([[0.5, -0.1], [0.2, 0.3]])
    with pytest.raises(ValueError):
        chain_from_lam(lam)


def test_chain_tie_break_is_coordinate_then_symbol():
    """About z = 0 in GF(3) the atom (j, 2) changes z_j to 1 and (j, 1) to 2."""
    lam = np.array([[0.5, 0.5], [0.5, 0.5]])
    chain = chain_from_lam(lam)
    assert [chain.atom(r) for r in range(4)] == [(0, 2), (0, 1), (1, 2), (1, 1)]


@settings(max_examples=300, deadline=None)
@given(fields_and_pis())
def test_chain_is_the_three_key_lexsort_of_W(case):
    """The chain of soft_weights is W's entries off z sorted by weight, coord,
    symbol, with real pi and with pi on a few levels, whose columns tie."""
    field, pi = case
    sw = soft_weights(field, pi)
    q, n = sw.W.shape
    v, j = np.divmod(np.arange(q * n), n)  # W.ravel() is symbol-major
    w = sw.W.ravel()
    ref = [i for i in np.lexsort((v, j, w)).tolist() if v[i] != sw.z[j[i]]]
    assert sw.coords == j[ref].tolist()
    assert sw.weights == w[ref].tolist()
    assert [sw.atom(r) for r in range(sw.size)] == [
        (int(j[i]), field.sub(sw.z[j[i]], int(v[i]))) for i in ref]


def test_greedy_examples_from_worked_trace(ex_chain):
    """The greedy completion is B(f) at t_min = 1 less B(f) at t_min = 0, the
    weight of f."""
    f1 = pattern_from_ranks(ex_chain, ranks_of(ex_chain, [(3, 2)]))
    assert bound_B(ex_chain, f1, 0) == weight_of(ex_chain, f1)
    assert bound_B(ex_chain, f1, 1) - bound_B(ex_chain, f1, 0) == pytest.approx(0.09, abs=5e-3)
    f3 = pattern_from_ranks(ex_chain, ranks_of(ex_chain, [(3, 3)]))
    assert bound_B(ex_chain, f3, 1) - bound_B(ex_chain, f3, 0) == pytest.approx(0.15, abs=5e-3)
    assert bound_B(ex_chain, (), 0) == 0.0


def test_bound_examples_from_worked_trace(ex_chain):
    cases = [
        ([(3, 2)], 0.12),
        ([(1, 3)], 0.20),
        ([(3, 3)], 0.26),
        ([(3, 3), (2, 2)], 0.48),
        ([(1, 3), (2, 2)], 0.49),
    ]
    for atoms, expected in cases:
        f = pattern_from_ranks(ex_chain, ranks_of(ex_chain, atoms))
        assert bound_B(ex_chain, f, 1) == pytest.approx(expected, abs=5e-3)


def test_greedy_runs_out_returns_inf(ex_chain):
    last = pattern_from_ranks(ex_chain, (15,))
    assert bound_B(ex_chain, last, 1) == math.inf


def test_leftmost_child_and_sibling_examples(ex_chain):
    c0 = leftmost_child(ex_chain, ())
    assert [ex_chain.atom(r) for r in c0] == [(3, 2)]
    c1 = leftmost_child(ex_chain, c0)
    assert [ex_chain.atom(r) for r in c1] == [(3, 2), (1, 3)]
    s1 = next_sibling(ex_chain, c0)
    assert [ex_chain.atom(r) for r in s1] == [(1, 3)]
    s2 = next_sibling(ex_chain, s1)
    assert [ex_chain.atom(r) for r in s2] == [(3, 3)]
    deep = pattern_from_ranks(ex_chain, ranks_of(ex_chain, [(3, 3), (2, 2)]))
    s3 = next_sibling(ex_chain, deep)
    assert [ex_chain.atom(r) for r in s3] == [(3, 3), (1, 2)]


def test_sibling_of_root_raises(ex_chain):
    with pytest.raises(ValueError):
        next_sibling(ex_chain, ())


def test_next_sibling_bound_is_one_correctly_rounded_sum():
    """A bound is math.fsum of its atom weights, whatever order a scan meets them
    in.  These weights tell that apart from a left-to-right sum: the sibling
    (0.1, 0.2, 0.3, 0.6) sums to 1.2000000000000002 left to right, but its exact
    sum rounds to 1.2.  The full pattern of [0.2, 0.3, 0.1] sums to 0.6 in
    coordinate order and to 0.6000000000000001 in rank order; its bound is the
    pattern weight the decoder compares it with."""
    chain = chain_from_lam(np.array([[0.1, 0.2, 0.3, 0.4, 0.6]]))
    f = ()
    for _ in range(4):
        f = leftmost_child(chain, f)
    assert f == (0, 1, 2, 3)
    sib = next_sibling(chain, f)
    assert sib == (0, 1, 2, 4)
    assert ((0.1 + 0.2) + 0.3) + 0.6 != 1.2  # the two sums differ here
    assert bound_B(chain, sib, 0) == math.fsum([0.1, 0.2, 0.3, 0.6]) == 1.2
    lam = np.array([[0.2, 0.3, 0.1]])
    assert (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1
    assert bound_B(chain_from_lam(lam), (0, 1, 2), 0) == weights_of(lam).pattern_weight((1, 1, 1))


def test_child_none_when_all_coordinates_used():
    lam = np.array([[0.1, 0.2]])  # q = 2, n = 2
    chain = chain_from_lam(lam)
    full = pattern_from_ranks(chain, (0, 1))
    assert leftmost_child(chain, full) is None


def test_pattern_from_ranks_rejects_coordinate_clash(ex_chain):
    r1 = rank_of(ex_chain)[(3, 2)]
    r2 = rank_of(ex_chain)[(3, 3)]
    with pytest.raises(ValueError):
        pattern_from_ranks(ex_chain, (r1, r2))


def b0_by_chain_scan(chain, e, d_min):
    """Reference floor: scan the fully sorted atom chain from rank 0."""
    taken = {j for j, v in enumerate(e) if v}
    need = d_min - len(taken)
    if need <= 0:
        return 0.0
    picked = []
    for c, w in zip(chain.coords, chain.weights):
        if c in taken:
            continue
        taken.add(c)
        picked.append(w)
        if len(picked) == need:
            return math.fsum(picked)
    return math.inf


@pytest.mark.parametrize("quantized", [False, True])
def test_kaneko_floor_equals_chain_scan(quantized):
    """Bit for bit, on every branch: need = d_min - wt(e) <= 0 (floor 0), need
    more than the coordinates left (floor +inf), and a sum in between."""
    rng = np.random.default_rng(13)
    branches = {"none needed": 0, "too few left": 0, "sum": 0}
    for _ in range(60):
        n, q = int(rng.integers(1, 9)), int(rng.choice([2, 3, 5, 8]))
        if quantized:  # few levels, so weights tie within and across coordinates
            lam = rng.integers(0, 3, size=(q - 1, n)).astype(np.float64)
        else:
            lam = random_lam(n, q, rng)
        chain, ref = chain_from_lam(lam), chain_from_lam(lam.copy())
        for size in range(n + 1):
            support = rng.permutation(n)[:size]
            e = [0] * n
            for j in support:
                e[j] = int(rng.integers(1, q))
            for d_min in range(0, n + 3):
                b0 = kaneko_B0(chain, e, d_min)
                assert b0 == b0_by_chain_scan(ref, e, d_min)
                need = d_min - size
                if need <= 0:
                    branches["none needed"] += 1
                    assert b0 == 0.0
                elif need > n - size:
                    branches["too few left"] += 1
                    assert b0 == math.inf
                else:
                    branches["sum"] += 1
        assert not {"_order", "coords", "weights"} & set(vars(chain))
    assert min(branches.values()) > 0


def test_kaneko_examples(ex_chain):
    assert kaneko_B0(ex_chain, (0, 1, 0, 0), 3) == pytest.approx(0.18, abs=5e-3)
    assert kaneko_B0(ex_chain, (0, 0, 3, 2), 3) == pytest.approx(0.09, abs=5e-3)
    assert kaneko_B0(ex_chain, (0, 2, 2, 3), 3) == 0.0
    assert kaneko_B0(ex_chain, (1, 1, 1, 0), 3) == 0.0


def test_minimal_decompose_identity_and_boundary(ex_chain):
    f, g = minimal_decompose(ex_chain, (0, 2, 2, 3), 1)
    assert len(g) == 1 and not (coords_of(ex_chain, f) & coords_of(ex_chain, g))
    assert f[-1] < g[0]
    recombined = sorted(ex_chain.atom(r) for r in f + g)
    assert recombined == [(1, 2), (2, 2), (3, 3)]
    f0, g0 = minimal_decompose(ex_chain, (0, 0, 0, 2), 1)
    assert f0 == () and len(g0) == 1
    with pytest.raises(ValueError):
        minimal_decompose(ex_chain, (0, 0, 0, 0), 1)


def enumerate_completions(chain, f, t_min):
    """The least weight of f plus a weight-t_min completion further down the
    chain (brute force over every completion)."""
    eligible = [r for r in range((f[-1] + 1) if f else 0, chain.size)
                if chain.coords[r] not in coords_of(chain, f)]
    best = math.inf
    for combo in itertools.combinations(eligible, t_min):
        cs = [chain.coords[r] for r in combo]
        if len(set(cs)) != t_min:
            continue
        best = min(best, weight_of(chain, f + combo))
    return best


def test_greedy_equals_exhaustive_small_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 7))
        q = int(rng.integers(3, 8))
        t_min = int(rng.integers(1, 3))
        chain = chain_from_lam(random_lam(n, q, rng))
        size = chain.size
        start = int(rng.integers(0, size))
        ranks = []
        coords = set()
        for r in range(start, size):
            if chain.coords[r] not in coords and rng.random() < 0.4:
                ranks.append(r)
                coords.add(chain.coords[r])
                if len(ranks) >= 2:
                    break
        f = pattern_from_ranks(chain, ranks)
        assert bound_B(chain, f, t_min) == enumerate_completions(chain, f, t_min)
        checked += 1


def test_bound_monotone_under_tree_moves():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        q = int(rng.integers(3, 8))
        t_min = int(rng.integers(1, 3))
        chain = chain_from_lam(random_lam(n, q, rng))
        r = int(rng.integers(0, chain.size))
        f = pattern_from_ranks(chain, (r,))
        b = bound_B(chain, f, t_min)
        child = leftmost_child(chain, f)
        if child is not None:
            assert b <= bound_B(chain, child, t_min)
        sib = next_sibling(chain, f)
        if sib is not None:
            assert b <= bound_B(chain, sib, t_min)


def test_bound_soundness_exhaustive_gf5(code54):
    rng = np.random.default_rng(8)
    sw = weights_of(random_lam(4, 5, rng))
    chain = build_atom_chain(sw)
    t_min = code54.t_min
    for _, cw in codebook(code54):
        e = tuple(code54.field.sub(0, c) for c in cw)  # z = 0
        if sum(1 for v in e if v) < t_min:
            continue
        f, _ = minimal_decompose(chain, e, t_min)
        assert sw.pattern_weight(e) >= bound_B(chain, f, t_min)


def test_pattern_order_keys(ex_chain):
    """The frontier orders patterns by (bound, len, ranks)."""
    def key(bound, f):
        return (bound, len(f), f)

    a = pattern_from_ranks(ex_chain, (0,))
    b = pattern_from_ranks(ex_chain, (1,))
    ka, kb = (key(bound_B(ex_chain, f, 1), f) for f in (a, b))
    assert ka < kb      # 0.12 < 0.20
    assert not ka < ka  # irreflexive
    # same bound: shorter pattern first, then leftmost ranks
    k1 = key(0.5, pattern_from_ranks(ex_chain, (0,)))
    k2 = key(0.5, pattern_from_ranks(ex_chain, (0, 1)))
    assert k1 < k2
    k3 = key(0.5, pattern_from_ranks(ex_chain, (1,)))
    assert k1 < k3


def test_render_pattern(ex_chain):
    assert render_pattern(ex_chain, ()) == "0"
    f = pattern_from_ranks(ex_chain, (0, 3))
    assert render_pattern(ex_chain, f) == "(3,2)+(2,2)"
