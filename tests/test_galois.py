import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treechase.galois import (
    PRIMITIVE_POLY,
    BinaryField,
    Field,
    PrimeField,
    lagrange_table,
    make_field,
    poly_str,
    poly_trim,
)

from reference import is_prime, poly_add, poly_mul

GF5 = PrimeField(5)
GF16 = BinaryField(4)
GF64 = BinaryField(6)


def test_prime_field_matches_int_arithmetic():
    p = 7
    f = PrimeField(p)
    for a in range(p):
        for b in range(p):
            assert f.add(a, b) == (a + b) % p
            assert f.sub(a, b) == (a - b) % p
            assert f.mul(a, b) == (a * b) % p
            if b:
                assert f.mul(f.mul(a, f.inv(b)), b) == a % p


def test_prime_field_inverse_and_zero_division():
    for a in range(1, 5):
        assert GF5.mul(a, GF5.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        GF5.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF16.inv(0)


@given(st.integers(1, 15), st.integers(1, 15))
def test_gf16_inverse_and_commutativity(a, b):
    assert GF16.mul(a, GF16.inv(a)) == 1
    assert GF16.mul(a, b) == GF16.mul(b, a)


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_gf64_distributivity(a, b, c):
    lhs = GF64.mul(a, GF64.add(b, c))
    rhs = GF64.add(GF64.mul(a, b), GF64.mul(a, c))
    assert lhs == rhs


def test_binary_field_char2_self_inverse_addition():
    for a in range(16):
        assert GF16.add(a, a) == 0
        assert GF16.sub(0, a) == a


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLY))
def test_exp_log_tables_cover_multiplicative_group(m):
    f = BinaryField(m)
    order = f.exp_order()
    assert len(order) == f.q - 1
    assert sorted(order) == list(range(1, f.q))


def test_make_field_validation():
    assert make_field(257, 1).q == 257
    assert make_field(2, 4).q == 16
    with pytest.raises(ValueError):
        make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_field(3, 2)  # only characteristic 2 extensions supported
    with pytest.raises(ValueError):
        make_field(2, 13)  # no primitive polynomial pinned
    for p, m in ((2, 17), (3, 20), (65537, 1)):  # too large: m > 12, or p > 257
        with pytest.raises(ValueError):
            make_field(p, m)
    # a composite p that is also out of range is reported by its range: no
    # primality test comes before the field is chosen
    with pytest.raises(ValueError, match="prime fields supported up to p = 257"):
        make_field(258)
    with pytest.raises(ValueError, match="extension fields require p = 2"):
        make_field(4, 2)


def test_gf_p_builds_exactly_for_prime_p():
    """The generator search is the primality test: for every p in 2..257,
    make_field(p) builds iff trial division finds p prime, its exp order is
    the powers of the smallest primitive root (an element of order p - 1), and
    a composite p raises "p = ... is not prime", through make_field or
    PrimeField."""
    primes = 0
    for p in range(2, 258):
        if not is_prime(p):
            for build in (make_field, PrimeField):
                with pytest.raises(ValueError, match=f"^p = {p} is not prime$"):
                    build(p)
            continue
        g = next(g for g in range(1, p) if len({pow(g, i, p) for i in range(p - 1)}) == p - 1)
        assert make_field(p).exp_order() == [pow(g, i, p) for i in range(p - 1)]
        primes += 1
    assert primes == 55


def test_are_elements_takes_integers_in_range_only():
    f16, f5 = make_field(2, 4), make_field(5, 1)
    assert f16.are_elements([0, 15, np.int64(3), np.uint8(7)]) and f16.are_elements([])
    assert f16.are_elements(np.array([1, 2])) and f5.are_elements(range(5))
    for bad in ([16], [-1], [1.0], [1.5], np.array([1.5]), ["1"], [None], [True], [np.True_]):
        assert not f16.are_elements(bad)
    assert not f5.are_elements([5]) and not f5.are_elements([-3])


# --- polynomial helpers (coefficient lists, low degree first) ---

coef5 = st.lists(st.integers(0, 4), max_size=6)


@given(coef5, coef5)
def test_poly_add_sub_roundtrip(a, b):
    s = poly_add(GF5, a, b)
    assert poly_trim(GF5.poly_submul(s, b, [1])) == poly_trim(a)


@given(coef5, coef5)
def test_poly_mul_eval_homomorphism(a, b):
    prod = poly_mul(GF5, a, b)
    for x in range(5):
        assert GF5.poly_eval(prod, x) == GF5.mul(GF5.poly_eval(a, x), GF5.poly_eval(b, x))


@given(coef5, coef5.filter(lambda c: any(c)))
def test_poly_divrem_identity(num, den):
    quo, rem = GF5.poly_divrem(num, den)
    back = poly_add(GF5, poly_mul(GF5, quo, den), rem)
    assert poly_trim(back) == poly_trim(num)
    assert len(rem) < len(poly_trim(list(den)))


def test_div_linear_exact_and_inexact():
    f = GF5
    a = f.poly_mul_linear([1, 2, 3], 4)    # (1+2x+3x^2)(x-4)
    assert f.poly_synth_div(a, 4)[:2] == ([1, 2, 3], 0)
    assert f.poly_synth_div([1, 1], 3)[:2] == ([1], 4)  # 1+x does not vanish at 3


@pytest.mark.parametrize("m", [4, 8])
def test_binary_linear_factor_kernels_match_generic_forms(m):
    """GF(2^m)'s table-driven poly_mul_linear and poly_synth_div return what
    the shared Field forms (poly_submul, poly_divrem and poly_eval) return:
    an exact division leaves remainder 0, and every inexact one a(beta)."""
    f = BinaryField(m)
    rng = random.Random(m)
    inexact = 0
    for _ in range(300):
        a = poly_trim([rng.randrange(f.q) for _ in range(rng.randrange(9))])
        beta = rng.randrange(f.q)
        prod = f.poly_mul_linear(a, beta)
        assert prod == Field.poly_mul_linear(f, a, beta)
        got = f.poly_synth_div(prod, beta)
        assert got == Field.poly_synth_div(f, prod, beta) and got[:2] == (a, 0)
        got = f.poly_synth_div(a, beta)
        assert got == Field.poly_synth_div(f, a, beta) and got[1] == f.poly_eval(a, beta)
        inexact += got[1] != 0
    assert inexact > 100


def test_poly_eval_horner_matches_naive():
    coeffs = [3, 0, 2, 4]
    for x in range(5):
        naive = sum(GF5.mul(c, pow(x, i, 5)) for i, c in enumerate(coeffs)) % 5
        assert GF5.poly_eval(coeffs, x) == naive


def test_poly_str_rendering():
    assert poly_str([]) == "0"
    assert poly_str([0]) == "0"
    assert poly_str([1, 2]) == "1+2x"
    assert poly_str([1, 3]) == "1+3x"
    assert poly_str([0, 0, 1]) == "x^2"
    assert poly_str([2]) == "2"
    assert poly_str([0, 1]) == "x"


def lagrange_fit(f, xs, ys):
    """The interpolant of degree < len(xs) through the points (xs[j], ys[j])."""
    return f.poly_combine(lagrange_table(f, tuple(xs))[0], ys)


def test_lagrange_interpolation_recovers_polynomial():
    coeffs = [2, 0, 1]  # 2 + x^2 over GF(5)
    xs = [0, 1, 2, 3]
    ys = [GF5.poly_eval(coeffs, x) for x in xs]
    assert lagrange_fit(GF5, xs, ys) == coeffs


def test_lagrange_interpolation_gf16():
    pts = GF16.exp_order()[:5]
    coeffs = [7, 1, 9]
    ys = [GF16.poly_eval(coeffs, x) for x in pts]
    assert lagrange_fit(GF16, pts, ys) == coeffs


LAGRANGE_FIELDS = [make_field(5), make_field(257), make_field(2, 4), make_field(2, 8)]


@settings(max_examples=200)  # far more distinct node tuples than the 16 cached tables
@given(st.sampled_from(LAGRANGE_FIELDS), st.data())
def test_lagrange_interpolate_recovers_random_polynomials(f, data):
    xs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=min(f.q, 12),
                            unique=True))
    coeffs = poly_trim(data.draw(st.lists(st.integers(0, f.q - 1), max_size=len(xs))))
    ys = [f.poly_eval(coeffs, x) for x in xs]
    assert lagrange_fit(f, xs, ys) == coeffs


# --- table kernels against plain scalar references ---
#
# The references below use only the scalar Field methods, one call per
# coefficient; the kernels under test use exp/log tables and inline
# arithmetic and must agree on every input, x = 0 and zero coefficients
# included.

KERNEL_FIELDS = [make_field(p) for p in (2, 3, 5, 7, 257)] + [
    make_field(2, m) for m in (2, 4, 8, 12)]


def ref_eval(f, a, x):
    acc = 0
    for v in reversed(a):
        acc = f.add(f.mul(acc, x), v)
    return acc


def ref_scale(f, a, s):
    return poly_trim([f.mul(v, s) for v in a])


def ref_sub(f, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return poly_trim([f.add(u, f.sub(0, v)) for u, v in zip(a, b)])


def ref_mul_linear(f, a, beta):
    out = [0] * (len(a) + 1)
    for i, v in enumerate(a):
        out[i + 1] = f.add(out[i + 1], v)
        out[i] = f.add(out[i], f.mul(f.sub(0, beta), v))
    return poly_trim(out)


def ref_divrem(f, num, den):
    rem = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = f.mul(rem[i + len(den) - 1], f.inv(den[-1]))
        quo[i] = c
        for j, dv in enumerate(den):
            rem[i + j] = f.add(rem[i + j], f.sub(0, f.mul(c, dv)))
    return poly_trim(quo), poly_trim(rem)


def clmul_mod(a, b, m):
    """GF(2^m) product by carry-less multiplication, independent of the tables."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= PRIMITIVE_POLY[m]
    return out


@st.composite
def field_and_polys(draw, count=2):
    f = draw(st.sampled_from(KERNEL_FIELDS))
    elem = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    polys = [poly_trim(draw(st.lists(elem, max_size=8))) for _ in range(count)]
    return f, polys, draw(elem)


@given(field_and_polys())
def test_kernel_eval_scale_sub_match_reference(case):
    f, (a, b), x = case
    assert f.poly_eval(a, x) == ref_eval(f, a, x)
    assert f.poly_eval(a, 0) == (a[0] if a else 0)
    assert f.poly_scale(a, x) == ref_scale(f, a, x)
    assert f.poly_submul(a, b, [1]) == ref_sub(f, a, b)
    assert f.poly_submul([], a, [1]) == ref_sub(f, [], a)


@given(field_and_polys(count=1))
def test_kernel_linear_factor_match_reference(case):
    f, (a,), beta = case
    prod = f.poly_mul_linear(a, beta)
    assert prod == ref_mul_linear(f, a, beta)
    assert f.poly_synth_div(prod, beta)[:2] == (a, 0)
    quo, rem = ref_divrem(f, a, [f.sub(0, beta), 1]) if a else ([], [])
    assert f.poly_synth_div(a, beta)[:2] == (quo, rem[0] if rem else 0)


@given(field_and_polys())
def test_kernel_divrem_matches_reference(case):
    f, (num, den), _ = case
    if not den:
        with pytest.raises(ZeroDivisionError):
            f.poly_divrem(num, den)
        return
    assert f.poly_divrem(num, den) == ref_divrem(f, num, den)


@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_scalar_table_ops_match_independent_arithmetic(f, data):
    a, b = (data.draw(st.one_of(st.just(0), st.integers(0, f.q - 1))) for _ in range(2))
    if f.m == 1:
        assert f.poly_scale([a], b) == poly_trim([a * b % f.p])
        if a:
            assert a * f.inv(a) % f.p == 1
    else:
        assert f.mul(a, b) == clmul_mod(a, b, f.m)
        if a:
            assert clmul_mod(a, f.inv(a), f.m) == 1
    assert sorted(f.exp_order()) == list(range(1, f.q))


# --- the trial-1 kernels against tests/reference.py's poly_mul and poly_add ---
#
# poly_submul (Euclid's co-factor update and every elimination step),
# poly_divrem (the Euclid step), poly_evals (factorize's root scan and encode)
# and poly_synth_div (factorize's division at each root) over prime and binary
# fields, small and large.

TRIAL_FIELDS = [make_field(p) for p in (2, 5, 7, 257)] + [make_field(2, m) for m in (4, 8)]


@st.composite
def trial_field_and_polys(draw, count=3, max_size=9):
    f = draw(st.sampled_from(TRIAL_FIELDS))
    elem = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    return f, [poly_trim(draw(st.lists(elem, max_size=max_size))) for _ in range(count)]


@given(trial_field_and_polys())
def test_submul_is_a_minus_b_times_c(case):
    f, (a, b, c) = case
    diff = f.poly_submul(a, b, c)
    assert poly_add(f, diff, poly_mul(f, b, c)) == a
    assert f.poly_submul(a, b, []) == f.poly_submul(a, [], c) == a
    assert f.poly_submul(a, a, [1]) == []


@given(trial_field_and_polys(count=2))
def test_divrem_reassembles_the_dividend(case):
    f, (num, den) = case
    if not den:
        with pytest.raises(ZeroDivisionError):
            f.poly_divrem(num, den)
        return
    quo, rem = f.poly_divrem(num, den)
    assert poly_add(f, poly_mul(f, quo, den), rem) == num
    assert len(rem) < len(den) and quo == poly_trim(list(quo)) and rem == poly_trim(list(rem))
    assert f.poly_divrem(poly_mul(f, num, den), den) == (num, [])  # an exact division
    assert f.poly_divrem(tuple(num), tuple(den) + (0, 0)) == (quo, rem)  # tuples, untrimmed den


@given(trial_field_and_polys(count=2), st.data())
def test_evals_is_pointwise_and_finds_the_roots(case, data):
    f, (a, b) = case
    xs = data.draw(st.lists(st.integers(0, f.q - 1), max_size=12))
    assert f.poly_evals(a, xs) == [ref_eval(f, a, x) for x in xs]
    prod = poly_mul(f, a, b)
    assert f.poly_evals(prod, xs) == [f.mul(u, v) for u, v in
                                      zip(f.poly_evals(a, xs), f.poly_evals(b, xs))]
    roots = data.draw(st.lists(st.integers(0, f.q - 1), max_size=4, unique=True))
    locator = [1]
    for r in roots:  # prod (x - r), built with poly_mul alone
        locator = poly_mul(f, locator, [f.sub(0, r), 1])
    assert ([x for x, v in zip(xs, f.poly_evals(locator, xs)) if not v]
            == [x for x in xs if x in roots])


SYNTH_DIV_EDGES = [([], 0), ([], 3), ([5], 0), ([5], 2), ([1, 2, 3], 0), ([0, 0, 1], 0)]


@pytest.mark.parametrize("a, beta", SYNTH_DIV_EDGES)
@pytest.mark.parametrize("f", TRIAL_FIELDS, ids=repr)
def test_synth_div_edge_cases(f, a, beta):
    """a = [], a constant, and beta = 0, on each field kind."""
    check_synth_div(f, poly_trim([v % f.q for v in a]), beta % f.q)


@given(trial_field_and_polys(count=1), st.data())
def test_synth_div_is_divrem_and_eval(case, data):
    f, (a,) = case
    check_synth_div(f, a, data.draw(st.one_of(st.just(0), st.integers(0, f.q - 1))))


def check_synth_div(f, a, beta):
    """poly_synth_div's quotient, remainder and quotient value equal
    poly_divrem(a, [-beta, 1]) and poly_eval of that quotient at beta; GF(2^m)'s
    table-driven kernel also equals the shared Field form."""
    quo, rem = f.poly_divrem(a, [f.sub(0, beta), 1])
    want = (quo, rem[0] if rem else 0, f.poly_eval(quo, beta))
    assert f.poly_synth_div(a, beta) == want
    assert Field.poly_synth_div(f, a, beta) == want
    assert f.poly_synth_div(tuple(a), beta) == want  # any sequence, not only a list
