import numpy as np
import pytest
from hypothesis import given, strategies as st

from treechase.baselines import LccConfig
from treechase.channel import modulate
from treechase.decoder import DecoderConfig
from treechase.galois import PRIMITIVE_POLY, lagrange_table, make_field
from treechase.rscode import CodeParams, check_word, encode, make_code
from treechase.sim import SweepConfig

from reference import codebook


def first_k_fit(code, cw):
    """The degree-< k message through the first k coordinates, zero-padded to k."""
    field, xs = code.field, code.eval_points[:code.k]
    u = field.poly_combine(lagrange_table(field, xs)[0], cw[:code.k])
    return u + [0] * (code.k - len(u))


def test_code_parameters(code54, code16):
    assert (code54.d_min, code54.t_min) == (3, 1)
    assert (code16.d_min, code16.t_min) == (5, 2)
    assert code54.eval_points == (0, 1, 2, 3)
    assert len(set(code16.eval_points)) == 15
    assert all(x != 0 for x in code16.eval_points)


def test_encode_is_evaluation(code54):
    msg = [1, 2]
    cw = encode(code54, msg)
    assert cw == (1, 3, 0, 2)
    assert cw == tuple(code54.field.poly_eval(msg, x) for x in code54.eval_points)


def test_encode_rejects_overlong_message(code54):
    """A message has at most k coefficients, trailing zeros included: [1, 0, 0]
    has degree 0 but three coefficients."""
    for msg in ([1, 2, 3], [1, 0, 0]):
        with pytest.raises(ValueError, match="a message has at most k = 2 coefficients, got 3"):
            encode(code54, msg)


@pytest.mark.parametrize("code_args, message", [
    ((2, 4, 15, 11), [16]),
    ((2, 4, 15, 11), [1, -1]),
    ((2, 4, 15, 11), [1, 16]),
    ((2, 4, 15, 11), [1.0, 2]),
    ((5, 1, 4, 2), [7, 1]),
    ((5, 1, 4, 2), [-3, 1]),
])
def test_encode_rejects_coefficients_outside_the_field(code_args, message):
    """A coefficient is a field element, an integer in [0, q).  Unchecked, the
    GF(16) kernels would carry 16 through as a symbol of its own, read -1 as
    15, index past their tables at [1, 16] and fail on a float at [1.0, 2];
    GF(5) arithmetic would reduce [7, 1] and [-3, 1] alike to [2, 1]."""
    with pytest.raises(ValueError, match=r"coefficients are integers in \[0, "):
        encode(make_code(*code_args), message)


def test_encode_takes_numpy_integers_and_the_zero_message(code16):
    assert encode(code16, [np.int64(1), np.uint8(2)]) == encode(code16, [1, 2])
    assert encode(code16, np.array([1, 2])) == encode(code16, [1, 2])
    assert encode(code16, [np.uint8(15)]) == (15,) * 15
    assert encode(code16, []) == (0,) * 15


def test_bool_symbols_are_rejected(code16):
    """True passes isinstance(v, int) but is no field element: encode, modulate
    and check_word reject bools, Python's and numpy's, as they reject floats."""
    for bad in ([True] * 11, [1, False], [np.True_]):
        with pytest.raises(ValueError, match=r"coefficients are integers in \[0, 16\)"):
            encode(code16, bad)
        with pytest.raises(ValueError, match=r"GF\(16\) symbols are integers in \[0, 16\)"):
            modulate(code16.field, bad)
    with pytest.raises(ValueError, match="each an integer"):
        check_word(code16, [True] + [0] * 14)


@given(st.lists(st.integers(0, 4), min_size=2, max_size=2))
def test_message_roundtrip_gf5(msg):
    code = make_code(5, 1, 4, 2)
    assert first_k_fit(code, encode(code, msg)) == msg


@given(st.lists(st.integers(0, 15), min_size=11, max_size=11))
def test_message_roundtrip_gf16(msg):
    code = make_code(2, 4, 15, 11)
    assert first_k_fit(code, encode(code, msg)) == msg


def test_codebook_enumerates_all_messages(code54, code76):
    cb54 = codebook(code54)
    assert len(cb54) == 25
    assert len({cw for _, cw in cb54}) == 25
    cb76 = codebook(code76)
    assert len(cb76) == 49
    assert all(cw == encode(code76, u) for u, cw in cb76)


def test_codebook_lists_messages_in_lexicographic_order(code54, code76):
    """u_0 is the most significant coefficient, so the first of several tied
    messages is the lexicographically smallest (mld_oracle's tie-break)."""
    for code in (code54, code76, make_code(2, 3, 7, 3)):
        msgs = [u for u, _ in codebook(code)]
        assert all(not u or u[-1] != 0 for u in msgs)  # trimmed
        padded = [tuple(u) + (0,) * (code.k - len(u)) for u in msgs]
        assert len(padded) == code.field.q ** code.k
        assert all(a < b for a, b in zip(padded, padded[1:]))


def test_minimum_distance_exhaustive(code54):
    cws = [cw for _, cw in codebook(code54)]
    dists = [sum(a != b for a, b in zip(u, v))
             for i, u in enumerate(cws) for v in cws[i + 1:]]
    assert min(dists) == code54.d_min


def test_make_code_validation():
    with pytest.raises(ValueError):
        make_code(5, 1, 6, 2)    # n > q for a prime field
    with pytest.raises(ValueError):
        make_code(2, 4, 16, 2)   # n > q - 1 for an extension field
    with pytest.raises(ValueError):
        make_code(5, 1, 4, 5)    # k > n
    with pytest.raises(ValueError):
        make_code(5, 1, 4, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: make_code(2, 4, 15.0, 11), "n must be an integer"),
    (lambda: make_code(2, 4, 15, 11.0), "k must be an integer"),
    (lambda: CodeParams(make_field(2, 4), np.int64(15), 11.5), "k must be an integer"),
    (lambda: SweepConfig(n=15.0, k=11), "n must be an integer"),
    (lambda: SweepConfig(n=15, k=11.0), "k must be an integer"),
    (lambda: make_field(2, 4.0), "m must be an integer"),
    (lambda: make_field(5.0), "p must be an integer"),
    (lambda: make_field(np.float64(7)), "p must be an integer"),
    (lambda: make_code(2, 4, 15, True), "k must be an integer"),
    (lambda: DecoderConfig(max_trials=True), "max_trials must be an integer"),
    (lambda: LccConfig(eta=False), "eta must be an integer"),
], ids=["code-n", "code-k", "codeparams-k", "sweep-n", "sweep-k", "field-m", "field-p",
        "field-p-numpy", "code-k-bool", "max-trials-bool", "eta-bool"])
def test_sizes_that_are_not_integers_are_rejected_when_built(build, message):
    """A field's p and m, a code's n and k and the decoders' counts are
    integers, Python's or numpy's, and no bool: a float such as 15.0 or a
    True raises ValueError when the field, code or config is built, not a
    TypeError deep inside a sweep or a code with k = True."""
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLY))
def test_binary_codes_evaluate_at_exp_order(m):
    field = make_field(2, m)
    assert CodeParams(field, field.q - 1, 1).eval_points == tuple(field.exp_order())
    with pytest.raises(ValueError, match="n <= q - 1"):
        CodeParams(field, field.q, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_codes_evaluate_at_0_to_n_minus_1(p):
    field = make_field(p)
    assert CodeParams(field, p, 1).eval_points == tuple(range(p))
    with pytest.raises(ValueError, match="n <= q,"):
        CodeParams(field, p + 1, 1)
