import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from treechase.channel import (
    SoftWeights,
    frame_rng,
    hard_decision,
    likelihoods,
    load_pi,
    modulate,
    save_pi,
    sigma_from_snr_db,
    soft_weights,
    transmit,
)
from treechase.galois import BinaryField, PrimeField

from reference import front_end

GF16 = BinaryField(4)


def test_sigma_convention():
    # rate-1 code at 0 dB: sigma^2 = 1 / 2
    assert sigma_from_snr_db(0.0, 1.0) == pytest.approx(math.sqrt(0.5))
    s = sigma_from_snr_db(5.0, 11 / 15)
    assert s == pytest.approx(math.sqrt(1.0 / (2.0 * (11 / 15) * 10 ** 0.5)))


def test_modulate_lsb_first():
    # symbol 1 = bits (1,0,0,0) -> samples (-1, +1, +1, +1)
    out = modulate(GF16, (1, 6))
    assert out.tolist() == [-1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0]


def test_transmit_deterministic_per_frame_stream():
    sig = modulate(GF16, (3, 0, 9))
    a = transmit(sig, 0.7, frame_rng(42, 5))
    b = transmit(sig, 0.7, frame_rng(42, 5))
    c = transmit(sig, 0.7, frame_rng(42, 6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        transmit(sig, -1.0, frame_rng(0, 0))


def test_modulate_and_likelihoods_reject_prime_fields():
    """m bits of BPSK carry a GF(2^m) symbol but not a GF(5) one: the low bit
    alone would give symbols of equal parity identical likelihood rows."""
    gf5 = PrimeField(5)
    with pytest.raises(ValueError):
        modulate(gf5, (1, 2))
    with pytest.raises(ValueError):
        likelihoods(gf5, 4, np.zeros(4), 1.0)
    assert modulate(PrimeField(2), (1, 0)).tolist() == [-1.0, 1.0]


def test_single_bit_loglik_difference():
    # one GF(2) symbol, r = 0.3, sigma = 1: pi0 - pi1 = 2r/sigma^2 = 0.6
    f2 = PrimeField(2)
    pi = likelihoods(f2, 1, np.array([0.3]), 1.0)
    assert pi.shape == (2, 1)
    assert pi[0, 0] - pi[1, 0] == pytest.approx(0.6)


def test_noiseless_likelihoods_pick_transmitted(code16):
    cw = (3, 0, 7, 15, 1, 2, 9, 4, 8, 11, 5, 6, 10, 12, 14)
    sig = modulate(GF16, cw)
    pi = likelihoods(GF16, 15, sig, 0.25)
    assert hard_decision(pi) == cw


def test_hard_decision_tie_breaks_to_smallest():
    pi = np.array([[0.5, 1.0], [0.5, 2.0], [0.1, 2.0]])
    assert hard_decision(pi) == (0, 1)


def test_soft_weights_reproduce_worked_matrix(example1_pi):
    f5 = PrimeField(5)
    sw = soft_weights(f5, example1_pi)
    assert sw.z == hard_decision(example1_pi) == (1, 0, 2, 0)
    expected = [
        [1.24, 0.94, 2.02, 0.32],
        [0.25, 0.22, 0.15, 0.03],
        [1.12, 0.09, 0.59, 0.11],
        [1.56, 0.46, 1.42, 0.73],
    ]
    for d in range(1, 5):
        for j in range(4):
            assert float(sw.lam[d - 1, j]) == pytest.approx(expected[d - 1][j], abs=5e-3)


def test_soft_weights_nonnegative_at_hard_decision(code16):
    rng = np.random.default_rng(11)
    sig = transmit(modulate(GF16, (0,) * 15), 1.0, rng)
    pi = likelihoods(GF16, 15, sig, 1.0)
    sw = soft_weights(GF16, pi)
    assert float(sw.lam.min()) >= 0.0


def test_pattern_weight_sums_entries(example1_pi):
    f5 = PrimeField(5)
    sw = soft_weights(f5, example1_pi)
    # e = (0,2,2,3): 0.22 + 0.15 + 0.11
    assert sw.pattern_weight((0, 2, 2, 3)) == pytest.approx(0.48, abs=5e-3)
    assert sw.pattern_weight((0, 0, 0, 0)) == 0.0


def test_char2_weights_use_xor_indexing():
    rng = np.random.default_rng(3)
    sig = transmit(modulate(GF16, (5,) * 15), 0.8, rng)
    pi = likelihoods(GF16, 15, sig, 0.64)
    sw = soft_weights(GF16, pi)
    z = sw.z
    for j in (0, 7, 14):
        for d in (1, 9, 15):
            assert float(sw.lam[d - 1, j]) == pytest.approx(float(pi[z[j], j] - pi[z[j] ^ d, j]))


@st.composite
def fields_and_pis(draw):
    """(field, pi) over GF(5), GF(7) or GF(16): pi real, or on a few levels so
    that entries of a column tie."""
    field = draw(st.sampled_from([PrimeField(5), PrimeField(7), GF16]))
    levels = draw(st.sampled_from([st.floats(-40.0, 5.0), st.integers(-3, 0).map(float)]))
    return field, draw(hnp.arrays(np.float64, (field.q, draw(st.integers(1, 15))),
                                  elements=levels))


@settings(max_examples=300, deadline=None)
@given(fields_and_pis())
def test_soft_weights_equal_the_separate_steps(case):
    """The one-pass front end gives the z, weights, minima and weight of z of
    the separate steps, bit for bit."""
    field, pi = case
    sw = soft_weights(field, pi)
    z, lam, mins, z_weight = front_end(field, pi)
    assert sw.z == z == hard_decision(pi)
    assert sw.lam.tobytes() == lam.tobytes()
    assert np.array(sw.mins).tobytes() == np.array(mins).tobytes()
    assert sw.z_weight.hex() == z_weight.hex() == sw.pattern_weight(z).hex()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("entry, rest, ok", [
    (np.nan, 0.0, False), (np.inf, 0.0, False), (-np.inf, 0.0, False),
    (1e308, -1e308, False),  # a weight overflows
    (1e308, 0.0, False),     # four finite weights of 1e308 whose total overflows
    (5e307, 0.0, False),     # total 2e308, above half the largest float
    (2e307, 0.0, True),      # total 8e307, below it
    (1e308, 1e308, True),    # huge but equal entries weigh 0
])
def test_soft_weights_reject_weights_that_could_overflow(entry, rest, ok):
    pi = np.full((5, 3), rest)
    pi[2, 1] = entry
    if ok:
        assert soft_weights(PrimeField(5), pi).z == hard_decision(pi)
    else:
        with pytest.raises(ValueError, match="non-finite entries, or entries too large"):
            soft_weights(PrimeField(5), pi)


def test_save_load_roundtrip(tmp_path, example1_pi):
    p = tmp_path / "m.pi"
    save_pi(str(p), example1_pi)
    back = load_pi(str(p))
    assert np.allclose(back, example1_pi)


def test_load_pi_ignores_comments(tmp_path):
    p = tmp_path / "c.pi"
    p.write_text("# header comment\n2 2\n-1 -2  # trailing\n\n-3 -4\n")
    back = load_pi(str(p))
    assert back.tolist() == [[-1.0, -2.0], [-3.0, -4.0]]


@pytest.mark.parametrize("content", [
    "",
    "x y\n1 2\n",
    "2 2\n1 2\n",              # missing row
    "2 2\n1 2\n3 4\n5 6\n",    # extra row
    "2 2\n1 2 3\n4 5\n",       # ragged row
    "2 2\n1 a\n3 4\n",         # non-numeric
    "2 2\n1 inf\n3 4\n",       # non-finite
])
def test_load_pi_rejects_malformed(tmp_path, content):
    p = tmp_path / "bad.pi"
    p.write_text(content)
    with pytest.raises(ValueError):
        load_pi(str(p))
