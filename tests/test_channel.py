import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treechase.channel import (
    SoftWeights,
    frame_rng,
    hard_decision,
    likelihoods,
    load_pi,
    modulate,
    sigma_from_snr_db,
    soft_weights,
    transmit,
)
from treechase.galois import BinaryField, PrimeField

from conftest import fields_and_pis
from reference import front_end, save_pi

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


def test_modulate_rejects_symbols_outside_the_field():
    """16 and -1 are no GF(16) symbols: their low four bits would pass for
    the symbols 0 and 15.  Nor is 1.5, which an integer cast would send as 1."""
    for bad in ([16], [-1], (3, 16, 0), np.array([2, -1]), [1.5], np.array([1.5])):
        with pytest.raises(ValueError, match=r"GF\(16\) symbols are integers in \[0, 16\)"):
            modulate(GF16, bad)
    assert modulate(GF16, []).size == 0


def test_likelihoods_weigh_each_value_by_its_bits():
    """pi[i][j] sums the Gaussian log-densities of sample j's bits about the
    signs 1 - 2*(bit b of i), in the order likelihoods adds them."""
    rng = np.random.default_rng(3)
    r, sigma2 = rng.standard_normal(15 * 4), 0.6
    bits = (np.arange(16)[:, None] >> np.arange(4)[None, :]) & 1
    d = r.reshape(15, 4)[None, :, :] - (1.0 - 2.0 * bits)[:, None, :]
    want = -(d * d).sum(axis=2) / (2.0 * sigma2) - 0.5 * 4 * math.log(2.0 * math.pi * sigma2)
    assert np.array_equal(likelihoods(GF16, 15, r, sigma2), want)
    # a NaN variance would make every entry NaN, an infinite one -inf
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2 must be finite and > 0"):
            likelihoods(GF16, 15, r, bad)


def test_transmit_deterministic_per_frame_stream():
    sig = modulate(GF16, (3, 0, 9))
    a = transmit(sig, 0.7, frame_rng(42, 5))
    b = transmit(sig, 0.7, frame_rng(42, 5))
    c = transmit(sig, 0.7, frame_rng(42, 6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # a NaN or infinite sigma would make every sample NaN or infinite
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            transmit(sig, sigma, frame_rng(0, 0))
    assert np.array_equal(transmit(sig, 0.0, frame_rng(0, 0)), sig)  # noiseless


def test_modulate_and_likelihoods_reject_prime_fields():
    """m bits of BPSK carry a GF(2^m) symbol but not a GF(5) one: the low bit
    alone would give symbols of equal parity identical likelihood rows."""
    gf5 = PrimeField(5)
    with pytest.raises(ValueError):
        modulate(gf5, (1, 2))
    with pytest.raises(ValueError):
        likelihoods(gf5, 4, np.zeros(4), 1.0)
    assert modulate(PrimeField(2), (1, 0)).tolist() == [-1.0, 1.0]


def test_likelihoods_modulate_each_field_once(monkeypatch):
    """The samples of every field value are modulated at a field's first call
    only; a prime field's ValueError is raised again at every call."""
    from treechase import channel

    calls = []
    monkeypatch.setattr(channel, "modulate", lambda f, c: calls.append(f) or modulate(f, c))
    gf8, gf5 = BinaryField(3), PrimeField(5)
    r = np.random.default_rng(1).standard_normal(7 * 3)
    first = likelihoods(gf8, 7, r, 0.5)
    assert np.array_equal(likelihoods(gf8, 7, r, 0.5), first)
    assert calls == [gf8]
    for _ in range(2):
        with pytest.raises(ValueError, match="BPSK carries GF"):
            likelihoods(gf5, 4, np.zeros(4), 1.0)
    assert calls == [gf8, gf5, gf5]


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
    chain = {sw.atom(r): sw.weights[r] for r in range(sw.size)}
    assert sorted(chain) == [(j, d) for j in range(4) for d in range(1, 5)]
    for d in range(1, 5):
        for j in range(4):
            assert chain[j, d] == pytest.approx(expected[d - 1][j], abs=5e-3)


def test_soft_weights_nonnegative_at_hard_decision(code16):
    rng = np.random.default_rng(11)
    sig = transmit(modulate(GF16, (0,) * 15), 1.0, rng)
    pi = likelihoods(GF16, 15, sig, 1.0)
    sw = soft_weights(GF16, pi)
    assert len(sw.weights) == sw.size == 15 * 15
    assert min(sw.weights) >= 0.0


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
    chain = {sw.atom(r): sw.weights[r] for r in range(sw.size)}
    for j in (0, 7, 14):
        for d in (1, 9, 15):
            assert chain[j, d] == pytest.approx(float(pi[z[j], j] - pi[z[j] ^ d, j]))


@settings(max_examples=300, deadline=None)
@given(fields_and_pis(), st.data())
def test_soft_weights_equal_the_separate_steps(case, data):
    """The one-pass front end gives the z, weights, minima and weight of z of
    the separate steps, bit for bit: W in symbol layout is top - pi (+inf at
    z itself), the chain's weight of each atom (j, d), read through atom and
    weights, is lam[d-1][j], its column minima are the
    minima, and the weight of any error vector read off W is the fsum of the
    separate steps' weights."""
    field, pi = case
    sw = soft_weights(field, pi)
    z, lam, mins, z_weight = front_end(field, pi)
    assert sw.z == z == hard_decision(pi) == tuple(sw.zv.tolist())
    n = pi.shape[1]
    W = pi[list(z), range(n)] - pi
    W[list(z), range(n)] = np.inf  # no change at z itself
    assert sw.W.tobytes() == W.tobytes()
    assert "_order" not in vars(sw)  # sorted on first read only
    chain = {sw.atom(r): sw.weights[r].hex() for r in range(sw.size)}
    assert chain == {(j, d): float(lam[d - 1, j]).hex()
                     for j in range(n) for d in range(1, field.q)}
    assert np.array(sw.mins).tobytes() == np.array(mins).tobytes()
    assert sw.z_weight.hex() == z_weight.hex() == sw.pattern_weight(z).hex()
    e = data.draw(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n))
    want = math.fsum([float(lam[ej - 1, j]) for j, ej in enumerate(e) if ej])
    assert sw.pattern_weight(e).hex() == want.hex()


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


@pytest.mark.parametrize("column", [[-np.inf] * 5, [np.inf, 0.0, np.inf, 0.0, 0.0],
                                    [np.inf, np.nan, 0.0, 0.0, 0.0]])
def test_soft_weights_reject_infinite_columns_without_a_warning(column):
    """A column whose top entry is infinite (all -inf, or +inf twice) is a
    ValueError and no numpy warning: the top entry is never subtracted from
    itself, which would give NaN."""
    pi = np.zeros((5, 3))
    pi[:, 1] = column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
