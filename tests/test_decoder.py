import itertools
import math

import numpy as np
import pytest

from treechase import decoder
from treechase.baselines import LccConfig, classify_ml, lcc_decode
from treechase.channel import (hard_decision, likelihoods, loglik_floor, modulate,
                               sigma_from_snr_db, transmit)
from treechase.chase import bound_B
from treechase.decoder import (
    EXIT_BUDGET,
    EXIT_CERTIFIED_KANEKO,
    EXIT_CERTIFIED_TREE,
    EXIT_GENIE,
    EXIT_THRESHOLD,
    DecoderConfig,
    compare_traces,
    tcgs_decode,
)
from treechase.galois import poly_str
from treechase.interp import factorize
from treechase.rscode import encode, make_code
from treechase.sim import draw_frame

from conftest import pam_pi
from reference import _codebook_scores_setup, bw_decode, front_end, mld_oracle, traced


def test_worked_example_end_to_end(code54, example1_pi):
    res = tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=16))
    assert res.message == [1, 2]
    assert res.codeword == (1, 3, 0, 2)
    assert res.best_error == (0, 2, 2, 3)
    assert res.best_weight == pytest.approx(0.48, abs=5e-3)
    assert res.trials == 10
    assert res.exit_reason == EXIT_CERTIFIED_TREE
    assert res.certified
    # one swap per non-initial trial; the first trial interpolates in closed form
    assert res.backward_ops == res.trials - 1
    assert res.forward_ops == res.trials - 1


def test_worked_example_trace_checkpoints(code54, example1_pi):
    _, lines = traced(code54, example1_pi, DecoderConfig(max_trials=16))
    pops = [ln for ln in lines if ln.startswith("POP ")]
    bounds = [float(ln.rsplit("bound=", 1)[1]) for ln in pops]
    assert bounds == pytest.approx(
        [0.12, 0.20, 0.26, 0.27, 0.35, 0.37, 0.40, 0.47, 0.48, 0.49], abs=5e-3)
    hdd = [ln for ln in lines if ln.startswith("HDD ")]
    assert "msg=1+3x" in hdd[0] and "weight=0.9400" in hdd[0]
    assert "msg=1+4x" in hdd[1] and "weight=0.6200" in hdd[1]
    assert "msg=1+2x" in hdd[-1] and "weight=0.4800" in hdd[-1]
    assert lines[-1].startswith("EXIT reason=certified_tree trials=10")


def test_budget_truncation_keeps_best_candidate(code54, example1_pi):
    res = tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=5))
    assert res.exit_reason == EXIT_BUDGET
    assert not res.certified
    assert res.message == [1, 4]
    assert res.best_weight == pytest.approx(0.62, abs=5e-3)
    assert res.trials == 5


def test_noiseless_matrix_certifies_immediately(code54):
    cw = encode(code54, [2, 3])
    pi = np.full((5, 4), -30.0)
    for j, c in enumerate(cw):
        pi[c, j] = -0.01
    res = tcgs_decode(code54, pi, DecoderConfig(max_trials=16))
    assert res.exit_reason == EXIT_CERTIFIED_KANEKO
    assert res.trials == 1
    assert res.codeword == cw
    assert res.best_weight == 0.0


def test_mld_oracle_examples(code54, example1_pi):
    msg, cw = mld_oracle(code54, example1_pi)
    assert (msg, cw) == ([1, 2], (1, 3, 0, 2))
    flat = np.zeros((5, 4))
    msg_u, _ = mld_oracle(code54, flat)
    assert msg_u == []  # tie broken toward the lexicographically first message


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_mld_oracle_rejects_non_finite_pi(code54, example1_pi, entry):
    bad = example1_pi.copy()
    bad[3, 2] = entry
    with pytest.raises(ValueError, match="non-finite"):
        mld_oracle(code54, bad)


def test_mld_oracle_rejects_large_code():
    big = make_code(2, 8, 255, 128)
    with pytest.raises(ValueError):
        mld_oracle(big, np.zeros((256, 255)))


def test_mld_oracle_decodes_in_float64():
    """Low-precision input is scored in float64, as the decoders read it: a
    float16 sum can round two codeword scores together or apart."""
    rng = np.random.default_rng(0)
    for code in (make_code(2, 2, 3, 1), make_code(2, 3, 7, 3)):
        for _ in range(300):
            pi = (rng.integers(0, 256, size=(code.field.q, code.n)) / 7).astype(np.float16)
            assert mld_oracle(code, pi) == mld_oracle(code, pi.astype(np.float64))


def _lex_first_ml(code, pi):
    """Brute force: the smallest padded message among the best-scoring codewords,
    and how many codewords share that score."""
    scored = []
    for u in itertools.product(range(code.field.q), repeat=code.k):
        cw = encode(code, list(u))
        scored.append((-sum(float(pi[c, j]) for j, c in enumerate(cw)), u, cw))
    best, u, cw = min(scored)
    return u, cw, sum(s == best for s, _, _ in scored)


def test_mld_oracle_tie_break_is_lexicographic():
    """Likelihoods quantized to the integers -4..0 make exact score ties common;
    the oracle must return the lexicographically smallest tied message."""
    rng = np.random.default_rng(23)
    tied = 0
    for code in (make_code(5, 1, 4, 2), make_code(7, 1, 6, 2), make_code(2, 3, 7, 3)):
        for _ in range(100):
            pi = np.maximum(np.round(pam_pi(code, rng)[0]), -4.0)
            u, cw, n_best = _lex_first_ml(code, pi)
            msg, got_cw = mld_oracle(code, pi)
            assert tuple(msg) + (0,) * (code.k - len(msg)) == u
            assert got_cw == cw
            tied += n_best > 1
    assert tied > 20


def test_certified_exits_agree_with_oracle_quick(code54):
    rng = np.random.default_rng(99)
    certified = 0
    for _ in range(200):
        pi, _ = pam_pi(code54, rng)
        res = tcgs_decode(code54, pi, DecoderConfig(max_trials=500))
        if res.certified:
            certified += 1
            _, cw = mld_oracle(code54, pi)
            assert res.codeword == cw
    assert certified > 100  # the certificate fires on most frames


def _fsum_weight(pi, z, c):
    """The soft weight of z - c, one correctly rounded sum."""
    cols = np.arange(len(z))
    return math.fsum(pi[list(z), cols] - pi[list(c), cols])


def _least_weight(code, pi, z):
    """The least _fsum_weight over the codebook.  The float64 row sums pick the
    candidates: each is within an ulp-level error of its fsum, far inside the
    1e-9 window."""
    cols = np.arange(code.n)
    terms = pi[list(z), cols] - pi[_codebook_scores_setup(code)[1], cols]
    approx = terms.sum(axis=1)
    return min(math.fsum(terms[i]) for i in np.flatnonzero(approx <= approx.min() + 1e-9))


@pytest.mark.parametrize("alg", ["tcgs", "lcc"])
def test_certified_is_score_optimal_under_ties(alg):
    """Likelihoods quantized to the integers -4..0, then to the tenths -1.1..0,
    make weight ties common.  A certified output's weight, one correctly rounded
    sum, must be the least over the codebook; which tied codeword it is may
    differ from mld_oracle's lexicographic tie-break, so weights are compared.
    Tenths are inexact in binary, so sums taken in different orders differ by
    an ulp and a certificate must compare correctly rounded ones."""
    rng = np.random.default_rng(17)
    certified = 0
    # after the three tie fields: t_min = 0 ([4,3], [6,5]), k = 1 with n = q and the
    # node x = 0 ([7,1]), and n = q ([5,2]); appended so earlier frames keep their draws
    codes = (make_code(5, 1, 4, 2), make_code(7, 1, 6, 2), make_code(2, 3, 7, 3),
             make_code(5, 1, 4, 3), make_code(7, 1, 6, 5), make_code(7, 1, 7, 1),
             make_code(5, 1, 5, 2))
    quantizers = (lambda pi: np.maximum(np.round(pi), -4.0),
                  lambda pi: np.maximum(np.round(pi * 10), -11.0) / 10)
    for quantize in quantizers:
        for code in codes:
            for _ in range(150):
                pi = quantize(pam_pi(code, rng)[0])
                if alg == "tcgs":
                    res = tcgs_decode(code, pi, DecoderConfig(max_trials=16))
                else:
                    res = lcc_decode(code, pi, LccConfig(eta=4))
                if res.certified:
                    certified += 1
                    z = hard_decision(pi)
                    assert _fsum_weight(pi, z, res.codeword) == _least_weight(code, pi, z)
    assert certified > 100


@pytest.mark.parametrize("L", [1, 2, 3, 7, 16])
def test_certified_output_weighs_the_least_at_any_budget(L):
    """At every budget, a certified output weighs the least over the codebook,
    including each frame whose tree certificate fires after its L-th trial:
    once the budget is spent the search reads the front of the frontier
    without a pop."""
    rng = np.random.default_rng(23)
    after_budget = 0
    for code in (make_code(5, 1, 4, 2), make_code(7, 1, 6, 2), make_code(2, 3, 7, 3)):
        for _ in range(150):
            pi = pam_pi(code, rng)[0]
            res = tcgs_decode(code, pi, DecoderConfig(max_trials=L))
            if res.certified:
                z = hard_decision(pi)
                assert _fsum_weight(pi, z, res.codeword) == _least_weight(code, pi, z)
                after_budget += res.trials == L and res.exit_reason == EXIT_CERTIFIED_TREE
    assert (after_budget > 0) == (L > 1)


def test_certificate_compares_correctly_rounded_weights(code54):
    """On this tenths-valued frame (3,0,2,4) weighs 0.6 and (2,2,2,2) weighs
    0.6000000000000001, both as correctly rounded sums.  Summed in rank order,
    the bound under (3,0,2,4) rounds up to (2,2,2,2)'s weight, so a tree
    certificate that compares sums taken in different orders fires on the
    heavier codeword."""
    pi = np.array([[-1.0, -0.6, -1.0, -0.6], [-0.3, -0.4, -0.4, -0.8],
                   [-0.9, -0.3, -0.3, -0.1], [-0.5, -0.3, -0.9, -0.4],
                   [-0.5, -0.6, -1.0, -0.2]])
    res = tcgs_decode(code54, pi, DecoderConfig(max_trials=32))
    assert res.exit_reason == EXIT_CERTIFIED_TREE
    assert res.codeword == (3, 0, 2, 4)
    assert res.best_weight == 0.6
    assert res.trials == 17
    z = hard_decision(pi)
    assert _fsum_weight(pi, z, (2, 2, 2, 2)) == 0.6000000000000001
    assert _fsum_weight(pi, z, res.codeword) == _least_weight(code54, pi, z) == 0.6


def test_popped_bounds_nondecreasing_and_weight_nonincreasing(code54):
    rng = np.random.default_rng(17)
    for _ in range(50):
        pi, _ = pam_pi(code54, rng)
        _, lines = traced(code54, pi, DecoderConfig(max_trials=32))
        bounds = [float(ln.rsplit("bound=", 1)[1])
                  for ln in lines if ln.startswith("POP ")]
        assert bounds == sorted(bounds)
        weights = [float(ln.split("weight=")[1].split()[0])
                   for ln in lines if "improved=1" in ln]
        assert weights == sorted(weights, reverse=True)


def test_trials_never_exceed_budget(code54):
    """The engine holds the budget: a decode makes at most L trials, and a
    budget exit comes exactly on the L-th."""
    rng = np.random.default_rng(23)
    budget_exits = 0
    for L in (1, 2, 3, 7, 16):
        for _ in range(20):
            pi, _ = pam_pi(code54, rng)
            res = tcgs_decode(code54, pi, DecoderConfig(max_trials=L))
            assert 1 <= res.trials <= L
            if res.exit_reason == EXIT_BUDGET:
                assert res.trials == L
                budget_exits += 1
    assert budget_exits


@pytest.mark.parametrize("alg", ["tcgs", "lcc"])
def test_genie_mode_stops_on_transmitted(code16, alg):
    def decode(pi, genie=None):
        if alg == "tcgs":
            return tcgs_decode(code16, pi, DecoderConfig(max_trials=64), genie_codeword=genie)
        return lcc_decode(code16, pi, LccConfig(eta=4), genie_codeword=genie)

    rng = np.random.default_rng(4)
    from treechase.channel import sigma_from_snr_db, transmit
    sigma = sigma_from_snr_db(4.0, 11 / 15)
    hits = 0
    for _ in range(40):
        msg = [int(v) for v in rng.integers(0, 16, size=11)]
        tx = encode(code16, msg)
        r = transmit(modulate(code16.field, tx), sigma, rng)
        pi = likelihoods(code16.field, 15, r, sigma * sigma)
        plain = decode(pi)
        aided = decode(pi, genie=tx)
        assert aided.trials <= plain.trials
        if aided.exit_reason == EXIT_GENIE:
            hits += 1
            assert aided.codeword == tx
    assert hits >= 1


def test_threshold_mode_terminates_with_valid_reason(code16):
    # eps large enough that the sphere bound binds before the trial budget
    rng = np.random.default_rng(12)
    from treechase.channel import sigma_from_snr_db, transmit
    sigma = sigma_from_snr_db(4.0, 11 / 15)
    reasons = set()
    for _ in range(60):
        msg = [int(v) for v in rng.integers(0, 16, size=11)]
        tx = encode(code16, msg)
        r = transmit(modulate(code16.field, tx), sigma, rng)
        pi = likelihoods(code16.field, 15, r, sigma * sigma)
        res = tcgs_decode(code16, pi,
                          DecoderConfig(max_trials=64,
                                        loglik_floor=loglik_floor(60, sigma * sigma, 0.3)))
        reasons.add(res.exit_reason)
        assert res.exit_reason in {EXIT_THRESHOLD, EXIT_CERTIFIED_KANEKO, EXIT_BUDGET}
    assert EXIT_THRESHOLD in reasons


def test_threshold_fires_immediately_outside_sphere(code16):
    # noise drawn at twice the claimed sigma puts the frame far outside the
    # typical sphere: T_z goes negative and the very first pop exits
    rng = np.random.default_rng(5)
    from treechase.channel import sigma_from_snr_db, transmit
    sigma = sigma_from_snr_db(5.0, 11 / 15)
    tx = encode(code16, [1] * 11)
    r = transmit(modulate(code16.field, tx), 2.5 * sigma, rng)
    pi = likelihoods(code16.field, 15, r, sigma * sigma)
    res = tcgs_decode(code16, pi,
                      DecoderConfig(max_trials=64,
                                    loglik_floor=loglik_floor(60, sigma * sigma, 0.01)))
    assert res.exit_reason == EXIT_THRESHOLD
    assert res.trials == 1


def test_threshold_residual_that_overflows_is_rejected(code16):
    """Entries near 1e308 keep the soft weights small enough to pass their
    total check, but their sum over z, the threshold residual, overflows: a
    ValueError, and no numpy overflow warning or budget run behind it.  T_z is
    read only by frames that reach the tree, so with a budget of one trial
    the frame returns its uncertified trial-1 result instead."""
    rng = np.random.default_rng(0)
    pi = 1e308 + 1e300 * rng.normal(0.0, 5.0, size=(16, 15))
    floor = loglik_floor(60, 0.3, 0.01)
    with pytest.raises(ValueError, match="threshold residual"):
        tcgs_decode(code16, pi, DecoderConfig(max_trials=16, loglik_floor=floor))
    res = tcgs_decode(code16, pi, DecoderConfig(max_trials=1, loglik_floor=floor))
    assert (res.exit_reason, res.trials, res.certified) == (EXIT_BUDGET, 1, False)


def test_threshold_mode_decodes_a_prime_field(code54, example1_pi):
    """The sphere reaches the decoder as a log-likelihood floor, which holds for
    any field.  On the worked example over GF(5), a floor at z's own
    log-likelihood (T_z = 0) exits at the first pop, and one 0.5 below it
    finds the ML codeword (weight 0.48) inside the sphere before exiting."""
    z = hard_decision(example1_pi)
    top = float(example1_pi[z, range(4)].sum())
    res = tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=16, loglik_floor=top))
    assert (res.exit_reason, res.trials) == (EXIT_THRESHOLD, 1)
    res = tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=16, loglik_floor=top - 0.5))
    assert (res.exit_reason, res.message, res.codeword) == (EXIT_THRESHOLD, [1, 2], (1, 3, 0, 2))
    with pytest.raises(ValueError, match="non-finite"):
        tcgs_decode(code54, np.full((5, 4), np.nan), DecoderConfig(loglik_floor=top))


def test_decoder_config_validation(code54, example1_pi):
    with pytest.raises(ValueError):
        DecoderConfig(max_trials=0)
    for max_trials in (1.5, 2.0):  # 1.5 would run 2 trials
        with pytest.raises(ValueError, match="max_trials must be an integer"):
            DecoderConfig(max_trials=max_trials)
    assert tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=np.int64(1))).trials == 1
    for floor in (math.nan, math.inf, -math.inf, True, np.False_, "x", "-3.0", np.array([-3.0])):
        with pytest.raises(ValueError, match="loglik_floor must be finite"):
            DecoderConfig(loglik_floor=floor)
    for floor in (-3, np.float32(-3.0), np.int64(-3)):
        assert DecoderConfig(loglik_floor=floor).loglik_floor == -3


def test_pi_shape_check(code54):
    with pytest.raises(ValueError):
        tcgs_decode(code54, np.zeros((4, 4)))


def _spoil(pi, how):
    bad = pi.copy()
    if how == "complex":
        return bad.astype(complex)
    if how == "bool":
        return bad > bad.mean()
    # huge: finite, but three weights near 1e308, so sums of them overflow
    bad[[0, 2, 4], [1, 2, 3]] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf,
                                 "huge": 1e308}[how]
    return bad


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("decode", [tcgs_decode, lcc_decode])
@pytest.mark.parametrize("how", ["nan", "+inf", "-inf", "huge", "complex", "bool"])
def test_decoders_reject_non_finite_or_non_real_pi(code54, example1_pi, decode, how):
    with pytest.raises(ValueError):
        decode(code54, _spoil(example1_pi, how))
    with pytest.raises(ValueError):
        decode(code54, example1_pi.tolist())


# Finite, with weights near 1e308 over [3,1] GF(4): the tree search certified
# (0, 0, 0) at weight inf although (1, 1, 1) scores higher (5e307), and the Gray
# walk certified (1, 1, 1) at weight inf.
HUGE_PI = np.array([[-6e307, -1e308, -1e308], [5e307, -1e308, 1e308],
                    [1e308, -1e308, -1e308], [-1e308, 1e308, -1e308]])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("decode", [tcgs_decode, lambda c, p: lcc_decode(c, p, LccConfig(eta=3))])
def test_decoders_reject_huge_finite_pi(decode):
    with pytest.raises(ValueError, match="too large"):
        decode(make_code(2, 2, 3, 1), HUGE_PI)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p, m, n, k", [(2, 2, 3, 1), (5, 1, 4, 2), (2, 3, 7, 3)])
def test_huge_finite_pi_never_overflows_or_certifies_a_heavier_codeword(p, m, n, k):
    """Entries drawn from {+-1e308, +-6e307, +-5e307, +-1, 0}, and columns offset
    by such values under weights near 1e300: each decode raises ValueError or
    returns, and a certified output weighs no more than any codeword, each
    weight one math.fsum of soft weights about z."""
    code = make_code(p, m, n, k)
    q, cws, cols = code.field.q, _codebook_scores_setup(code)[1], np.arange(n)
    values = np.array([1e308, -1e308, 6e307, -6e307, 5e307, -5e307, 1.0, -1.0, 0.0])
    rng = np.random.default_rng(20)
    lcc = LccConfig(eta=min(3, n))
    rejected = decoded = 0
    for _ in range(150):
        for pi in (rng.choice(values, size=(q, n)),
                   rng.choice(values[:6], size=n) + 1e300 * rng.integers(-3, 1, size=(q, n))):
            for decode in (tcgs_decode, lambda c, p: lcc_decode(c, p, lcc)):
                try:
                    res = decode(code, pi)
                except ValueError:
                    rejected += 1
                    continue
                decoded += 1
                if res.certified:
                    top = pi[hard_decision(pi), cols]
                    assert res.best_weight <= min(math.fsum((top - pi[cw, cols]).tolist())
                                                  for cw in cws)
    assert rejected > 0 and decoded > 0


def _narrow(raw: np.ndarray, dtype) -> np.ndarray:
    """raw (entries 0..255) mapped into dtype's range, then cast to dtype."""
    if dtype == np.int8:
        return (raw - 128).astype(dtype)
    if dtype == np.int16:
        return (raw * 97 - 12000).astype(dtype)
    if dtype == np.uint8:
        return raw.astype(dtype)
    return (raw / 7.0).astype(dtype)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.float16, np.float32])
def test_narrow_dtypes_decode_as_float64(dtype):
    """Every decode of a narrow pi equals the decode of the same values in float64.

    The first matrix certified the wrong codeword when uint8 weights wrapped,
    and raised "negative soft weight" when its int8 weights did.
    """
    rng = np.random.default_rng(41)
    example = np.array([[228, 28, 128], [28, 228, 128], [128, 128, 228], [78, 78, 28]])
    cases = [(make_code(2, 2, 3, 1), example)]
    for code in (make_code(2, 2, 3, 1), make_code(2, 3, 7, 3)):
        cases += [(code, rng.integers(0, 256, size=(code.field.q, code.n))) for _ in range(25)]
    lcc = LccConfig(eta=3)
    for code, raw in cases:
        thr = DecoderConfig(loglik_floor=loglik_floor(code.n * code.field.m, 2.0, 0.3))
        pi = _narrow(raw, dtype)
        ref = pi.astype(np.float64)
        for decode in (tcgs_decode, lambda c, p: tcgs_decode(c, p, thr),
                       lambda c, p: lcc_decode(c, p, lcc)):
            got, want = decode(code, pi), decode(code, ref)
            assert got == want
            if got.codeword is not None:
                tx = tuple(encode(code, [1]))
                assert classify_ml(code, pi, got, tx) == classify_ml(code, ref, want, tx)


def test_pops_follow_heap_key_under_ties(code54, code76, monkeypatch):
    """Rounded, clipped likelihoods make many bounds tie; the frontier must still
    pop in strictly increasing (bound, len, ranks) order: bound, then Hamming
    weight, then leftmost ranks."""
    popped = []
    real = decoder.render_pattern
    monkeypatch.setattr(decoder, "render_pattern",
                        lambda chain, f: popped.append((chain, f)) or real(chain, f))
    rng = np.random.default_rng(5)
    cfg = DecoderConfig(max_trials=32)
    ties = 0
    for code in (code54, code76, make_code(2, 3, 7, 3)):
        for _ in range(100):
            pi = np.maximum(np.round(pam_pi(code, rng)[0]), -4.0)
            popped.clear()
            traced(code, pi, cfg)
            keys = [(bound_B(chain, f, code.t_min), len(f), f) for chain, f in popped]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            ties += sum(a[0] == b[0] for a, b in zip(keys, keys[1:]))
    assert ties > 0


def test_render_pattern_runs_only_for_trace_lines(code16, monkeypatch):
    """Only trace lines read a rendered pattern: an untraced decode renders none,
    a traced one renders one per POP line.  Frames 0..99 of [15,11] at 4 dB,
    seed 0, drawn as treechase.sim draws them."""
    rendered = []
    real = decoder.render_pattern
    monkeypatch.setattr(decoder, "render_pattern",
                        lambda chain, f: rendered.append(f) or real(chain, f))
    sigma = sigma_from_snr_db(4.0, code16.k / code16.n)
    frames = [draw_frame(code16, sigma, 0, i)[1] for i in range(100)]
    cfg = DecoderConfig(max_trials=16)
    for pi in frames:
        tcgs_decode(code16, pi, cfg)
    assert rendered == []
    pops = sum(ln.startswith("POP ") for pi in frames for ln in traced(code16, pi, cfg)[1])
    assert len(rendered) == pops > 0


def _rs15_4db_frames(code16, count):
    """Frames 0..count-1 of [15,11] at 4 dB, seed 0, drawn as treechase.sim draws them."""
    sigma = sigma_from_snr_db(4.0, code16.k / code16.n)
    for i in range(count):
        yield draw_frame(code16, sigma, 0, i)[1]


def _count_tree_calls(monkeypatch):
    """Patch the decoder's tree helpers to count their calls; returns the live counts."""
    calls = dict.fromkeys(("leftmost_child", "next_sibling", "bound_B"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(decoder, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(decoder, name, counted)
    return calls


def test_one_trial_budget_builds_no_tree(code16, monkeypatch):
    """With max_trials=1 (the sweep's hdd) no pop can follow the first trial, so
    the tree search reads no child, sibling or bound."""
    calls = _count_tree_calls(monkeypatch)
    cfg = DecoderConfig(max_trials=1)
    for pi in _rs15_4db_frames(code16, 300):
        assert tcgs_decode(code16, pi, cfg).trials == 1
    assert calls == {"leftmost_child": 0, "next_sibling": 0, "bound_B": 0}


def test_chain_is_sorted_only_when_the_tree_reads_it(code16, monkeypatch):
    """The atom chain's one sort runs on the first read of a rank.  A frame that
    a Kaneko certificate settles at trial 1, and every lcc frame, never sorts;
    every tcgs frame that goes on to the tree search does.  The chain's weights
    are the list .tolist() returns, read in place by every scan: after the
    search, atom(r) and weights[r] at every rank r still equal a fresh sort of
    the atoms by (weight, coord, symbol), the symbol being z_j - delta.  The
    frames: [15,11] 4 dB frames 0..299, then frames 0..49 with pi rounded to
    0.1, which tie weights on one coordinate, where a sort by (weight, coord,
    delta) orders some atoms differently."""
    records = []
    real = decoder.soft_weights
    monkeypatch.setattr(decoder, "soft_weights",
                        lambda field, pi: records.append(real(field, pi)) or records[-1])
    tcgs, lcc = DecoderConfig(max_trials=16), LccConfig(eta=4)
    field = code16.field
    sorted_frames = unsorted_frames = delta_differs = 0
    frames = [*_rs15_4db_frames(code16, 300),
              *(np.round(pi, 1) for pi in _rs15_4db_frames(code16, 50))]
    for pi in frames:
        res = tcgs_decode(code16, pi, tcgs)
        reached_tree = res.trials > 1 or res.exit_reason != EXIT_CERTIFIED_KANEKO
        sw = records[-1]
        assert ("_order" in vars(sw)) == reached_tree
        if reached_tree:
            z, lam = front_end(field, pi)[:2]
            atoms = sorted((float(lam[d - 1, j]), j, field.sub(z[j], d), d)
                           for j in range(code16.n) for d in range(1, field.q))
            assert [sw.atom(r) for r in range(sw.size)] == [(j, d) for _, j, _, d in atoms]
            assert sw.weights == [w for w, *_ in atoms]
            delta_differs += sorted(atoms, key=lambda a: (a[0], a[1], a[3])) != atoms
        sorted_frames += reached_tree
        unsorted_frames += not reached_tree
        lcc_decode(code16, pi, lcc)
        assert "_order" not in vars(records[-1])
    assert len(records) == 2 * len(frames) and sorted_frames > 0 and unsorted_frames > 0
    assert delta_differs > 0


def _fields(line):
    """The key=value fields of a trace line, after its tag."""
    return dict(tok.split("=", 1) for tok in line.split()[1:])


def _noise_frames(code, count):
    """count standard-normal (q, n) matrices, seed 0: pi with no channel behind it."""
    rng = np.random.default_rng(0)
    return (rng.normal(size=(code.field.q, code.n)) for _ in range(count))


@pytest.mark.parametrize("source", ["rs15-4db", "gf4-noise"])
def test_result_and_trace_agree(code16, source):
    """The EXIT line repeats the returned DecodeResult's exit reason, trials,
    message and weight; steps counts the POP lines and trials the HDD lines; and
    the last HDD line that improved the hypothesis names the result's message
    and weight.  With no such line, e* is still z: the result keeps INIT's
    weight and no message, or the zero message when a certificate fired.  The
    frames: 300 seeded [15,11] 4 dB frames (tcgs, L = 16), and 300 noise
    matrices on the [3,1] GF(4) code (L = 64), some of which certify before any
    trial decodes."""
    if source == "rs15-4db":
        code, frames, cfg = code16, _rs15_4db_frames(code16, 300), DecoderConfig(max_trials=16)
    else:
        code = make_code(2, 2, 3, 1)
        frames, cfg = _noise_frames(code, 300), DecoderConfig(max_trials=64)
    reasons, zero_outputs = set(), 0
    for pi in frames:
        res, lines = traced(code, pi, cfg)
        tags = [ln.split()[0] for ln in lines]
        msg = poly_str(res.message) if res.message is not None else "none"
        weight = f"{res.best_weight:.4f}"
        assert tags[-1] == "EXIT" and tags.count("EXIT") == 1
        assert _fields(lines[-1]) == {"reason": res.exit_reason, "trials": str(res.trials),
                                      "msg": msg, "weight": weight}
        assert tags.count("POP") == res.steps and tags.count("HDD") == res.trials
        improved = [f for f in map(_fields, lines[:-1]) if f.get("improved") == "1"]
        if improved:
            assert (improved[-1]["msg"], improved[-1]["weight"]) == (msg, weight)
        else:
            assert _fields(lines[tags.index("INIT")])["weight"] == weight
            assert res.message == ([] if res.certified else None)
            zero_outputs += res.certified
        reasons.add(res.exit_reason)
    if source == "rs15-4db":
        assert reasons == {EXIT_CERTIFIED_KANEKO, EXIT_CERTIFIED_TREE, EXIT_BUDGET}
    else:
        assert zero_outputs > 0


def test_budget_exhausted_frame_expands_every_popped_node(code16, monkeypatch):
    """A frame that spends all L = 16 trials pops 15 nodes and builds the root's
    child plus the child and sibling of every pop, the 15th too: its trial is
    the last, and the budget exit reads the front of the frontier they join."""
    calls = _count_tree_calls(monkeypatch)
    cfg = DecoderConfig(max_trials=16)
    exhausted = 0
    for pi in _rs15_4db_frames(code16, 300):
        before = dict(calls)
        if tcgs_decode(code16, pi, cfg).exit_reason == EXIT_BUDGET:
            exhausted += 1
            assert {k: calls[k] - before[k] for k in calls} == {
                "leftmost_child": 16, "next_sibling": 15, "bound_B": 31}
    assert exhausted == 22


def test_verify_trace_detects_perturbation(code54, example1_pi, example1_trace):
    ok, diag = compare_traces(
        traced(code54, example1_pi, DecoderConfig(max_trials=16))[1], example1_trace)
    assert ok and diag == "ok"
    perturbed = example1_pi.copy()
    perturbed[2, 1] = -1.0  # reorders the atom chain
    ok2, diag2 = compare_traces(
        traced(code54, perturbed, DecoderConfig(max_trials=16))[1], example1_trace)
    assert not ok2
    assert "ATOM" in diag2 or "Z " in diag2
    with pytest.raises(ValueError):
        compare_traces(["x"], [])


@pytest.mark.parametrize("m,n,k,snr_db,frames", [(4, 15, 11, 4.0, 300), (8, 255, 239, 6.0, 12)])
def test_factorize_codeword_equals_encode(monkeypatch, m, n, k, snr_db, frames):
    """Every codeword factorize reads off the error locator, over seeded frames
    through both pattern orders, equals the message's encoding."""
    code = make_code(2, m, n, k)
    sigma = sigma_from_snr_db(snr_db, k / n)
    checked = []

    def factorize_and_check(basis, xs):
        found = factorize(basis, xs)
        if found is not None:
            u, c = found
            checked.append(c == encode(code, u))
        return found

    monkeypatch.setattr(decoder, "factorize", factorize_and_check)
    for i in range(frames):
        _, pi = draw_frame(code, sigma, 0, i)
        tcgs_decode(code, pi, DecoderConfig(max_trials=16))
        lcc_decode(code, pi, LccConfig(eta=4))
    assert len(checked) > frames and all(checked)


@pytest.mark.parametrize("p,m,n,k", [(2, 3, 7, 3), (5, 1, 4, 2), (7, 1, 6, 2)])
def test_every_attempt_is_a_bounded_distance_decode(monkeypatch, p, m, n, k):
    """Every attempt of seeded tcgs (L = 16) and lcc decodes returns exactly the
    one codeword within floor((n - k)/2) of the test vector it interpolates
    (the basis's points), and None when there is none."""
    code = make_code(p, m, n, k)
    radius = (n - k) // 2
    msgs, cws = _codebook_scores_setup(code)
    counts = {"found": 0, "none": 0}

    def factorize_and_check(basis, xs):
        found = factorize(basis, xs)
        word = np.array([basis.points[x] for x in xs])
        near = np.flatnonzero((cws != word).sum(axis=1) <= radius)
        if near.size:
            (i,) = near  # the balls of radius floor((d - 1)/2) are disjoint
            assert found == (msgs[i], tuple(cws[i].tolist()))
        else:
            assert found is None
        counts["found" if found else "none"] += 1
        return found

    monkeypatch.setattr(decoder, "factorize", factorize_and_check)
    rng = np.random.default_rng(p * 100 + n)
    for _ in range(100):
        pi, _ = pam_pi(code, rng)
        tcgs_decode(code, pi, DecoderConfig(max_trials=16))
        lcc_decode(code, pi, LccConfig(eta=min(4, n)))
    assert counts["found"] > 200 and counts["none"] > 200


@pytest.mark.parametrize("p,m,n,k", [(2, 3, 7, 3), (5, 1, 4, 2), (7, 1, 6, 2)])
def test_bw_decode_is_the_bounded_distance_decode(p, m, n, k):
    """The Berlekamp-Welch oracle returns the message of the one codeword
    within floor((n - k)/2) of a word, by the codebook, and None when there is
    none: on random words and on codewords with that many symbols changed."""
    code = make_code(p, m, n, k)
    radius = (n - k) // 2
    msgs, cws = _codebook_scores_setup(code)
    rng = np.random.default_rng(p * 100 + n)
    found = 0
    for trial in range(400):
        if trial % 2:
            word = rng.integers(0, code.field.q, size=n)
        else:  # a codeword with radius coordinates redrawn
            word = cws[rng.integers(len(cws))].copy()
            word[rng.choice(n, radius, replace=False)] = rng.integers(0, code.field.q, size=radius)
        near = np.flatnonzero((cws != word).sum(axis=1) <= radius)
        u = bw_decode(code, word.tolist())
        assert u == (msgs[near[0]] if near.size else None)
        found += u is not None
    assert 200 <= found < 400


def test_every_rs15_attempt_is_the_berlekamp_welch_decode(monkeypatch, code16):
    """Every attempt of tcgs (L = 16) and lcc (eta = 4) on the [15,11] 4 dB
    frames 0..299 returns exactly the Berlekamp-Welch decode of the test vector
    it interpolates, or None when that has none: the bounded-distance check of
    the deployed-shape code, whose codebook is too large to search."""
    counts = {"found": 0, "none": 0}

    def factorize_and_check(basis, xs):
        found = factorize(basis, xs)
        u = bw_decode(code16, [basis.points[x] for x in xs])
        assert found == (None if u is None else (u, encode(code16, u)))
        counts["found" if found else "none"] += 1
        return found

    monkeypatch.setattr(decoder, "factorize", factorize_and_check)
    sigma = sigma_from_snr_db(4.0, code16.k / code16.n)
    for i in range(300):
        _, pi = draw_frame(code16, sigma, 0, i)
        tcgs_decode(code16, pi, DecoderConfig(max_trials=16))
        lcc_decode(code16, pi, LccConfig(eta=4))
    assert counts["found"] > 1000 and counts["none"] > 1000
