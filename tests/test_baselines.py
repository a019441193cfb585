import itertools

import numpy as np
import pytest

from treechase.baselines import LccConfig, classify_ml, lcc_decode
from treechase.channel import soft_weights
from treechase.decoder import EXIT_BUDGET, DecoderConfig, tcgs_decode
from treechase.galois import PrimeField
from treechase.interp import factorize
from treechase.rscode import encode
from treechase.sim import SweepRow, draw_frame

from conftest import pam_pi
from reference import interpolate_points

GF5 = PrimeField(5)


def test_lcc_worked_example_one_position(code54, example1_pi):
    res = lcc_decode(code54, example1_pi, LccConfig(eta=1))
    assert res.trials == 2
    assert res.message == [1, 4]
    assert res.best_weight == pytest.approx(0.62, abs=5e-3)
    assert res.backward_ops == 1 and res.forward_ops == 1


def test_lcc_eta_zero_is_plain_hard_decision(code54, example1_pi):
    res = lcc_decode(code54, example1_pi, LccConfig(eta=0))
    assert res.trials == 1
    assert res.message == [1, 3]
    assert res.best_weight == pytest.approx(0.94, abs=5e-3)


def test_lcc_exhaustive_matches_brute_force(code54, example1_pi):
    """eta = n: every {z_j, second-best} combination is tried; the result must
    equal the best hypothesis among those 2^n hard decisions."""
    res = lcc_decode(code54, example1_pi, LccConfig(eta=4))
    f = code54.field
    sw = soft_weights(f, example1_pi)
    z = sw.z
    second = sw.W.argmin(axis=0).tolist()  # W[z_j][j] = +inf: the cheapest change of z_j
    best_w, best_u = None, None
    for mask in itertools.product((0, 1), repeat=4):
        y = [second[j] if mask[j] else z[j] for j in range(4)]
        basis = interpolate_points(f, 2, zip(code54.eval_points, y))
        found = factorize(basis, code54.eval_points)
        if found is None:
            continue
        u = found[0]
        cw = encode(code54, u)
        w = sw.pattern_weight([f.sub(zj, cj) for zj, cj in zip(z, cw)])
        if best_w is None or w < best_w:
            best_w, best_u = w, u
    assert res.message == best_u
    assert res.best_weight == pytest.approx(best_w)


def test_lcc_breaks_a_tie_for_second_best_by_the_smaller_symbol(code54):
    """Coordinate 0 is the least reliable: z_0 = 3, and symbols 0 and 1 tie for
    second best.  Symbol 0 is the change of z_0 by delta 3 and symbol 1 the one
    by delta 2, so the tie-break by symbol and the one by delta differ.  z and
    (1, 0, 3, 0) are two symbols from every codeword, (0, 0, 3, 0) one from the
    zero codeword, so lcc at eta = 1 finds a codeword only by trying symbol 0."""
    z = (3, 0, 3, 0)
    pi = np.full((5, 4), -2.0)
    pi[list(z), range(4)] = 0.0
    pi[[0, 1], 0] = -0.5
    assert soft_weights(code54.field, pi).W[:, 0].tolist() == [0.5, 0.5, 2.0, np.inf, 2.0]
    res = lcc_decode(code54, pi, LccConfig(eta=1))
    assert (res.trials, res.codeword, res.best_weight) == (2, (0, 0, 0, 0), 2.5)


def test_lcc_gray_walk_single_swap_per_trial(code16):
    rng = np.random.default_rng(31)
    for _ in range(20):
        pi, _ = pam_pi(code16, rng, sigma=0.9)
        res = lcc_decode(code16, pi, LccConfig(eta=4))
        assert res.trials <= 16
        assert res.backward_ops == res.trials - 1
        assert res.forward_ops == res.trials - 1


def test_lcc_budget_never_exceeds_tcgs_with_matching_budget(code54):
    """lcc's budget is its 2^eta test vectors, held by the engine as tcgs's L
    is: at most 2^eta trials, and exactly 2^eta on a budget exit, so eta = 0
    is the one trial of z."""
    rng = np.random.default_rng(41)
    for eta in (0, 1, 2, 3):
        budget_exits = 0
        for _ in range(50):
            pi, _ = pam_pi(code54, rng)
            lcc = lcc_decode(code54, pi, LccConfig(eta=eta))
            tcgs = tcgs_decode(code54, pi, DecoderConfig(max_trials=1 << eta))
            for res in (lcc, tcgs):
                assert 1 <= res.trials <= 1 << eta
                if res.exit_reason == EXIT_BUDGET:
                    assert res.trials == 1 << eta
                    budget_exits += 1
            if eta == 0:
                assert lcc.trials == 1 and lcc.steps == 0
        assert budget_exits


def test_lcc_eta_validation(code54, example1_pi):
    with pytest.raises(ValueError):
        LccConfig(eta=-1)
    for eta in (2.0, 2.5):  # 1 << 2.0 would raise TypeError inside the Gray walk
        with pytest.raises(ValueError, match="eta must be an integer"):
            LccConfig(eta=eta)
    assert LccConfig(eta=np.int64(2)).eta == 2
    with pytest.raises(ValueError):
        lcc_decode(code54, example1_pi, LccConfig(eta=5))
    with pytest.raises(ValueError, match="eta"):  # checked before the front end reads pi
        lcc_decode(code54, np.full((5, 4), np.nan), LccConfig(eta=5))


def test_classify_ml_four_cases(code54, example1_pi):
    res = tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=16))
    tx = (1, 3, 0, 2)
    # case 1: equal and certified
    assert classify_ml(code54, example1_pi, res, tx) == (0, 0)
    # case 2: equal, no certificate
    res5 = tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=2))
    assert res5.codeword != tx or not res5.certified
    other = res5.codeword
    assert classify_ml(code54, example1_pi, res5, other) == (1, 0)
    # case 3: unequal, output strictly more likely than transmitted
    assert classify_ml(code54, example1_pi, res, (0, 0, 0, 0)) == (1, 1)
    # case 4: unequal, transmitted strictly more likely (0.48 < 0.62)
    assert classify_ml(code54, example1_pi, res5, tx) == (1, 0)


def test_words_of_the_wrong_shape_are_rejected(code54, example1_pi):
    """A transmitted or genie word has n symbols, each an integer in [0, q).  A
    zip over a longer or shorter word would truncate it silently: classify_ml
    would score a correct decode against tx + (0,) as (1, 0), and a short or
    non-integer genie word would never match, so the decode would run to its
    budget.  numpy integers are integers."""
    tx = (1, 3, 0, 2)
    res = tcgs_decode(code54, example1_pi, DecoderConfig(max_trials=16))
    assert classify_ml(code54, example1_pi, res, tx) == (0, 0)
    assert classify_ml(code54, example1_pi, res, np.array(tx)) == (0, 0)
    for bad in (tx + (0,), tx[:3], (1, 3, 0, 5), (1, 3, -1, 2), (1, 3, 0.5, 2)):
        with pytest.raises(ValueError, match="4 symbols in"):
            classify_ml(code54, example1_pi, res, bad)
        with pytest.raises(ValueError, match="4 symbols in"):
            tcgs_decode(code54, example1_pi, genie_codeword=bad)
        with pytest.raises(ValueError, match="4 symbols in"):
            lcc_decode(code54, example1_pi, genie_codeword=bad)


def test_classify_ml_none_output_counts_upper_only(code54, example1_pi):
    from treechase.decoder import DecodeResult, EXIT_BUDGET
    res = DecodeResult(message=None, codeword=None, best_error=(1, 0, 2, 0),
                       best_weight=1.39, trials=1, steps=0, exit_reason=EXIT_BUDGET)
    assert classify_ml(code54, example1_pi, res, (1, 3, 0, 2)) == (1, 0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_classify_ml_checks_pi_as_the_decoders_do(code16):
    """pi's shape and dtype are checked on every path, as the decoders check
    them: a matrix of the wrong shape could silently score or index out of
    range.  Its values are checked wherever classify_ml weighs, that is, where
    the output is wrong: the weight of the transmitted word comes from the
    decoders' front end, which raises their ValueError for a NaN or infinite
    entry and for finite entries so far apart that weights overflow."""
    tx, pi = draw_frame(code16, 0.4, 0, 0)
    res = tcgs_decode(code16, pi)
    other = encode(code16, [0] * 11)
    assert res.codeword == tx != other and classify_ml(code16, pi, res, other)[0] == 1
    for bad in (pi[:, :14], np.hstack([pi, pi[:, :1]]), pi[:15, :15], pi.astype(object)):
        for sent in (tx, other):
            with pytest.raises(ValueError, match="pi"):
                classify_ml(code16, bad, res, sent)
    nan_column, inf_column = pi.copy(), pi.copy()
    nan_column[:, 3], inf_column[:, 3] = np.nan, np.inf
    spread = np.where(pi == pi.max(axis=0), 1e308, -1e308)
    for bad in (nan_column, inf_column, spread):
        with pytest.raises(ValueError, match="non-finite entries, or entries too large"):
            classify_ml(code16, bad, res, other)


def test_classify_ml_score_tie_counts_upper_only(code54):
    """A wrong output exactly as heavy as the transmitted word is no proven ML
    error: the (1, 1) rule is a strict <.  Rows 0 and 1 tie at every coordinate
    and row 2 is best at the first, so the codewords 0000 and 1111 (messages []
    and [1]) both weigh 1.0 and every other codeword weighs at least 3."""
    pi = np.full((5, 4), -4.0)
    pi[0], pi[1], pi[2, 0] = -1.0, -1.0, 0.0
    res = tcgs_decode(code54, pi, DecoderConfig(max_trials=16))
    assert res.best_weight == 1.0
    tx = encode(code54, [1]) if res.codeword == (0, 0, 0, 0) else encode(code54, [])
    assert res.codeword != tx
    assert classify_ml(code54, pi, res, tx) == (1, 0)


def test_classify_ml_weight_equals_soft_weight_table(code54, code76):
    """On wrong outputs of rounded (tied) pi, classify_ml's verdict equals the
    one from the decoders' soft-weight table about z, bit for bit."""
    rng = np.random.default_rng(5)
    wrong = 0
    for code in (code54, code76):
        field = code.field
        for _ in range(100):
            pi, tx = pam_pi(code, rng)
            pi = np.maximum(np.round(2.0 * pi), -8.0) / 2.0
            res = tcgs_decode(code, pi, DecoderConfig(max_trials=2))
            if res.codeword is None or res.codeword == tx:
                continue  # decided without a weight
            wrong += 1
            sw = soft_weights(field, pi)
            e_tx = tuple(field.sub(zj, cj) for zj, cj in zip(sw.z, tx))
            w_tx = sw.pattern_weight(e_tx)
            want = (1, 1) if res.best_weight < w_tx else (1, 0)
            assert classify_ml(code, pi, res, tx) == want
    assert wrong > 20


def test_bound_tally_invariants():
    t = SweepRow("tcgs", 5.0)
    t.add(False, 0, 0, 1)
    t.add(True, 1, 1, 4)
    t.add(True, 1, 0, 2)
    assert (t.frames, t.frame_errors, t.e_upper, t.e_lower) == (3, 2, 2, 1)
    assert t.e_lower_rate <= t.fer <= t.e_upper_rate
    assert t.avg_trials == pytest.approx(7 / 3)
    with pytest.raises(ValueError):
        t.add(True, 0, 0, 1)   # error outside [el, eu]
    with pytest.raises(ValueError):
        t.add(False, 0, 1, 1)  # el > error


def test_sandwich_holds_over_random_frames(code54):
    rng = np.random.default_rng(61)
    tally = SweepRow("tcgs", 5.0)
    for _ in range(200):
        pi, tx = pam_pi(code54, rng)
        res = tcgs_decode(code54, pi, DecoderConfig(max_trials=8))
        eu, el = classify_ml(code54, pi, res, tx)
        err = res.codeword is None or tuple(res.codeword) != tx
        tally.add(err, eu, el, res.trials)
    assert tally.e_lower_rate <= tally.fer <= tally.e_upper_rate
