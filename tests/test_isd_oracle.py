"""The information-set oracle (reference.isd_oracle): exact against the
exhaustive codebook on the small codes, then the check that no certified
output on seeded [15,11] GF(16) frames has a lighter codeword, where the
codebook (16^11 codewords) is out of reach."""

import math

import numpy as np
import pytest

from treechase.baselines import LccConfig, lcc_decode
from treechase.channel import sigma_from_snr_db
from treechase.decoder import EXIT_CERTIFIED_TREE, DecoderConfig, tcgs_decode
from treechase.rscode import make_code
from treechase.sim import draw_frame

from conftest import pam_pi
from reference import codebook, isd_oracle, mld_oracle

CAP = 10_000


def _weight(pi, c):
    """The decoder's weight of codeword c: sum_j pi[z_j][j] - pi[c_j][j], one fsum."""
    cols = np.arange(pi.shape[1])
    return math.fsum((pi[pi.argmax(axis=0), cols] - pi[list(c), cols]).tolist())


@pytest.mark.parametrize("params", [(2, 2, 3, 2), (5, 1, 4, 2), (7, 1, 6, 2), (2, 3, 7, 3)])
def test_isd_oracle_equals_the_codebook_minimum(params):
    """GF(4), GF(5), GF(7) and GF(8): under the least weight the oracle finds
    it, mld_oracle's codeword weighs it too, and just below it the oracle
    finds nothing; with no bound it reaches every one of the q^k codewords.
    pi is real, or rounded to the integers so that codewords tie."""
    code = make_code(*params)
    rng = np.random.default_rng(41)
    for rounded in (False, True):
        for _ in range(40):
            pi = pam_pi(code, rng)[0]
            if rounded:
                pi = np.round(pi)
            least = min(_weight(pi, c) for _, c in codebook(code))
            assert _weight(pi, mld_oracle(code, pi)[1]) == least
            c, w, _ = isd_oracle(code, pi, least, CAP)
            assert w == least == _weight(pi, c)
            assert isd_oracle(code, pi, math.nextafter(least, -math.inf), CAP)[:2] == (None, math.inf)
            c, w, leaves = isd_oracle(code, pi, math.inf, CAP)
            assert (w, leaves) == (least, code.field.q ** code.k)


def test_isd_oracle_raises_past_its_cap(code54):
    pi = pam_pi(code54, np.random.default_rng(0))[0]
    with pytest.raises(RuntimeError, match="more than 24 leaves"):
        isd_oracle(code54, pi, math.inf, 24)


def _rs15_frames(code, snr_db, frames):
    sigma = sigma_from_snr_db(snr_db, code.k / code.n)
    return (draw_frame(code, sigma, 0, i)[1] for i in range(frames))


@pytest.mark.parametrize("snr_db, late", [(3.0, 46), (4.0, 21), (5.0, 4)])
def test_no_certified_rs15_output_has_a_lighter_codeword(snr_db, late):
    """Every certified tcgs (L = 16) and lcc (eta = 4) output on [15,11] frames
    0..999, seed 0, weighs the least of any codeword.  So does every frame of
    0..2999 whose tree certificate fires after its 16th trial, which reads the
    frontier once the budget is spent (late of them at this SNR)."""
    code = make_code(2, 4, 15, 11)
    tcgs_cfg, lcc_cfg = DecoderConfig(max_trials=16), LccConfig(eta=4)
    checked = late_seen = 0
    for i, pi in enumerate(_rs15_frames(code, snr_db, 3000)):
        res = tcgs_decode(code, pi, tcgs_cfg)
        after_budget = res.trials == 16 and res.exit_reason == EXIT_CERTIFIED_TREE
        late_seen += after_budget
        results = [res] if i < 1000 or after_budget else []
        if i < 1000:
            results.append(lcc_decode(code, pi, lcc_cfg))
        for r in results:
            if r.certified:
                checked += 1
                assert isd_oracle(code, pi, r.best_weight, CAP)[1] == r.best_weight
    assert late_seen == late
    assert checked > 1000
