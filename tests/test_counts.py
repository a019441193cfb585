"""Pinned operation counts on a fixed seeded frame set.

The paper measures decoding cost in hard-decision trials and interpolation
updates.  Both are deterministic functions of the input, so a change that
only makes arithmetic faster must reproduce these totals exactly.  Frames
0..2999 of the [15,11] GF(16) code at 4 dB and frames 0..39 of the [255,239]
GF(256) code at 6 dB, seed 0, are drawn exactly as treechase.sim draws them.
The forward total counts the swaps' updates only: the first trial
interpolates all n points in closed form.
"""

from collections import Counter

from treechase.baselines import LccConfig, lcc_decode
from treechase.channel import sigma_from_snr_db
from treechase.decoder import DecoderConfig, tcgs_decode
from treechase.rscode import make_code
from treechase.sim import draw_frame

FRAMES = 3000


def _frames(code, snr_db, seed, frames=FRAMES):
    sigma = sigma_from_snr_db(snr_db, code.k / code.n)
    for i in range(frames):
        yield draw_frame(code, sigma, seed, i)


def _tally(results):
    tally = Counter()
    exits = Counter()
    for tx, res in results:
        tally["trials"] += res.trials
        tally["forward"] += res.forward_ops
        tally["backward"] += res.backward_ops
        tally["steps"] += res.steps
        tally["wrong"] += res.codeword != tx
        exits[res.exit_reason] += 1
    return dict(tally), dict(exits)


def test_pinned_counts_rs15_4db_seed0():
    code = make_code(2, 4, 15, 11)
    tcgs_cfg, lcc_cfg = DecoderConfig(max_trials=16), LccConfig(eta=4)
    tcgs, lcc = [], []
    for tx, pi in _frames(code, 4.0, seed=0):
        tcgs.append((tx, tcgs_decode(code, pi, tcgs_cfg)))
        lcc.append((tx, lcc_decode(code, pi, lcc_cfg)))

    assert _tally(tcgs) == (
        {"trials": 9443, "forward": 6443, "backward": 6443, "steps": 7041, "wrong": 63},
        {"certified_kaneko": 2190, "certified_tree": 619, "budget_exhausted": 191})
    tally, exits = _tally(lcc)
    del tally["steps"]  # lcc reports trials - 1, which the trial total already pins
    assert (tally, exits) == (
        {"trials": 15255, "forward": 12255, "backward": 12255, "wrong": 77},
        {"certified_kaneko": 2190, "budget_exhausted": 810})


def test_pinned_counts_rs255_6db_seed0():
    """The deployed-size [255,239] GF(256) code at 6 dB, seed 0, frames 0..39."""
    code = make_code(2, 8, 255, 239)
    frames = list(_frames(code, 6.0, seed=0, frames=40))
    exits = {"certified_kaneko": 23, "budget_exhausted": 17}
    tcgs_cfg, hdd_cfg = DecoderConfig(max_trials=16), DecoderConfig(max_trials=1)
    assert _tally((tx, tcgs_decode(code, pi, tcgs_cfg)) for tx, pi in frames) == (
        {"trials": 295, "forward": 255, "backward": 255, "steps": 255, "wrong": 4}, exits)
    assert _tally((tx, tcgs_decode(code, pi, hdd_cfg)) for tx, pi in frames) == (
        {"trials": 40, "forward": 0, "backward": 0, "steps": 0, "wrong": 11}, exits)
