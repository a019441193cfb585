"""Bit-identical decode results on the pinned seeded frame sets.

tests/test_counts.py pins operation counts, which a change to how a weight is
summed, or to which codeword a tie returns, can leave untouched.  These
digests hash every DecodeResult field of every frame, with best_weight as
float.hex, so a change that only makes the decoder faster must reproduce them
exactly: an ulp of drift in one weight changes the digest.  Frames are drawn
exactly as treechase.sim draws them, seed 0: frames 0..2999 of the [15,11]
GF(16) code at 4 dB (tcgs L=16, lcc eta=4, hdd, which is tcgs with L=1, and
tcgs L=16 in threshold mode at eps 0.01, configured as a sweep point configures
it) and frames 0..39 of the [255,239] GF(256) code at 6 dB (tcgs L=16).
"""

import hashlib
from functools import lru_cache

import pytest

from treechase.baselines import LccConfig, lcc_decode
from treechase.channel import sigma_from_snr_db
from treechase.decoder import DecoderConfig, tcgs_decode
from treechase.rscode import make_code
from treechase.sim import SweepConfig, _decoder, draw_frame

CODES = {"rs15": ((2, 4, 15, 11), 4.0, 3000), "rs255": ((2, 8, 255, 239), 6.0, 40)}


@lru_cache(maxsize=1)
def _threshold_point():
    """The decode function and config of an rs15 tcgs sweep point at 4 dB, L=16,
    threshold_eps 0.01."""
    cfg = SweepConfig(snr_db=(4.0,), L=16, threshold_eps=0.01)
    sigma = sigma_from_snr_db(4.0, cfg.k / cfg.n)
    return _decoder(cfg, "tcgs", sigma * sigma)


def _threshold_decode(code, pi):
    decode, cfg = _threshold_point()
    return decode(code, pi, cfg)


DECODERS = {
    "tcgs": lambda code, pi: tcgs_decode(code, pi, DecoderConfig(max_trials=16)),
    "lcc": lambda code, pi: lcc_decode(code, pi, LccConfig(eta=4)),
    "hdd": lambda code, pi: tcgs_decode(code, pi, DecoderConfig(max_trials=1)),
    "tcgs-eps0.01": _threshold_decode,
}


@lru_cache(maxsize=2)
def _frames(name):
    params, snr_db, frames = CODES[name]
    code = make_code(*params)
    sigma = sigma_from_snr_db(snr_db, code.k / code.n)
    return code, [draw_frame(code, sigma, 0, i)[1] for i in range(frames)]


def result_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        fields = (r.message, r.codeword, r.best_error, r.best_weight.hex(), r.trials, r.steps,
                  r.exit_reason)
        h.update(repr(fields).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,alg,digest", [
    ("rs15", "tcgs", "2e8dcc93591cc1ade8f0ca268f1d836e0cb4c95e8fdbf0689396476f64f20eff"),
    ("rs15", "lcc", "7a7bee92d7b9f7b7c00fa6874f159041e95a480729e4302b83a610c943c8a98b"),
    ("rs15", "hdd", "6a9cb5d5e57386d474935b9e8e0c2d9437e6da965aef14ca77929874e51ec14a"),
    ("rs15", "tcgs-eps0.01", "fd1dcaa0e44ac6503aa5b990d34e59f6fdea997b6b8f821b4848b59cf5854ce5"),
    ("rs255", "tcgs", "c21e61a5ec54dda8d147e76c994f7a661a1bd4dbe51cf7efcc46d1e878599349"),
])
def test_decode_results_digest(name, alg, digest):
    code, frames = _frames(name)
    decode = DECODERS[alg]
    assert result_digest(decode(code, pi) for pi in frames) == digest
