"""Soft-decision Reed-Solomon decoding with tree-ordered Chase trials.

The root exports the API a user builds, decodes and sweeps with: field and
code construction, the AWGN likelihood pipeline, the tree-search decoder with
its optimality certificates, a Chase baseline with Gray-ordered test patterns,
and a seeded Monte-Carlo sweep harness.  The layers (galois, rscode, channel,
chase, interp, decoder, baselines, sim) keep their internals.
"""

from .baselines import LccConfig, classify_ml, lcc_decode
from .channel import (chi2_threshold, frame_rng, likelihoods, load_pi, modulate,
                      sigma_from_snr_db, transmit)
from .decoder import (CERTIFIED_EXITS, DecodeResult, DecoderConfig,
                      EXIT_BUDGET, EXIT_CERTIFIED_KANEKO, EXIT_CERTIFIED_TREE, EXIT_GENIE,
                      EXIT_THRESHOLD, tcgs_decode)
from .galois import Field, make_field
from .rscode import CodeParams, encode, make_code
from .sim import SweepConfig, SweepRow, rows_to_csv, run_sweep, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED_EXITS", "CodeParams", "DecodeResult", "DecoderConfig",
    "EXIT_BUDGET", "EXIT_CERTIFIED_KANEKO", "EXIT_CERTIFIED_TREE", "EXIT_GENIE",
    "EXIT_THRESHOLD", "Field", "LccConfig", "SweepConfig", "SweepRow",
    "chi2_threshold", "classify_ml", "encode", "frame_rng", "lcc_decode",
    "likelihoods", "load_pi", "make_code", "make_field", "modulate",
    "rows_to_csv", "run_sweep", "sigma_from_snr_db", "tcgs_decode", "transmit",
    "wilson_interval",
]
