"""Soft-decision Reed-Solomon decoding with tree-ordered Chase trials.

Public surface: field/code construction, the AWGN likelihood pipeline, the
tree-search decoder with its optimality certificates, a Chase baseline with
Gray-ordered test patterns, and a seeded Monte-Carlo sweep harness.
"""

from .baselines import LccConfig, classify_ml, lcc_decode
from .channel import (SoftWeights, frame_rng, hard_decision, likelihoods, load_pi,
                      modulate, sigma_from_snr_db, soft_weights, transmit)
from .chase import (bound_B, build_atom_chain, kaneko_B0, leftmost_child, next_sibling,
                    render_pattern)
from .decoder import (CERTIFIED_EXITS, DecodeResult, DecoderConfig,
                      EXIT_BUDGET, EXIT_CERTIFIED_KANEKO, EXIT_CERTIFIED_TREE, EXIT_GENIE,
                      EXIT_THRESHOLD, compare_traces, tcgs_decode)
from .galois import BinaryField, Field, PrimeField, make_field
from .interp import GroebnerBasis, backward_remove, factorize, forward_add, interpolate
from .rscode import CodeParams, encode, make_code
from .sim import SweepConfig, SweepRow, parse_snr_spec, rows_to_csv, run_point, run_sweep
from .stats import chi2_threshold, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "BinaryField", "CERTIFIED_EXITS", "CodeParams",
    "DecodeResult", "DecoderConfig", "EXIT_BUDGET", "EXIT_CERTIFIED_TREE",
    "EXIT_CERTIFIED_KANEKO", "EXIT_GENIE", "EXIT_THRESHOLD", "Field",
    "GroebnerBasis", "LccConfig", "PrimeField", "SoftWeights",
    "SweepConfig", "SweepRow", "backward_remove", "bound_B",
    "build_atom_chain", "chi2_threshold", "classify_ml",
    "compare_traces", "encode", "factorize", "forward_add",
    "frame_rng", "hard_decision",
    "interpolate", "kaneko_B0", "lcc_decode", "leftmost_child",
    "likelihoods", "load_pi", "make_code", "make_field",
    "modulate", "next_sibling", "parse_snr_spec",
    "render_pattern", "rows_to_csv", "run_point",
    "run_sweep", "sigma_from_snr_db", "soft_weights", "tcgs_decode",
    "transmit", "wilson_interval",
]
