"""The benchmark tracer's contract with the package.

perfbench/tracing.py times a decode by replacing names in the module globals
of treechase.decoder and treechase.baselines, and perfbench/run.py fails a
run whose traced factorize / forward_add / backward_remove counts differ from
the decoders' own trials / forward_ops / backward_ops.  These tests break if
a traced name disappears or if the trial engine calls its callees through any
module other than treechase.decoder.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from treechase import sim
from treechase.baselines import LccConfig
from treechase.channel import sigma_from_snr_db
from treechase.decoder import DecoderConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import TRACED, Tracer  # noqa: E402

FRAMES = 20


def test_every_traced_name_resolves():
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in TRACED if not hasattr(mod, attr)]
    assert not missing


@pytest.mark.parametrize("alg", ["tcgs", "lcc"])
def test_traced_counts_equal_decoder_counts(code16, alg):
    sigma = sigma_from_snr_db(4.0, code16.k / code16.n)
    frames = [sim.draw_frame(code16, sigma, 0, i)[1] for i in range(FRAMES)]

    tracer = Tracer()
    with tracer.installed():  # through sim, whose wrapped decoders open each init phase
        if alg == "tcgs":
            results = [sim.tcgs_decode(code16, pi, DecoderConfig(max_trials=16)) for pi in frames]
        else:
            results = [sim.lcc_decode(code16, pi, LccConfig(eta=4)) for pi in frames]

    calls = Counter(span[0] for span in tracer.spans)
    trials = sum(res.trials for res in results)
    forward = sum(res.forward_ops for res in results)
    backward = sum(res.backward_ops for res in results)
    assert calls["interp.factorize"] == trials
    assert calls["interp.forward_add.init"] == 0  # trial 1 interpolates in closed form
    assert calls["interp.forward_add.init"] + calls["interp.forward_add.swap"] == forward
    assert calls["interp.backward_remove"] == backward > 0
