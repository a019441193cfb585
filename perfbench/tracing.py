"""Outside-in spans around the names the decoder, baselines and sim layers import.

Nothing under the package is edited: during a traced run the module globals
that treechase.decoder, treechase.baselines and treechase.sim look up at call
time are replaced by timing wrappers, and every original is put back when the
`installed` block exits.  Spans are kept in memory as
[name, start_ns, end_ns, parent_index, frame] and written out afterwards.
"""

from __future__ import annotations

import csv
import gzip
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from treechase import baselines, decoder, sim

# (module, name it imports from another layer, span name).  forward_add's span
# is interp.forward_add.init or .swap, chosen per call; frame_rng only marks
# which frame the following spans belong to.
_SHARED = (("hard_decision", "channel"), ("soft_weights", "channel"),
           ("build_atom_chain", "chase"), ("kaneko_B0", "chase"),
           ("forward_add", "interp"), ("backward_remove", "interp"),
           ("factorize", "interp"), ("encode", "rscode"))
TRACED = [(mod, attr, f"{layer}.{attr}") for mod in (decoder, baselines)
          for attr, layer in _SHARED] + [
    (decoder, "bound_B", "chase.bound_B"),
    (decoder, "leftmost_child", "chase.leftmost_child"),
    (decoder, "next_sibling", "chase.next_sibling"),
    (decoder, "render_pattern", "chase.render_pattern"),
    (sim, "tcgs_decode", "decoder.tcgs_decode"),
    (sim, "lcc_decode", "baselines.lcc_decode"),
    (sim, "encode", "rscode.encode_tx"),
    (sim, "modulate", "channel.modulate_transmit"),
    (sim, "transmit", "channel.modulate_transmit"),
    (sim, "likelihoods", "channel.likelihoods"),
    (sim, "classify_ml", "baselines.classify_ml"),
    (sim, "run_point", "sim.run_point"),  # sim's own name, looked up by run_sweep
    (sim, "frame_rng", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.frame = -1
        self.phase = "init"  # forward_add before the decode's first factorize is init
        self.results = []  # (frame, DecodeResult) per traced decode
        self.factorize_hits = 0

    def _span(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self.frame]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._span(name, fn, *args, **kwargs)
        return traced

    def wrap_soft_weights(self, name, fn):
        def traced(*args, **kwargs):
            sw = self._span(name, fn, *args, **kwargs)
            sw.pattern_weight = self.wrap("channel.pattern_weight", sw.pattern_weight)
            return sw
        return traced

    def wrap_decoder(self, name, fn):
        def traced(*args, **kwargs):
            self.phase = "init"
            res = self._span(name, fn, *args, **kwargs)
            self.results.append((self.frame, res))
            return res
        return traced

    def wrap_factorize(self, name, fn):
        def traced(*args, **kwargs):
            self.phase = "swap"
            u = self._span(name, fn, *args, **kwargs)
            self.factorize_hits += u is not None
            return u
        return traced

    def wrap_forward_add(self, _, fn):
        def traced(*args, **kwargs):
            return self._span(f"interp.forward_add.{self.phase}", fn, *args, **kwargs)
        return traced

    def wrap_frame_rng(self, _, fn):
        def traced(seed, frame_index):
            self.frame = frame_index
            return fn(seed, frame_index)
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in; restore every original on exit, checked."""
        special = {"soft_weights": self.wrap_soft_weights, "factorize": self.wrap_factorize,
                   "forward_add": self.wrap_forward_add, "frame_rng": self.wrap_frame_rng,
                   "tcgs_decode": self.wrap_decoder, "lcc_decode": self.wrap_decoder}
        patches = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TRACED, patches):
                setattr(mod, attr, special.get(attr, self.wrap)(name, fn))
            yield self
        finally:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
        if any(getattr(mod, attr) is not fn for mod, attr, fn in patches):
            raise RuntimeError("a traced name was not restored")

    def self_times(self) -> tuple[list[int], int]:
        """Per-span self time in ns, and the number of spans whose children
        overlap (then a span is not the sum of its children plus self)."""
        children = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        selfs, overlaps = [], 0
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0, start
            kids = sorted(children.get(i, ()))
            for a, b in kids:  # union of child intervals, clipped to the span
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            overlaps += covered != sum(b - a for a, b in kids)
            selfs.append(end - start - covered)
        return selfs, overlaps

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "frame", "name", "start_ns", "end_ns"])
            for i, (name, start, end, parent, frame) in enumerate(self.spans):
                out.writerow([i, parent, frame, name, start, end])


FIELD_OPS = ("mul", "add", "sub", "inv")


@contextmanager
def counting_field_ops(field):
    """Count calls to the field object's scalar ops; no timing."""
    counts = dict.fromkeys(FIELD_OPS, 0)

    def counter(op, fn):
        def counted(*args):
            counts[op] += 1
            return fn(*args)
        return counted

    for op in FIELD_OPS:
        if op in vars(field):
            raise RuntimeError(f"field.{op} is already overridden")
        setattr(field, op, counter(op, getattr(field, op)))
    try:
        yield counts
    finally:
        for op in FIELD_OPS:
            delattr(field, op)
