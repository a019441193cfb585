"""Command-line driver.

Subcommands:
  sweep   seeded Monte-Carlo frame-error sweep, CSV on stdout or --out
  replay  decode a likelihood-matrix file verbosely and check the trace
          against a golden transcript (the packaged worked example by default)
  chi2    print the chi-square sphere-radius quantile used by threshold mode

Exit codes: 0 success, 1 configuration/usage error, 2 trace mismatch.

sweep_flags and sweep_config are the flags and the SweepConfig builder that
`sweep` shares with the experiment scripts in scripts/.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from importlib import resources

from .channel import chi2_threshold, load_pi
from .decoder import DecoderConfig, compare_traces, tcgs_decode
from .rscode import make_code
from .sim import SweepConfig, parse_snr_spec, rows_to_csv, run_sweep


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors must be 1
        raise CliError(message)


def _parse_code_spec(spec: str) -> tuple[int, ...]:
    """'p,m,n,k' as four integers."""
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(f"--code needs p,m,n,k, got {spec!r}")
    return tuple(int(t) for t in parts)


def sweep_flags(**defaults) -> argparse.ArgumentParser:
    """The flags every sweep front end shares (--code, --frames, --seed,
    --workers), as a parent parser; defaults overrides their values."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--code", default="2,4,15,11", metavar="p,m,n,k",
                    help="field characteristic, extension degree, length, dimension")
    ap.add_argument("--frames", type=int, default=20000, help="max frames per point")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.set_defaults(**defaults)
    return ap


def sweep_config(args, **fields) -> SweepConfig:
    """The SweepConfig of sweep_flags' values in args and the front end's own
    fields; ValueError for a bad --code or a config that cannot run."""
    return SweepConfig(*_parse_code_spec(args.code), max_frames=args.frames, seed=args.seed,
                       workers=args.workers, **fields)


def _build_parser() -> _Parser:
    top = _Parser(prog="treechase")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sw = sub.add_parser("sweep", parents=[sweep_flags()], help="Monte-Carlo FER sweep")
    sw.add_argument("--snr", default="5.0", metavar="a:b:step|v1,v2,...")
    sw.add_argument("--alg", default="tcgs", metavar="tcgs,lcc,hdd")
    sw.add_argument("--L", type=int, default=16, help="trial budget for tcgs")
    sw.add_argument("--eta", type=int, default=4, help="low-reliability positions for lcc")
    sw.add_argument("--min-errors", type=int, default=100,
                    help="stop a point after this many frame errors (0 = never)")
    sw.add_argument("--threshold-eps", type=float, default=None)
    sw.add_argument("--genie", action="store_true")
    sw.add_argument("--out", default=None, help="CSV path (default stdout)")
    sw.add_argument("--timing", action="store_true",
                    help="report measured wall seconds (breaks byte reproducibility)")

    rp = sub.add_parser("replay", help="verbose single decode of a matrix file")
    rp.add_argument("--pi", required=True, help="likelihood matrix file")
    rp.add_argument("--L", type=int, default=16)
    rp.add_argument("--k", type=int, default=2, help="code dimension for the replayed code")
    rp.add_argument("--golden", default=None,
                    help="trace transcript to verify against (default: packaged example)")

    ch = sub.add_parser("chi2", help="chi-square upper (eps/2)-quantile")
    ch.add_argument("--eps", type=float, required=True)
    ch.add_argument("--dof", type=int, required=True)
    return top


def _cmd_sweep(args) -> int:
    cfg = sweep_config(args, snr_db=parse_snr_spec(args.snr),
                       algorithms=tuple(t.strip() for t in args.alg.split(",") if t.strip()),
                       L=args.L, eta=args.eta, min_errors=args.min_errors,
                       threshold_eps=args.threshold_eps, genie=args.genie)
    # --out opens before the sweep runs, so an unwritable path costs no decoding
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        fh.write(rows_to_csv(run_sweep(cfg), timing=args.timing))
    return 0


def _cmd_replay(args) -> int:
    pi = load_pi(args.pi)
    q, n = pi.shape
    m = q.bit_length() - 1
    code = make_code(2, m, n, args.k) if q == 1 << m else make_code(q, 1, n, args.k)
    lines: list[str] = []
    tcgs_decode(code, pi, DecoderConfig(max_trials=args.L), trace=lines)
    for ln in lines:
        print(ln)
    if args.golden:
        with open(args.golden) as fh:
            golden = fh.read().splitlines()
    else:
        golden = (resources.files("treechase") / "fixtures" / "example1.trace") \
            .read_text().splitlines()
    ok, diag = compare_traces(lines, golden)
    if not ok:
        print(f"trace mismatch: {diag}", file=sys.stderr)
        return 2
    return 0


def _cmd_chi2(args) -> int:
    print(f"{chi2_threshold(args.eps, args.dof):.9f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_chi2(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
