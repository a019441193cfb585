"""Smoke runs of the experiment scripts (each exits 0 and prints one row per
point, and reports a bad --code or any other bad value as a usage error), and
the line counter on a module of known size."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
HEADERS = {"algorithm", "SNR", "L", "epsilon"}  # first word of each table header


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name, args, rows", [
    # three algorithms at one SNR: three CSV rows, then three summary rows
    ("run_comparison", ["--snr", "5", "--min-errors", "0"], 6),
    ("run_ml_bounds", ["--budgets", "1,4"], 2),
    ("run_threshold_tradeoff", ["--eps", "0,0.1", "--L", "8"], 2),
])
def test_script_prints_one_row_per_point(name, args, rows, capsys):
    assert _load(name).main(args + ["--frames", "60", "--workers", "1"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    data = [ln for ln in lines if ln.replace(",", " ").split()[0] not in HEADERS]
    assert len(data) == rows, lines


@pytest.mark.parametrize("name", ["run_comparison", "run_ml_bounds", "run_threshold_tradeoff"])
def test_script_rejects_a_bad_code_spec(name, capsys):
    """A --code without four fields is a usage error (exit 2), not a traceback."""
    with pytest.raises(SystemExit) as exc:
        _load(name).main(["--code", "2,4,15"])
    assert exc.value.code == 2
    assert "--code needs p,m,n,k, got '2,4,15'" in capsys.readouterr().err


@pytest.mark.parametrize("name, args, cause", [
    ("run_ml_bounds", ["--workers", "0"], "workers must be >= 1"),
    ("run_ml_bounds", ["--budgets", "1,x"], "invalid literal for int() with base 10: 'x'"),
    ("run_comparison", ["--snr", "abc"], "could not convert string to float: 'abc'"),
    ("run_threshold_tradeoff", ["--eps", "x"], "could not convert string to float: 'x'"),
    ("run_threshold_tradeoff", ["--eps", "2"], "threshold_eps must be in (0, 1)"),
    ("run_threshold_tradeoff", ["--eps", "-0.1"], "threshold_eps must be in (0, 1)"),
    ("run_threshold_tradeoff", ["--snr", "1e9"],
     "SNR 1000000000.0 dB gives no finite positive noise variance"),
    # at 3050 dB the noise variance is positive, but the likelihoods would overflow
    ("run_ml_bounds", ["--snr", "3050"], "SNR 3050.0 dB gives likelihoods too large to weigh"),
    ("run_comparison", ["--seed", "-1"], "seed must be >= 0"),
    ("run_threshold_tradeoff", ["--snr", "3050"],
     "SNR 3050.0 dB gives likelihoods too large to weigh"),
])
def test_script_reports_a_bad_value_as_a_usage_error(name, args, cause, capsys, monkeypatch):
    """Every bad value, not only --code, ends in one usage error naming its cause
    (exit 2) before any table row, not in a traceback."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / f"{name}.py")])  # argparse's prog
    with pytest.raises(SystemExit) as exc:
        _load(name).main(args + ["--frames", "20"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert all(ln.split()[0] in HEADERS for ln in out.splitlines()), out
    assert err.splitlines()[-1] == f"{name}.py: error: {cause}"


def test_run_comparison_opens_out_before_the_sweep(tmp_path, monkeypatch, capsys):
    """An unwritable --out is a usage error (exit 2) before any frame is decoded."""
    mod = _load("run_comparison")
    monkeypatch.setattr(mod, "run_sweep", lambda cfg: pytest.fail("the sweep ran"))
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "run_comparison.py")])
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        mod.main(["--frames", "20", "--out", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"run_comparison.py: error: [Errno 2] No such file or directory: {str(path)!r}")


SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment


# a comment line
class A:
    """Class docstring."""

    x = """a string that
    spans two lines"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_count_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    count_lines = _load("count_lines")
    # import, class, the two lines of x, def, and the two lines of the return
    assert count_lines.code_lines(SAMPLE) == 7
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    paths = [str(tmp_path / "a.py"), str(tmp_path / "b.py")]
    assert count_lines.main(paths) == 0
    assert [ln.split()[0] for ln in capsys.readouterr().out.splitlines()] == ["7", "1", "8"]


def test_bench_pairs_summary_applies_the_gain_and_bound_rules():
    """Synthetic pairs: a gain needs ten pairs or more, nine tenths of them won
    (ties count for neither side), and medians further apart than the base's
    interquartile range; a median worse by more than bound times the base
    median is flagged, in either direction of better, and so is a spread too
    wide to judge that bound."""
    summarize = _load("bench_pairs").summarize
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]  # IQR 0.0175
    faster = [b - 0.1 for b in base]
    s = summarize(base, faster, "lower", 0.25)
    assert (s["wins"], s["pairs"], s["gain"], s["worse"]) == (10, 10, True, False)
    assert s["base"][1] == 1.0 and abs(s["change"][1] - 0.9) < 1e-12
    s = summarize(base, faster[:9] + base[9:], "lower", 0.25)  # nine wins and a tie
    assert (s["wins"], s["gain"]) == (9, True)
    s = summarize(base, faster[:8] + base[8:], "lower", 0.25)  # eight wins and two ties
    assert (s["wins"], s["gain"]) == (8, False)
    slower = faster[:8] + [b + 0.1 for b in base[8:]]  # eight wins, two losses
    assert summarize(base, slower, "lower", 0.25)["wins"] == 8
    assert not summarize(base, slower, "lower", 0.25)["gain"]
    within_iqr = [b - 0.01 for b in base]  # ten wins, gap inside the base's IQR
    assert not summarize(base, within_iqr, "lower", 0.25)["gain"]
    assert not summarize(base[:9], faster[:9], "lower", 0.25)["gain"]  # under ten pairs
    assert summarize([1.0], [1.3], "lower", 0.25)["worse"]
    assert not summarize([1.0], [1.2], "lower", 0.25)["worse"]
    assert summarize([0.9], [0.8], "higher", 0.1)["worse"]
    assert not summarize([0.9], [0.82], "higher", 0.1)["worse"]
    higher = summarize(base, [b + 0.1 for b in base], "higher", 0.1)
    assert (higher["wins"], higher["gain"], higher["worse"]) == (10, True, False)
    # unresolved: an IQR wider than bound times the base median, on either
    # side, unless every change run beats every base run
    assert not any(summarize(base, c, "lower", 0.25)["unresolved"] for c in (faster, slower))
    assert summarize(base, within_iqr, "lower", 0.015)["unresolved"]  # IQR 0.0175 > 0.015
    assert not summarize(base, faster, "lower", 0.015)["unresolved"]  # every run beats every one
    wide = [1.0, 1.5, 0.5, 1.2, 0.8, 1.0, 1.4, 0.6, 1.1, 0.9]  # IQR 0.35, median 1.0
    s = summarize(base, wide, "lower", 0.25)
    assert (s["worse"], s["unresolved"]) == (False, True)
    apart = [0.5, 0.8, 0.6, 0.7, 0.9, 0.5, 0.8, 0.6, 0.7, 0.9]  # all below min(base)
    assert not summarize(base, apart, "lower", 0.1)["unresolved"]  # IQR 0.2 > 0.1
    assert summarize(base, apart, "higher", 0.1)["unresolved"]
    with pytest.raises(ValueError):
        summarize(base, faster[:9], "lower", 0.25)


GOOD_RUN = 'print(\'{"correct": true, "metrics": {"decode_ms.p50": {"value": 0.05}}}\')'


@pytest.mark.parametrize("body", [
    GOOD_RUN.replace("true", "false"),
    "import sys; " + GOOD_RUN + "; sys.exit(1)",
])
def test_bench_pairs_refuses_a_failed_run(tmp_path, body):
    """A run that reports correct: false, or exits non-zero, stops the pairs;
    a correct one gives its metric values."""
    run_once = _load("bench_pairs").run_once
    (tmp_path / "perfbench").mkdir()
    script = tmp_path / "perfbench" / "run.py"
    script.write_text(GOOD_RUN + "\n")
    assert run_once(str(tmp_path), "w", 0, 1.0) == {"decode_ms.p50": 0.05}
    script.write_text(body + "\n")
    with pytest.raises(SystemExit, match="refused"):
        run_once(str(tmp_path), "w", 0, 1.0)


def test_bench_pairs_runs_pair_i_at_seed_plus_i_on_both_sides(tmp_path, monkeypatch, capsys):
    """Pair i decodes the frames of seed --seed + i in both checkouts, the base
    first in even pairs and the change first in odd ones, and prints its seed."""
    bench_pairs = _load("bench_pairs")
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}')
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return {"m": 1.0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    base, change = str(tmp_path), "change-dir"
    assert bench_pairs.main(["--base", base, "--change", change, "--workload", "w",
                             "--seed", "5", "--pairs", "3"]) == 0
    assert calls == [(base, 5), (change, 5), (change, 6), (base, 6), (base, 7), (change, 7)]
    pair_lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("# pair")]
    assert [ln.split(":")[0] for ln in pair_lines] == [
        "# pair 1, seed 5", "# pair 2, seed 6", "# pair 3, seed 7"]
