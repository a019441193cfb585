"""Smoke runs of the experiment scripts (each exits 0 and prints one row per
point, and rejects a bad --code as a usage error), and the line counter on a
module of known size."""

import importlib.util
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
