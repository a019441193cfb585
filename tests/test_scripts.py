"""Smoke runs of the experiment scripts: each exits 0 and prints one row per point."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
HEADERS = {"algorithm", "SNR", "L", "epsilon"}  # first word of each table header


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.main


@pytest.mark.parametrize("name, args, rows", [
    # three algorithms at one SNR: three CSV rows, then three summary rows
    ("run_comparison", ["--snr", "5", "--min-errors", "0"], 6),
    ("run_ml_bounds", ["--budgets", "1,4"], 2),
    ("run_threshold_tradeoff", ["--eps", "0,0.1", "--L", "8"], 2),
])
def test_script_prints_one_row_per_point(name, args, rows, capsys):
    assert _main(name)(args + ["--frames", "60", "--workers", "1"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    data = [ln for ln in lines if ln.replace(",", " ").split()[0] not in HEADERS]
    assert len(data) == rows, lines
