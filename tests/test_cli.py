from importlib import resources

import pytest

from treechase import cli
from treechase.cli import main
from treechase.sim import CSV_HEADER

PI_PATH = str(resources.files("treechase") / "fixtures" / "example1.pi")
TRACE_PATH = str(resources.files("treechase") / "fixtures" / "example1.trace")


def test_replay_golden_exit_zero(capsys):
    rc = main(["replay", "--pi", PI_PATH, "--L", "16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "EXIT reason=certified_tree trials=10 msg=1+2x weight=0.4800" in out
    assert "Z z=1,0,2,0" in out


def test_replay_explicit_golden_path(capsys):
    rc = main(["replay", "--pi", PI_PATH, "--L", "16", "--golden", TRACE_PATH])
    assert rc == 0


def test_replay_mismatch_exit_two(capsys):
    rc = main(["replay", "--pi", PI_PATH, "--L", "5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "trace mismatch" in captured.err
    assert "budget_exhausted trials=5 msg=1+4x weight=0.6200" in captured.out


def test_replay_missing_file_exit_one(capsys):
    rc = main(["replay", "--pi", "/does/not/exist.pi", "--L", "16"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_replay_malformed_matrix_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.pi"
    bad.write_text("5 4\n1 2 3\n")
    rc = main(["replay", "--pi", str(bad), "--L", "16"])
    assert rc == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_replay_huge_finite_matrix_exit_one(tmp_path, capsys):
    """Finite entries near 1e308 make weights whose sums overflow: one error
    line, not a trace that certifies a codeword at weight inf."""
    path = tmp_path / "huge.pi"
    path.write_text("4 3\n-6e307 -1e308 -1e308\n5e307 -1e308 1e308\n"
                    "1e308 -1e308 -1e308\n-1e308 1e308 -1e308\n")
    rc = main(["replay", "--k", "1", "--pi", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
        "error: pi has non-finite entries, or entries too large to weigh"]


def test_unknown_subcommand_exit_one(capsys):
    assert main(["warp"]) == 1
    assert main([]) == 1


def test_chi2_subcommand(capsys):
    rc = main(["chi2", "--eps", "0.7357588823428847", "--dof", "2"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert float(out) == pytest.approx(2.0, abs=1e-6)


def test_chi2_bad_eps_exit_one(capsys):
    assert main(["chi2", "--eps", "2.0", "--dof", "2"]) == 1


def test_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--code", "2,4,15,11", "--snr", "6.0", "--alg", "tcgs",
               "--frames", "60", "--min-errors", "0", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("tcgs,6,60,")


def test_sweep_stdout_and_bad_code(capsys):
    rc = main(["sweep", "--code", "2,4,15,11", "--snr", "6.0", "--alg", "tcgs",
               "--frames", "30", "--min-errors", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith(CSV_HEADER)
    assert main(["sweep", "--code", "15,11", "--snr", "5"]) == 1
    assert main(["sweep", "--code", "2,4,15,11", "--alg", "nope"]) == 1


def test_sweep_rejects_prime_field(capsys):
    assert main(["sweep", "--code", "5,1,4,2", "--snr", "4:8:2", "--alg", "tcgs,hdd",
                 "--frames", "20", "--min-errors", "0"]) == 1
    assert "binary field" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "1e308", "-1e308"])
def test_sweep_rejects_snr_without_finite_noise_variance(snr, capsys):
    assert main(["sweep", "--code", "2,4,15,11", f"--snr={snr}", "--alg", "tcgs",
                 "--frames", "20", "--min-errors", "0"]) == 1
    out, err = capsys.readouterr()
    assert not out
    want = f"error: SNR {float(snr)} dB gives no finite positive noise variance"
    assert err.splitlines() == [want]


@pytest.mark.parametrize("flag, cause", [
    ("--seed=-1", "seed must be >= 0"),
    ("--snr=3050", "SNR 3050.0 dB gives likelihoods too large to weigh"),
])
def test_sweep_rejects_a_config_that_cannot_run(flag, cause, tmp_path, capsys):
    """A negative seed, or an SNR whose likelihoods overflow, is one error line
    (exit 1) before --out is written, not a failure inside the sweep."""
    out = tmp_path / "rows.csv"
    assert main(["sweep", flag, "--frames", "20", "--min-errors", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cause}"]
    assert not out.exists()


def test_sweep_opens_out_before_the_sweep_runs(tmp_path, monkeypatch, capsys):
    """An unwritable --out is reported before any frame is decoded."""
    monkeypatch.setattr(cli, "run_sweep", lambda cfg: pytest.fail("the sweep ran"))
    path = tmp_path / "missing" / "rows.csv"
    assert main(["sweep", "--frames", "20", "--out", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno 2] No such file or directory: {str(path)!r}"]


@pytest.mark.parametrize("snr", ["0:inf:1", "nan:1:1", "0:1:nan", "-1e308:1e308:1", "0:100:1e-9"])
def test_sweep_rejects_bad_snr_range(snr, capsys):
    """A range with a non-finite part, or with more steps than MAX_SNR_STEPS,
    gives one error line before anything is allocated or drawn."""
    assert main(["sweep", f"--snr={snr}", "--frames", "20", "--min-errors", "0"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: bad SNR range {snr!r}") or \
        err.startswith(f"error: SNR range {snr!r} spans more than")


def test_replay_gf16_matrix_roundtrip(tmp_path, capsys, code16):
    """A 16x15 matrix replays under make_code's extension-field convention; the
    trace differs from the packaged golden so the exit code is 2, but the
    printed lines are exactly the library's trace of the same decode."""
    from treechase.channel import likelihoods, load_pi, modulate, transmit, frame_rng
    from treechase.decoder import DecoderConfig
    from treechase.rscode import encode
    from reference import save_pi, traced
    tx = encode(code16, [3] * 11)
    r = transmit(modulate(code16.field, tx), 0.4, frame_rng(0, 0))
    pi = likelihoods(code16.field, 15, r, 0.16)
    path = tmp_path / "g16.pi"
    save_pi(str(path), pi)
    rc = main(["replay", "--pi", str(path), "--L", "8", "--k", "11"])
    assert rc == 2
    _, lines = traced(code16, load_pi(str(path)), DecoderConfig(max_trials=8))
    assert capsys.readouterr().out.splitlines() == lines


def test_replay_gf16_matrix_too_long_exit_one(tmp_path, capsys):
    """GF(16) has 15 nonzero evaluation points, so a 16-column matrix is no code."""
    import numpy as np
    from reference import save_pi
    path = tmp_path / "g16x16.pi"
    save_pi(str(path), np.zeros((16, 16)))
    rc = main(["replay", "--pi", str(path), "--L", "8", "--k", "11"])
    assert rc == 1
    assert "n <= q - 1" in capsys.readouterr().err


def test_main_module_entrypoint():
    import subprocess, sys
    proc = subprocess.run([sys.executable, "-m", "treechase", "chi2",
                           "--eps", "0.5", "--dof", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) > 0


def test_cold_start_loads_neither_scipy_nor_multiprocessing():
    """Importing the package or its CLI loads no scipy.* and no multiprocessing.*
    module; the chi-square quantile loads scipy on first use.  Checked in a
    fresh interpreter, since this test process may have imported both already."""
    import os, subprocess, sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import treechase, treechase.cli\n"
        "heavy = ('scipy', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in heavy))\n"
        "treechase.chi2_threshold(0.01, 60)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
