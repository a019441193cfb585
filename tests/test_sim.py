import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from treechase import sim
from treechase.sim import (
    ALGORITHMS,
    CHUNK,
    CSV_HEADER,
    MAX_SNR_STEPS,
    SweepConfig,
    parse_snr_spec,
    rows_to_csv,
    run_point,
    run_sweep,
    wilson_interval,
)


def small_cfg(**kw) -> SweepConfig:
    base = dict(p=2, m=4, n=15, k=11, snr_db=(5.0,), algorithms=("tcgs",),
                L=16, eta=4, max_frames=400, min_errors=0, seed=9, workers=1)
    base.update(kw)
    return SweepConfig(**base)


def test_parse_snr_spec_forms():
    assert parse_snr_spec("5.0") == (5.0,)
    assert parse_snr_spec("4,5,6.5") == (4.0, 5.0, 6.5)
    assert parse_snr_spec("4:6:1") == (4.0, 5.0, 6.0)
    assert parse_snr_spec("4:6:0.5") == (4.0, 4.5, 5.0, 5.5, 6.0)
    with pytest.raises(ValueError):
        parse_snr_spec("4:6")
    with pytest.raises(ValueError):
        parse_snr_spec("4:6:-1")
    with pytest.raises(ValueError):
        parse_snr_spec("abc")


@pytest.mark.parametrize("spec", ["0:inf:1", "-inf:0:1", "nan:1:1", "0:nan:1", "0:1:nan",
                                  "0:1:inf", "0:1:-inf"])
def test_parse_snr_spec_rejects_non_finite_range(spec):
    with pytest.raises(ValueError, match=re.escape(f"bad SNR range {spec!r}")):
        parse_snr_spec(spec)


@pytest.mark.parametrize("spec", ["0:100:1e-9", "-1e308:1e308:1", f"0:{MAX_SNR_STEPS + 1}:1"])
def test_parse_snr_spec_rejects_too_many_steps(spec):
    """Rejected before any point is built: 0:100:1e-9 would be 10^11 floats."""
    with pytest.raises(ValueError, match=re.escape(f"SNR range {spec!r} spans more than")):
        parse_snr_spec(spec)


def test_parse_snr_spec_step_limit_is_inclusive():
    assert len(parse_snr_spec(f"0:{MAX_SNR_STEPS}:1")) == MAX_SNR_STEPS + 1


def test_parse_snr_spec_reversed_overflowing_range_is_empty():
    with pytest.raises(ValueError, match="empty SNR range"):
        parse_snr_spec("1e308:-1e308:1")


def test_sweep_config_rejections():
    with pytest.raises(ValueError):
        small_cfg(algorithms=("magic",))
    with pytest.raises(ValueError):
        small_cfg(algorithms=())
    with pytest.raises(ValueError):
        small_cfg(snr_db=())
    with pytest.raises(ValueError):
        small_cfg(L=0)
    with pytest.raises(ValueError, match="L must be"):  # lcc builds no DecoderConfig to check L
        small_cfg(algorithms=("lcc",), L=0)
    with pytest.raises(ValueError):
        small_cfg(algorithms=("lcc",), eta=-1)  # the [0, n] check, low side
    with pytest.raises(ValueError):
        small_cfg(algorithms=("lcc",), eta=16)
    with pytest.raises(ValueError):
        small_cfg(workers=0)
    with pytest.raises(ValueError):
        small_cfg(p=5, m=1, n=4, k=2, threshold_eps=0.01)
    with pytest.raises(ValueError):
        small_cfg(threshold_eps=2.0)
    with pytest.raises(ValueError):
        small_cfg(max_frames=0)


def test_run_point_rejects_unknown_algorithm():
    """A sweep point picks its decoder config by name; an unknown name raises
    SweepConfig's error instead of running some other decoder."""
    with pytest.raises(ValueError) as checked:
        small_cfg(algorithms=("magic",))
    with pytest.raises(ValueError) as ran:
        run_point(small_cfg(), "magic", 5.0)
    assert str(ran.value) == str(checked.value)


@pytest.mark.parametrize("alg, eps", [("tcgs", None), ("tcgs", 0.01), ("hdd", None), ("lcc", None)])
def test_run_point_runs_the_point_that_point_builds(alg, eps):
    """run_point installs _point's context: the same code, sigma, decode
    function and config, for the tree search with and without a threshold
    floor and for both baselines."""
    cfg = small_cfg(snr_db=(4.0,), algorithms=(alg,), threshold_eps=eps, max_frames=1)
    built = sim._point(cfg, alg, 4.0)
    run_point(cfg, alg, 4.0)
    ran = sim._CTX

    def parts(ctx):
        c, code, sigma, decode, config = ctx
        return c, (code.field.p, code.field.m, code.n, code.k), sigma, decode, config

    assert parts(ran) == parts(built)


@pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf"), 1e308, -1e308])
def test_sweep_config_rejects_snr_without_finite_noise_variance(snr_db):
    """An SNR whose noise variance is not a finite positive float is rejected
    before any frame is drawn, naming the SNR, at any position in the list."""
    with pytest.raises(ValueError, match=re.escape(f"SNR {snr_db} dB")):
        small_cfg(snr_db=(5.0, snr_db))


@pytest.mark.parametrize("kw, cause", [
    (dict(seed=-1), "seed must be >= 0"),
    (dict(snr_db=(5.0, 3050.0)), "SNR 3050.0 dB gives likelihoods too large to weigh"),
    (dict(max_frames=20.5), "max_frames must be an integer"),
    (dict(seed=1.5), "seed must be an integer"),
    (dict(workers=1.5), "workers must be an integer"),
    (dict(min_errors=0.5), "min_errors must be an integer"),
    (dict(L=2.0), "L must be an integer"),
    (dict(algorithms=("lcc",), L=1.5), "L must be an integer"),
    (dict(algorithms=("lcc",), eta=2.0), "eta must be an integer"),
    (dict(workers=True), "workers must be an integer"),
    (dict(seed=False), "seed must be an integer"),
    (dict(algorithms=("tcgs", "lcc", "tcgs")), "repeated algorithm in ('tcgs', 'lcc', 'tcgs')"),
    (dict(snr_db=(5.0, 4.0, 5)), "repeated SNR point in (5.0, 4.0, 5)"),
    (dict(algorithms="lcc"), "algorithms must be a tuple or list, not str"),
    (dict(algorithms="tcgs"), "algorithms must be a tuple or list, not str"),
    (dict(algorithms={"tcgs"}), "algorithms must be a tuple or list, not set"),
    (dict(snr_db=5.0), "snr_db must be a tuple or list, not float"),
    (dict(snr_db="5"), "snr_db must be a tuple or list, not str"),
    (dict(snr_db=(True,)), "snr_db points must be real numbers (a bool is none): (True,)"),
    (dict(snr_db=[5.0, False]), "snr_db points must be real numbers (a bool is none): (5.0, False)"),
    (dict(snr_db=("5",)), "snr_db points must be real numbers (a bool is none): ('5',)"),
    (dict(snr_db=(4.0, None)), "snr_db points must be real numbers (a bool is none): (4.0, None)"),
    (dict(snr_db=(4.0, 4.0000001)), "SNR points 4.0 and 4.0000001 both print as 4"),
    (dict(snr_db=(5.0, 1e-7, 1.00000001e-7)),
     "SNR points 1e-07 and 1.00000001e-07 both print as 1e-07"),
    (dict(genie="no"), "genie must be a bool, got 'no'"),
    (dict(genie=1), "genie must be a bool, got 1"),
    (dict(threshold_eps="0.01"), "threshold_eps must be in (0, 1)"),
    (dict(threshold_eps=np.array([0.01])), "threshold_eps must be in (0, 1)"),
])
def test_sweep_config_rejects_what_run_sweep_cannot_run(kw, cause):
    """A negative seed (numpy's frame streams take none), an SNR whose
    likelihoods overflow the soft-weight check, a count that is no integer
    (a TypeError inside run_sweep, or a budget the config does not name; a
    bool is no count either), a repeated algorithm or SNR point (which
    would decode the same point again and print the same row twice), a
    point list that is no tuple or list (a str iterates its characters, a
    float not at all), an SNR point that is no real number (a str, None or
    a bool), two SNR points that the CSV would print alike, a genie flag that
    is no bool (any truthy value would switch it on) or a threshold_eps that
    is no real number is rejected when the config is built, not inside
    run_sweep."""
    with pytest.raises(ValueError, match=re.escape(cause)):
        small_cfg(**kw)


def test_sweep_config_stores_lists_as_tuples():
    """Lists are accepted and stored as tuples, so the frozen config hashes."""
    cfg = small_cfg(snr_db=[5.0, 4.0], algorithms=["tcgs", "hdd"])
    assert (cfg.snr_db, cfg.algorithms) == ((5.0, 4.0), ("tcgs", "hdd"))
    assert hash(cfg) == hash(small_cfg(snr_db=(5.0, 4.0), algorithms=("tcgs", "hdd")))


def test_sweep_config_takes_numpy_bools_and_reals():
    cfg = small_cfg(genie=np.True_, threshold_eps=np.float32(0.01), snr_db=(np.float64(5.0),))
    assert cfg.genie and sim._point(cfg, "tcgs", 5.0)[4].loglik_floor is not None


def test_a_sweep_builds_its_code_once(monkeypatch):
    """The config builds the code once; its checks and run_sweep build none, and
    every point's context holds cfg.code.  The code takes no part in ==, hash
    or repr: a rebuilt twin holds another code and still equals the config."""
    built, points = [], []
    make_code, point = sim.make_code, sim._point
    monkeypatch.setattr(sim, "make_code", lambda *a: built.append(a) or make_code(*a))
    monkeypatch.setattr(sim, "_point", lambda *a: points.append(point(*a)) or points[-1])
    cfg = small_cfg(snr_db=(4.0, 5.0), algorithms=ALGORITHMS, max_frames=2)
    checked = len(points)
    run_sweep(cfg)
    assert built == [(2, 4, 15, 11)] and (checked, len(points)) == (6, 12)
    assert all(ctx[1] is cfg.code for ctx in points)
    twin = replace(cfg)
    assert twin.code is not cfg.code and twin == cfg and hash(twin) == hash(cfg)
    assert "code" not in repr(cfg)


def test_every_snr_a_sweep_config_accepts_runs():
    """Around the SNR where [15,11] likelihoods overflow (about 3049 dB), every
    point either is rejected by SweepConfig or runs, in every mode."""
    ran = []
    for snr_db in parse_snr_spec("3040:3090:0.5"):
        try:
            cfg = small_cfg(snr_db=(snr_db,), algorithms=ALGORITHMS, max_frames=2,
                            threshold_eps=0.01)
        except ValueError:
            continue
        assert [row.frame_errors for row in run_sweep(cfg)] == [0, 0, 0]
        ran.append(snr_db)
    assert ran and max(ran) < 3049.0


def test_sweep_config_requires_a_binary_field():
    """Sweeps send each symbol as m BPSK bits, which cannot carry a GF(p) symbol
    for odd p; GF(2) itself (p = 2, m = 1) stays valid."""
    with pytest.raises(ValueError, match="binary field"):
        small_cfg(p=5, m=1, n=4, k=2)
    assert small_cfg(p=2, m=1, n=2, k=1).m == 1  # GF(2) builds


def test_csv_layout_and_self_consistency():
    rows = run_sweep(small_cfg(max_frames=300))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "tcgs" and cells[1] == "5"
    assert cells[-1] == "0.000"  # wall zeroed for reproducibility
    frames, errors = int(cells[2]), int(cells[3])
    assert float(cells[4]) == pytest.approx(errors / frames)
    lo, hi = wilson_interval(errors, frames)
    assert lo <= float(cells[4]) <= hi


def test_csv_timing_flag_reports_nonzero():
    rows = run_sweep(small_cfg(max_frames=50))
    text = rows_to_csv(rows, timing=True)
    wall = float(text.strip().split("\n")[1].split(",")[-1])
    assert wall > 0.0


SWEEP_RS15_4_6_1_300 = (
    "algorithm,snr_db,frames,frame_errors,fer,avg_trials,e_upper_rate,e_lower_rate,wall_seconds\n"
    "tcgs,4,300,4,0.013333333,3.55,0.073333333,0,0.000\n"
    "tcgs,5,300,1,0.0033333333,1.49,0.0066666667,0,0.000\n"
    "tcgs,6,300,0,0,1.0266667,0,0,0.000\n"
    "lcc,4,300,10,0.033333333,5.9333333,0.32666667,0,0.000\n"
    "lcc,5,300,1,0.0033333333,2.43,0.093333333,0,0.000\n"
    "lcc,6,300,0,0,1.21,0.013333333,0,0.000\n"
    "hdd,4,300,69,0.23,1,0.35666667,0,0.000\n"
    "hdd,5,300,21,0.07,1,0.11333333,0,0.000\n"
    "hdd,6,300,5,0.016666667,1,0.023333333,0,0.000\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_is_pinned(workers):
    """The seeded sweep CSV is a behaviour artefact: it must not change by a byte."""
    cfg = small_cfg(snr_db=parse_snr_spec("4:6:1"), algorithms=("tcgs", "lcc", "hdd"),
                    max_frames=300, seed=0, workers=workers)
    assert rows_to_csv(run_sweep(cfg)) == SWEEP_RS15_4_6_1_300


SWEEP_RS15_4_6_1_300_EPS001 = (
    "algorithm,snr_db,frames,frame_errors,fer,avg_trials,e_upper_rate,e_lower_rate,wall_seconds\n"
    "tcgs,4,300,4,0.013333333,5.9333333,0.32666667,0,0.000\n"
    "tcgs,5,300,1,0.0033333333,2.2733333,0.093333333,0,0.000\n"
    "tcgs,6,300,1,0.0033333333,1.0666667,0.013333333,0,0.000\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_threshold_sweep_csv_is_pinned(workers):
    """Threshold mode exits on bound >= T_z, so the CSV also pins the chi-square
    radius against a knife-edge change of the quantile."""
    cfg = small_cfg(snr_db=parse_snr_spec("4:6:1"), max_frames=300, seed=0,
                    threshold_eps=0.01, workers=workers)
    assert rows_to_csv(run_sweep(cfg)) == SWEEP_RS15_4_6_1_300_EPS001


def test_worker_count_invariance_small():
    """Forked workers inherit each point's context: every mode (tcgs, lcc and
    hdd, with and without the genie, and threshold tcgs) gives one CSV at 1
    and 3 workers."""
    for mode in (dict(algorithms=ALGORITHMS), dict(algorithms=ALGORITHMS, genie=True),
                 dict(threshold_eps=0.01)):
        cfg = small_cfg(max_frames=250, **mode)
        csv = rows_to_csv(run_sweep(cfg))
        assert rows_to_csv(run_sweep(replace(cfg, workers=3))) == csv, mode


def test_min_errors_stops_on_chunk_boundary():
    # 1 dB is noisy enough to hit 30 errors inside the first chunk
    cfg = small_cfg(snr_db=(1.0,), max_frames=5000, min_errors=30)
    row = run_point(cfg, "tcgs", 1.0)
    assert row.frame_errors >= 30
    assert row.frames % CHUNK == 0 or row.frames == cfg.max_frames
    cfg2 = small_cfg(snr_db=(1.0,), max_frames=5000, min_errors=30, workers=2)
    row2 = run_point(cfg2, "tcgs", 1.0)
    assert (row2.frames, row2.frame_errors) == (row.frames, row.frame_errors)


def test_noiseless_limit():
    row = run_point(small_cfg(snr_db=(20.0,), max_frames=200), "tcgs", 20.0)
    assert row.frame_errors == 0
    assert row.fer == 0.0
    assert row.avg_trials == 1.0
    assert row.e_upper_rate == 0.0


def test_hdd_equals_unit_budget_tcgs():
    r_hdd = run_point(small_cfg(max_frames=300), "hdd", 5.0)
    r_one = run_point(small_cfg(max_frames=300, L=1), "tcgs", 5.0)
    assert (r_hdd.frames, r_hdd.frame_errors) == (r_one.frames, r_one.frame_errors)
    assert r_hdd.avg_trials == 1.0


def test_row_order_is_algorithm_major():
    cfg = small_cfg(algorithms=("tcgs", "hdd"), snr_db=(5.0, 6.0), max_frames=50)
    rows = run_sweep(cfg)
    assert [(r.algorithm, r.snr_db) for r in rows] == [
        ("tcgs", 5.0), ("tcgs", 6.0), ("hdd", 5.0), ("hdd", 6.0)]


def test_genie_mode_never_increases_fer():
    plain = run_point(small_cfg(max_frames=400, snr_db=(4.0,)), "tcgs", 4.0)
    aided = run_point(small_cfg(max_frames=400, snr_db=(4.0,), genie=True), "tcgs", 4.0)
    assert aided.frame_errors <= plain.frame_errors
    assert aided.avg_trials <= plain.avg_trials


def test_avg_trials_decrease_with_snr():
    snrs = (3.0, 4.0, 5.0, 6.0, 7.0)
    for alg in ("tcgs", "lcc"):
        cfg = small_cfg(algorithms=(alg,), snr_db=snrs, max_frames=800)
        rows = run_sweep(cfg)
        trials = [r.avg_trials for r in rows]
        rho = spearmanr(snrs, trials).statistic
        assert rho <= -0.9, f"{alg} avg_trials not decreasing: {trials}"
