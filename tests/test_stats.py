"""The two statistical helpers: channel's chi-square quantile, threshold
mode's sphere radius, and sim's Wilson interval on a sweep row's FER."""

import math

import numpy as np
import pytest

from treechase.channel import chi2_threshold
from treechase.sim import wilson_interval

from reference import chi2_sf


def test_chi2_sf_closed_form_dof2():
    for t in (0.5, 1.0, 2.0, 5.0):
        assert chi2_sf(t, 2) == pytest.approx(math.exp(-t / 2.0), rel=1e-12)


def test_chi2_threshold_closed_form():
    # Pr{X2 >= 2} = e^-1, so eps = 2/e maps to exactly 2
    assert chi2_threshold(2.0 / math.e, 2) == pytest.approx(2.0, abs=1e-8)


def test_chi2_threshold_monotone_in_eps():
    prev = None
    for eps in (0.5, 0.1, 0.01, 0.001):
        t = chi2_threshold(eps, 60)
        if prev is not None:
            assert t > prev
        prev = t


@pytest.mark.parametrize("dof", [1, 2, 21, 60, 2040, 49140])  # 49140 = 4095 * 12, the largest n*m
@pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.3, 0.999999])
def test_chi2_threshold_round_trip(eps, dof):
    assert chi2_sf(chi2_threshold(eps, dof), dof) == pytest.approx(eps / 2.0, rel=1e-12)


def test_chi2_threshold_input_validation():
    with pytest.raises(ValueError):
        chi2_threshold(0.0, 10)
    with pytest.raises(ValueError):
        chi2_threshold(1.0, 10)
    with pytest.raises(ValueError):
        chi2_threshold(0.1, 0)


def test_chi2_threshold_against_monte_carlo_tail():
    # dof = 60 as for 15 GF(16) symbols at 4 bits each
    eps = 1e-3
    t = chi2_threshold(eps, 60)
    rng = np.random.default_rng(1234)
    samples = rng.chisquare(60, size=10_000_000)
    emp = float((samples >= t).mean())
    target = eps / 2.0
    se = math.sqrt(target * (1 - target) / samples.size)
    assert abs(emp - target) <= 3.0 * se


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.1
    lo2, hi2 = wilson_interval(50, 100)
    assert lo2 < 0.5 < hi2
    assert wilson_interval(0, 0) == (0.0, 1.0)
    # point estimate always inside its own interval
    for s, n in ((3, 17), (100, 20000), (1, 2)):
        lo3, hi3 = wilson_interval(s, n)
        assert lo3 <= s / n <= hi3

