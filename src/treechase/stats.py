"""Small statistical helpers shared by the decoder and the simulation driver."""

from __future__ import annotations

import math

from scipy.special import chdtri, gammaincc


def chi2_sf(x: float, dof: int) -> float:
    """Pr{X >= x} for X chi-square with dof degrees of freedom."""
    return float(gammaincc(dof / 2.0, x / 2.0))


def chi2_threshold(epsilon: float, dof: int) -> float:
    """Upper (epsilon/2)-quantile T of chi-square: Pr{X >= T} = epsilon / 2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if dof < 1:
        raise ValueError("dof must be >= 1")
    return float(chdtri(dof, epsilon / 2.0))


def wilson_interval(successes: int, trials: int, z: float = 2.5758293035489004) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 99% level)."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))
