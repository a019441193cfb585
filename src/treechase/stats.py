"""Small statistical helpers shared by the channel model and the simulation driver.

scipy is imported inside chi2_threshold, the one caller of it, so importing
the package does not load scipy: only threshold mode's floor
(channel.loglik_floor) and `treechase chi2` do.  The quantile is cached per
(epsilon, dof), so the floor of each sweep point, built when its config is
checked and again when it runs, looks it up instead of recomputing it.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=64)
def chi2_threshold(epsilon: float, dof: int) -> float:
    """Upper (epsilon/2)-quantile T of chi-square: Pr{X >= T} = epsilon / 2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if dof < 1:
        raise ValueError("dof must be >= 1")
    from scipy.special import chdtri

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
