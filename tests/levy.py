"""Levy distance between atomic measures and the distribution function it
rests on, kept for the tests that use them.

The library itself never needs it: its one use, a guard against the
identity profile, is the maximum of |sigma_i - 1| over the atoms.
"""

import numpy as np


def cdf(mu, x):
    """Right-continuous distribution function of mu, vectorized in x."""
    idx = np.searchsorted(mu.atoms, np.asarray(x, dtype=float), side="right")
    cum = np.concatenate(([0.0], np.cumsum(mu.weights)))
    return cum[idx]


def _levy_feasible(mu, nu, eps: float) -> bool:
    # Both one-sided conditions are sups of right-continuous step functions,
    # so checking every jump point of either step suffices.  Each sup is
    # parametrized so its own measure's CDF is evaluated exactly at its
    # atoms; rounding in the shifted CDF can then only overestimate the sup,
    # never hide a violation.
    slack = 1e-15
    xs = np.concatenate((nu.atoms, mu.atoms - eps))
    if np.max(cdf(nu, xs) - cdf(mu, xs + eps)) > eps + slack:
        return False
    ts = np.concatenate((mu.atoms, nu.atoms - eps))
    if np.max(cdf(mu, ts) - cdf(nu, ts + eps)) > eps + slack:
        return False
    return True


def levy_distance(mu, nu, tol: float = 1e-12) -> float:
    """Levy distance: the least eps such that the eps-inflated CDF band of mu
    contains the CDF of nu.  Computed by bisection on eps over the merged atom
    grid; always <= 1."""
    lo, hi = 0.0, 1.0
    if _levy_feasible(mu, nu, lo):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _levy_feasible(mu, nu, mid):
            hi = mid
        else:
            lo = mid
    return hi
