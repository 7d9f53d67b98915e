"""Radial log-potential and limiting density of the single ring.

The ring law of X = U diag(sigma) V* is known in closed form (Haagerup and
Larsen; Guionnet, Krishnapur and Zeitouni identify it as the limit).  For
mu_Sigma = sum_k p_k delta_{sigma_k} and y > 0 put

    t(y) = sum p / (1 + y sigma^2),
    A(y) = sum p sigma^2 / (1 + y sigma^2),
    q(y) = A / t.

s(y) = sqrt(q(y)) falls from r_plus to r_minus as y runs over (0, inf), and
at y = y(s) the mass inside radius s, the radial log-potential and the
density are

    F(s)   = t,
    L(s)   = (log A + sum p log(1 + y sigma^2)) / 2,
    rho(s) = t'(y) / (pi q'(y)),

with L' = F/s and L'' = 2 pi rho - F/s^2.  Outside the open ring
L = log s (s >= r_plus) or L = int log sigma dmu_Sigma (s <= r_minus), and
rho = 0.  F also equals Im omega2(i0) Im m(i0) of the eta = 0
subordination solve for mu_Sigma^sym [+] delta_s^sym.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import DiscreteMeasure, _brentq, radii

__all__ = ["RingRecord", "radial_profile"]


def _inverse_radius(p: np.ndarray, x: np.ndarray, s: float) -> float:
    """y with q(y) = s^2 for x = sigma^2; 0 or inf when s lies within
    rounding of r_plus or r_minus, where no sign change is left to find."""
    m2 = float(np.dot(p, x))
    x_hat, s2_hat = x / m2, s * s / m2  # scale-free: y m2 = e^u

    def gap(u):  # t(y) (q(y) - s^2) / m2, decreasing through 0
        return float(np.dot(p, (x_hat - s2_hat) / (1.0 + math.exp(u) * x_hat)))

    # |u| <= 64 reaches to within rounding of both edges; past it the sign
    # of gap is rounding noise and d^2 = (1 + y x)^2 heads for overflow
    lo, hi = -1.0, 1.0
    while gap(lo) <= 0.0:
        if lo <= -64.0:
            return 0.0
        lo *= 2.0
    while gap(hi) >= 0.0:
        if hi >= 64.0:
            return math.inf
        hi *= 2.0
    return math.exp(_brentq(gap, lo, hi, xtol=1e-14)[0]) / m2


def _ring_point(mu_sigma: DiscreteMeasure, r_minus: float, r_plus: float, s: float):
    """(F, L, rho) at radius s > 0 of the ring r_minus <= |w| <= r_plus of mu_sigma:
    inner mass, log-potential, density."""
    if s <= 0:
        raise ValueError("the ring law needs s > 0")
    p, x = mu_sigma.weights, mu_sigma.atoms**2
    y = 0.0 if s >= r_plus else math.inf if s <= r_minus else _inverse_radius(p, x, s)
    if y == 0.0:
        return 1.0, math.log(s), 0.0
    if y == math.inf and x[0] > 0:
        return 0.0, float(np.dot(p, np.log(mu_sigma.atoms))), 0.0
    if y == math.inf:
        # an atom p0 at 0 puts r_minus = 0 and s below the reach of y, where
        # to leading order y = (1 - p0)/(p0 s^2), t = p0 and A = (1 - p0)/y
        p0, p, x = float(p[0]), p[1:], x[1:]
        c = p0 * math.log(p0) + (1.0 - p0) * math.log1p(-p0) + float(np.dot(p, np.log(x)))
        return p0, p0 * math.log(s) + 0.5 * c, p0 * float(np.sum(p / x)) / (math.pi * (1.0 - p0))
    d = 1.0 + y * x
    t, a = float(np.dot(p, 1.0 / d)), float(np.dot(p, x / d))
    L = 0.5 * (math.log(a) + float(np.dot(p, np.log1p(y * x))))
    # rho = t'/(pi q') with t' = -W xbar and t^2 q' = -W sum w (x - xbar)^2
    # for w = p/d^2, W = sum w: the variance form avoids the cancellation
    # in t'A - tA' as s approaches r_minus
    w = p / d**2
    xbar = float(np.dot(w, x)) / float(np.sum(w))
    return t, L, t * t * xbar / (math.pi * float(np.dot(w, (x - xbar) ** 2)))


@dataclass(frozen=True)
class RingRecord:
    """The ring law at radius s: log-potential L, its derivatives dL = F/s and
    d2L = 2 pi rho - F/s^2, and the density rho; the schema of ring_density.csv."""

    s: float
    L: float
    dL: float
    d2L: float
    rho: float


def radial_profile(mu_sigma: DiscreteMeasure, s_values) -> list:
    """[RingRecord] at each radius s > 0 of s_values, from one computation of the radii."""
    r_minus, r_plus = radii(mu_sigma)
    records = []
    for s in map(float, s_values):
        F, L, rho = _ring_point(mu_sigma, r_minus, r_plus, s)
        dL = F / s  # F/s^2 as dL/s: s * s underflows to 0 below s = 1e-162
        records.append(RingRecord(s, L, dL, 2.0 * math.pi * rho - dL / s, rho))
    return records
