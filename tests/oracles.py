"""Quantities only the tests ask for, kept as oracles for the library.

None of the commands needs them: the boundary density by extrapolation
checks the subordination solver against closed-form densities, the
log-potential and annulus mass check the ring law through identities
that the density alone does not pin down, F = -1/m is the subordination
equations' own transform, Delta f is the Laplacian of the bump that the
Girko-identity tests pair with log |det|, and a scan's flagged records
are the nodes whose reference solve failed.
"""

import math
from dataclasses import dataclass

import numpy as np

from singlering import ringlaw
from singlering.freeconv import _neville_to_zero, solve_phi_system
from singlering.measure import radii, stieltjes


def neg_recip_stieltjes(mu, z):
    """F_mu(z) = -1 / m_mu(z); maps the upper half-plane into itself."""
    return -1.0 / stieltjes(mu, z)


def log_potential(mu_sigma, s):
    """Radial log-potential L(s) of the ring law for mu_sigma at radius s > 0."""
    return ringlaw._ring_point(mu_sigma, s)[1]


def ring_mass(mu_sigma, tau):
    """Ring-law mass of the tau-shrunk annulus r_minus + tau < |w| < r_plus - tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    r_minus, r_plus = radii(mu_sigma)
    lo, hi = r_minus + tau, r_plus - tau
    if lo >= hi:
        return 0.0
    # lo = 0 only with an atom at the origin, whose weight sits at w = 0
    inner = ringlaw._ring_point(mu_sigma, lo)[0] if lo > 0 else float(mu_sigma.weights[0])
    return ringlaw._ring_point(mu_sigma, hi)[0] - inner


def flagged(report):
    """The records of a scan whose reference solve failed: a dev that is not finite."""
    return [r for r in report.records if not np.isfinite(r.dev)]


def bump_laplacian(s):
    """Laplacian of the bump: -12(1-s^2)^2 + 24 s^2 (1-s^2) on |zeta| <= 1."""
    s = np.asarray(s, dtype=float)
    s2 = s * s
    v = np.where(s < 1.0, -12.0 * (1.0 - s2) ** 2 + 24.0 * s2 * (1.0 - s2), 0.0)
    return v if v.ndim else float(v)


@dataclass(frozen=True)
class DensityEstimate:
    """Boundary density value with its extrapolation diagnostics."""

    value: float
    error: float
    reliable: bool
    eta_values: tuple
    raw_values: tuple


def extrapolate_density(etas, vals) -> DensityEstimate:
    value, err, diag = _neville_to_zero(etas, vals)
    steps = np.abs(np.diff(diag))
    # ignore steps at the roundoff floor when judging monotonicity
    floor = 10 * max(abs(value), 1e-300) * 1e-16
    sig = steps[steps > floor]
    reliable = bool(len(sig) < 2 or np.all(np.diff(sig) <= 0))
    return DensityEstimate(float(value), float(err), reliable, tuple(etas), tuple(vals))


def boundary_density(mu1, mu2, E, eta_seq) -> DensityEstimate:
    """Density of mu1 [+] mu2 at E via Im m(E + i eta)/pi, eta -> 0.

    eta_seq must be strictly decreasing; the limit is taken by polynomial
    extrapolation in eta.  Non-shrinking extrapolation residuals mark the
    estimate unreliable rather than raising.
    """
    etas = np.asarray(list(eta_seq), dtype=float)
    if len(etas) < 2 or np.any(np.diff(etas) >= 0) or np.any(etas <= 0):
        raise ValueError("eta_seq must be a strictly decreasing sequence of positive reals")
    vals = [solve_phi_system(mu1, mu2, complex(E, eta)).m.imag / math.pi for eta in etas]
    return extrapolate_density(etas, vals)
