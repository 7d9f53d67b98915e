"""Quantities only the tests ask for, kept as oracles for the library.

None of the commands needs them: the boundary density by extrapolation
checks the subordination solver against closed-form densities, the
log-potential and annulus mass check the ring law through identities
that the density alone does not pin down, F = -1/m is the subordination
equations' own transform, Delta f is the Laplacian of the bump that the
Girko-identity tests pair with log |det|, a scan's flagged records
are the nodes whose reference solve failed, and the monotone gap equation
of mu_sym [+] delta_r^sym checks the library's shared symmetric axis route,
and m of a generic symmetric pair on the axis, to 50 digits in stdlib
decimal, checks that route in a spectral gap, where float64 has no slack.
The limit eta -> 0 of Im omega2(i eta) checks the certificate's direct
z = 0 solve, and the Nevanlinna representing measure of F_mu - id checks
the gap zeros and weights from which the certificate reads s_- and a_-.
The tail fit by np.polyfit, one bootstrap resample at a time, checks the
smallest-singular-value tail's one stacked line fit, and the dense 2N x 2N
hermitization checks the spectra and resolvents read from an SVD.  The
rephased QR of an iid Gaussian matrix is the reference Haar sampler, in
distribution, for the library's product of Gaussian Householder reflectors.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from singlering import linalg, ringlaw
from singlering.freeconv import solve_delta_conv, solve_phi_system
from singlering.measure import MeasureError, _brentq, _positive_gap_zeros, radii, stieltjes


def neg_recip_stieltjes(mu, z):
    """F_mu(z) = -1 / m_mu(z); maps the upper half-plane into itself."""
    return -1.0 / stieltjes(mu, z)


def log_potential(mu_sigma, s):
    """Radial log-potential L(s) of the ring law for mu_sigma at radius s > 0."""
    return ringlaw.radial_profile(mu_sigma, [s])[0].L


def ring_mass(mu_sigma, tau):
    """Ring-law mass of the tau-shrunk annulus r_minus + tau < |w| < r_plus - tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    r_minus, r_plus = radii(mu_sigma)
    lo, hi = r_minus + tau, r_plus - tau
    if lo >= hi:
        return 0.0
    # the mass inside radius s is F(s) = s L'(s); lo = 0 only with an atom at
    # the origin, whose weight sits at w = 0
    edges = [lo, hi] if lo > 0 else [hi]
    mass = [rec.s * rec.dL for rec in ringlaw.radial_profile(mu_sigma, edges)]
    return mass[-1] - (mass[0] if lo > 0 else float(mu_sigma.weights[0]))


def flagged(records):
    """The records of a scan whose reference solve failed: a dev that is not finite."""
    return [r for r in records if not np.isfinite(r.dev)]


def bump_laplacian(s):
    """Laplacian of the bump: -12(1-s^2)^2 + 24 s^2 (1-s^2) on |zeta| <= 1."""
    s = np.asarray(s, dtype=float)
    s2 = s * s
    v = np.where(s < 1.0, -12.0 * (1.0 - s2) ** 2 + 24.0 * s2 * (1.0 - s2), 0.0)
    return v if v.ndim else float(v)


def hermitize(Y):
    """The 2N x 2N Girko matrix [[0, Y], [Y*, 0]], the dense oracle of the SVD route."""
    N = Y.shape[0]
    H = np.zeros((2 * N, 2 * N), dtype=complex)
    H[:N, N:] = Y
    H[N:, :N] = Y.conj().T
    return H


def _rephased_qr(Z):
    """Q of Z = QR with each column rephased so that diag(R) > 0, which makes Q
    unique and exactly Haar for an iid Gaussian Z."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)


def qr_haar_unitary(n, rng):
    """Haar element of U(n) from an iid standard complex Gaussian matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _rephased_qr(Z / np.sqrt(2.0))


def qr_haar_orthogonal(n, rng):
    """Haar element of O(n) from an iid standard real Gaussian matrix."""
    return _rephased_qr(rng.standard_normal((n, n)))


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Returns (value, error estimate, residual diagonal).  The diagonal holds
    the successive best estimates; their differences should shrink
    monotonically when the extrapolation is trustworthy.
    """
    n = len(xs)
    tab = [list(ys)]
    for k in range(1, n):
        row = []
        for i in range(n - k):
            num = xs[i] * tab[k - 1][i + 1] - xs[i + k] * tab[k - 1][i]
            row.append(num / (xs[i] - xs[i + k]))
        tab.append(row)
    diag = [tab[k][0] for k in range(n)]
    err = abs(diag[-1] - diag[-2]) if n >= 2 else math.inf
    return diag[-1], err, diag


def im_omega2_zero_extrapolated(mu1_sym, r, etas=(1e-3, 1e-4, 1e-5)):
    """Im omega2(0) of mu1_sym [+] delta_r^sym, extrapolated to eta = 0 from
    the solves at z = i eta."""
    vals = [solve_delta_conv(mu1_sym, r, 1j * eta).omega2.imag for eta in etas]
    return _neville_to_zero(np.array(etas), vals)[0]


@dataclass(frozen=True)
class Atoms:
    """A finite nonnegative atomic measure of any total mass; may be empty."""

    atoms: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.atoms)


def nevanlinna_rep(mu_sym):
    """Representing measure of F_mu - id for a symmetric atomic measure.

    Returns ``(mu_hat, mu_tilde, r_minus_sq)`` where

        F_mu(w) - w = int d(mu_hat)(x) / (x - w),

    mu_hat has an atom of mass r_minus^2 = (int x^-2 dmu)^(-1) at 0 (zero if
    mu itself charges 0) and one atom at each zero of m_mu between
    consecutive same-sign atoms, with weight 1/m_mu'(zero);
    mu_tilde = mu_hat - r_minus^2 delta_0.  Total mass of mu_hat equals the
    second moment of mu.
    """
    if len(mu_sym) < 2:
        raise MeasureError("nevanlinna_rep needs a measure with at least 2 atoms")
    if not mu_sym.is_symmetric():
        raise MeasureError("nevanlinna_rep needs a symmetric measure")

    atoms, weights = mu_sym.atoms, mu_sym.weights

    def m_prime(x):
        return float(np.sum(weights / (atoms - x) ** 2))

    pos_zeros = _positive_gap_zeros(mu_sym)
    pos_w = np.array([1.0 / m_prime(x0) for x0 in pos_zeros])

    if np.any(atoms == 0.0):
        r_minus_sq = 0.0
        hat_atoms = np.concatenate((-pos_zeros[::-1], pos_zeros))
        hat_weights = np.concatenate((pos_w[::-1], pos_w))
    else:
        # symmetry puts one zero of m exactly at the origin
        r_minus_sq = 1.0 / m_prime(0.0)
        hat_atoms = np.concatenate((-pos_zeros[::-1], [0.0], pos_zeros))
        hat_weights = np.concatenate((pos_w[::-1], [r_minus_sq], pos_w))

    keep = hat_atoms != 0.0
    mu_tilde = Atoms(hat_atoms[keep], hat_weights[keep])
    return Atoms(hat_atoms, hat_weights), mu_tilde, r_minus_sq


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


def delta_axis_gap(mu1_sym, r, eta):
    """The gap d = Im omega2(i eta) - eta of mu1_sym [+] delta_r^sym, eta >= 0
    (at eta = 0, r must lie inside mu1_sym's open ring).

    The second measure's F(w) = w - r^2/w turns the axis system into
    G(d) = d (Im F_{mu1}(i(eta + d)) - d) = r^2, with G strictly increasing
    on d > 0, solved by Brent between brackets read off the atoms.
    """
    atoms2, weights, r2 = mu1_sym.atoms**2, mu1_sym.weights, r * r

    def G(d):
        y = eta + d
        return d * (1.0 / (y * np.sum(weights / (atoms2 + y * y))) - d)

    reach = float(np.max(np.abs(mu1_sym.atoms)))
    lo = r2 / (eta + r + reach)
    while lo > 1e-300 and G(lo) >= r2:
        lo *= 0.5
    hi = max(r, 1.0) + reach
    while G(hi) <= r2:
        hi *= 2.0
    return _brentq(lambda t: G(t) - r2, lo, hi, xtol=1e-300, rtol=8.9e-16)[0]


def axis_m_decimal(mu1_sym, mu2_sym, eta, digits=50):
    """Im m(i eta) of mu1_sym [+] mu2_sym, both symmetric, eta > 0, as a Decimal
    good to ``digits`` digits.

    On the axis F_mu(iy) = i(y + g(y)) with g(y) = sum p x^2/(x^2 + y^2) / (y sum
    p/(x^2 + y^2)), so the gap d = Im omega2 - eta solves h(d) = g2(eta + g1(eta + d))
    - d = 0; then y1 = eta + g1(eta + d) and m = i/(y1 + d).  h(0+) > 0, and
    g2(y) <= max x^2/y with y >= eta makes h < 0 past max x2^2/eta.  Halving from
    there brackets the root within a factor 2, and bisection at the geometric
    midpoint closes the bracket, with the float atoms and weights taken exactly.
    """
    if not eta > 0:
        raise ValueError(f"need eta > 0; got {eta}")
    with localcontext() as ctx:
        ctx.prec = digits + 10
        eta = Decimal(eta)

        def gap(mu):
            x2 = [Decimal(float(x)) ** 2 for x in mu.atoms]
            p = [Decimal(float(w)) for w in mu.weights]

            def g(y):
                q = [pk / (xk + y * y) for pk, xk in zip(p, x2)]
                return sum(qk * xk for qk, xk in zip(q, x2)) / (y * sum(q))

            return g, max(x2)

        (g1, _), (g2, reach2) = gap(mu1_sym), gap(mu2_sym)

        def h(d):
            return g2(eta + g1(eta + d)) - d

        hi = 2 * reach2 / eta
        lo = hi / 2
        while h(lo) <= 0:
            lo, hi = lo / 2, lo
        while hi - lo > lo * Decimal(10) ** -(digits + 2):
            mid = (lo * hi).sqrt()
            lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
        d = (lo + hi) / 2
        return 1 / (eta + g1(eta + d) + d)


def polyfit_tail_slope(lam_scaled, t_grid):
    """Log-log slope of the tail P(lam_scaled <= t) over the t with a probability in (0, 1)."""
    probs = np.array([np.mean(lam_scaled <= t) for t in t_grid])
    keep = (probs > 0) & (probs < 1)
    if np.sum(keep) < 2:
        return math.nan
    return float(np.polyfit(np.log(t_grid[keep]), np.log(probs[keep]), 1)[0])


def polyfit_tail_fit(lam, w, t_grid, seed):
    """The fit of ``locallaw.smallest_sv_tail`` for the smallest singular values
    ``lam`` at w: np.polyfit on the sample and on each of 200 resamples,
    drawn one at a time from the stream the scan uses."""
    lam_scaled = np.asarray(lam) * abs(w)
    if t_grid is None:
        t_grid = np.quantile(lam_scaled, [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    t_grid = np.asarray(t_grid, dtype=float)
    probs = np.array([np.mean(lam_scaled <= t) for t in t_grid])
    boot_rng = linalg.child_rng(seed, 10**6)
    slopes = []
    for _ in range(200):
        resample = boot_rng.choice(lam_scaled, size=len(lam_scaled), replace=True)
        s = polyfit_tail_slope(resample, t_grid)
        if np.isfinite(s):
            slopes.append(s)
    ci = [float(np.percentile(slopes, q)) for q in (2.5, 97.5)] if slopes else [math.nan] * 2
    return {
        "slope": polyfit_tail_slope(lam_scaled, t_grid),
        "slope_ci": ci,
        "monotone": bool(np.all(np.diff(probs) >= 0)),
        "t_grid": t_grid.tolist(),
        "tail_probability": probs.tolist(),
    }
