"""Free additive convolution via subordination.

The convolution mu1 [+] mu2 is characterized by a pair of analytic
self-maps omega1, omega2 of the upper half-plane solving

    F_{mu1}(omega2(z)) = F_{mu2}(omega1(z)) = omega1(z) + omega2(z) - z,

with F the negative reciprocal Stieltjes transform.  The Stieltjes
transform of the convolution is m(z) = -1/F_{mu1}(omega2(z)).

:func:`solve_phi_system` solves this one system for any pair of atomic
measures, by one of three routes:

* a point mass on either side is an exact shift, with no iteration;
* for a symmetric pair at z = i eta, both omegas are purely imaginary and
  the system is one real Brent root-find in the gap d = Im omega2 - eta,
  which also holds at the boundary eta = 0; its bracket search runs until d
  leaves the float range, and below the eta where Im omega1 squares past it
  the solve raises ConvergenceError;
* everywhere else a safeguarded Newton iteration runs.

:func:`solve_delta_conv` is the reference law of the hermitized local law,
mu1_sym [+] delta_r^sym with delta_r^sym = (delta_r + delta_{-r})/2: the
same system, plus the boundary value z = 0 for r inside mu1's ring.

:func:`bulk_bound_certificate` evaluates the explicit lower/upper bound
apparatus for |omega2(i eta) - i eta| in the bulk radius regime and checks
it against the solved subordination function on a dyadic eta grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .measure import (
    ConvergenceError,
    DiscreteMeasure,
    MeasureError,
    _brentq,
    _positive_gap_zeros,
    radii,
    stieltjes,
    support_stats,
)

__all__ = [
    "ConvergenceError",
    "SubordinationState",
    "CertificateReport",
    "solve_phi_system",
    "solve_delta_conv",
    "bulk_ring",
    "bulk_bound_certificate",
]

TOL = 1e-12  # residual goal of every solve, relative to max(1, |omega1|, |omega2|)
MAX_ITER = 10_000  # step cap of the generic safeguarded Newton engine
LOWER_CONSTANT_CAP = 1e3  # the certificate's lower-bound constant c passes up to this
UPPER_CONSTANT_CAP = 10.0  # and its upper-bound constant C up to this


@dataclass(frozen=True)
class SubordinationState:
    """Solution of the subordination system at one spectral point.

    residual is the max norm of the two defining equations; m = -1/F with
    F = F_{mu1}(omega2); iterations counts root-finder or generic-engine
    steps.  The fields are the columns of the CLI's freeconv.csv.
    """

    z: complex
    omega1: complex
    omega2: complex
    m: complex
    residual: float
    iterations: int


def _F(mu: DiscreteMeasure, w):
    """(F(w), F'(w)) of an atomic measure from one pass: F = -1/m, F' = m'/m^2."""
    d = mu.atoms - w
    m = np.sum(mu.weights / d)
    return -1.0 / m, np.sum(mu.weights / (d * d)) / (m * m)


def _state(mu1, mu2, z, w1, w2, iterations) -> SubordinationState:
    """The state at (omega1, omega2) from F alone: _F's d * d underflows at |d| < 1e-154."""
    F1 = -1.0 / np.sum(mu1.weights / (mu1.atoms - w2))
    F2 = -1.0 / np.sum(mu2.weights / (mu2.atoms - w1))
    res = max(abs(F1 - w1 - w2 + z), abs(F2 - w1 - w2 + z))
    return SubordinationState(z, w1, w2, -1.0 / F1, res, iterations)


def _squarable(x: float, name: str) -> float:
    """x, or a ValueError where x is NaN or x * x overflows: the solves square each eta, Im z."""
    if not x <= math.sqrt(sys.float_info.max):
        raise ValueError(f"need {name} <= {math.sqrt(sys.float_info.max):g}, got {x:g}")
    return x


def _goal(w1, w2) -> float:
    """TOL scaled by the iterate, as float64 cannot express residuals below eps * |omega|."""
    return TOL * max(1.0, abs(w1), abs(w2))


def _solve_pair(mu1, mu2, z, w2) -> SubordinationState:
    """Safeguarded Newton iteration for the subordination fixed point from omega2 = w2.

    omega1 is slaved to omega2 through the first defining equation,
    omega1 = z + F1(omega2) - omega2, which makes its residual vanish
    identically and collapses the system to the scalar fixed point

        omega2 = K(omega2) := z + F2(omega1) - omega1,   omega1 as above.

    K is an analytic self-map of {Im w >= Im z} (Im F(w) >= Im w) whose fixed
    point there is unique, its Denjoy-Wolff point (Belinschi-Bercovici 2007),
    so the plain step w -> K(w) is always safe; but it contracts at rate
    1 - O(Im z) near the real axis, too slowly for tight tolerances.  Each
    step is therefore Newton's on phi(w) = K(w) - w when that stays in the
    half-plane and lowers |phi|, and the plain step w + phi(w) otherwise.
    """

    def step(w):
        """(phi(w), phi'(w), omega1) from one evaluation of F1 and of F2."""
        F1, dF1 = _F(mu1, w)
        w1 = z + F1 - w
        F2, dF2 = _F(mu2, w1)
        return F2 - w1 - w + z, (dF2 - 1.0) * (dF1 - 1.0) - 1.0, w1

    p, dp, w1 = step(w2)
    it = 0
    while abs(p) > _goal(w1, w2) and it < MAX_ITER:
        it += 1
        nw = w2 - p / dp if dp != 0 else w2
        trial = step(nw) if nw.imag >= z.imag else None
        if trial is not None and abs(trial[0]) < abs(p):
            w2, (p, dp, w1) = nw, trial
        else:
            w2 = w2 + p
            p, dp, w1 = step(w2)

    st = _state(mu1, mu2, z, w1, w2, it)
    if st.residual <= _goal(w1, w2):
        return st
    raise ConvergenceError(
        f"subordination iteration stalled at residual {st.residual:.3e} "
        f"(tol {TOL:g}) after {it} iterations at z = {z}"
    )


def _axis_gap(mu: DiscreteMeasure):
    """g(y) = Im F_mu(iy) - y >= 0 of a symmetric mu, for y > 0.

    A symmetric mu has m_mu(iy) = i y sum p/(x^2 + y^2), so F_mu(iy) = i (y + g(y))
    with g(y) = sum p x^2/(x^2 + y^2) / (y sum p/(x^2 + y^2)): no cancellation, so
    g keeps its relative accuracy where it is small next to y.
    """
    x2, p = mu.atoms**2, mu.weights

    def g(y):
        q = p / (x2 + y * y)
        return float(q @ x2) / (y * float(q.sum()))

    return g


def _axis_state(mu1: DiscreteMeasure, mu2: DiscreteMeasure, z: complex) -> SubordinationState:
    """The symmetric pair's state at z = i eta, eta >= 0, in real arithmetic from the gap
    d = Im omega2 - eta > 0.

    On the imaginary axis both subordination functions are purely imaginary:
    omega2 = i y2 with y2 = eta + d and, by the first defining equation, omega1 =
    i y1 with y1 = eta + g1(y2), g = ``_axis_gap``.  The second one reads

        h(d) = g2(eta + g1(eta + d)) - d = 0,

    a real equation with h(0+) > 0.  For eta > 0, h -> -infinity and the root
    is the unique solution; at eta = 0 it is the boundary value, which exists
    when the rings are compatible (for mu2 = delta_r^sym: r inside mu1's open
    ring).  Starting from the scale m2(mu2)/(eta + sqrt(m2(mu1) + m2(mu2)))
    of the root, d doubles or halves until h changes sign or d leaves
    (0, inf), and ``measure._brentq`` does the rest.  Working in d rather than
    y2 keeps the gap, which shrinks like m2(mu2)/eta, resolved at large eta,
    and the bracketed root-find is immune to the residual valleys that slow
    the safeguarded Newton engine when the convolution has a spectral gap.
    In a spectral gap at 0, y1 grows like 1/eta; below the eta where y1^2
    overflows (about 1e-154), g divides 0 by 0 and the solve raises
    ConvergenceError.

    F1(omega2) = omega1 + omega2 - z = i(y1 + d) exactly, so m = i/(y1 + d)
    and the residual is the second equation's |h(d)|.
    """
    eta = z.imag
    g1, g2 = _axis_gap(mu1), _axis_gap(mu2)

    def h(d):
        try:
            return g2(eta + g1(eta + d)) - d
        except ZeroDivisionError:
            raise ConvergenceError(f"y^2 overflows in the axis solve at eta = {eta}") from None

    m2_1, m2_2 = mu1.second_moment(), mu2.second_moment()
    d = m2_2 / (eta + math.sqrt(m2_1 + m2_2))
    up = h(d) > 0.0
    nd = 2.0 * d if up else 0.5 * d
    while 0.0 < nd < math.inf and (h(nd) > 0.0) == up:
        d, nd = nd, 2.0 * nd if up else 0.5 * nd
    if not 0.0 < nd < math.inf:
        raise ConvergenceError(f"no axis bracket for the symmetric pair at eta = {eta}")
    d, it = _brentq(h, *((d, nd) if up else (nd, d)), xtol=1e-300, rtol=8.9e-16)
    y2 = eta + d
    y1 = eta + g1(y2)
    res = abs(g2(y1) - d)
    if res <= _goal(y1, y2):
        return SubordinationState(z, 1j * y1, 1j * y2, 1j / (y1 + d), res, it)
    raise ConvergenceError(
        f"axis root d = {d!r} leaves residual {res:.3e} (tol {TOL:g}) at z = {z}"
    )


def solve_phi_system(mu1: DiscreteMeasure, mu2: DiscreteMeasure, z: complex) -> SubordinationState:
    """Solve the two-measure subordination system at z in the open upper
    half-plane and return the full state (omega1, omega2, m); a point mass
    on either side is an exact shift."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"solve_phi_system needs Im z > 0; got z = {z}")
    _squarable(z.imag, "Im z")

    if len(mu1) == 1 or len(mu2) == 1:
        # mu [+] delta_a is the shift m(z) = m_mu(z - a), with no iteration:
        # omega is z - a on the point-mass side and a - 1/m on the other
        point, other = (mu1, mu2) if len(mu1) == 1 else (mu2, mu1)
        a = float(point.atoms[0])
        m = stieltjes(other, z - a)
        w1, w2 = (z - a, a - 1.0 / m) if point is mu1 else (a - 1.0 / m, z - a)
        return replace(_state(mu1, mu2, z, w1, w2, 0), m=m)
    if z.real == 0.0 and mu1.is_symmetric() and mu2.is_symmetric():
        return _axis_state(mu1, mu2, z)
    m2_total = mu1.second_moment() + mu2.second_moment()
    return _solve_pair(mu1, mu2, z, z + 1j * math.sqrt(max(m2_total, 1e-30)))


def solve_delta_conv(mu1_sym: DiscreteMeasure, r: float, z: complex) -> SubordinationState:
    """Convolve a symmetric measure with delta_r^sym = (delta_r + delta_{-r})/2.

    For Im z > 0 this is ``solve_phi_system`` against delta_r^sym.  The
    boundary value z = 0 exists for r inside mu1_sym's open ring (a
    ValueError otherwise) and comes from the same axis root-find at eta = 0.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"point-mass radius r must be positive and finite; got {r}")
    if len(mu1_sym) < 2:
        raise MeasureError("mu1 must be supported at more than one point")
    if not mu1_sym.is_symmetric():
        raise MeasureError("solve_delta_conv needs a symmetric mu1")
    z = complex(z)
    if z.imag < 0 or (z.imag == 0 and z.real != 0):
        raise ValueError(f"need Im z > 0, or z = i eta with eta >= 0; got z = {z}")

    delta_sym = DiscreteMeasure(np.array([-r, r]), np.array([0.5, 0.5]))
    if z != 0:
        return solve_phi_system(mu1_sym, delta_sym, z)
    bulk_ring(mu1_sym, r)
    return _axis_state(mu1_sym, delta_sym, z)


# ---------------------------------------------------------------------------
# bulk bound certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Scalars and per-eta margins of the bulk subordination bounds.

    The certificate fixes a symmetric measure and a point-mass radius
    r strictly between the ring radii, derives the explicit quantities

        sigma_-  = ((r^2 - r_-^2)/(r_+^2 - r_-^2))^(1/2)
        sigma_+  = (r_+^2/(r_+^2 - r^2))^(1/2)
        s_-      = sup { x : mu_tilde([0, x)) <= (r^2 - r_-^2)/8 }
        a_-      = int_{|x| >= s_-} x^-2 dmu_tilde
        t_-      = sigma_- s_-,   b_- = min{1, a_-, a_- t_-^2 / r^2}
        omega_hat = i ((r^2 - r_-^2)/a_-)^(1/2)

    and checks, on a dyadic eta grid, the two-sided envelope

        c^-1 sigma_- s_- b_- min{1, sigma_- s_-/eta}
            <= |omega2(i eta) - i eta| <= C min{sigma_+ s_+, r^2/eta},

    and the zero-boundary bound Im omega2(0) > (sqrt(3)/2) sigma_- s_-.  The
    constants c and C are reported empirically; upper_ok additionally
    requires the constant-one bound |omega2(i eta) - i eta| <= r^2/eta at
    every grid point, whose margins upper_margins holds.
    """

    r: float
    r_minus: float
    r_plus: float
    s_plus: float
    sigma_minus: float
    sigma_plus: float
    s_minus: float
    t_minus: float
    a_minus: float
    b_minus: float
    omega_hat_abs: float
    im_omega2_zero: float
    eta_grid: tuple
    lower_ok: bool
    upper_ok: bool
    zero_bound_ok: bool
    best_constant: float
    lower_constant: float
    upper_margins: tuple


def bulk_ring(mu1_sym: DiscreteMeasure, r: float):
    """(r_-, r_+) of mu1_sym from ``measure.radii``; a ValueError unless r_- < r < r_+."""
    r_minus, r_plus = radii(mu1_sym)
    if not (r_minus < r < r_plus):
        raise ValueError(
            f"r = {r} violates the bulk hypothesis: the bounds hold for "
            f"r in the open ring ({r_minus:.12g}, {r_plus:.12g})"
        )
    return r_minus, r_plus


def bulk_bound_certificate(
    mu1_sym: DiscreteMeasure,
    r: float,
    eta_max: float = 10.0,
    grid: int = 64,
) -> CertificateReport:
    """Evaluate the bulk bound certificate for mu1_sym [+] delta_r^sym."""
    if not mu1_sym.is_symmetric():
        raise MeasureError("certificate needs a symmetric measure")
    if len(mu1_sym) < 3:
        raise MeasureError("certificate needs a measure supported at three or more points")
    if grid < 2:
        raise ValueError("grid must have at least 2 dyadic points")
    if _squarable(eta_max, "eta_max") <= 0:
        raise ValueError(f"need eta_max > 0, got {eta_max:g}")

    r_minus, r_plus = bulk_ring(mu1_sym, r)
    s_plus, r_plus_sq = support_stats(mu1_sym)  # the second moment, exact where r_plus**2 rounds
    r_minus_sq = r_minus * r_minus

    r2 = r * r
    gap_sq = r2 - r_minus_sq
    sigma_minus = math.sqrt(gap_sq / (r_plus_sq - r_minus_sq))
    sigma_plus = math.sqrt(r_plus_sq / (r_plus_sq - r2))

    # mu_tilde is symmetric, with an atom at each zero x0 of m_mu between
    # consecutive same-sign atoms, of weight 1/m_mu'(x0)
    atoms, weights = mu1_sym.atoms, mu1_sym.weights
    zeros = _positive_gap_zeros(mu1_sym)
    zero_w = np.array([1.0 / float(np.sum(weights / (atoms - x0) ** 2)) for x0 in zeros])
    # s_- is the first zero at which the inclusive cumulative mass of
    # mu_tilde on (0, x] exceeds the threshold, realizing the half-open
    # sup{x : mu_tilde([0, x)) <= threshold}
    idx = np.searchsorted(np.cumsum(zero_w), gap_sq / 8.0, side="right")
    if idx >= len(zeros):
        raise MeasureError("one-sided mass never exceeds the threshold; radius out of range")
    s_minus = float(zeros[idx])

    # two-sided tail integral, inclusive at |x| = s_-: the continuum bound
    # 3(r^2-r_-^2)/(4 s_+^2) <= a_- fails for purely atomic measures under
    # strict exclusion
    sel = zeros >= s_minus * (1.0 - 1e-14)
    a_minus = 2.0 * float(np.sum(zero_w[sel] / zeros[sel] ** 2))
    t_minus = sigma_minus * s_minus
    b_minus = min(1.0, a_minus, a_minus * t_minus**2 / r2)
    omega_hat_abs = math.sqrt(gap_sq / a_minus)

    im_w2_zero = solve_delta_conv(mu1_sym, r, 0.0).omega2.imag
    zero_bound_ok = im_w2_zero > (math.sqrt(3.0) / 2.0) * sigma_minus * s_minus

    etas = eta_max * 0.5 ** np.arange(grid)
    states = [solve_delta_conv(mu1_sym, r, 1j * eta) for eta in etas]
    w1 = np.array([st.omega1 for st in states])
    w2 = np.array([st.omega2 for st in states])
    # |omega2 - i eta| = r^2/|omega1|, as delta_r^sym has F(w) = w - r^2/w; no cancellation
    dev = r2 / np.abs(w1)
    upper_env = np.minimum(sigma_plus * s_plus, r2 / etas)
    lower_env = sigma_minus * s_minus * b_minus * np.minimum(1.0, sigma_minus * s_minus / etas)
    best_constant = np.max(dev / upper_env)
    lower_constant = np.max(lower_env / dev) if np.all(dev > 0) else math.inf
    lower_ok = np.all(np.abs(w2) > 0.0) and lower_constant <= LOWER_CONSTANT_CAP
    upper_ok = np.all(dev <= (r2 / etas) * (1.0 + 1e-12)) and best_constant <= UPPER_CONSTANT_CAP

    return CertificateReport(
        r=r,
        r_minus=r_minus,
        r_plus=r_plus,
        s_plus=s_plus,
        sigma_minus=sigma_minus,
        sigma_plus=sigma_plus,
        s_minus=s_minus,
        t_minus=t_minus,
        a_minus=a_minus,
        b_minus=b_minus,
        omega_hat_abs=omega_hat_abs,
        im_omega2_zero=im_w2_zero,
        eta_grid=tuple(float(e) for e in etas),
        lower_ok=bool(lower_ok),
        upper_ok=bool(upper_ok),
        zero_bound_ok=bool(zero_bound_ok),
        best_constant=float(best_constant),
        lower_constant=float(lower_constant),
        upper_margins=tuple(float(x) for x in r2 / etas - dev),
    )
