"""Free additive convolution via subordination.

The convolution mu1 [+] mu2 is characterized by a pair of analytic
self-maps omega1, omega2 of the upper half-plane solving

    F_{mu1}(omega2(z)) = F_{mu2}(omega1(z)) = omega1(z) + omega2(z) - z,

with F the negative reciprocal Stieltjes transform.  The Stieltjes
transform of the convolution is m(z) = -1/F_{mu1}(omega2(z)).

Two solvers are provided:

* :func:`solve_phi_system` for a generic pair of atomic measures, using
  damped alternating updates with a safeguarded Newton acceleration, and
  in closed form when either measure is a point mass;
* :func:`solve_delta_conv` for the special pair (mu1 symmetric,
  mu2 = (delta_r + delta_{-r})/2), where the system collapses to the
  scalar equation

      F_{mu1}(w) - w = -z - r^2/(w - z),     omega1 = -r^2/(omega2 - z),

  and, along the imaginary axis z = i eta, further to a strictly monotone
  real root-find in y = Im omega2.

:func:`bulk_bound_certificate` evaluates the explicit lower/upper bound
apparatus for |omega2(i eta) - i eta| in the bulk radius regime and checks
it against the solved subordination function on a dyadic eta grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    AtomicMeasure,
    ConvergenceError,
    DiscreteMeasure,
    MeasureError,
    _brentq,
    nevanlinna_rep,
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
MAX_ITER = 10_000  # step cap of the generic damped/Newton engine
LOWER_CONSTANT_CAP = 1e3  # the certificate's lower-bound constant c passes up to this
UPPER_CONSTANT_CAP = 10.0  # and its upper-bound constant C up to this


@dataclass(frozen=True)
class SubordinationState:
    """Solution of the subordination system at one spectral point.

    residual is the max norm of the two defining equations; m = -1/F with
    F = F_{mu1}(omega2); iterations counts root-finder and generic-engine
    steps.  The fields are the columns of the CLI's freeconv.csv.
    """

    z: complex
    omega1: complex
    omega2: complex
    m: complex
    residual: float
    iterations: int


def _transform_pair(mu: DiscreteMeasure):
    """(F, F') evaluators for an atomic measure; F = -1/m, F' = m'/m^2."""
    atoms = mu.atoms
    weights = mu.weights

    def F(w):
        d = atoms - w
        m = np.sum(weights / d)
        return -1.0 / m

    def dF(w):
        d = atoms - w
        m = np.sum(weights / d)
        mp = np.sum(weights / (d * d))
        return mp / (m * m)

    return F, dF


def _delta_pair(r: float):
    """F and F' of (delta_r + delta_{-r})/2, in closed form: F(w) = w - r^2/w."""
    r2 = r * r

    def F(w):
        return w - r2 / w

    def dF(w):
        return 1.0 + r2 / (w * w)

    return F, dF


def _solve_pair(F1, dF1, F2, dF2, z, w2):
    """Damped alternating subordination iteration with Newton acceleration.

    omega1 is slaved to omega2 through the first defining equation,
    omega1 = z + F1(omega2) - omega2, which makes its residual vanish
    identically and collapses the system to the scalar fixed point

        omega2 = K(omega2) := z + F2(omega1) - omega2,   omega1 as above.

    K is an analytic self-map of {Im w >= Im z} (Im F(w) >= Im w), so the
    damped update w + lam (K(w) - w) never leaves the half-plane.  Plain
    damped iteration contracts at rate 1 - O(Im z) near the real axis, too
    slowly for tight tolerances, so every step also tries a safeguarded
    Newton candidate on phi(w) = K(w) - w; steps that leave the half-plane
    or fail to beat the damped candidate are halved away.
    """
    im_floor = z.imag

    def phi(w):
        w1 = z + F1(w) - w
        return F2(w1) - w1 - w + z

    def dphi(w):
        w1 = z + F1(w) - w
        return (dF2(w1) - 1.0) * (dF1(w) - 1.0) - 1.0

    def goal(w):
        # float64 cannot express residuals below eps * |omega|, so the
        # convergence goal scales with the iterate; at O(1) arguments it is
        # the plain absolute tolerance
        return TOL * max(1.0, abs(z + F1(w) - w), abs(w))

    lam = 1.0
    p = phi(w2)
    res = abs(p)
    best = (res, w2)
    it = 0
    newton_off = 0  # greedy steps can stall in rootless residual valleys
    window_best = res
    while it < MAX_ITER:
        if res <= goal(w2):
            break
        it += 1

        cand = w2 + (0.5 if newton_off else lam) * p
        cand_p = phi(cand)
        cand_res = abs(cand_p)

        d = dphi(w2)
        if newton_off == 0 and abs(d) > 1e-15:
            step = -p / d
            scale = 1.0
            for _ in range(8):
                nw = w2 + scale * step
                if nw.imag >= im_floor:
                    np_ = phi(nw)
                    n_res = abs(np_)
                    if n_res < min(res, cand_res):
                        cand, cand_p, cand_res = nw, np_, n_res
                        break
                scale *= 0.5

        lam = max(lam / 2.0, 1.0 / 1024.0) if cand_res > res else min(1.0, 1.5 * lam)
        w2, p, res = cand, cand_p, cand_res
        if res < best[0]:
            best = (res, w2)
        if newton_off:
            newton_off -= 1
        elif it % 60 == 0:
            # Newton made no real progress over the window: fall back to the
            # plain damped self-map, whose iterates converge globally
            if best[0] > 0.66 * window_best:
                newton_off = 300
            window_best = best[0]

    res, w2 = best
    w1 = z + F1(w2) - w2
    full_res = max(abs(F1(w2) - w1 - w2 + z), abs(F2(w1) - w1 - w2 + z))
    if full_res <= TOL * max(1.0, abs(w1), abs(w2)):
        return w1, w2, full_res, it
    raise ConvergenceError(
        f"subordination iteration stalled at residual {full_res:.3e} "
        f"(tol {TOL:g}) after {it} iterations at z = {z}",
        residual=full_res,
        iterations=it,
    )


def _initial_point(z, m2_total):
    return z + 1j * math.sqrt(max(m2_total, 1e-30))


def _solve_axis_symmetric(F1, F2, z, scale):
    """Axis solve for a symmetric pair: (y, Brent iterations) for the
    bracketed root y = Im omega2.

    For symmetric measures both subordination functions are purely
    imaginary on the imaginary axis, so the slaved residual phi(iy) is too.
    g(y) = Im phi(iy) satisfies g(eta+) >= 0 (Nevanlinna) and g -> -infty,
    which yields a guaranteed bracket; ``measure._brentq`` does the rest.
    This route is immune to the residual valleys that trap greedy iteration
    when the convolution has a spectral gap.
    """
    eta = z.imag

    def g(y):
        w = 1j * y
        w1 = z + F1(w) - w
        return (F2(w1) - w1 - w + z).imag

    lo = eta * (1.0 + 1e-12) + 1e-300
    if g(lo) <= 0.0:
        return lo, 0
    hi = eta + max(scale, 1.0)
    for _ in range(300):
        if g(hi) < 0.0:
            break
        hi = eta + 2.0 * (hi - eta)
    else:
        raise ConvergenceError(f"no axis bracket for the symmetric pair at z = {z}")
    return _brentq(g, lo, hi, xtol=1e-300, rtol=8.9e-16)


def solve_phi_system(mu1: DiscreteMeasure, mu2: DiscreteMeasure, z: complex) -> SubordinationState:
    """Solve the two-measure subordination system at z in the open upper
    half-plane and return the full state (omega1, omega2, m); a point mass
    on either side is an exact shift."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"solve_phi_system needs Im z > 0; got z = {z}")

    F1, dF1 = _transform_pair(mu1)
    F2, dF2 = _transform_pair(mu2)
    if len(mu1) == 1 or len(mu2) == 1:
        # mu [+] delta_a is the shift m(z) = m_mu(z - a), with no iteration:
        # omega is z - a on the point-mass side and a - 1/m on the other
        point, other = (mu1, mu2) if len(mu1) == 1 else (mu2, mu1)
        a = float(point.atoms[0])
        m = stieltjes(other, z - a)
        w1, w2 = (z - a, a - 1.0 / m) if point is mu1 else (a - 1.0 / m, z - a)
        res = max(abs(F1(w2) - w1 - w2 + z), abs(F2(w1) - w1 - w2 + z))
        return SubordinationState(z, w1, w2, m, res, 0)
    m2_total = mu1.second_moment() + mu2.second_moment()
    if z.real == 0.0 and mu1.is_symmetric() and mu2.is_symmetric():
        y, brent_it = _solve_axis_symmetric(F1, F2, z, math.sqrt(m2_total))
        w2 = 1j * y
        w1 = z + F1(w2) - w2
        res = max(abs(F1(w2) - w1 - w2 + z), abs(F2(w1) - w1 - w2 + z))
        if res <= TOL * max(1.0, abs(w1), abs(w2)):
            return SubordinationState(z, w1, w2, -1.0 / F1(w2), res, brent_it)
        w0 = w2  # fall through with a warm start
    else:
        brent_it, w0 = 0, _initial_point(z, m2_total)
    w1, w2, res, it = _solve_pair(F1, dF1, F2, dF2, z, w0)
    return SubordinationState(z, w1, w2, -1.0 / F1(w2), res, brent_it + it)


def _imag_axis_gap_equation(mu1_sym: DiscreteMeasure, eta: float):
    """G(d) = d * (Im F_{mu1}(i(eta+d)) - d) for the gap d = Im omega2 - eta.

    G is strictly increasing on d > 0 and the axis solution solves
    G(d) = r^2.  Working in d rather than y = eta + d keeps the gap, which
    shrinks like r^2/eta, fully resolved at large eta.
    """
    atoms2 = mu1_sym.atoms**2
    weights = mu1_sym.weights

    def G(d):
        y = eta + d
        im_m = y * np.sum(weights / (atoms2 + y * y))
        return d * (1.0 / im_m - d)

    return G


def _solve_delta_axis(mu1_sym, r, eta):
    """(d, Brent iterations) for the gap d = Im omega2(i eta) - eta > 0
    solving G(d) = r^2 by ``measure._brentq`` on the monotone G."""
    r2 = r * r
    G = _imag_axis_gap_equation(mu1_sym, eta)

    lo = r2 / (eta + r + float(np.max(np.abs(mu1_sym.atoms))))
    while lo > 1e-300 and G(lo) >= r2:
        lo *= 0.5
    if G(lo) >= r2:
        if eta > 0:
            raise ConvergenceError(f"no axis bracket at eta = {eta}")
        raise ValueError(
            "boundary value eta = 0 requires r inside the open ring "
            "(r_minus, r_plus); the gap equation has no solution"
        )
    hi = max(r, 1.0) + float(np.max(np.abs(mu1_sym.atoms)))
    for _ in range(200):
        if G(hi) > r2:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"no upper axis bracket at eta = {eta}")
    return _brentq(lambda t: G(t) - r2, lo, hi, xtol=1e-300, rtol=8.9e-16)


def solve_delta_conv(mu1_sym: DiscreteMeasure, r: float, z: complex) -> SubordinationState:
    """Convolve a symmetric measure with (delta_r + delta_{-r})/2.

    For z = i eta (eta >= 0, boundary included) the solution is purely
    imaginary and obtained by a monotone scalar root-find; off the axis the
    generic damped iteration runs with the closed-form second transform.
    """
    if r <= 0:
        raise ValueError(f"point-mass radius r must be positive; got {r}")
    if len(mu1_sym) < 2:
        raise MeasureError("mu1 must be supported at more than one point")
    if not mu1_sym.is_symmetric():
        raise MeasureError("solve_delta_conv needs a symmetric mu1")
    z = complex(z)
    if z.imag < 0 or (z.imag == 0 and z.real != 0):
        raise ValueError(f"need Im z > 0, or z = i eta with eta >= 0; got z = {z}")

    F1, dF1 = _transform_pair(mu1_sym)
    if z.real == 0.0:
        eta = z.imag
        d, it = _solve_delta_axis(mu1_sym, r, eta)
        w2 = 1j * (eta + d)
        w1 = 1j * (r * r / d)
        res = abs(F1(w2) - w1 - w2 + z)
        if res > TOL and eta > 0:
            # polish with the generic engine from the axis point
            F2, dF2 = _delta_pair(r)
            w1, w2, res, polish_it = _solve_pair(F1, dF1, F2, dF2, z, w2)
            it += polish_it
        return SubordinationState(z, w1, w2, -1.0 / F1(w2), res, it)

    if z.imag <= 0:
        raise ValueError(f"off-axis z needs Im z > 0; got z = {z}")
    F2, dF2 = _delta_pair(r)
    w0 = _initial_point(z, mu1_sym.second_moment() + r * r)
    w1, w2, res, it = _solve_pair(F1, dF1, F2, dF2, z, w0)
    return SubordinationState(z, w1, w2, -1.0 / F1(w2), res, it)


# ---------------------------------------------------------------------------
# bulk bound certificate
# ---------------------------------------------------------------------------


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

    the zero-boundary bound Im omega2(0) > (sqrt(3)/2) sigma_- s_-, and the
    boundedness of omega1, omega2 and m along the grid.  Constants are
    reported empirically; upper_ok additionally requires the constant-one
    bound |omega2(i eta) - i eta| <= r^2/eta at every grid point.
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
    im_omega2_zero_extrapolated: float
    eta_grid: tuple
    lower_ok: bool
    upper_ok: bool
    zero_bound_ok: bool
    best_constant: float
    lower_constant: float
    upper_margins: tuple
    lower_margins: tuple
    omega1_abs_max: float
    omega2_abs_max: float
    im_omega1_min: float
    im_omega2_min: float
    m_abs_min: float
    m_abs_max: float


def _one_sided_threshold_position(mu_tilde: AtomicMeasure, threshold: float) -> float:
    """s_- for an atomic mu_tilde: the first positive atom at which the
    inclusive one-sided cumulative mass exceeds the threshold.

    This realizes sup{x : mu_tilde([0, x)) <= threshold} with the half-open
    convention, which is well defined because the total one-sided mass
    always exceeds the threshold in the admissible radius range.
    """
    pos = mu_tilde.atoms > 0
    xs = mu_tilde.atoms[pos]
    ws = mu_tilde.weights[pos]
    cum = np.cumsum(ws)
    idx = np.searchsorted(cum, threshold, side="right")
    if idx >= len(xs):
        raise MeasureError("one-sided mass never exceeds the threshold; radius out of range")
    return float(xs[idx])


def bulk_ring(mu1_sym: DiscreteMeasure, r: float):
    """(r_-^2, r_+^2) = (1 / int x^-2, int x^2) of mu1_sym; a ValueError unless r_- < r < r_+."""
    atoms = mu1_sym.atoms
    r_minus_sq = 0.0 if np.any(atoms == 0.0) else 1.0 / float(np.sum(mu1_sym.weights / atoms**2))
    r_plus_sq = mu1_sym.second_moment()
    r_minus, r_plus = math.sqrt(r_minus_sq), math.sqrt(r_plus_sq)
    if not (r_minus < r < r_plus):
        raise ValueError(
            f"r = {r} violates the bulk hypothesis: the bounds hold for "
            f"r in the open ring ({r_minus:.12g}, {r_plus:.12g})"
        )
    return r_minus_sq, r_plus_sq


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

    r_minus_sq, r_plus_sq = bulk_ring(mu1_sym, r)
    r_minus, r_plus = math.sqrt(r_minus_sq), math.sqrt(r_plus_sq)
    _, mu_tilde, _ = nevanlinna_rep(mu1_sym)
    s_plus, _ = support_stats(mu1_sym)

    r2 = r * r
    gap_sq = r2 - r_minus_sq
    sigma_minus = math.sqrt(gap_sq / (r_plus_sq - r_minus_sq))
    sigma_plus = math.sqrt(r_plus_sq / (r_plus_sq - r2))
    s_minus = _one_sided_threshold_position(mu_tilde, gap_sq / 8.0)

    # one-sided tail integral, inclusive at |x| = s_-: the continuum bound
    # 3(r^2-r_-^2)/(4 s_+^2) <= a_- fails for purely atomic measures under
    # strict exclusion
    sel = np.abs(mu_tilde.atoms) >= s_minus * (1.0 - 1e-14)
    a_minus = float(np.sum(mu_tilde.weights[sel] / mu_tilde.atoms[sel] ** 2))
    t_minus = sigma_minus * s_minus
    b_minus = min(1.0, a_minus, a_minus * t_minus**2 / r2)
    omega_hat_abs = math.sqrt(gap_sq / a_minus)

    zero_state = solve_delta_conv(mu1_sym, r, 0.0)
    im_w2_zero = zero_state.omega2.imag
    extr_vals, extr_etas = [], (1e-3, 1e-4, 1e-5)
    for eta in extr_etas:
        extr_vals.append(solve_delta_conv(mu1_sym, r, 1j * eta).omega2.imag)
    im_w2_zero_extrap, _, _ = _neville_to_zero(np.array(extr_etas), extr_vals)
    zero_bound_ok = im_w2_zero > (math.sqrt(3.0) / 2.0) * sigma_minus * s_minus

    etas = eta_max * 0.5 ** np.arange(grid)
    upper_margins, lower_margins = [], []
    w1_abs, w2_abs, im_w1, im_w2, m_abs = [], [], [], [], []
    upper_ok = True
    best_constant = 0.0
    lower_constant = 0.0
    for eta in etas:
        st = solve_delta_conv(mu1_sym, r, 1j * eta)
        dev = abs(st.omega2 - 1j * eta)
        upper_env = min(sigma_plus * s_plus, r2 / eta)
        lower_env = sigma_minus * s_minus * b_minus * min(1.0, sigma_minus * s_minus / eta)
        upper_margins.append(r2 / eta - dev)
        lower_margins.append(dev - lower_env)
        upper_ok &= dev <= (r2 / eta) * (1.0 + 1e-12)
        best_constant = max(best_constant, dev / upper_env)
        lower_constant = max(lower_constant, lower_env / dev) if dev > 0 else math.inf
        w1_abs.append(abs(st.omega1))
        w2_abs.append(abs(st.omega2))
        im_w1.append(st.omega1.imag)
        im_w2.append(st.omega2.imag)
        m_abs.append(abs(st.m))

    lower_ok = bool(np.all(np.array(w2_abs) > 0.0) and lower_constant <= LOWER_CONSTANT_CAP)
    upper_ok = bool(upper_ok and best_constant <= UPPER_CONSTANT_CAP)

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
        im_omega2_zero_extrapolated=float(im_w2_zero_extrap),
        eta_grid=tuple(float(e) for e in etas),
        lower_ok=bool(lower_ok),
        upper_ok=bool(upper_ok),
        zero_bound_ok=bool(zero_bound_ok),
        best_constant=float(best_constant),
        lower_constant=float(lower_constant),
        upper_margins=tuple(float(x) for x in upper_margins),
        lower_margins=tuple(float(x) for x in lower_margins),
        omega1_abs_max=float(np.max(w1_abs)),
        omega2_abs_max=float(np.max(w2_abs)),
        im_omega1_min=float(np.min(im_w1)),
        im_omega2_min=float(np.min(im_w2)),
        m_abs_min=float(np.min(m_abs)),
        m_abs_max=float(np.max(m_abs)),
    )
