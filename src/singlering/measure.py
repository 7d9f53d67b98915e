"""Atomic probability measures on the real line.

Everything in this package that is measure-valued is a finite weighted sum
of point masses.  Continuous reference laws (quarter circle, uniform) enter
only through quantile discretizations, so a single representation serves
both empirical singular-value profiles and their limits.

Conventions:
  * ``DiscreteMeasure`` is a probability measure (weights sum to 1).
  * ``AtomicMeasure`` is a finite nonnegative atomic measure of arbitrary
    total mass; it carries the representing measures produced by
    :func:`nevanlinna_rep`.

All value types are immutable and every operation is a pure function, so
unrestricted concurrent use is safe.

The module also holds the package's scalar root-finder ``_brentq`` and the
``ConvergenceError`` that every numerical solve raises, so that ``freeconv``
and ``ringlaw`` share them without importing each other or scipy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeasureError",
    "ConvergenceError",
    "DiscreteMeasure",
    "AtomicMeasure",
    "RingGeometry",
    "symmetrize",
    "stieltjes",
    "radii",
    "support_stats",
    "nevanlinna_rep",
    "reference_measure",
    "ParameterError",
]

WEIGHT_SUM_TOL = 1e-12
MERGE_TOL = 1e-12
SYMMETRY_TOL = 1e-12
DEFAULT_TAU_FRACTION = 0.05  # the annulus shrink tau, as a share of r_plus - r_minus


class MeasureError(ValueError):
    """Structurally invalid measure or unusable measure argument."""


class ParameterError(MeasureError):
    """A parameter ``key`` of a named law that is missing or that the law does not take."""

    def __init__(self, key, problem):
        super().__init__(problem)
        self.key = key


class ConvergenceError(RuntimeError):
    """A numerical solve failed: a fixed-point iteration stalled short of its
    tolerance, or a root-find lost its bracket; carries the last residual."""

    def __init__(self, message, residual=math.nan, iterations=0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _brentq(f, a, b, xtol, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """(root, iterations) of f between a and b by Brent's method.

    A line-for-line port of scipy's C ``brentq``: the same bracket
    bookkeeping, inverse quadratic / secant step test and stopping rule
    |xblk - x|/2 < (xtol + rtol |x|)/2, so it returns the same float and
    the iteration count of scipy's ``full_output`` (0 for a root at an
    endpoint, where scipy leaves the count unset).  A bracket without a
    sign change, a NaN value of f or running out of iterations raises
    ConvergenceError.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if math.isnan(fpre) or math.isnan(fcur) or (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(f"no sign change on [{a}, {b}]: f = {fpre}, {fcur}")
    xblk = fblk = spre = scur = 0.0
    for it in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, it + 1

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ConvergenceError(f"f is NaN at x = {xcur}", iterations=it + 1)
    raise ConvergenceError(
        f"root-find did not converge in {maxiter} iterations; last x = {xcur}",
        residual=abs(fcur),
        iterations=maxiter,
    )


def _as_array(x, name):
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise MeasureError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(a)):
        raise MeasureError(f"{name} must be finite")
    return a


def _merge_sorted(atoms, weights):
    """Merge coincident atoms (within MERGE_TOL) of a sorted atom list."""
    if len(atoms) == 0:
        return atoms, weights
    out_a = [atoms[0]]
    out_w = [weights[0]]
    for a, w in zip(atoms[1:], weights[1:]):
        if a - out_a[-1] <= MERGE_TOL:
            out_w[-1] += w
        else:
            out_a.append(a)
            out_w.append(w)
    return np.array(out_a), np.array(out_w)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure sum_i w_i delta_{x_i} with strictly increasing x_i."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = _as_array(self.atoms, "atoms")
        weights = _as_array(self.weights, "weights")
        if atoms.shape != weights.shape:
            raise MeasureError("atoms and weights must have equal length")
        if len(atoms) == 0:
            raise MeasureError("measure needs at least one atom")
        if np.any(np.diff(atoms) <= 0):
            raise MeasureError("atoms must be strictly increasing")
        if np.any(weights <= 0):
            raise MeasureError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise MeasureError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}; got {weights.sum()!r}"
            )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        atoms.setflags(write=False)
        weights.setflags(write=False)

    @classmethod
    def from_points(cls, atoms, weights):
        """Build a measure from unsorted points, merging coincident atoms."""
        atoms = _as_array(atoms, "atoms")
        weights = _as_array(weights, "weights")
        order = np.argsort(atoms, kind="stable")
        a, w = _merge_sorted(atoms[order], weights[order])
        return cls(a, w)

    def __len__(self):
        return len(self.atoms)

    def is_symmetric(self) -> bool:
        """True iff the atom set is closed under negation with equal weights."""
        a, w = self.atoms, self.weights
        ra, rw = -a[::-1], w[::-1]
        return bool(
            np.all(np.abs(a - ra) <= SYMMETRY_TOL * np.maximum(1.0, np.abs(a)))
            and np.all(np.abs(w - rw) <= SYMMETRY_TOL)
        )

    def quantile(self, q):
        """Generalized inverse CDF, vectorized in q in (0, 1]."""
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, np.asarray(q, dtype=float) - 1e-15, side="left")
        return self.atoms[np.minimum(idx, len(self.atoms) - 1)]

    def second_moment(self) -> float:
        return float(np.dot(self.weights, self.atoms**2))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite nonnegative atomic measure; total mass unconstrained, may be empty."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).reshape(-1)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if atoms.shape != weights.shape:
            raise MeasureError("atoms and weights must have equal length")
        if len(atoms) and (np.any(np.diff(atoms) <= 0) or not np.all(np.isfinite(atoms))):
            raise MeasureError("atoms must be finite and strictly increasing")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise MeasureError("weights must be finite and nonnegative")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.atoms)


@dataclass(frozen=True)
class RingGeometry:
    """Inner/outer ring radii with the support bound and annulus shrink tau."""

    r_minus: float
    r_plus: float
    s_plus: float
    tau: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.r_minus < self.r_plus <= self.s_plus):
            raise MeasureError(
                f"need 0 <= r_minus < r_plus <= s_plus; got "
                f"({self.r_minus}, {self.r_plus}, {self.s_plus})"
            )
        if self.tau < 0:
            raise MeasureError("tau must be nonnegative")

    @classmethod
    def from_measure(cls, mu: DiscreteMeasure, tau: float | None = None) -> "RingGeometry":
        """The ring of mu; tau defaults to DEFAULT_TAU_FRACTION of its width."""
        r_minus, r_plus = radii(mu)
        s_plus, _ = support_stats(mu)
        if tau is None:
            tau = DEFAULT_TAU_FRACTION * (r_plus - r_minus)
        return cls(r_minus, r_plus, s_plus, tau)

    def annulus(self):
        """Closed shrunk annulus [r_minus + tau, r_plus - tau]; None if empty."""
        lo, hi = self.r_minus + self.tau, self.r_plus - self.tau
        return (lo, hi) if lo <= hi else None

    def contains(self, w: complex) -> bool:
        ann = self.annulus()
        if ann is None:
            return False
        return ann[0] <= abs(w) <= ann[1]


# ---------------------------------------------------------------------------
# transforms and operations
# ---------------------------------------------------------------------------


def symmetrize(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Even part of mu: A maps to (mu(A) + mu(-A)) / 2; mu itself if it is symmetric.

    An atom sitting exactly at 0 is a fixed point of the reflection and keeps
    its full weight; all other atoms split in half between +/-x.
    """
    if mu.is_symmetric():
        return mu
    atoms = np.concatenate((mu.atoms, -mu.atoms))
    weights = np.concatenate((mu.weights, mu.weights)) / 2.0
    return DiscreteMeasure.from_points(atoms, weights)


def stieltjes(mu: DiscreteMeasure, z: complex) -> complex:
    """m_mu(z) = sum_i w_i / (x_i - z) for Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"stieltjes transform needs Im z > 0; got z = {z}")
    return complex(np.sum(mu.weights / (mu.atoms - z)))


def radii(mu: DiscreteMeasure):
    """Inner and outer ring radii of a measure supported on [0, inf).

    r_minus = (int x^-2 dmu)^(-1/2), or 0 when an atom sits at the origin;
    r_plus = (int x^2 dmu)^(1/2).  A single-atom input collapses the ring
    (r_minus == r_plus); that violates the more-than-one-point assumption the
    ring geometry rests on, so it is flagged with a warning.
    """
    if np.any(mu.atoms < 0):
        raise ValueError("radii expects a measure supported on nonnegative reals")
    if mu.atoms[0] == 0.0:
        r_minus = 0.0
    else:
        r_minus = float(np.sum(mu.weights / mu.atoms**2) ** -0.5)
    r_plus = float(np.sqrt(mu.second_moment()))
    if len(mu) < 2:
        warnings.warn(
            "measure supported at a single point: r_minus == r_plus, "
            "the ring is degenerate",
            stacklevel=2,
        )
    return r_minus, r_plus


def support_stats(mu: DiscreteMeasure):
    """(s_plus, second moment) with s_plus = max |atom|."""
    return float(np.max(np.abs(mu.atoms))), mu.second_moment()


def _positive_gap_zeros(mu: DiscreteMeasure):
    """Zeros of m_mu in each open gap between consecutive positive atoms,
    and in (0, first positive atom) when mu has an atom at 0.

    m_mu is strictly increasing from -inf to +inf on every gap, so once the
    sign change is bracketed ``_brentq`` finds the zero.
    """
    atoms, weights = mu.atoms, mu.weights
    pos = atoms > 0
    pa = atoms[pos]

    def m_real(x):
        return float(np.sum(weights / (atoms - x)))

    gaps = [(pa[j], pa[j + 1]) for j in range(len(pa) - 1)]
    if np.any(atoms == 0.0):
        gaps.insert(0, (0.0, pa[0]))

    zeros = []
    for lo_atom, hi_atom in gaps:
        width = hi_atom - lo_atom
        eps = 1e-6 * width
        lo, hi = lo_atom + eps, hi_atom - eps
        # shrink toward the poles until the sign change is bracketed
        while m_real(lo) >= 0 and eps > 1e-300:
            eps *= 0.5
            lo = lo_atom + eps
        eps = 1e-6 * width
        while m_real(hi) <= 0 and eps > 1e-300:
            eps *= 0.5
            hi = hi_atom - eps
        zeros.append(_brentq(m_real, lo, hi, xtol=1e-300, rtol=8.9e-16)[0])
    return np.array(zeros)


def nevanlinna_rep(mu_sym: DiscreteMeasure):
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
    has_zero_atom = bool(np.any(atoms == 0.0))

    def m_prime(x):
        return float(np.sum(weights / (atoms - x) ** 2))

    pos_zeros = _positive_gap_zeros(mu_sym)
    pos_w = np.array([1.0 / m_prime(x0) for x0 in pos_zeros])

    if has_zero_atom:
        r_minus_sq = 0.0
        hat_atoms = np.concatenate((-pos_zeros[::-1], pos_zeros))
        hat_weights = np.concatenate((pos_w[::-1], pos_w))
    else:
        # symmetry puts one zero of m exactly at the origin
        r_minus_sq = 1.0 / m_prime(0.0)
        hat_atoms = np.concatenate((-pos_zeros[::-1], [0.0], pos_zeros))
        hat_weights = np.concatenate((pos_w[::-1], [r_minus_sq], pos_w))

    mu_hat = AtomicMeasure(hat_atoms, hat_weights)
    keep = hat_atoms != 0.0
    mu_tilde = AtomicMeasure(hat_atoms[keep], hat_weights[keep])
    return mu_hat, mu_tilde, r_minus_sq


# ---------------------------------------------------------------------------
# reference measures
# ---------------------------------------------------------------------------


def _quarter_circle_cdf(x):
    x = np.clip(x, 0.0, 2.0)
    return (x * np.sqrt(4.0 - x * x) / 2.0 + 2.0 * np.arcsin(x / 2.0)) / np.pi


def _quarter_circle_quantile(q: float) -> float:
    return _brentq(lambda x: _quarter_circle_cdf(x) - q, 0.0, 2.0, xtol=1e-14)[0]


def reference_measure(name: str, **params) -> DiscreteMeasure:
    """A named reference law, or the quantile discretization of one.

    ``quarter_circle``      density (1/pi) sqrt(4 - x^2) on [0, 2], n_atoms atoms
    ``two_point``           p delta_a + (1-p) delta_b
    ``uniform``             uniform on [a, b], n_atoms atoms

    Atom i sits at the (i - 1/2)/n quantile with weight 1/n.  A parameter
    the law does not take, or a required one left out, is a ParameterError.
    """
    laws = {  # each law's parameters and their defaults; None marks a required one
        "quarter_circle": {"n_atoms": 2},
        "two_point": {"a": None, "b": None, "p": 0.5},
        "uniform": {"n_atoms": 2, "a": 0.0, "b": 1.0},
    }
    if name not in laws:
        raise MeasureError(f"unknown reference measure {name!r}")
    takes = laws[name]
    for key in [*params, *takes]:
        if key not in takes:
            raise ParameterError(key, f"{name} takes {', '.join(takes)}")
        if params.setdefault(key, takes[key]) is None:
            raise ParameterError(key, "missing")
    if name == "two_point":
        a, b, p = (float(params[k]) for k in ("a", "b", "p"))
        if not 0.0 < p < 1.0:
            raise MeasureError("two_point weight p must lie in (0,1)")
        return DiscreteMeasure.from_points([a, b], [p, 1.0 - p])
    n_atoms = params["n_atoms"]
    if n_atoms < 2:
        raise MeasureError("quantile discretization needs n_atoms >= 2")
    q = (np.arange(n_atoms) + 0.5) / n_atoms
    if name == "quarter_circle":
        atoms = np.array([_quarter_circle_quantile(qi) for qi in q])
    else:
        a, b = float(params["a"]), float(params["b"])
        if not b > a:
            raise MeasureError("uniform needs b > a")
        atoms = a + (b - a) * q
    return DiscreteMeasure.from_points(atoms, np.full(n_atoms, 1.0 / n_atoms))
