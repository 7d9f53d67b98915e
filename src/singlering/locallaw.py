"""Monte Carlo verification engine for the bulk local laws.

Every experiment is a deterministic map from (configuration, 64-bit seed)
to records: each trial (N-index, trial) gets its own child generator,
contiguous batches of trials are the tasks of an order-independent parallel
map, and failed solves are recorded with a flag instead of being retried
with fresh randomness.

Stochastic domination is operationalized by slope fits: a family of scaled
deviations obeys the claimed bound when its high quantiles do not grow as a
power of N, i.e. when the fitted log-log slope stays below a small
threshold (default 0.2).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import freeconv, linalg, measure, models, ringlaw
from .measure import ConvergenceError, DiscreteMeasure, RingGeometry

__all__ = [
    "FSpec",
    "ScanGrid",
    "DevRecord",
    "DominationReport",
    "bump_value",
    "bump_laplacian",
    "delta_bump_l1",
    "dyadic_etas",
    "parallel_map",
    "local_law_scan",
    "linear_statistic_lhs",
    "linear_statistic_rhs",
    "linear_statistic_gap",
    "smallest_sv_tail",
    "block_local_law_scan",
    "green_subordination_scan",
    "fit_domination",
]

DEFAULT_SPLIT_EXPONENT = 1.5  # eta* = N^(-L1) threshold for the integral-split diagnostics


# numpy's linalg gufuncs release the GIL only when one call returns more than
# 500 values, so a pool task stacks ceil(BATCH_VALUES / N) trials of size N
# and makes each LAPACK call (Haar QR, SVD, eigenvalues) once on the stack
BATCH_VALUES = 512


@contextmanager
def _one_blas_thread():
    """Pin numpy's bundled scipy-openblas to one thread and restore its count
    on exit; yields the library, or None (nothing pinned) for another BLAS."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(np.__path__[0], os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if not libs:
        yield None
        return
    lib = ctypes.CDLL(libs[0])
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    saved = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield lib
    finally:
        lib.scipy_openblas_set_num_threads64_(saved)


def parallel_map(fn, items, threads: int = 1):
    """Order-preserving map under ``_one_blas_thread``: the pool is the only
    parallelism, so results depend neither on ``threads`` nor on BLAS threads."""
    items = list(items)
    with _one_blas_thread():
        if threads <= 1 or len(items) <= 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))


def _batched_trials(sample, ens, path, trials, threads, spectra, record) -> list:
    """[record(t, *rows_t) for t in range(trials)], batched on the pool.

    Trial t draws from child_rng(ens.seed, *path, t); a batch of k trials is
    sampled as one (k, N, N) stack, spectra(stack) returns arrays over the
    batch, and rows_t holds trial t's entries of them.
    """
    k = -(-BATCH_VALUES // ens.N)

    def one_batch(batch):
        out = spectra(sample(ens, [linalg.child_rng(ens.seed, *path, t) for t in batch]))
        return [record(t, *(a[j] for a in out)) for j, t in enumerate(batch)]

    batches = [range(a, min(a + k, trials)) for a in range(0, trials, k)]
    return [out for chunk in parallel_map(one_batch, batches, threads) for out in chunk]


def dyadic_etas(eta_min: float, eta_max: float) -> np.ndarray:
    """Decreasing dyadic grid eta_max, eta_max/2, ... inside (eta_min, eta_max]."""
    if not 0 < eta_min < eta_max:
        raise ValueError("need 0 < eta_min < eta_max")
    k = int(math.floor(math.log2(eta_max / eta_min))) + 1
    etas = eta_max * 0.5 ** np.arange(k)
    return etas[etas > eta_min]


# ---------------------------------------------------------------------------
# the standard bump
# ---------------------------------------------------------------------------


def bump_value(s):
    """Radial profile of the C^2 bump f(zeta) = (1 - |zeta|^2)^3 on |zeta| <= 1."""
    s = np.asarray(s, dtype=float)
    v = np.where(s < 1.0, (1.0 - s * s) ** 3, 0.0)
    return v if v.ndim else float(v)


def bump_laplacian(s):
    """Laplacian of the bump: -12(1-s^2)^2 + 24 s^2 (1-s^2) on |zeta| <= 1."""
    s = np.asarray(s, dtype=float)
    s2 = s * s
    v = np.where(s < 1.0, -12.0 * (1.0 - s2) ** 2 + 24.0 * s2 * (1.0 - s2), 0.0)
    return v if v.ndim else float(v)


def delta_bump_l1() -> float:
    """|| Delta f ||_{L^1} of the standard bump: 32 pi / 9.

    Delta f = -12 (1 - s^2)(1 - 3 s^2) changes sign at s^2 = 1/3, and the
    radial flux 2 pi s f'(s) = -12 pi s^2 (1 - s^2)^2 there gives half the norm.
    """
    return 32.0 * math.pi / 9.0


@dataclass(frozen=True)
class FSpec:
    """Test function spec: the standard bump scaled to a support radius.

    f_R(zeta) = f(zeta/R) keeps ||Delta f_R||_{L^1} invariant under R.
    """

    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("support radius must be positive")


# ---------------------------------------------------------------------------
# scan grids and domination reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanGrid:
    """Spectral-resolution and annulus grid for a multi-size scan.

    Every w must satisfy |w| in [r_- + tau, r_+ - tau] of the supplied ring;
    an offending point is a constructor error, never a silent clamp.
    """

    eta_values: np.ndarray
    w_values: np.ndarray
    N_values: tuple
    trials: int
    ring: Optional[RingGeometry] = None

    def __post_init__(self):
        etas = np.asarray(self.eta_values, dtype=float)
        if len(etas) == 0 or np.any(etas <= 0) or np.any(np.diff(etas) >= 0):
            raise ValueError("eta_values must be positive and strictly decreasing")
        ws = np.asarray(self.w_values, dtype=np.complex128)
        if self.ring is not None:
            for w in ws:
                if not self.ring.contains(w):
                    ann = self.ring.annulus()
                    raise ValueError(
                        f"|w| = {abs(w):.6g} outside the shrunk annulus {ann}"
                    )
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if len(self.N_values) == 0 or any(n < 2 for n in self.N_values):
            raise ValueError("N_values must be nonempty sizes >= 2")
        object.__setattr__(self, "eta_values", etas)
        object.__setattr__(self, "w_values", ws)
        object.__setattr__(self, "N_values", tuple(int(n) for n in self.N_values))


@dataclass(frozen=True)
class DevRecord:
    N: int
    trial: int
    w: complex
    eta: float
    dev: float
    ok: bool


@dataclass
class SplitRecord:
    """Integral-split diagnostic: eta* = N^(-L1), the small-eta mass of
    Im m^w, and the smallest singular value of X - w controlling it."""

    N: int
    trial: int
    w: complex
    eta_star: float
    small_eta_integral: float
    lambda1: float


@dataclass
class DominationReport:
    """Scaled-deviation records with per-N aggregation for slope fits."""

    records: list = field(default_factory=list)
    splits: list = field(default_factory=list)
    kind: str = "local-law"

    def sizes(self):
        return sorted({r.N for r in self.records})

    def _per_N(self, fn):
        out = {}
        for n in self.sizes():
            vals = [r.dev for r in self.records if r.N == n and r.ok and np.isfinite(r.dev)]
            out[n] = fn(np.array(vals)) if vals else math.nan
        return out

    def per_N_max(self):
        return self._per_N(np.max)

    def per_N_quantile(self, q=0.95):
        return self._per_N(lambda v: float(np.quantile(v, q)))

    def flagged(self):
        return [r for r in self.records if not r.ok]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    passed: bool
    quantiles: dict


def fit_domination(report: DominationReport, eps_pass: float = 0.2, q: float = 0.95) -> FitResult:
    """Least squares of log q-quantile deviation against log N.

    Passing (slope <= eps_pass) certifies the absence of power-law growth in
    N, the finite-size surrogate of stochastic domination by a constant.
    """
    quantiles = report.per_N_quantile(q)
    ns = sorted(n for n, v in quantiles.items() if np.isfinite(v) and v > 0)
    if len(ns) < 3:
        raise ValueError("fit_domination needs deviations at >= 3 sizes N")
    x = np.log(np.array(ns, dtype=float))
    y = np.log(np.array([quantiles[n] for n in ns]))
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(slope), float(intercept), bool(slope <= eps_pass), quantiles)


# ---------------------------------------------------------------------------
# local law for the hermitized single ring model
# ---------------------------------------------------------------------------


def _reference_transforms(solve, points, eta_values, label):
    """solve(p, eta) for every (p, eta); deterministic, shared by trials.

    A failed solve leaves NaN at its node, which every trial then flags.
    """
    ref = {}
    for ip, p in enumerate(points):
        for ie, eta in enumerate(eta_values):
            try:
                ref[(ip, ie)] = solve(p, eta)
            except ConvergenceError as exc:
                warnings.warn(
                    f"reference solve failed at {label} = {p:g}, eta = {eta:g}: {exc}",
                    RuntimeWarning,
                )
                ref[(ip, ie)] = complex(math.nan, math.nan)
    return ref


def local_law_scan(
    e: models.SingleRingEnsemble,
    grid: ScanGrid,
    threads: int = 1,
    split_exponent: float = DEFAULT_SPLIT_EXPONENT,
) -> DominationReport:
    """Deviations N eta |m^w(i eta) - m_{Sigma,|w|}(i eta)| over the grid."""
    report = DominationReport(kind="local-law")

    for ni, N in enumerate(grid.N_values):
        ens = e if N == e.N else e.resized(N)
        mu_sym = measure.symmetrize(ens.empirical_measure())
        ref = _reference_transforms(
            lambda r, eta: freeconv.solve_delta_conv(mu_sym, r, 1j * eta).m,
            np.abs(grid.w_values),
            grid.eta_values,
            "|w|",
        )
        eta_star = float(N) ** (-split_exponent)

        def record(trial, *s_w, N=N, ref=ref, eta_star=eta_star):
            recs, splits = [], []
            for iw, (w, s) in enumerate(zip(grid.w_values, s_w)):
                small = float(np.mean(0.5 * np.log1p(eta_star**2 / s**2)))
                splits.append(
                    SplitRecord(N, trial, complex(w), eta_star, small, models.smallest_sv(s))
                )
                for ie, eta in enumerate(grid.eta_values):
                    m_ref = ref[(iw, ie)]
                    ok = bool(np.isfinite(m_ref))
                    dev = N * eta * abs(models.m_w(s, eta) - m_ref) if ok else math.nan
                    recs.append(DevRecord(N, trial, complex(w), eta, dev, ok))
            return recs, splits

        for recs, splits in _batched_trials(
            models.sample_X, ens, (ni,), grid.trials, threads,
            lambda X: [models.svd(X, w) for w in grid.w_values], record,
        ):
            report.records.extend(recs)
            report.splits.extend(splits)
    return report


# ---------------------------------------------------------------------------
# linear eigenvalue statistics against the ring density
# ---------------------------------------------------------------------------


def linear_statistic_lhs(
    X: np.ndarray,
    w0: complex,
    alpha: float,
    f_spec: FSpec = FSpec(),
) -> float:
    """Eigenvalue statistic N^{2a} (1/N) sum_i f((lambda_i(X) - w0)/s), s = N^{-a} R.

    X is one N x N matrix, giving a float, or a (k, N, N) stack, giving k values.

    Girko's formula writes the same number as (1/2pi) N^{2a} times the
    pairing of Delta f with (1/N) log |det(X - w)|; the tests keep that
    identity as an oracle.
    """
    X = np.asarray(X, dtype=np.complex128)
    n = X.shape[-1]
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 1/2)")
    lam = np.linalg.eigvals(X)
    scale = float(n) ** (-alpha) * f_spec.radius
    stat = float(n) ** (2.0 * alpha) * np.mean(bump_value(np.abs(lam - w0) / scale), axis=-1)
    return stat if stat.ndim else float(stat)


def _bump_arc_integral(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """int over phi in (-pi, pi] of max(c + d cos phi, 0)^3, for d > 0."""
    a = np.arccos(np.clip(-c / d, -1.0, 1.0))
    sin_a, cos_a = np.sin(a), np.cos(a)
    return 2.0 * (
        c**3 * a
        + 3.0 * c**2 * d * sin_a
        + 1.5 * c * d**2 * (a + sin_a * cos_a)
        + d**3 * (sin_a - sin_a**3 / 3.0)
    )


def linear_statistic_rhs(
    mu_sigma: DiscreteMeasure,
    w0: complex,
    alpha: float,
    f_spec: FSpec = FSpec(),
    n: int = 1,
) -> float:
    """Deterministic side: N^{2a} int f((w - w0)/s) rho(|w|) d^2 w.

    In polar coordinates about the origin, |w - w0|^2 / s^2 = 1 - c - d cos phi
    with c = 1 - (r^2 + |w0|^2)/s^2 and d = 2 r |w0| / s^2, so the angular
    integral of the bump is closed form.  The radial integral runs over the
    part of the ring inside |w0| +- s, where rho is smooth, by a 64-node
    Gauss-Legendre rule.
    """
    scale = float(n) ** (-alpha) * f_spec.radius
    r0 = abs(w0)
    if r0 <= scale:
        raise ValueError("test function support touches w = 0, excluded from the ring law")
    r_minus, r_plus = measure.radii(mu_sigma)
    lo, hi = max(r0 - scale, r_minus), min(r0 + scale, r_plus)
    if lo >= hi:
        return 0.0
    x, wts = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    c = 1.0 - (r * r + r0 * r0) / scale**2
    d = 2.0 * r * r0 / scale**2
    rho = np.array([ringlaw.ring_density(mu_sigma, ri) for ri in r])
    radial = 0.5 * (hi - lo) * float(np.sum(wts * _bump_arc_integral(c, d) * rho * r))
    return float(n) ** (2.0 * alpha) * radial


@dataclass(frozen=True)
class GapRecord:
    N: int
    trial: int
    alpha: float
    w0: complex
    lhs: float
    rhs: float
    gap_norm: float


def linear_statistic_gap(
    e: models.SingleRingEnsemble,
    w0: complex,
    alpha: float,
    trials: int,
    f_spec: FSpec = FSpec(),
    threads: int = 1,
) -> list:
    """Per-trial |lhs - rhs| scaled by N^{1-2a}/||Delta f||_1.

    The deterministic side is computed once and shared across trials.
    """
    mu = e.empirical_measure()
    rhs = linear_statistic_rhs(mu, w0, alpha, f_spec, n=e.N)
    norm = delta_bump_l1()
    scale = float(e.N) ** (1.0 - 2.0 * alpha) / norm

    def record(trial, lhs):
        lhs = float(lhs)
        return GapRecord(e.N, trial, alpha, complex(w0), lhs, rhs, abs(lhs - rhs) * scale)

    return _batched_trials(
        models.sample_X, e, (), trials, threads,
        lambda X: [linear_statistic_lhs(X, w0, alpha, f_spec)], record,
    )


# ---------------------------------------------------------------------------
# smallest singular value tail
# ---------------------------------------------------------------------------


@dataclass
class SsvTailReport:
    N: int
    w_abs: float
    lambda1: np.ndarray
    t_grid: np.ndarray
    tail_probability: np.ndarray
    slope: float
    slope_ci: tuple

    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.tail_probability) >= 0))


def _tail_slope(lam_scaled: np.ndarray, t_grid: np.ndarray) -> float:
    probs = np.array([np.mean(lam_scaled <= t) for t in t_grid])
    keep = (probs > 0) & (probs < 1)
    if np.sum(keep) < 2:
        return math.nan
    return float(np.polyfit(np.log(t_grid[keep]), np.log(probs[keep]), 1)[0])


def smallest_sv_tail(
    e: models.SingleRingEnsemble,
    w: complex,
    t_grid=None,
    trials: int = 500,
    threads: int = 1,
    bootstrap: int = 200,
) -> SsvTailReport:
    """Empirical tail P(lambda_1^w <= t/|w|) with a log-log slope fit.

    For the orthogonal symmetry class the tail statement degenerates at the
    identity profile, so such ensembles are rejected outright.
    """
    if e.symmetry == "orthogonal" and np.max(np.abs(e.sigma_diag - 1.0)) <= 1e-6:
        raise ValueError(
            "orthogonal-class tail runs need a singular value profile away from the identity"
        )

    lam = np.array(_batched_trials(
        models.sample_X, e, (), trials, threads,
        lambda X: [models.svd(X, w)], lambda trial, s: models.smallest_sv(s),
    ))
    lam_scaled = lam * abs(w)
    if t_grid is None:
        t_grid = np.quantile(lam_scaled, [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    t_grid = np.asarray(t_grid, dtype=float)
    probs = np.array([np.mean(lam_scaled <= t) for t in t_grid])
    slope = _tail_slope(lam_scaled, t_grid)

    boot_rng = linalg.child_rng(e.seed, 10**6)
    slopes = []
    for _ in range(bootstrap):
        resample = boot_rng.choice(lam_scaled, size=len(lam_scaled), replace=True)
        s = _tail_slope(resample, t_grid)
        if np.isfinite(s):
            slopes.append(s)
    ci = tuple(float(np.percentile(slopes, q)) for q in (2.5, 97.5)) if slopes else (math.nan,) * 2
    return SsvTailReport(e.N, abs(w), lam, t_grid, probs, slope, ci)


# ---------------------------------------------------------------------------
# block additive model scans
# ---------------------------------------------------------------------------


def _block_reference(e: models.BlockAdditiveEnsemble):
    mu_b = measure.symmetrize(e.sigma_measure())
    mu_a = measure.symmetrize(e.xi_measure())
    return mu_a, mu_b


def _conv_transform(mu_a, mu_b, z):
    """m of mu_a [+] mu_b, with point masses handled as exact shifts."""
    if len(mu_a) == 1:
        return measure.stieltjes(mu_b, z - mu_a.atoms[0])
    if len(mu_b) == 1:
        return measure.stieltjes(mu_a, z - mu_b.atoms[0])
    return freeconv.solve_phi_system(mu_a, mu_b, z).m


def block_local_law_scan(
    e: models.BlockAdditiveEnsemble,
    interval,
    grid: ScanGrid,
    threads: int = 1,
    n_energies: int = 1,
    bulk_threshold: float = 1e-2,
) -> DominationReport:
    """Deviations N eta (1+eta) |m_H(z) - m_ref(z)| on the energy interval.

    m_ref is the transform of the free convolution of the symmetrized
    empirical diagonal profiles; the interval must lie in its bulk.  A failed
    reference solve flags its (E, eta) node in every trial.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise ValueError("empty energy interval")
    mu_a, mu_b = _block_reference(e)
    E_values = np.linspace(lo, hi, n_energies) if n_energies > 1 else np.array([(lo + hi) / 2.0])

    for E in E_values:
        density = _conv_transform(mu_a, mu_b, complex(E, 1e-4)).imag / math.pi
        if density < bulk_threshold:
            raise ValueError(
                f"interval [{lo}, {hi}] leaves the bulk: density {density:.3g} at "
                f"E = {E:.6g} below threshold {bulk_threshold:g}"
            )

    report = DominationReport(kind="block-law")
    for ni, N in enumerate(grid.N_values):
        ens = e if N == e.N else e.resized(N)
        mu_a_N, mu_b_N = _block_reference(ens)
        ref = _reference_transforms(
            lambda E, eta: _conv_transform(mu_a_N, mu_b_N, complex(E, eta)),
            E_values,
            grid.eta_values,
            "E",
        )

        def record(trial, s, N=N, ref=ref):
            recs = []
            for iE, E in enumerate(E_values):
                for ie, eta in enumerate(grid.eta_values):
                    z = complex(E, eta)
                    m_ref = ref[(iE, ie)]
                    ok = bool(np.isfinite(m_ref))
                    # the +/- pair of eigenvalues of H at s_k gives z / (s_k^2 - z^2)
                    m_H = complex(np.mean(z / (s * s - z * z)))
                    dev = N * eta * (1.0 + eta) * abs(m_H - m_ref) if ok else math.nan
                    recs.append(DevRecord(N, trial, z, eta, dev, ok))
            return recs

        for recs in _batched_trials(
            models.sample_Y, ens, (ni,), grid.trials, threads, lambda Y: [models.svd(Y)], record
        ):
            report.records.extend(recs)
    return report


@dataclass(frozen=True)
class SubDiagRecord:
    N: int
    trial: int
    z: complex
    lambda_d_scaled: float
    omegaB_gap: float
    omegaA_gap: float
    eigvec_sup: float


def green_subordination_scan(
    e: models.BlockAdditiveEnsemble,
    z_grid,
    trials: int = 10,
    bulk_window=None,
    threads: int = 1,
) -> list:
    """Entrywise Green function subordination diagnostics on a z grid.

    Records sqrt(N eta) Lambda_d, the scaled gaps N eta |omega^c - omega| for
    both approximate subordination functions, and the bulk eigenvector
    sup-norm statistic sqrt(N) max_k ||u_k||_inf.  A failed reference solve
    warns and leaves NaN in the three diagnostics that use it, at its z in
    every trial; the eigenvector statistic needs no reference.
    """
    z_grid = [complex(z) for z in z_grid]
    mu_a, mu_b = _block_reference(e)
    refs = {}
    for z in z_grid:
        try:
            st = freeconv.solve_phi_system(mu_a, mu_b, z)
            refs[z] = (st.omega1, st.omega2)
        except ConvergenceError as exc:
            warnings.warn(f"reference solve failed at z = {z}: {exc}", RuntimeWarning)
            refs[z] = (complex(math.nan, math.nan),) * 2

    def record(trial, Y, P, s, Qh):
        recs = []
        for z in z_grid:
            omega1, omega2 = refs[z]
            ok = bool(np.isfinite(omega2))
            # without a reference, z stands in for omega_B: it keeps the
            # Lambda_d denominators |xi|^2 - omega_B^2 off 0 and is not reported
            obs = models.resolvent_observables(
                Y, z, e.xi_diag, omega2 if ok else z, bulk_window=bulk_window, svd_Y=(P, s, Qh)
            )
            scale = e.N * z.imag
            lam_d = math.sqrt(scale) * obs.Lambda_d if ok else math.nan
            omega_gaps = scale * abs(obs.omega_B_c - omega2), scale * abs(obs.omega_A_c - omega1)
            recs.append(SubDiagRecord(e.N, trial, z, lam_d, *omega_gaps, obs.eigvec_sup))
        return recs

    chunks = _batched_trials(
        models.sample_Y, e, (), trials, threads,
        lambda Y: [Y, *models.svd(Y, compute_uv=True)], record,
    )
    return [r for recs in chunks for r in recs]
