"""Monte Carlo verification engine for the bulk local laws.

Every scan has the signature scan(ens, <points>, trials, path, threads) and
is a deterministic map from its arguments, threads aside, to records: trial
t draws from its own child generator child_rng(seed, *path, t) (the CLI
passes path (i,) at size position i), contiguous batches of trials are the
tasks of an order-independent parallel map, and a failed reference solve is
recorded as a NaN deviation (a flagged node) instead of being retried with
fresh randomness.

Stochastic domination is operationalized by slope fits: a family of scaled
deviations obeys the claimed bound when its high quantiles do not grow as a
power of N, i.e. when the fitted log-log slope stays below
DOMINATION_SLOPE_MAX.  Every slope, this one and the smallest singular
value tail's, comes from the one least-squares line ``_line_fit``.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import freeconv, linalg, measure, models, ringlaw
from .measure import ConvergenceError, DiscreteMeasure

__all__ = [
    "DevRecord",
    "BlockRecord",
    "SsvRecord",
    "bump_value",
    "delta_bump_l1",
    "dyadic_etas",
    "parallel_map",
    "local_law_scan",
    "linear_statistic_lhs",
    "linear_statistic_rhs",
    "linear_statistic_gap",
    "smallest_sv_tail",
    "block_energies",
    "block_local_law_scan",
    "green_subordination_scan",
    "domination_stats",
    "fit_domination",
]

SPLIT_EXPONENT = 1.5  # eta* = N^(-L1) threshold for the integral-split diagnostics
DOMINATION_QUANTILE = 0.95  # the per-N deviation quantile that slope fits use
DOMINATION_SLOPE_MAX = 0.2  # the largest fitted slope that passes as domination
BOOTSTRAP = 200  # resamples behind the smallest-singular-value tail slope CI
BULK_DENSITY_MIN = 1e-2  # the least reference density at an energy of a block scan
NAN = complex(math.nan, math.nan)  # the reference value of a failed solve


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
    batch, and rows_t holds trial t's entries of them.  Every scan runs its
    trials here, so ``trials`` < 1 is a ValueError of each.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
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


def delta_bump_l1() -> float:
    """|| Delta f ||_{L^1} of the standard bump: 32 pi / 9.

    Delta f = -12 (1 - s^2)(1 - 3 s^2) changes sign at s^2 = 1/3, and the
    radial flux 2 pi s f'(s) = -12 pi s^2 (1 - s^2)^2 there gives half the norm.
    """
    return 32.0 * math.pi / 9.0


# ---------------------------------------------------------------------------
# scan records, line fits and domination fits
# ---------------------------------------------------------------------------


# The scan records (DevRecord, BlockRecord, SplitRecord, GapRecord, SsvRecord,
# SubDiagRecord) are the CLI's CSV schemas: a field per column, a complex
# field f as the two columns f_re, f_im.  A dev that is not finite flags a
# node whose reference solve failed.
@dataclass(frozen=True)
class DevRecord:
    N: int
    trial: int
    w: complex
    eta: float
    dev: float


@dataclass(frozen=True)
class BlockRecord:
    N: int
    trial: int
    E: float
    eta: float
    dev: float


@dataclass(frozen=True)
class SplitRecord:
    """Integral-split diagnostic: eta* = N^(-L1), the small-eta mass of
    Im m^w, and the smallest singular value of X - w controlling it."""

    N: int
    trial: int
    w: complex
    eta_star: float
    small_eta_integral: float
    lambda1: float


def domination_stats(records) -> dict:
    """{N: (record count, max dev, DOMINATION_QUANTILE-quantile of dev)} for each
    size N of the scan records; the statistics skip flagged (non-finite) devs
    and are NaN where none is left."""
    stats = {}
    for n in sorted({r.N for r in records}):
        devs = [r.dev for r in records if r.N == n]
        finite = np.array([d for d in devs if np.isfinite(d)])
        stats[n] = (
            (len(devs), float(np.max(finite)), float(np.quantile(finite, DOMINATION_QUANTILE)))
            if len(finite)
            else (len(devs), math.nan, math.nan)
        )
    return stats


def _line_fit(x, y, keep):
    """The least-squares line (slope, intercept) of y against x along the last
    axis, over the points where ``keep`` holds, in centred form; x, y and keep
    broadcast.  Values at points not kept are never read, and a row with fewer
    than two distinct kept x gives NaN for both, without a warning.
    """
    x, y, keep = np.broadcast_arrays(x, y, keep)
    x, y = np.where(keep, x, 0.0), np.where(keep, y, 0.0)
    n = np.maximum(np.sum(keep, axis=-1, keepdims=True), 1)
    x_mean = np.sum(x, axis=-1, keepdims=True) / n
    y_mean = np.sum(y, axis=-1, keepdims=True) / n
    xc = np.where(keep, x - x_mean, 0.0)
    sxx = np.sum(xc * xc, axis=-1)
    sxy = np.sum(xc * (y - y_mean), axis=-1)
    ok = sxx > 0
    slope = np.where(ok, sxy / np.where(ok, sxx, 1.0), math.nan)
    return slope, np.where(ok, y_mean[..., 0] - slope * x_mean[..., 0], math.nan)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    passed: bool


def fit_domination(records) -> FitResult | None:
    """Least squares of log DOMINATION_QUANTILE-quantile deviation against log N
    over the sizes whose quantile is finite and positive; None below three.

    Passing (slope <= DOMINATION_SLOPE_MAX) certifies the absence of
    power-law growth in N, the finite-size surrogate of stochastic domination
    by a constant.
    """
    quantiles = {n: q for n, (_, _, q) in domination_stats(records).items()}
    ns = sorted(n for n, v in quantiles.items() if np.isfinite(v) and v > 0)
    if len(ns) < 3:
        return None
    x = np.log(np.array(ns, dtype=float))
    y = np.log(np.array([quantiles[n] for n in ns]))
    slope, intercept = _line_fit(x, y, True)
    return FitResult(float(slope), float(intercept), bool(slope <= DOMINATION_SLOPE_MAX))


# ---------------------------------------------------------------------------
# local law for the hermitized single ring model
# ---------------------------------------------------------------------------


def _references(solve, nodes, failed):
    """{node: solve(node)} over the distinct nodes; deterministic, shared by trials.

    A failed solve warns and leaves ``failed`` (NaN) at its node, so every
    trial's deviation there is NaN.
    """
    ref = {}
    for node in dict.fromkeys(nodes):
        try:
            ref[node] = solve(node)
        except ConvergenceError as exc:
            warnings.warn(f"reference solve failed at {node}: {exc}", RuntimeWarning)
            ref[node] = failed
    return ref


def local_law_scan(
    ens: models.SingleRingEnsemble, ws, etas, trials: int, path, threads: int = 1
):
    """(records, splits): the DevRecords of the deviations
    N eta |m^w(i eta) - m_{Sigma,|w|}(i eta)| at each point w of ws and each
    eta > 0 of etas, and the SplitRecords of each (trial, w); trial t draws
    from child_rng(ens.seed, *path, t)."""
    N = ens.N
    ws, etas = np.asarray(ws, dtype=np.complex128), np.asarray(etas, dtype=float)
    # reference nodes (|w|, i eta): phases that share |w| share a solve
    w_abs = np.abs(ws).tolist()
    nodes = [(r, 1j * eta) for r in w_abs for eta in etas.tolist()]
    mu_sym = measure.symmetrize(models.uniform_measure(ens.sigma_diag))
    ref = _references(lambda node: freeconv.solve_delta_conv(mu_sym, *node).m, nodes, NAN)
    eta_star = float(N) ** (-SPLIT_EXPONENT)

    def record(trial, *s_w):
        recs, split_recs = [], []
        for w, r, s in zip(ws, w_abs, s_w):
            small = float(np.mean(0.5 * np.log1p(eta_star**2 / s**2)))
            split_recs.append(SplitRecord(N, trial, complex(w), eta_star, small, float(s.min())))
            for eta, m in zip(etas, models.resolvent_trace(s, 1j * etas).tolist()):
                dev = N * eta * abs(m - ref[(r, 1j * eta)])
                recs.append(DevRecord(N, trial, complex(w), eta, dev))
        return recs, split_recs

    per_trial = _batched_trials(
        models.sample_X, ens, path, trials, threads,
        lambda X: [models.svd(X, w) for w in ws], record,
    )
    return [r for recs, _ in per_trial for r in recs], [s for _, ss in per_trial for s in ss]


# ---------------------------------------------------------------------------
# linear eigenvalue statistics against the ring density
# ---------------------------------------------------------------------------


def linear_statistic_lhs(X: np.ndarray, tests) -> np.ndarray:
    """Eigenvalue statistics N^{2a} (1/N) sum_i f((lambda_i(X) - w0)/s), s = N^{-a} R,
    one per test (w0, a, R) in ``tests``, all read off one ``eigvals`` call.

    X is one N x N matrix, giving len(tests) values, or a (k, N, N) stack,
    giving a (len(tests), k) array.  f_R(zeta) = f(zeta/R) keeps
    ||Delta f_R||_{L^1} invariant under R.

    Girko's formula writes the same number as (1/2pi) N^{2a} times the
    pairing of Delta f with (1/N) log |det(X - w)|; the tests keep that
    identity as an oracle.
    """
    n = X.shape[-1]
    if not all(0.0 <= alpha < 0.5 and radius > 0 for _, alpha, radius in tests):
        raise ValueError("each test needs alpha in [0, 1/2) and a support radius R > 0")
    eigs = np.linalg.eigvals(X)
    return np.array([
        float(n) ** (2.0 * alpha)
        * np.mean(bump_value(np.abs(eigs - w0) / (float(n) ** (-alpha) * radius)), axis=-1)
        for w0, alpha, radius in tests
    ])


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
    radius: float = 1.0,
    n: int = 1,
) -> float:
    """Deterministic side: N^{2a} int f((w - w0)/s) rho(|w|) d^2 w, s = N^{-a} R.

    In polar coordinates about the origin, |w - w0|^2 / s^2 = 1 - c - d cos phi
    with c = 1 - (r^2 + |w0|^2)/s^2 and d = 2 r |w0| / s^2, so the angular
    integral of the bump is closed form.  The radial integral runs over the
    part of the ring inside |w0| +- s, where rho is smooth, by a 64-node
    Gauss-Legendre rule.
    """
    scale = float(n) ** (-alpha) * radius
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
    rho = np.array([rec.rho for rec in ringlaw.radial_profile(mu_sigma, r)])
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
    e: models.SingleRingEnsemble, tests, trials: int, path, threads: int = 1
) -> list:
    """Per-trial |lhs - rhs| scaled by N^{1-2a}/||Delta f||_1 for each test
    (w0, a, R) in ``tests``: the records of the first test's trials, then the next's.

    Every test reads the one spectrum of each trial, and its deterministic
    side is computed once and shared across trials.
    """
    mu = models.uniform_measure(e.sigma_diag)
    norm = delta_bump_l1()
    sides = [
        (complex(w0), alpha, linear_statistic_rhs(mu, w0, alpha, radius, n=e.N),
         float(e.N) ** (1.0 - 2.0 * alpha) / norm)
        for w0, alpha, radius in tests
    ]

    def record(trial, *lhs):
        return [
            GapRecord(e.N, trial, alpha, w0, float(v), rhs, abs(float(v) - rhs) * scale)
            for (w0, alpha, rhs, scale), v in zip(sides, lhs)
        ]

    per_trial = _batched_trials(
        models.sample_X, e, path, trials, threads,
        lambda X: linear_statistic_lhs(X, tests), record,
    )
    return [r for per_test in zip(*per_trial) for r in per_test]


# ---------------------------------------------------------------------------
# smallest singular value tail
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SsvRecord:
    """A trial's smallest singular value of X - w, |w| = w_abs, at one t of the tail grid."""

    N: int
    trial: int
    w_abs: float
    t: float
    lambda1: float


def _check_tail_profile(e: models.SingleRingEnsemble):
    """A ValueError for the orthogonal class at the identity profile, where the
    tail statement degenerates."""
    if e.symmetry == "orthogonal" and np.max(np.abs(e.sigma_diag - 1.0)) <= 1e-6:
        raise ValueError(
            "orthogonal-class tail runs need a singular value profile away from the identity"
        )


def smallest_sv_tail(
    e: models.SingleRingEnsemble, w: complex, t_grid, trials: int, path, threads: int = 1
):
    """(records, fit): the empirical tail P(lambda_1^w <= t/|w|) with a log-log
    slope fit, on t_grid or, when it is None, on quantiles of the sample.

    The records are the SsvRecords of each (trial, t); the fit holds the
    slope, its bootstrap CI, whether the tail is monotone, the t grid and
    the tail probabilities.  The identity profile of the orthogonal class
    is a ValueError, as is |w| past sqrt(max float), where lambda_1 nears |w|
    and lambda_1 |w| overflows.
    """
    _check_tail_profile(e)
    freeconv._squarable(abs(w), "|w|")

    lam = np.array(_batched_trials(
        models.sample_X, e, path, trials, threads,
        lambda X: [models.svd(X, w)], lambda trial, s: float(s.min()),
    ))
    lam_scaled = lam * abs(w)
    if t_grid is None:
        t_grid = np.quantile(lam_scaled, [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    t_grid = np.asarray(t_grid, dtype=float)
    # row 0 is the sample, rows 1.. its BOOTSTRAP resamples
    boot_rng = linalg.child_rng(e.seed, 10**6)
    rows = np.vstack([lam_scaled, boot_rng.choice(lam_scaled, size=(BOOTSTRAP, len(lam)))])
    probs = np.mean(rows[:, :, None] <= t_grid, axis=1)
    keep = (probs > 0) & (probs < 1)  # the log-log fit reads the tail inside (0, 1)
    log_t, log_p = np.log(np.where(keep, t_grid, 1.0)), np.log(np.where(keep, probs, 1.0))
    slopes, _ = _line_fit(log_t, log_p, keep)
    boot = slopes[1:][np.isfinite(slopes[1:])]
    ci = [float(np.percentile(boot, q)) for q in (2.5, 97.5)] if len(boot) else [math.nan] * 2
    records = [
        SsvRecord(e.N, trial, abs(w), float(t), float(lam1))
        for trial, lam1 in enumerate(lam)
        for t in t_grid
    ]
    fit = {
        "slope": float(slopes[0]),
        "slope_ci": ci,
        "monotone": bool(np.all(np.diff(probs[0]) >= 0)),
        "t_grid": t_grid.tolist(),
        "tail_probability": probs[0].tolist(),
    }
    return records, fit


# ---------------------------------------------------------------------------
# block additive model scans
# ---------------------------------------------------------------------------


def _block_reference(e: models.BlockAdditiveEnsemble):
    mu_b = measure.symmetrize(models.uniform_measure(e.sigma_diag))
    mu_a = measure.symmetrize(models.uniform_measure(e.xi_diag))
    return mu_a, mu_b


def block_energies(e: models.BlockAdditiveEnsemble, interval, n_energies: int) -> np.ndarray:
    """The energies of a block scan: n_energies points spanning interval, or
    its midpoint for one.

    Each must lie in the bulk of the reference convolution: a density
    Im m(E + 1e-4 i)/pi below BULK_DENSITY_MIN is a ValueError.
    """
    lo, hi = float(interval[0]), float(interval[1])
    mu_a, mu_b = _block_reference(e)
    E_values = np.linspace(lo, hi, n_energies) if n_energies > 1 else np.array([(lo + hi) / 2.0])
    for E in E_values:
        density = freeconv.solve_phi_system(mu_a, mu_b, complex(E, 1e-4)).m.imag / math.pi
        if density < BULK_DENSITY_MIN:
            raise ValueError(
                f"interval [{lo}, {hi}] leaves the bulk: density {density:.3g} at "
                f"E = {E:.6g} below threshold {BULK_DENSITY_MIN:g}"
            )
    return E_values


def block_local_law_scan(
    ens: models.BlockAdditiveEnsemble, E_values, etas, trials: int, path, threads: int = 1
) -> list:
    """BlockRecords of the deviations N eta (1+eta) |m_H(z) - m_ref(z)| at
    z = E + i eta for each energy of E_values and each eta > 0 of etas;
    trial t draws from child_rng(ens.seed, *path, t).

    m_ref is the transform of the free convolution of the symmetrized
    empirical diagonal profiles; ``block_energies`` checks that the
    energies lie in its bulk.  A failed reference solve flags its (E, eta)
    node in every trial.
    """
    N = ens.N
    zs = [complex(E, eta) for E in E_values for eta in etas]
    mu_a, mu_b = _block_reference(ens)
    ref = _references(lambda z: freeconv.solve_phi_system(mu_a, mu_b, z).m, zs, NAN)

    def record(trial, s):
        m_H = models.resolvent_trace(s, np.array(zs)).tolist()
        return [
            BlockRecord(N, trial, z.real, z.imag, N * z.imag * (1.0 + z.imag) * abs(m - ref[z]))
            for z, m in zip(zs, m_H)
        ]

    chunks = _batched_trials(
        models.sample_Y, ens, path, trials, threads, lambda Y: [models.svd(Y)], record
    )
    return [r for recs in chunks for r in recs]


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
    e: models.BlockAdditiveEnsemble, z_grid, bulk_window, trials: int, path, threads: int = 1
) -> list:
    """Entrywise Green function subordination diagnostics on a z grid.

    Records sqrt(N eta) Lambda_d, the scaled gaps N eta |omega^c - omega| for
    both approximate subordination functions, and the bulk eigenvector
    sup-norm statistic sqrt(N) max_k ||u_k||_inf (over repeated singular values,
    the diagonal of their spectral projector).  A failed reference solve
    warns and leaves NaN in the three diagnostics that use it, at its z in
    every trial; the eigenvector statistic needs no reference, and is NaN
    when no singular value lies in the bulk window.
    """
    z_grid = [complex(z) for z in z_grid]
    mu_a, mu_b = _block_reference(e)

    def omegas(z):
        st = freeconv.solve_phi_system(mu_a, mu_b, z)
        return st.omega1, st.omega2

    refs = _references(omegas, z_grid, (NAN, NAN))

    def record(trial, *svd_Y):
        recs = []
        for z in z_grid:
            omega1, omega2 = refs[z]
            ok = bool(np.isfinite(omega2))
            # without a reference, z stands in for omega_B: it keeps the
            # Lambda_d denominators |xi|^2 - omega_B^2 off 0 and is not reported
            obs = models.resolvent_observables(
                svd_Y, z, e.xi_diag, omega2 if ok else z, bulk_window=bulk_window
            )
            scale = e.N * z.imag
            lam_d = math.sqrt(scale) * obs.Lambda_d if ok else math.nan
            omega_gaps = scale * abs(obs.omega_B_c - omega2), scale * abs(obs.omega_A_c - omega1)
            recs.append(SubDiagRecord(e.N, trial, z, lam_d, *omega_gaps, obs.eigvec_sup))
        return recs

    chunks = _batched_trials(
        models.sample_Y, e, path, trials, threads,
        lambda Y: models.svd(Y, compute_uv=True), record,
    )
    return [r for recs in chunks for r in recs]
