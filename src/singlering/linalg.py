"""Dense complex linear algebra and reproducible random number generation.

Matrices are plain ``numpy.ndarray`` objects (complex128, two-dimensional,
row major); no wrapper type is used.  Haar sampling follows the phase-fixed
QR construction; pivoted LU factorizations are delegated to LAPACK through
scipy, which is imported only when a log-determinant is taken.
:func:`log_abs_det` is the only code in the package that needs scipy at
runtime, and no CLI command calls it.

Randomness contract: every stochastic routine takes a ``numpy.random
.Generator``.  Child generators for task grids are derived from a 64-bit
root seed through ``numpy.random.SeedSequence`` spawn keys, which is a
published, stable mixing function; see :func:`child_rng`.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "child_rng",
    "haar_unitary",
    "haar_orthogonal",
    "log_abs_det",
]


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for task index tuple ``path``.

    mix(seed, path) = SeedSequence(entropy=seed, spawn_key=path); distinct
    paths give statistically independent streams, and the derivation is
    reproducible across runs and thread schedules.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of U(n).

    QR of an iid standard complex Gaussian matrix, with each column of Q
    rephased so that the corresponding diagonal entry of R is positive;
    this makes the factorization unique and the Q factor exactly Haar.
    """
    if n < 1:
        raise ValueError("n must be positive")
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return Q * phases


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of O(n); real entries, returned as complex."""
    if n < 1:
        raise ValueError("n must be positive")
    Z = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    signs = np.where(d >= 0, 1.0, -1.0)
    return (Q * signs).astype(np.complex128)


def log_abs_det(M: np.ndarray) -> float:
    """log |det M| by LU with partial pivoting; -inf for a singular matrix.

    An estimated reciprocal condition number below 1e-12 triggers a
    RuntimeWarning: the returned value then carries few reliable digits.
    """
    import scipy.linalg

    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("log_abs_det needs a square matrix")
    anorm = float(np.max(np.sum(np.abs(M), axis=0))) if M.size else 0.0
    with warnings.catch_warnings():
        # an exactly singular factorization is a supported outcome (-inf)
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    diag = np.abs(np.diagonal(lu))
    if np.any(diag == 0.0):
        return -np.inf
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, anorm)
    if rcond < 1e-12:
        warnings.warn(
            f"log_abs_det: matrix nearly singular (rcond ~ {rcond:.2e})",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(np.sum(np.log(diag)))
