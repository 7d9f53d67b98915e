"""Dense complex linear algebra and reproducible random number generation.

Matrices are plain ``numpy.ndarray`` objects (complex128, two-dimensional,
row major); no wrapper type is used.  Haar sampling follows the phase-fixed
QR construction.

Randomness contract: every stochastic routine takes a ``numpy.random
.Generator``.  Child generators for task grids are derived from a 64-bit
root seed through ``numpy.random.SeedSequence`` spawn keys, which is a
published, stable mixing function; see :func:`child_rng`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "child_rng",
    "haar_unitary",
    "haar_orthogonal",
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

