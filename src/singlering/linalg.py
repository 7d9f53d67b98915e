"""Dense linear algebra and reproducible random number generation.

Matrices are plain ``numpy.ndarray`` objects (row major, one matrix or a
(k, n, n) stack): complex128 for U(n), float64 for O(n), so the orthogonal
class runs in real arithmetic; Haar sampling is the phase-fixed QR.

Randomness contract: every stochastic routine takes a ``numpy.random
.Generator``, or a sequence of k of them for a stack, one draw from each.
Child generators for task grids are derived from a 64-bit root seed through
``numpy.random.SeedSequence`` spawn keys, which is a published, stable
mixing function; see :func:`child_rng`.
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


def _rephased_qr(n: int, rng, draw) -> np.ndarray:
    """Q of Z = QR with each column rephased so that diag(R) > 0, which makes Q
    unique and exactly Haar for iid Gaussian Z = draw(rng); a sequence of k
    generators gives the (k, n, n) stack of their draws, in one QR call."""
    if n < 1:
        raise ValueError("n must be positive")
    single = isinstance(rng, np.random.Generator)
    Q, R = np.linalg.qr(np.stack([draw(r) for r in ([rng] if single else rng)]))
    d = np.diagonal(R, axis1=-2, axis2=-1)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    Q = Q * phases[..., None, :]
    return Q[0] if single else Q


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed element of U(n), from an iid standard complex Gaussian
    matrix; a sequence of k generators gives a (k, n, n) stack, one per generator."""
    return _rephased_qr(
        n, rng, lambda r: (r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))) / np.sqrt(2.0)
    )


def haar_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-distributed element of O(n), as a float64 matrix; a sequence of
    generators gives a stack as in :func:`haar_unitary`."""
    return _rephased_qr(n, rng, lambda r: r.standard_normal((n, n)))
