"""Dense linear algebra and reproducible random number generation.

Matrices are plain ``numpy.ndarray`` objects (row major, one matrix or a
(k, n, n) stack): complex128 for U(n), float64 for O(n), so the orthogonal
class runs in real arithmetic; Haar sampling is a product of Householder
reflectors drawn from Gaussians, accumulated in blocks with matmuls.

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


# reflectors per compact-WY block of the Haar accumulation
_BLOCK = 32


def _householder_haar(n: int, rng, dtype) -> np.ndarray:
    """Haar draw W = H_0 ... H_{n-1} diag(-phase_j) from Gaussian reflectors.

    x_j ~ N(0, I_{n-j}) of ``dtype`` (n(n+1)/2 Gaussians per matrix),
    v_j = x_j + phase_j |x_j| e_1 with phase_j = x_j[0] / |x_j[0]| (1 where
    x_j[0] = 0), and H_j the reflector of v_j: this is the rephased Q of a
    Householder QR of an iid Gaussian matrix, whose trailing block after H_0
    is again iid Gaussian and independent of the first column, so W is
    exactly Haar (Stewart 1980, Mezzadri 2007).  The product is accumulated
    backwards in blocks of ``_BLOCK`` reflectors, each applied as I - V T V*
    to the trailing submatrix, which is still the identity outside the block.
    A sequence of k generators gives the (k, n, n) stack of their draws.
    """
    if n < 1:
        raise ValueError("n must be positive")
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    # row j of R holds x_j^T in columns j..n-1; W depends only on the direction
    # of each x_j, so the complex Gaussian needs no 1/sqrt(2)
    R = np.zeros((len(rngs), n, n), dtype)
    upper = ~np.tri(n, k=-1, dtype=bool)
    per = R.itemsize // 8  # float64 draws per entry
    for t, r in enumerate(rngs):
        R[t][upper] = r.standard_normal(per * n * (n + 1) // 2).view(dtype)
    flat = R.view(np.float64)  # |x_j| sums the real and imaginary parts alike
    norm = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    diag = np.arange(n)
    d = R[:, diag, diag]
    absd = np.abs(d)
    phase = np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)
    R[:, diag, diag] += phase * norm
    W = np.zeros_like(R)
    W[:, diag, diag] = 1.0
    for j0 in range((n - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        b = min(_BLOCK, n - j0)
        Rb = R[:, j0 : j0 + b, j0:]
        Vb, Vh = Rb.swapaxes(-1, -2), Rb.conj()
        # T^-1 = triu(V* V) with its diagonal halved, H_j = I - 2 v_j v_j* / |v_j|^2
        G = Vh @ Vb
        T = np.linalg.inv(np.triu(G) - 0.5 * np.eye(b) * G)
        # V* W[j0:, j0:], as W[j0:, j0:] = diag(I, W[j0 + b:, j0 + b:])
        C = np.concatenate([Vh[:, :, :b], Vh[:, :, b:] @ W[:, j0 + b :, j0 + b :]], axis=-1)
        W[:, j0:, j0:] -= Vb @ (T @ C)
    W *= -phase[:, None, :]
    return W[0] if single else W


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed element of U(n), as a complex128 matrix; a sequence of
    k generators gives a (k, n, n) stack, one per generator."""
    return _householder_haar(n, rng, np.complex128)


def haar_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-distributed element of O(n), as a float64 matrix; a sequence of
    generators gives a stack as in :func:`haar_unitary`."""
    return _householder_haar(n, rng, np.float64)
