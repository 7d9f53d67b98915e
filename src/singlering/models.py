"""Random matrix models: bi-unitarily invariant X = U S V* and the block
additive family that generalizes its hermitization.

The local laws are read off spectra of the Hermitian 2N x 2N hermitization

    hermitize(X, w) = [[0, X - w], [(X - w)*, 0]],

whose eigenvalues are plus/minus the singular values of X - w.  Only the
linear eigenvalue statistic (``locallaw.linear_statistic_lhs``) uses the
eigenvalues of X itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    HermitianSpectrum,
    child_rng,
    haar_orthogonal,
    haar_unitary,
    hermitian_eigensystem,
)
from .measure import DiscreteMeasure

__all__ = [
    "SingleRingEnsemble",
    "BlockAdditiveEnsemble",
    "sample_X",
    "hermitization",
    "m_w",
    "smallest_sv",
    "block_H",
    "ResolventObservables",
    "resolvent_observables",
]

SYMMETRY_CLASSES = ("unitary", "orthogonal")


def _haar(n, symmetry, rng):
    if symmetry == "unitary":
        return haar_unitary(n, rng)
    if symmetry == "orthogonal":
        return haar_orthogonal(n, rng)
    raise ValueError(f"unknown symmetry class {symmetry!r}")


def sigma_from_measure(mu: DiscreteMeasure, N: int) -> np.ndarray:
    """Deterministic singular value profile: the (i - 1/2)/N quantiles of mu."""
    q = (np.arange(N) + 0.5) / N
    return np.asarray(mu.quantile(q), dtype=float)


@dataclass(frozen=True)
class SingleRingEnsemble:
    """X = U diag(sigma) V* with independent Haar U, V of one symmetry class."""

    sigma_diag: np.ndarray
    N: int
    symmetry: str = "unitary"
    seed: int = 0

    def __post_init__(self):
        s = np.asarray(self.sigma_diag, dtype=float)
        if s.shape != (self.N,):
            raise ValueError("sigma_diag must have length N")
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise ValueError("singular values must be finite and nonnegative")
        if self.symmetry not in SYMMETRY_CLASSES:
            raise ValueError(f"symmetry must be one of {SYMMETRY_CLASSES}")
        object.__setattr__(self, "sigma_diag", s)

    @classmethod
    def from_measure(cls, mu, N, symmetry="unitary", seed=0):
        return cls(sigma_from_measure(mu, N), N, symmetry, seed)

    def empirical_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure.from_points(self.sigma_diag, np.full(self.N, 1.0 / self.N))

    def resized(self, N: int) -> "SingleRingEnsemble":
        """Same singular value profile, re-discretized at size N."""
        return SingleRingEnsemble.from_measure(
            self.empirical_measure(), N, self.symmetry, self.seed
        )


@dataclass(frozen=True)
class BlockAdditiveEnsemble:
    """H = Udiag . B . Udiag* + A with A, B built from diagonals Xi, Sigma."""

    sigma_diag: np.ndarray
    xi_diag: np.ndarray
    N: int
    symmetry: str = "unitary"
    seed: int = 0

    def __post_init__(self):
        s = np.asarray(self.sigma_diag, dtype=np.complex128)
        x = np.asarray(self.xi_diag, dtype=np.complex128)
        if s.shape != (self.N,) or x.shape != (self.N,):
            raise ValueError("sigma_diag and xi_diag must have length N")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(x))):
            raise ValueError("diagonals must be finite (bounded operator norms)")
        if self.symmetry not in SYMMETRY_CLASSES:
            raise ValueError(f"symmetry must be one of {SYMMETRY_CLASSES}")
        object.__setattr__(self, "sigma_diag", s)
        object.__setattr__(self, "xi_diag", x)

    def sigma_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure.from_points(
            np.abs(self.sigma_diag), np.full(self.N, 1.0 / self.N)
        )

    def xi_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure.from_points(np.abs(self.xi_diag), np.full(self.N, 1.0 / self.N))

    def resized(self, N: int) -> "BlockAdditiveEnsemble":
        q = (np.arange(N) + 0.5) / N
        s = self.sigma_measure().quantile(q)
        x = self.xi_measure().quantile(q)
        return BlockAdditiveEnsemble(s, x, N, self.symmetry, self.seed)


def sample_X(e: SingleRingEnsemble, rng: np.random.Generator) -> np.ndarray:
    """One draw of X = U diag(sigma) V*."""
    U = _haar(e.N, e.symmetry, rng)
    V = _haar(e.N, e.symmetry, rng)
    return (U * e.sigma_diag) @ V.conj().T


def hermitization(X: np.ndarray, w: complex) -> np.ndarray:
    """Girko block matrix [[0, X-w], [(X-w)*, 0]]; Hermitian, +/- spectrum."""
    X = np.asarray(X, dtype=np.complex128)
    N = X.shape[0]
    if X.shape != (N, N):
        raise ValueError("hermitization needs a square matrix")
    Y = X - w * np.eye(N)
    H = np.zeros((2 * N, 2 * N), dtype=np.complex128)
    H[:N, N:] = Y
    H[N:, :N] = Y.conj().T
    return H


def m_w(spec: HermitianSpectrum, eta: float) -> complex:
    """Resolvent trace (1/2N) Tr (H^w - i eta)^(-1) from the spectrum.

    Equivalently (1/N) sum_i  i eta / ((lambda_i^w)^2 + eta^2) over the
    nonnegative half of the +/- paired spectrum.
    """
    if eta <= 0:
        raise ValueError("m_w needs eta > 0")
    lam = spec.eigenvalues
    return complex(np.mean(1.0 / (lam - 1j * eta)))


def smallest_sv(spec: HermitianSpectrum) -> float:
    """lambda_1^w = min |lambda| of a +/- symmetric hermitization spectrum."""
    return float(np.min(np.abs(spec.eigenvalues)))


def _blocks(diag: np.ndarray) -> np.ndarray:
    N = len(diag)
    M = np.zeros((2 * N, 2 * N), dtype=np.complex128)
    M[:N, N:] = np.diag(diag)
    M[N:, :N] = np.diag(diag).conj().T
    return M


def block_H(e: BlockAdditiveEnsemble, rng: np.random.Generator):
    """Sample (H, H_dual) = (A + UB U*, B + U* A U) with U = diag(U, V).

    The two share the Haar pair, so Tr of their resolvents agree exactly at
    every spectral parameter.
    """
    U = _haar(e.N, e.symmetry, rng)
    V = _haar(e.N, e.symmetry, rng)
    A = _blocks(e.xi_diag)
    B = _blocks(e.sigma_diag)
    Ucal = np.zeros((2 * e.N, 2 * e.N), dtype=np.complex128)
    Ucal[: e.N, : e.N] = U
    Ucal[e.N :, e.N :] = V
    H = Ucal @ B @ Ucal.conj().T + A
    H_dual = B + Ucal.conj().T @ A @ Ucal
    # enforce exact Hermitian symmetry against roundoff drift
    H = 0.5 * (H + H.conj().T)
    H_dual = 0.5 * (H_dual + H_dual.conj().T)
    return H, H_dual


@dataclass(frozen=True)
class ResolventObservables:
    """Tracial and entrywise Green function observables at one z."""

    z: complex
    m_H: complex
    tau1: complex
    tau2: complex
    omega_A_c: complex
    omega_B_c: complex
    Lambda_d: float
    eigvec_sup: float


def resolvent_observables(
    H: np.ndarray,
    z: complex,
    xi_diag: np.ndarray,
    omega_B: complex,
    bulk_window=None,
    spec: Optional[HermitianSpectrum] = None,
) -> ResolventObservables:
    """Evaluate m_H, partial traces, approximate subordination functions,
    the entrywise control parameter Lambda_d against the supplied omega_B,
    and the sup-norm statistic of bulk eigenvectors.

    Lambda_d is the max over i of the deviations of G_ii, G_i^i^, G_i i^,
    G_i^ i from the deterministic targets omega_B/(|xi_i|^2 - omega_B^2)
    and xi_i (resp. conj xi_i) over the same denominator.  A precomputed
    eigensystem of H may be passed to amortize repeated z sweeps.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("resolvent observables need Im z > 0")
    H = np.asarray(H, dtype=np.complex128)
    n2 = H.shape[0]
    N = n2 // 2
    xi = np.asarray(xi_diag, dtype=np.complex128)
    if spec is None:
        spec = hermitian_eigensystem(H, want_vectors=True)
    lam, Q = spec.eigenvalues, spec.eigenvectors
    wts = 1.0 / (lam - z)

    G = (Q * wts) @ Q.conj().T
    diag = np.diagonal(G)
    tau1 = complex(np.mean(diag[:N]))
    tau2 = complex(np.mean(diag[N:]))
    m_H = 0.5 * (tau1 + tau2)

    A = _blocks(xi)
    Btilde = H - A
    tr_AG = np.sum(A.T * G) / n2
    tr_BG = np.sum(Btilde.T * G) / n2
    tr_G = np.trace(G) / n2
    omega_A_c = z - tr_AG / tr_G
    omega_B_c = z - tr_BG / tr_G

    denom = np.abs(xi) ** 2 - omega_B * omega_B
    target_d = omega_B / denom
    idx = np.arange(N)
    lam_d = max(
        float(np.max(np.abs(diag[:N] - target_d))),
        float(np.max(np.abs(diag[N:] - target_d))),
        float(np.max(np.abs(G[idx, idx + N] - xi / denom))),
        float(np.max(np.abs(G[idx + N, idx] - xi.conj() / denom))),
    )

    if bulk_window is None:
        half = 0.5
        bulk_window = (z.real - half, z.real + half)
    in_bulk = (lam >= bulk_window[0]) & (lam <= bulk_window[1])
    if np.any(in_bulk):
        eigvec_sup = float(math.sqrt(N) * np.max(np.abs(Q[:, in_bulk])))
    else:
        eigvec_sup = float("nan")

    return ResolventObservables(
        z=z,
        m_H=complex(m_H),
        tau1=tau1,
        tau2=tau2,
        omega_A_c=complex(omega_A_c),
        omega_B_c=complex(omega_B_c),
        Lambda_d=lam_d,
        eigvec_sup=eigvec_sup,
    )
