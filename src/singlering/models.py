"""Random matrix models: bi-unitarily invariant X = U S V* and the block
additive family that generalizes its hermitization.

The local laws are statements about the Girko hermitization

    H^w = [[0, X - w], [(X - w)*, 0]],

whose 2N eigenvalues are plus/minus the N singular values of X - w.  Every
spectral quantity here is therefore read off one N x N SVD; the 2N x 2N
matrix is never formed, and ``resolvent_trace`` is the one formula for
m(z) = (1/2N) Tr (H - z)^(-1), the number every local law is about.  Only
the linear eigenvalue statistic (``locallaw.linear_statistic_lhs``) uses
the eigenvalues of X itself, every test function from one ``eigvals``.

X is sampled as diag(sigma) W with one Haar W.  For X = U diag(sigma) V*
and W = V* U this is U* X U, so it has the eigenvalues of X and, jointly
in w, the singular values of X - w; since V* U is Haar when U and V are
independent Haar matrices of either symmetry class, every statistic of
those spectra has the law it has under U diag(sigma) V*.  The scans solve
against the law ``uniform_measure`` of their diagonal profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import haar_orthogonal, haar_unitary
from .measure import DiscreteMeasure

__all__ = [
    "SingleRingEnsemble",
    "BlockAdditiveEnsemble",
    "sample_X",
    "sample_Y",
    "uniform_measure",
    "svd",
    "resolvent_trace",
    "ResolventObservables",
    "resolvent_observables",
]

# each symmetry class and its Haar sampler (n, rng) -> W, looked up at each
# draw so that a wrapper put on it later (perfbench/spans.py) sees every draw
_HAAR = {
    "unitary": lambda n, rng: haar_unitary(n, rng),
    "orthogonal": lambda n, rng: haar_orthogonal(n, rng),
}
SYMMETRY_CLASSES = tuple(_HAAR)
CLUSTER_GAP = 1e-10  # singular values closer than this times s_max share a cluster


def uniform_measure(values) -> DiscreteMeasure:
    """Weight 1/n on each |value| of the n values: the law of a diagonal profile."""
    return DiscreteMeasure.from_points(np.abs(values), np.full(len(values), 1.0 / len(values)))


def sigma_from_measure(mu: DiscreteMeasure, N: int) -> np.ndarray:
    """Deterministic singular value profile: the (i - 1/2)/N quantiles of mu."""
    q = (np.arange(N) + 0.5) / N
    return np.asarray(mu.quantile(q), dtype=float)


@dataclass(frozen=True)
class SingleRingEnsemble:
    """X = U diag(sigma) V* with independent Haar U, V of one symmetry class.

    ``sample_X`` draws its unitary conjugate diag(sigma) W, W = V* U Haar: the
    same eigenvalues and, jointly in w, the same singular values of X - w.
    """

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


@dataclass(frozen=True)
class BlockAdditiveEnsemble:
    """Y = U diag(sigma) V* + diag(xi) with independent Haar U, V.

    Its hermitization [[0, Y], [Y*, 0]] = A + diag(U, V) B diag(U, V)*, with
    A, B those of diag(xi), diag(sigma), has spectrum +/- the singular values of Y.
    """

    sigma_diag: np.ndarray
    xi_diag: np.ndarray
    N: int
    symmetry: str = "unitary"
    seed: int = 0

    def __post_init__(self):
        s, x = np.asarray(self.sigma_diag, dtype=float), np.asarray(self.xi_diag)
        if s.shape != (self.N,) or x.shape != (self.N,):
            raise ValueError("sigma_diag and xi_diag must have length N")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(x))):
            raise ValueError("diagonals must be finite (bounded operator norms)")
        if self.symmetry not in SYMMETRY_CLASSES:
            raise ValueError(f"symmetry must be one of {SYMMETRY_CLASSES}")
        object.__setattr__(self, "sigma_diag", s)
        object.__setattr__(self, "xi_diag", x)


def sample_X(e: SingleRingEnsemble, rng) -> np.ndarray:
    """One draw of diag(sigma) W, W Haar: U* X U for X = U diag(sigma) V*, W = V* U.

    It carries the eigenvalues of X and, jointly in w, the singular values of X - w.
    A sequence of k generators gives a (k, N, N) stack, one draw from each.
    """
    return e.sigma_diag[:, None] * _HAAR[e.symmetry](e.N, rng)


def sample_Y(e: BlockAdditiveEnsemble, rng) -> np.ndarray:
    """One draw of the N x N block Y = U diag(sigma) V* + diag(xi), U drawn
    before V; a sequence of k generators gives a (k, N, N) stack."""
    haar = _HAAR[e.symmetry]
    U, V = haar(e.N, rng), haar(e.N, rng)
    return (U * e.sigma_diag) @ np.swapaxes(V, -1, -2).conj() + np.diag(e.xi_diag)


def svd(X: np.ndarray, w: complex = 0.0, compute_uv: bool = False):
    """SVD of X - w: its singular values, or (P, s, Q*) with compute_uv.

    X is one N x N matrix or a (k, N, N) stack, decomposed in one call.  The
    singular values are the nonnegative half of the spectrum of the
    hermitization [[0, X - w], [(X - w)*, 0]].
    """
    w = w.real if w.imag == 0 else w  # a real X - w stays real
    return np.linalg.svd(X - w * np.eye(X.shape[-1]), compute_uv=compute_uv)


def resolvent_trace(s: np.ndarray, z):
    """m(z) = (1/2N) Tr (H - z)^(-1) of the hermitization H with singular values s,
    at one z or along a 1-D array of them, each with Im z > 0: the +/- pair of
    eigenvalues of H at s_k contributes z / (s_k^2 - z^2) on average."""
    z = np.asarray(z)
    if not np.all(z.imag > 0):
        raise ValueError("the resolvent trace needs Im z > 0")
    z = z[..., None]
    return np.mean(z / (s * s - z * z), axis=-1)


@dataclass(frozen=True)
class ResolventObservables:
    """Tracial and entrywise Green function observables at one z."""

    m_H: complex
    omega_A_c: complex
    omega_B_c: complex
    Lambda_d: float
    eigvec_sup: float


def resolvent_observables(
    svd_Y, z: complex, xi_diag: np.ndarray, omega_B: complex, bulk_window=None
) -> ResolventObservables:
    """Evaluate m_H, approximate subordination functions, the entrywise
    control parameter Lambda_d against the supplied omega_B, and the
    sup-norm statistic of bulk eigenvectors, for the resolvent
    G = (H - z)^(-1) of H = [[0, Y], [Y*, 0]], from the SVD
    ``svd_Y = (P, s, Q*)`` of Y that ``svd(Y, compute_uv=True)`` returns.

    Lambda_d is the max over i of the deviations of G_ii, G_i^i^, G_i i^,
    G_i^ i from the deterministic targets omega_B/(|xi_i|^2 - omega_B^2)
    and xi_i (resp. conj xi_i) over the same denominator.  Everything comes
    from Y = P diag(s) Q* in O(N^2), without forming G: H has the
    eigenpairs (+-s_k, (p_k, +-q_k)/sqrt 2), so the diagonal blocks of G
    are sum_k z/(s_k^2 - z^2) p_k p_k* (resp. q_k q_k*) and the off-diagonal
    ones sum_k s_k/(s_k^2 - z^2) p_k q_k* (resp. q_k p_k*).
    """
    z = complex(z)
    P, s, Qh = svd_Y
    m_H = complex(resolvent_trace(s, z))
    N = len(s)
    xi = np.asarray(xi_diag)
    den = s * s - z * z
    diag_w, off_w = z / den, s / den

    g11 = (np.abs(P) ** 2) @ diag_w
    g22 = diag_w @ (np.abs(Qh) ** 2)
    g12 = np.einsum("ik,k,ki->i", P, off_w, Qh)
    g21 = np.einsum("ik,k,ki->i", P.conj(), off_w, Qh.conj())

    # normalized traces (1/2N) Tr: Tr(H G) = 2N + z Tr G, and B~ = H - A
    tr_AG = complex(np.sum(xi * g21) + np.sum(xi.conj() * g12)) / (2 * N)
    tr_BG = 1.0 + z * m_H - tr_AG
    omega_A_c = z - tr_AG / m_H
    omega_B_c = z - tr_BG / m_H

    denom = np.abs(xi) ** 2 - omega_B * omega_B
    target_d = omega_B / denom
    lam_d = max(
        float(np.max(np.abs(g11 - target_d))),
        float(np.max(np.abs(g22 - target_d))),
        float(np.max(np.abs(g12 - xi / denom))),
        float(np.max(np.abs(g21 - xi.conj() / denom))),
    )

    # a bulk cluster of (numerically) equal singular values enters through the
    # diagonal of its spectral projector, sum_k |p_ik|^2, which does not
    # depend on the basis LAPACK picks inside the cluster
    lo, hi = (z.real - 0.5, z.real + 0.5) if bulk_window is None else bulk_window
    in_bulk = ((s >= lo) & (s <= hi)) | ((-s >= lo) & (-s <= hi))
    if np.any(in_bulk):
        cluster = np.concatenate(([0], np.cumsum(-np.diff(s) >= CLUSTER_GAP * s[0])))
        in_bulk = np.isin(cluster, cluster[in_bulk])
        starts = np.flatnonzero(np.diff(cluster[in_bulk], prepend=-1))
        p2 = np.add.reduceat(np.abs(P[:, in_bulk]) ** 2, starts, axis=1)
        q2 = np.add.reduceat(np.abs(Qh[in_bulk, :]) ** 2, starts, axis=0)
        eigvec_sup = math.sqrt(N / 2.0) * math.sqrt(max(p2.max(), q2.max()))
    else:
        eigvec_sup = float("nan")

    return ResolventObservables(m_H, omega_A_c, omega_B_c, lam_d, eigvec_sup)
