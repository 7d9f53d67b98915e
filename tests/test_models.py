import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from singlering.linalg import child_rng, haar_unitary
from singlering.models import (
    BlockAdditiveEnsemble,
    SingleRingEnsemble,
    m_w,
    resolvent_observables,
    sample_X,
    sample_Y,
    smallest_sv,
    svd,
)


def hermitize(Y):
    """The 2N x 2N Girko matrix [[0, Y], [Y*, 0]], kept here as the oracle."""
    N = Y.shape[0]
    H = np.zeros((2 * N, 2 * N), dtype=np.complex128)
    H[:N, N:] = Y
    H[N:, :N] = Y.conj().T
    return H


@pytest.fixture(scope="module")
def two_point_ensemble(two_point):
    return SingleRingEnsemble.from_measure(two_point, 64, "unitary", seed=101)


@pytest.fixture(scope="module")
def sample64(two_point_ensemble):
    return sample_X(two_point_ensemble, child_rng(101, 0))


class TestSingleRingEnsemble:
    def test_quantile_profile_is_exact_for_even_N(self, two_point):
        e = SingleRingEnsemble.from_measure(two_point, 128, "unitary", seed=0)
        assert np.sum(e.sigma_diag == 1.0) == 64
        assert np.sum(e.sigma_diag == 2.0) == 64

    def test_resized_preserves_profile(self, two_point):
        e = SingleRingEnsemble.from_measure(two_point, 64, "unitary", seed=0)
        r = e.resized(256)
        assert r.N == 256
        got = r.empirical_measure()
        assert np.allclose(got.atoms, [1.0, 2.0])
        assert np.allclose(got.weights, [0.5, 0.5])

    def test_rejects_negative_singular_values(self):
        with pytest.raises(ValueError):
            SingleRingEnsemble(np.array([-1.0, 1.0]), 2, "unitary", 0)

    def test_rejects_unknown_symmetry(self):
        with pytest.raises(ValueError):
            SingleRingEnsemble(np.ones(2), 2, "symplectic", 0)


class TestSampleX:
    def test_identity_profile_gives_unitary(self):
        e = SingleRingEnsemble(np.ones(16), 16, "unitary", seed=5)
        X = sample_X(e, child_rng(5))
        assert np.max(np.abs(X.conj().T @ X - np.eye(16))) <= 1e-10

    def test_singular_values_match_profile(self, two_point_ensemble, sample64):
        sv = np.linalg.svd(sample64, compute_uv=False)
        assert np.max(np.abs(np.sort(sv) - np.sort(two_point_ensemble.sigma_diag))) <= 1e-10

    def test_det_modulus(self):
        e = SingleRingEnsemble(np.array([1.0, 2.0]), 2, "unitary", seed=6)
        X = sample_X(e, child_rng(6))
        assert abs(np.linalg.det(X)) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_class_real(self):
        e = SingleRingEnsemble(np.array([1.0, 2.0, 3.0]), 3, "orthogonal", seed=7)
        X = sample_X(e, child_rng(7))
        assert X.dtype == np.float64
        # the scans' w is complex even on the real axis; X - w stays real there
        for w in (1.4, np.complex128(1.4)):
            P, s, Qh = svd(X, w, compute_uv=True)
            assert P.dtype == s.dtype == Qh.dtype == np.float64

    def test_one_haar_draw(self, two_point_ensemble):
        rng, ref = child_rng(101, 1), child_rng(101, 1)
        X = sample_X(two_point_ensemble, rng)
        W = haar_unitary(64, ref)
        assert np.array_equal(X, two_point_ensemble.sigma_diag[:, None] * W)
        # both streams are exactly one Haar draw in
        assert np.array_equal(rng.standard_normal(4), ref.standard_normal(4))

    def test_unitary_conjugate_of_two_sided_product(self, two_point_ensemble):
        # diag(sigma) W with W = V* U is U* X U for X = U diag(sigma) V*
        sigma = two_point_ensemble.sigma_diag
        rng = child_rng(101, 2)
        U, V = haar_unitary(64, rng), haar_unitary(64, rng)
        X = (U * sigma) @ V.conj().T
        X1 = sigma[:, None] * (V.conj().T @ U)
        ev, ev1 = np.linalg.eigvals(X), np.linalg.eigvals(X1)
        assert np.max(np.min(np.abs(ev[:, None] - ev1[None, :]), axis=1)) <= 1e-10
        for w in (0.0, 1.4, 0.9 + 0.8j):
            assert np.max(np.abs(svd(X, w) - svd(X1, w))) <= 1e-12


class TestHermitization:
    """The hermitization spectrum is +/- the singular values of X - w."""

    def test_zero_matrix(self):
        assert np.all(svd(np.zeros((3, 3)), 0.0) == 0)

    def test_one_by_one(self):
        assert np.allclose(svd(np.array([[3.0 + 0j]]), 1.0), [2.0])

    def test_spectrum_pm_symmetric(self, sample64):
        w = 0.7 + 0.2j
        lam = np.linalg.eigvalsh(hermitize(sample64 - w * np.eye(64)))
        s = svd(sample64, w)
        assert np.max(np.abs(np.sort(lam) - np.sort(np.concatenate([-s, s])))) <= 1e-10

    def test_positive_part_is_svd(self, two_point):
        # the N x N SVD against eigvalsh of the 2N x 2N matrix, N = 64 and 512
        w = 1.2 - 0.4j
        for N in (64, 512):
            e = SingleRingEnsemble.from_measure(two_point, N, "unitary", seed=102)
            X = sample_X(e, child_rng(102, N))
            lam = np.linalg.eigvalsh(hermitize(X - w * np.eye(N)))
            assert np.max(np.abs(np.sort(lam[N:]) - np.sort(svd(X, w)))) <= 1e-12


class TestMw:
    def test_single_pair(self):
        assert m_w(np.array([1.0]), 1.0) == pytest.approx(0.5j, abs=1e-14)

    def test_large_eta(self, sample64):
        s = svd(sample64, 1.4)
        for eta in (1e3, 1e4):
            assert abs(m_w(s, eta) - 1j / eta) <= 10.0 / eta**3

    def test_matches_direct_resolvent_trace(self, two_point):
        e = SingleRingEnsemble.from_measure(two_point, 16, "unitary", seed=8)
        X = sample_X(e, child_rng(8))
        H = hermitize(X - 1.3 * np.eye(16))
        eta = 0.37
        direct = np.trace(np.linalg.inv(H - 1j * eta * np.eye(32))) / 32
        assert m_w(svd(X, 1.3), eta) == pytest.approx(direct, abs=1e-12)

    def test_rejects_nonpositive_eta(self, sample64):
        with pytest.raises(ValueError):
            m_w(svd(sample64, 1.4), 0.0)


class TestSmallestSv:
    def test_symmetric_spectrum(self):
        assert smallest_sv(svd(np.diag([2.0 + 0j, 1.0]))) == 1.0

    def test_singular(self):
        assert smallest_sv(svd(np.diag([1.0 + 0j, 2.0]), 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_svd(self, sample64):
        # against min |lambda| of the 2N x 2N hermitization
        w = 1.4
        lam = np.linalg.eigvalsh(hermitize(sample64 - w * np.eye(64)))
        assert smallest_sv(svd(sample64, w)) == pytest.approx(np.min(np.abs(lam)), abs=1e-10)


class TestKSplitIdentity:
    def test_scalar_antiderivative(self):
        # single eigenvalue 2, height 3: log 2 = log|2-3i| - int_0^3 eta/(4+eta^2)
        integral = 0.5 * math.log((4.0 + 9.0) / 4.0)
        assert math.log(2.0) == pytest.approx(abs(math.log(abs(2 - 3j))) - integral, abs=1e-15)

    def test_spectral_identity(self, sample64):
        K = 100.0
        s = svd(sample64, 1.4)
        lhs = float(np.mean(np.log(s)))
        term1 = float(np.mean(np.log(np.abs(s - 1j * K))))
        integral, _ = quad(
            lambda eta: m_w(s, eta).imag,
            0.0,
            K,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=500,
            points=[smallest_sv(s), 1.0, 10.0],
        )
        assert lhs == pytest.approx(term1 - integral, abs=1e-9)

    def test_logdet_routes_agree(self, sample64):
        w = 0.9 + 0.8j
        svd_route = float(np.sum(np.log(svd(sample64, w))))
        lu_route = np.linalg.slogdet(sample64 - w * np.eye(64))[1]
        assert lu_route == pytest.approx(svd_route, abs=1e-9)


class TestBlockH:
    """The block model through its N x N block Y: H = [[0, Y], [Y*, 0]]."""

    def test_xi_zero_spectrum(self):
        e = BlockAdditiveEnsemble(np.array([1.0, 2.0]), np.zeros(2), 2, "unitary", seed=9)
        assert np.allclose(np.sort(svd(sample_Y(e, child_rng(9)))), [1.0, 2.0], atol=1e-10)

    def test_sigma_zero_spectrum(self):
        e = BlockAdditiveEnsemble(np.zeros(2), np.array([1.0, 3.0]), 2, "unitary", seed=10)
        assert np.allclose(np.sort(svd(sample_Y(e, child_rng(10)))), [1.0, 3.0], atol=1e-10)

    def test_xi_constant_recovers_hermitization(self, two_point):
        # Xi = -w I with the same Haar pair reproduces X - w for X = U S V*
        N, w, seed = 16, 1.3, 11
        ring = SingleRingEnsemble.from_measure(two_point, N, "unitary", seed)
        rng = child_rng(seed, 0)
        U, V = haar_unitary(N, rng), haar_unitary(N, rng)
        X = (U * ring.sigma_diag) @ V.conj().T
        block = BlockAdditiveEnsemble(
            ring.sigma_diag, np.full(N, -w, dtype=complex), N, "unitary", seed
        )
        Y = sample_Y(block, child_rng(seed, 0))
        assert np.max(np.abs(Y - (X - w * np.eye(N)))) <= 1e-12


def dense_observables(Y, z, xi, omega_B):
    """Every field of resolvent_observables from a dense inv(H - z)."""
    N = Y.shape[0]
    H = hermitize(Y)
    G = np.linalg.inv(H - z * np.eye(2 * N))
    A = hermitize(np.diag(xi))
    tr_G = np.trace(G) / (2 * N)
    tr_AG = np.trace(A @ G) / (2 * N)
    tr_BG = np.trace((H - A) @ G) / (2 * N)
    d = np.diagonal(G)
    idx = np.arange(N)
    denom = np.abs(xi) ** 2 - omega_B**2
    lam_d = max(
        np.max(np.abs(d[:N] - omega_B / denom)),
        np.max(np.abs(d[N:] - omega_B / denom)),
        np.max(np.abs(G[idx, idx + N] - xi / denom)),
        np.max(np.abs(G[idx + N, idx] - xi.conj() / denom)),
    )
    return {
        "m_H": tr_G,
        "tau1": np.mean(d[:N]),
        "tau2": np.mean(d[N:]),
        "omega_A_c": z - tr_AG / tr_G,
        "omega_B_c": z - tr_BG / tr_G,
        "Lambda_d": lam_d,
    }


class TestResolventObservables:
    def test_one_by_one_closed_form(self):
        # N = 1: H = [[0, h], [conj h, 0]] inverts by hand
        e = BlockAdditiveEnsemble(np.array([0.7]), np.array([0.4]), 1, "unitary", seed=13)
        Y = sample_Y(e, child_rng(13))
        h = Y[0, 0]
        z = 0.25 + 0.4j
        omega_B = 1.1j
        obs = resolvent_observables(
            svd(Y, compute_uv=True), z, e.xi_diag, omega_B, bulk_window=(-5, 5)
        )
        det = z * z - abs(h) ** 2
        G = np.array([[-z, -h], [-np.conj(h), -z]]) / det
        assert obs.m_H == pytest.approx(0.5 * (G[0, 0] + G[1, 1]), abs=1e-12)
        assert obs.tau1 == pytest.approx(G[0, 0], abs=1e-12)
        assert obs.tau2 == pytest.approx(G[1, 1], abs=1e-12)
        denom = abs(e.xi_diag[0]) ** 2 - omega_B**2
        lam_d = max(
            abs(G[0, 0] - omega_B / denom),
            abs(G[1, 1] - omega_B / denom),
            abs(G[0, 1] - e.xi_diag[0] / denom),
            abs(G[1, 0] - np.conj(e.xi_diag[0]) / denom),
        )
        assert obs.Lambda_d == pytest.approx(lam_d, abs=1e-12)
        assert obs.eigvec_sup <= 1.0 + 1e-12  # 2 coords, sqrt(1)*max|u| <= 1

    def test_partial_traces_agree(self):
        rng_seed = 14
        e = BlockAdditiveEnsemble(
            np.linspace(0.5, 2.0, 8), np.linspace(0.2, 1.0, 8), 8, "unitary", seed=rng_seed
        )
        for trial in range(20):
            svd_Y = svd(sample_Y(e, child_rng(rng_seed, trial)), compute_uv=True)
            obs = resolvent_observables(svd_Y, 0.1 + 0.3j, e.xi_diag, 1.0j)
            assert obs.tau1 == pytest.approx(obs.tau2, abs=1e-10)

    def test_subordination_identity(self):
        e = BlockAdditiveEnsemble(np.ones(16), np.ones(16), 16, "unitary", seed=15)
        for trial in range(5):
            svd_Y = svd(sample_Y(e, child_rng(15, trial)), compute_uv=True)
            for z in (0.4j, 0.5 + 0.25j):
                obs = resolvent_observables(svd_Y, z, e.xi_diag, 0.9j)
                lhs = obs.omega_A_c + obs.omega_B_c - z + 1.0 / obs.m_H
                assert abs(lhs) <= 1e-10

    def test_rejects_real_z(self):
        e = BlockAdditiveEnsemble(np.ones(4), np.ones(4), 4, "unitary", seed=16)
        svd_Y = svd(sample_Y(e, child_rng(16)), compute_uv=True)
        with pytest.raises(ValueError):
            resolvent_observables(svd_Y, 0.5, e.xi_diag, 1.0j)

    def test_matches_dense_resolvent(self):
        e = BlockAdditiveEnsemble(
            np.linspace(0.5, 2.0, 16), np.linspace(0.2, 1.0, 16), 16, "unitary", seed=17
        )
        Y = sample_Y(e, child_rng(17))
        svd_Y = svd(Y, compute_uv=True)
        for z, omega_B in ((0.3 + 0.2j, 1.0j), (1.1 + 0.05j, 0.2 + 0.9j), (0.1j, 0.9j)):
            want = dense_observables(Y, z, e.xi_diag, omega_B)
            obs = resolvent_observables(svd_Y, z, e.xi_diag, omega_B)
            for name, value in want.items():
                assert abs(getattr(obs, name) - value) <= 1e-12, name

    def test_eigvec_sup_matches_eigh(self):
        N = 16
        e = BlockAdditiveEnsemble(
            np.linspace(0.5, 2.0, N), np.linspace(0.2, 1.0, N), N, "unitary", seed=18
        )
        Y = sample_Y(e, child_rng(18))
        lam, vecs = np.linalg.eigh(hermitize(Y))
        svd_Y = svd(Y, compute_uv=True)
        for window in ((-0.5, 0.5), (0.8, 1.6), (-2.0, -0.9), (-5.0, 5.0)):
            in_bulk = (lam >= window[0]) & (lam <= window[1])
            assert np.any(in_bulk)
            want = math.sqrt(N) * np.max(np.abs(vecs[:, in_bulk]))
            obs = resolvent_observables(svd_Y, 0.5j, e.xi_diag, 1.0j, bulk_window=window)
            assert obs.eigvec_sup == pytest.approx(want, abs=1e-12)


class TestRealRoute:
    """O(N) draws stay real; the complex route on the same matrices is the oracle."""

    def test_svd_matches_complex_route(self, two_point):
        e = SingleRingEnsemble.from_measure(two_point, 64, "orthogonal", seed=103)
        X = sample_X(e, child_rng(103))
        for w in (0.0, 1.4, 0.9 + 0.8j):
            s, want = svd(X, w), svd(X.astype(np.complex128), w)
            assert np.max(np.abs(s - want)) <= 1e-12 * np.max(want)

    def test_resolvent_observables_match_complex_route(self):
        e = BlockAdditiveEnsemble(
            np.linspace(0.5, 2.0, 16), np.linspace(0.2, 1.0, 16), 16, "orthogonal", seed=19
        )
        Y = sample_Y(e, child_rng(19))
        assert Y.dtype == e.xi_diag.dtype == np.float64
        real = svd(Y, compute_uv=True)
        cplx = svd(Y.astype(np.complex128), compute_uv=True)
        xi_c = e.xi_diag.astype(np.complex128)
        for z, omega_B in ((0.3 + 0.2j, 1.0j), (1.1 + 0.05j, 0.2 + 0.9j), (0.1j, 0.9j)):
            got = resolvent_observables(real, z, e.xi_diag, omega_B)
            want = resolvent_observables(cplx, z, xi_c, omega_B)
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert abs(a - b) <= 1e-12 * abs(b), field.name
