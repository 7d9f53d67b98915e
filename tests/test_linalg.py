import numpy as np
from scipy.stats import ks_2samp

from singlering import linalg
from singlering.linalg import child_rng, haar_orthogonal, haar_unitary


class TestChildRng:
    def test_deterministic(self):
        a = child_rng(42, 3, 7).standard_normal(4)
        b = child_rng(42, 3, 7).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = child_rng(42, 0).standard_normal(4)
        b = child_rng(42, 1).standard_normal(4)
        assert not np.allclose(a, b)


class TestHaarUnitary:
    def test_unitarity(self):
        rng = child_rng(1)
        for n in (1, 2, 8, 64):
            U = haar_unitary(n, rng)
            assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-12

    def test_entry_second_moment(self):
        # E|U_11|^2 = 1/n because columns are exchangeable unit vectors
        rng = child_rng(2)
        n, samples = 8, 10_000
        vals = np.array([np.abs(haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(samples)])
        se = vals.std() / np.sqrt(samples)
        assert abs(vals.mean() - 1.0 / n) <= 3.0 * se

    def test_trace_second_moment(self):
        # E|Tr U|^2 = 1 for Haar unitaries
        rng = child_rng(3)
        n, samples = 8, 10_000
        vals = np.array([np.abs(np.trace(haar_unitary(n, rng))) ** 2 for _ in range(samples)])
        se = vals.std() / np.sqrt(samples)
        assert abs(vals.mean() - 1.0) <= 3.0 * se

    def test_left_invariance_smoke(self):
        # |U_11| statistics agree for U and WU at the 1% KS level
        rng = child_rng(4)
        n, samples = 6, 1000
        W = haar_unitary(n, child_rng(5))
        a = np.array([np.abs(haar_unitary(n, rng)[0, 0]) for _ in range(samples)])
        b = np.array([np.abs((W @ haar_unitary(n, rng))[0, 0]) for _ in range(samples)])
        assert ks_2samp(a, b).pvalue > 0.01


class TestHaarOrthogonal:
    def test_orthogonality(self):
        rng = child_rng(6)
        O = haar_orthogonal(32, rng)
        assert np.max(np.abs(O.T @ O - np.eye(32))) <= 1e-12
        assert np.max(np.abs(O.imag)) == 0.0

    def test_det_sign_frequency(self):
        rng = child_rng(7)
        n, samples = 8, 10_000
        dets = np.array([np.linalg.det(haar_orthogonal(n, rng)).real for _ in range(samples)])
        assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-8
        frac = np.mean(dets > 0)
        se = 0.5 / np.sqrt(samples)
        assert abs(frac - 0.5) <= 3.0 * se

    def test_entry_second_moment(self):
        rng = child_rng(8)
        n, samples = 8, 10_000
        vals = np.array(
            [np.abs(haar_orthogonal(n, rng)[0, 0]) ** 2 for _ in range(samples)]
        )
        se = vals.std() / np.sqrt(samples)
        assert abs(vals.mean() - 1.0 / n) <= 3.0 * se



class TestHaarStacks:
    """A sequence of generators gives the stack of one-matrix draws, exactly."""

    @staticmethod
    def per_matrix(n, rng, unitary):
        # the one-matrix construction: QR of a Gaussian matrix, columns rephased
        if unitary:
            Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        else:
            Z = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R)
        if unitary:
            return Q * np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
        return Q * np.where(d >= 0, 1.0, -1.0)

    def test_stack_equals_per_matrix_draws(self):
        for sample, unitary, dtype in (
            (haar_unitary, True, np.complex128), (haar_orthogonal, False, np.float64)
        ):
            for n, k in ((1, 3), (5, 4), (37, 3), (128, 4)):
                stack = sample(n, [child_rng(9, t) for t in range(k)])
                assert stack.shape == (k, n, n) and stack.dtype == dtype
                for t in range(k):
                    single = sample(n, child_rng(9, t))
                    assert single.shape == (n, n)
                    assert np.array_equal(stack[t], single)
                    assert np.array_equal(single, self.per_matrix(n, child_rng(9, t), unitary))
