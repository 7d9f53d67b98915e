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

