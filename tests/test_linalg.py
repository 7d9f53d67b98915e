import numpy as np
import pytest
from scipy.stats import ks_2samp

from oracles import qr_haar_orthogonal, qr_haar_unitary
from singlering.linalg import child_rng, haar_orthogonal, haar_unitary

# the library's Householder sampler and the rephased-QR reference of each class
UNITARY = (haar_unitary, qr_haar_unitary)
ORTHOGONAL = (haar_orthogonal, qr_haar_orthogonal)


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
        # 31, 32 and 33 straddle one block of the Householder accumulation
        for haar in UNITARY:
            rng = child_rng(1)
            for n in (1, 2, 8, 31, 32, 33, 64, 100):
                U = haar(n, rng)
                assert U.dtype == np.complex128
                assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-12, (haar, n)

    def test_entry_second_moment(self):
        # E|U_11|^2 = 1/n because columns are exchangeable unit vectors
        for haar in UNITARY:
            rng = child_rng(2)
            n, samples = 8, 10_000
            vals = np.array([np.abs(haar(n, rng)[0, 0]) ** 2 for _ in range(samples)])
            se = vals.std() / np.sqrt(samples)
            assert abs(vals.mean() - 1.0 / n) <= 3.0 * se, haar

    def test_trace_second_moment(self):
        # Diaconis-Shahshahani: E|Tr U^j|^2 = min(j, n) for Haar unitaries
        for haar in UNITARY:
            rng = child_rng(3)
            n, samples = 8, 10_000
            vals = []
            for _ in range(samples):
                U = haar(n, rng)
                U2 = U @ U
                vals.append([np.trace(U), np.trace(U2), np.trace(U2 @ U)])
            vals = np.abs(np.array(vals)) ** 2
            se = vals.std(axis=0) / np.sqrt(samples)
            assert np.all(np.abs(vals.mean(axis=0) - np.minimum([1, 2, 3], n)) <= 3.0 * se), haar

    def test_left_invariance_smoke(self):
        # |U_11| statistics agree for U and WU at the 1% KS level
        for haar in UNITARY:
            rng = child_rng(4)
            n, samples = 6, 1000
            W = haar(n, child_rng(5))
            a = np.array([np.abs(haar(n, rng)[0, 0]) for _ in range(samples)])
            b = np.array([np.abs((W @ haar(n, rng))[0, 0]) for _ in range(samples)])
            assert ks_2samp(a, b).pvalue > 0.01, haar


class TestHaarOrthogonal:
    def test_orthogonality(self):
        for haar in ORTHOGONAL:
            rng = child_rng(6)
            for n in (1, 2, 31, 32, 33, 100):
                O = haar(n, rng)
                assert O.dtype == np.float64
                assert np.max(np.abs(O.T @ O - np.eye(n))) <= 1e-12, (haar, n)

    def test_det_sign_frequency(self):
        for haar in ORTHOGONAL:
            rng = child_rng(7)
            n, samples = 8, 10_000
            dets = np.array([np.linalg.det(haar(n, rng)) for _ in range(samples)])
            assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-8
            frac = np.mean(dets > 0)
            se = 0.5 / np.sqrt(samples)
            assert abs(frac - 0.5) <= 3.0 * se, haar

    def test_entry_second_moment(self):
        for haar in ORTHOGONAL:
            rng = child_rng(8)
            n, samples = 8, 10_000
            vals = np.array([haar(n, rng)[0, 0] ** 2 for _ in range(samples)])
            se = vals.std() / np.sqrt(samples)
            assert abs(vals.mean() - 1.0 / n) <= 3.0 * se, haar

    def test_trace_moments(self):
        # Diaconis-Shahshahani: E Tr O = 0 and E (Tr O)^2 = 1 for Haar O(n)
        for haar in ORTHOGONAL:
            rng = child_rng(10)
            n, samples = 8, 10_000
            tr = np.array([np.trace(haar(n, rng)) for _ in range(samples)])
            for vals, want in ((tr, 0.0), (tr**2, 1.0)):
                se = vals.std() / np.sqrt(samples)
                assert abs(vals.mean() - want) <= 3.0 * se, haar


@pytest.mark.parametrize("n, samples", [(8, 2000), (70, 400)])
@pytest.mark.parametrize("haar, reference", [UNITARY, ORTHOGONAL], ids=["unitary", "orthogonal"])
def test_householder_matches_qr_in_distribution(haar, reference, n, samples):
    # two-sample KS at the 1% level against the rephased QR, inside one block
    # of reflectors and across three: the eigenphase nearest 0 and |W_11|^2,
    # one value per matrix
    stack = haar(n, [child_rng(11, t) for t in range(samples)])
    ref = np.stack([reference(n, child_rng(12, t)) for t in range(samples)])
    for stat in (
        lambda W: np.min(np.abs(np.angle(np.linalg.eigvals(W))), axis=-1),
        lambda W: np.abs(W[:, 0, 0]) ** 2,
    ):
        assert ks_2samp(stat(stack), stat(ref)).pvalue > 0.01


def test_rejects_nonpositive_size():
    for haar in (haar_unitary, haar_orthogonal):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                haar(n, child_rng(1))


class TestHaarStacks:
    """A sequence of generators gives the stack of one-matrix draws, exactly."""

    def test_stack_equals_per_matrix_draws(self):
        for sample, dtype in ((haar_unitary, np.complex128), (haar_orthogonal, np.float64)):
            for n, k in ((1, 3), (5, 4), (37, 3), (128, 4)):
                stack = sample(n, [child_rng(9, t) for t in range(k)])
                assert stack.shape == (k, n, n) and stack.dtype == dtype
                for t in range(k):
                    single = sample(n, child_rng(9, t))
                    assert single.shape == (n, n)
                    assert np.array_equal(stack[t], single)
