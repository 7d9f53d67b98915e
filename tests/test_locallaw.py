import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import bump_laplacian, flagged, log_potential
from singlering import freeconv, linalg, locallaw, measure, models
from singlering.locallaw import (
    BlockRecord,
    DevRecord,
    DominationReport,
    GapRecord,
    ScanGrid,
    SplitRecord,
    SubDiagRecord,
    block_energies,
    block_local_law_scan,
    bump_value,
    delta_bump_l1,
    dyadic_etas,
    fit_domination,
    green_subordination_scan,
    linear_statistic_lhs,
    linear_statistic_rhs,
    local_law_scan,
    linear_statistic_gap,
    parallel_map,
    smallest_sv_tail,
)
from singlering.measure import DiscreteMeasure, RingGeometry


def laplacian_pairing(g, grid_n, w0, scale):
    """(1/2pi) int Delta f(zeta) g(w0 + scale zeta) d^2 zeta by the midpoint
    rule on a grid_n x grid_n grid of [-1, 1]^2 (nodes with |zeta| < 1).

    g maps an array of points w to values.  As in the retired quadrature
    route, g is centered at its median first: Delta f pairs constants to
    zero in the continuum but only to O(h^2) in the midpoint sum.
    """
    step = 2.0 / grid_n
    centers = -1.0 + step * (np.arange(grid_n) + 0.5)
    zeta = (centers[None, :] + 1j * centers[:, None]).ravel()
    zeta = zeta[np.abs(zeta) < 1.0]
    vals = g(w0 + scale * zeta)
    lap = bump_laplacian(np.abs(zeta))
    return float(step * step / (2.0 * math.pi) * np.sum(lap * (vals - np.median(vals))))


def girko_statistic(X, w0, alpha, radius, grid_n):
    """N^{2a} (1/2pi) int Delta f (1/N) log |det(X - w)|, one LU per node."""
    n = X.shape[0]
    eye = np.eye(n)

    def g(ws):
        return np.array([np.linalg.slogdet(X - w * eye)[1] for w in ws]) / n

    scale = n ** (-alpha) * radius
    return n ** (2.0 * alpha) * laplacian_pairing(g, grid_n, w0, scale)


class TestBump:
    def test_laplacian_closed_form_vs_finite_differences(self):
        h = 1e-5
        for s in (0.1, 0.35, 0.6, 0.9):
            f = bump_value
            num = (f(s + h) - 2 * f(s) + f(s - h)) / h**2 + (f(s + h) - f(s - h)) / (
                2 * h * s
            )
            assert bump_laplacian(s) == pytest.approx(num, abs=1e-5)

    def test_vanishes_outside(self):
        assert bump_value(1.2) == 0.0
        assert bump_laplacian(1.2) == 0.0
        assert bump_laplacian(1.0) == 0.0

    def test_l1_norm_exact(self):
        # oracle for the closed form 32 pi / 9: radial quadrature of |Delta f|
        val, _ = quad(lambda s: abs(bump_laplacian(s)) * 2.0 * math.pi * s, 0.0, 1.0, limit=100)
        assert delta_bump_l1() == pytest.approx(val, rel=1e-10)

    def test_laplacian_integrates_to_zero(self):
        val, _ = quad(lambda s: bump_laplacian(s) * 2 * math.pi * s, 0.0, 1.0)
        assert abs(val) < 1e-12


class TestGrids:
    def test_dyadic(self):
        etas = dyadic_etas(0.05, 1.0)
        assert etas[0] == 1.0
        assert np.all(etas > 0.05)
        assert np.allclose(etas[:-1] / etas[1:], 2.0)
        with pytest.raises(ValueError):
            dyadic_etas(1.0, 0.5)

    def test_scan_grid_validates_annulus(self, two_point):
        ring = RingGeometry.from_measure(two_point, tau=0.05)
        with pytest.raises(ValueError, match="annulus"):
            ScanGrid(np.array([0.5]), np.array([2.0 + 0j]), (32,), 1, ring)
        grid = ScanGrid(np.array([0.5, 0.25]), np.array([1.4 + 0j]), (32,), 2, ring)
        assert grid.trials == 2

    def test_scan_grid_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            ScanGrid(np.array([0.25, 0.5]), np.array([]), (32,), 1)


class TestFitDomination:
    @staticmethod
    def synthetic_report(exponent, rng):
        rep = DominationReport()
        for N in (64, 128, 256, 512, 1024):
            for t in range(400):
                dev = N**exponent * math.exp(0.05 * rng.standard_normal())
                rep.records.append(DevRecord(N, t, 0j, 0.1, dev))
        return rep

    def test_flat_signal(self):
        fit = fit_domination(self.synthetic_report(0.0, np.random.default_rng(0)))
        assert fit.slope == pytest.approx(0.0, abs=0.05)
        assert fit.passed

    def test_planted_growth(self):
        fit = fit_domination(self.synthetic_report(0.5, np.random.default_rng(1)))
        assert fit.slope == pytest.approx(0.5, abs=0.05)
        assert not fit.passed

    def test_needs_three_sizes(self):
        rep = DominationReport()
        rep.records = [DevRecord(64, 0, 0j, 0.1, 1.0)]
        with pytest.raises(ValueError):
            fit_domination(rep)


class TestLinearStatistics:
    def test_lhs_matches_eigenvalue_sum_desk_scale(self):
        # 2x2 matrix with eigenvalues from the quadratic formula
        X = np.array([[0.52, 0.31], [0.12, 0.47]], dtype=complex)
        tr, det = np.trace(X), np.linalg.det(X)
        disc = np.sqrt(tr * tr - 4 * det)
        lam = np.array([(tr + disc) / 2, (tr - disc) / 2])
        w0 = 0.5 + 0.0j
        radius = 0.6
        direct = float(np.mean([bump_value(abs(l - w0) / radius) for l in lam]))
        # Girko's identity, by midpoint quadrature with LU log-determinants
        assert girko_statistic(X, w0, 0.0, radius, 192) == pytest.approx(direct, abs=2e-3)
        (lhs,) = linear_statistic_lhs(X, w0, [(0.0, radius)])
        assert lhs == pytest.approx(direct, abs=1e-14)

    def test_lhs_matches_girko_quadrature(self, two_point):
        e = models.SingleRingEnsemble.from_measure(two_point, 32, "unitary", seed=30)
        X = models.sample_X(e, linalg.child_rng(30))
        tests = [(0.0, 0.5), (0.25, 0.8)]
        for (alpha, radius), direct in zip(tests, linear_statistic_lhs(X, 1.4 + 0j, tests)):
            assert direct > 0
            assert girko_statistic(X, 1.4 + 0j, alpha, radius, 64) == pytest.approx(
                direct, abs=1e-4
            )

    def test_lhs_vanishes_off_spectrum(self):
        X = np.diag([0.2 + 0j, 0.3 + 0.1j])
        (val,) = linear_statistic_lhs(X, 5.0 + 0j, [(0.0, 0.5)])
        # no eigenvalue lies in the support of the bump
        assert abs(val) < 1e-3

    def test_real_route_matches_complex_route(self, two_point):
        # an O(N) draw keeps its eigvals real; the complex route is the oracle
        e = models.SingleRingEnsemble.from_measure(two_point, 64, "orthogonal", seed=31)
        X = models.sample_X(e, linalg.child_rng(31))
        Xc = X.astype(np.complex128)
        ev, want = np.sort_complex(np.linalg.eigvals(X)), np.linalg.eigvals(Xc)
        # sort the complex route into the same order: a conjugate pair's real
        # parts tie exactly in the real route and only to rounding in the other
        nearest = np.argmin(np.abs(ev[:, None] - want[None, :]), axis=1)
        assert len(set(nearest)) == len(ev)
        assert np.max(np.abs(ev - want[nearest])) <= 1e-12 * np.max(np.abs(ev))
        tests = [(0.0, 0.5), (0.25, 0.8), (0.45, 2.0)]
        for w0 in (1.4 + 0j, 1.4j):
            got, lhs_c = linear_statistic_lhs(X, w0, tests), linear_statistic_lhs(Xc, w0, tests)
            assert np.all(np.abs(got - lhs_c) <= 1e-12 * np.abs(lhs_c))

    def test_lhs_rejects_bad_alpha(self):
        for bad in ((0.6, 0.5), (0.0, 0.0), (0.25, -0.5)):
            with pytest.raises(ValueError, match="alpha in"):
                linear_statistic_lhs(np.eye(2, dtype=complex), 0.0, [(0.0, 0.5), bad])

    @pytest.mark.slow
    def test_rhs_circular_law_macroscopic(self, quarter_circle_2000):
        # alpha = 0, bump of radius 0.3 at w0 = 0.5 inside the unit disk:
        # integral of f against the uniform law is R^2/4
        R = 0.3
        val = linear_statistic_rhs(quarter_circle_2000, 0.5 + 0j, 0.0, R, n=512)
        assert val == pytest.approx(R * R / 4.0, abs=1e-3)
        assert val == pytest.approx(R * R / 4.0, rel=5e-3)
        assert val == pytest.approx(R * R / 4.0, abs=1e-6)

    @pytest.mark.slow
    def test_rhs_rescaling_consistency(self, quarter_circle_2000):
        # alpha > 0 concentrates the bump: both scales see density ~ 1/pi
        R = 0.3
        a0 = linear_statistic_rhs(quarter_circle_2000, 0.5 + 0j, 0.0, R, n=512)
        a25 = linear_statistic_rhs(quarter_circle_2000, 0.5 + 0j, 0.25, R, n=512)
        assert a25 == pytest.approx(a0, rel=1e-4)

    def test_rhs_rejects_origin_support(self, two_point):
        with pytest.raises(ValueError):
            linear_statistic_rhs(two_point, 0.05 + 0j, 0.0, 0.5, n=8)

    def test_rhs_vanishes_off_ring(self, two_point):
        # the support |w - 4| <= 0.5 misses the ring, where rho = 0
        val = linear_statistic_rhs(two_point, 4.0 + 0j, 0.0, 0.5, n=16)
        assert val == 0.0
        assert abs(val) < 1e-3

    def test_rhs_matches_log_potential_pairing(self, two_point):
        # the retired route: Delta f paired with L(|w|), since Delta L = 2 pi rho
        n, alpha, radius, w0 = 256, 0.25, 0.5, 1.4 + 0j

        def L(ws):
            return np.array([log_potential(two_point, abs(w)) for w in ws])

        scale = n ** (-alpha) * radius
        paired = n ** (2.0 * alpha) * laplacian_pairing(L, 128, w0, scale)
        direct = linear_statistic_rhs(two_point, w0, alpha, radius, n=n)
        assert direct > 0
        assert direct == pytest.approx(paired, abs=1e-5)


class TestLocalLawScan:
    def test_small_scan_structure(self, two_point, threads):
        ring = RingGeometry.from_measure(two_point, tau=0.02)
        e = models.SingleRingEnsemble.from_measure(two_point, 32, "unitary", seed=21)
        grid = ScanGrid(dyadic_etas(0.2, 1.0), np.array([1.4 + 0j]), (32, 48), 2, ring)
        rep = local_law_scan(e, grid, threads=threads)
        assert len(rep.records) == 2 * 2 * len(grid.eta_values)
        assert all(np.isfinite(r.dev) and r.dev < 50 for r in rep.records)
        assert rep.sizes() == [32, 48]
        assert len(rep.splits) == 2 * 2
        for s in rep.splits:
            assert s.lambda1 > 0
            assert s.small_eta_integral >= 0

    def test_failed_reference_solve_flags_its_nodes(self, two_point, monkeypatch):
        ring = RingGeometry.from_measure(two_point, tau=0.02)
        e = models.SingleRingEnsemble.from_measure(two_point, 24, "unitary", seed=31)
        grid = ScanGrid(np.array([0.5, 0.25]), np.array([1.4 + 0j]), (24,), 2, ring)
        solve = freeconv.solve_delta_conv

        def failing(mu, r, z, *args, **kwargs):
            if z.imag == 0.25:
                raise freeconv.ConvergenceError("injected")
            return solve(mu, r, z, *args, **kwargs)

        monkeypatch.setattr(freeconv, "solve_delta_conv", failing)
        with pytest.warns(RuntimeWarning, match="reference solve failed"):
            rep = local_law_scan(e, grid)
        assert len(rep.records) == 2 * 2
        bad = flagged(rep)
        assert [(r.trial, r.eta) for r in bad] == [(0, 0.25), (1, 0.25)]
        assert all(math.isnan(r.dev) for r in bad)
        others = [r for r in rep.records if r.eta != 0.25]
        assert len(others) == 2 and all(np.isfinite(r.dev) for r in others)

    def test_thread_count_invariance(self, two_point):
        ring = RingGeometry.from_measure(two_point, tau=0.02)
        e = models.SingleRingEnsemble.from_measure(two_point, 24, "unitary", seed=22)
        grid = ScanGrid(np.array([0.5]), np.array([1.4 + 0j]), (24,), 3, ring)
        a = local_law_scan(e, grid, threads=1)
        b = local_law_scan(e, grid, threads=3)
        assert [(r.N, r.trial, r.eta, r.dev) for r in a.records] == [
            (r.N, r.trial, r.eta, r.dev) for r in b.records
        ]


class TestLinearStatisticGap:
    def test_gap_records(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 48, "unitary", seed=23)
        recs = linear_statistic_gap(e, 1.4 + 0j, [(0.25, 0.5)], trials=2, threads=threads)
        assert len(recs) == 2
        for r in recs:
            assert np.isfinite(r.gap_norm)
            assert r.rhs == recs[0].rhs  # deterministic side shared

    def test_one_eigvals_call_per_batch(self, two_point, monkeypatch):
        # 14 trials at N = 40 are the batches of 13 and 1 trials; every test
        # reads the spectra of one eigvals call per batch
        e = models.SingleRingEnsemble.from_measure(two_point, 40, "unitary", seed=38)
        eigvals, stacks = np.linalg.eigvals, []

        def counted(X):
            stacks.append(X.shape)
            return eigvals(X)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        tests = [(0.0, 0.1), (0.25, 0.5), (0.45, 2.0)]
        recs = linear_statistic_gap(e, 1.4 + 0j, tests, trials=14)
        assert stacks == [(13, 40, 40), (1, 40, 40)]
        assert [(r.alpha, r.trial) for r in recs] == [(a, t) for a, _ in tests for t in range(14)]


class TestSmallestSvTail:
    def test_tail_shape(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 32, "unitary", seed=24)
        rep = smallest_sv_tail(e, 1.4 + 0j, trials=60, threads=threads)
        assert rep.monotone()
        assert np.all((rep.tail_probability >= 0) & (rep.tail_probability <= 1))
        assert np.mean(rep.lambda1 * 1.4 <= rep.t_grid[-1] * 10) == 1.0
        big_t = np.array([100.0])
        assert np.mean(rep.lambda1 * 1.4 <= big_t[0]) == 1.0

    def test_orthogonal_identity_rejected(self):
        e = models.SingleRingEnsemble(np.ones(8), 8, "orthogonal", seed=25)
        with pytest.raises(ValueError, match="identity"):
            smallest_sv_tail(e, 1.0, trials=2)


class TestBlockScan:
    def test_degenerate_xi_zero_is_exact(self):
        e = models.BlockAdditiveEnsemble(np.ones(24), np.zeros(24), 24, "unitary", seed=26)
        grid = ScanGrid(np.array([0.5, 0.25]), np.array([], dtype=complex), (24,), 2)
        rep = block_local_law_scan(e, [0.0], grid)
        assert max(r.dev for r in rep.records) < 1e-10

    def test_arcsine_reference(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(48), np.ones(48), 48, "unitary", seed=27)
        grid = ScanGrid(dyadic_etas(0.1, 1.0), np.array([], dtype=complex), (48,), 3)
        rep = block_local_law_scan(e, [0.0], grid, threads=threads)
        assert all(np.isfinite(r.dev) and r.dev < 50 for r in rep.records)

    def test_failed_reference_solve_flags_its_nodes(self, monkeypatch):
        e = models.BlockAdditiveEnsemble(np.ones(24), np.ones(24), 24, "unitary", seed=30)
        grid = ScanGrid(np.array([0.5, 0.25]), np.array([], dtype=complex), (24,), 2)
        solve = freeconv.solve_phi_system

        def failing(mu1, mu2, z, *args, **kwargs):
            if z.imag == 0.25:
                raise freeconv.ConvergenceError("injected")
            return solve(mu1, mu2, z, *args, **kwargs)

        monkeypatch.setattr(freeconv, "solve_phi_system", failing)
        with pytest.warns(RuntimeWarning, match="reference solve failed"):
            rep = block_local_law_scan(e, [0.0], grid)
        assert len(rep.records) == 2 * 2
        bad = flagged(rep)
        assert [(r.trial, r.eta) for r in bad] == [(0, 0.25), (1, 0.25)]
        assert all(math.isnan(r.dev) for r in bad)
        others = [r for r in rep.records if r.eta != 0.25]
        assert len(others) == 2 and all(np.isfinite(r.dev) for r in others)

    def test_bulk_check_rejects_gap(self):
        e = models.BlockAdditiveEnsemble(np.ones(16), np.zeros(16), 16, "unitary", seed=28)
        with pytest.raises(ValueError, match="bulk"):
            block_energies(e, (0.0, 0.0), 1)


class TestGreenSubordination:
    def test_small_scan(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(48), np.ones(48), 48, "unitary", seed=29)
        recs = green_subordination_scan(
            e, [0.25j], trials=3, bulk_window=(-0.5, 0.5), threads=threads
        )
        assert len(recs) == 3
        for r in recs:
            assert np.isfinite(r.lambda_d_scaled)
            assert r.omegaB_gap >= 0 and r.omegaA_gap >= 0
            assert 0 < r.eigvec_sup < 10

    def test_failed_reference_solve_flags_its_z(self, monkeypatch):
        e = models.BlockAdditiveEnsemble(np.ones(24), np.ones(24), 24, "unitary", seed=29)
        solve = freeconv.solve_phi_system

        def failing(mu1, mu2, z, *args, **kwargs):
            if z.imag == 0.25:
                raise freeconv.ConvergenceError("injected")
            return solve(mu1, mu2, z, *args, **kwargs)

        monkeypatch.setattr(freeconv, "solve_phi_system", failing)
        with pytest.warns(RuntimeWarning, match="reference solve failed"):
            recs = green_subordination_scan(
                e, [0.5j, 0.25j], trials=2, bulk_window=(-0.5, 0.5)
            )
        assert [(r.trial, r.z) for r in recs] == [(0, 0.5j), (0, 0.25j), (1, 0.5j), (1, 0.25j)]
        for r in recs:
            gaps = (r.lambda_d_scaled, r.omegaB_gap, r.omegaA_gap)
            if r.z == 0.25j:
                assert all(math.isnan(g) for g in gaps)
            else:
                assert all(np.isfinite(g) for g in gaps)
            assert 0 < r.eigvec_sup < 10  # no reference needed


def test_parallel_map_order():
    out = parallel_map(lambda x: x * x, range(7), threads=3)
    assert out == [x * x for x in range(7)]


def test_parallel_map_pins_blas_and_restores_it():
    with locallaw._one_blas_thread() as blas:  # restores the count the test found
        if blas is None:
            pytest.skip("numpy's BLAS is not scipy-openblas")
        get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        put(2)

        def task(x):
            if x == 3:
                raise RuntimeError("task failed")
            return get()

        for threads in (1, 2):
            assert parallel_map(task, range(3), threads=threads) == [1, 1, 1]
            assert get() == 2
            with pytest.raises(RuntimeError, match="task failed"):
                parallel_map(task, range(5), threads=threads)
            assert get() == 2


def test_stacked_svd_releases_the_gil(two_point):
    # a counter thread stamps the clock whenever it holds the GIL; while the
    # call holds it, the stamps stop, and the largest gap spans that stretch
    N = 128
    k = -(-locallaw.BATCH_VALUES // N)
    e = models.SingleRingEnsemble.from_measure(two_point, N, "unitary", seed=32)
    X = np.stack([models.sample_X(e, linalg.child_rng(32, t)) for t in range(k)])
    stamps, stop = [], threading.Event()

    def count():
        while not stop.is_set():
            stamps.append(time.perf_counter())

    interval = sys.getswitchinterval()
    counter = threading.Thread(target=count)
    held = []
    sys.setswitchinterval(1e-5)
    try:
        counter.start()
        for _ in range(3):
            start = time.perf_counter()
            models.svd(X, 1.4)
            end = time.perf_counter()
            times = [start, *(t for t in stamps[-200_000:] if start < t < end), end]
            held.append(max(b - a for a, b in zip(times, times[1:])) / (end - start))
    finally:
        stop.set()
        counter.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not counter.is_alive()
    assert min(held) < 0.5, held


# ---------------------------------------------------------------------------
# the per-trial route, kept as the oracle of the batched scans: one child
# stream, one sample and one spectrum per trial
# ---------------------------------------------------------------------------


def sample_X(ens, *path):
    return models.sample_X(ens, linalg.child_rng(ens.seed, *path))


def sample_Y(ens, *path):
    return models.sample_Y(ens, linalg.child_rng(ens.seed, *path))


def local_law_oracle(e, grid):
    recs, splits = [], []
    for ni, N in enumerate(grid.N_values):
        ens = e if N == e.N else e.resized(N)
        mu_sym = measure.symmetrize(ens.empirical_measure())
        eta_star = float(N) ** (-locallaw.SPLIT_EXPONENT)
        for trial in range(grid.trials):
            X = sample_X(ens, ni, trial)
            for w in grid.w_values:
                s = models.svd(X, w)
                small = float(np.mean(0.5 * np.log1p(eta_star**2 / s**2)))
                splits.append(
                    SplitRecord(N, trial, complex(w), eta_star, small, models.smallest_sv(s))
                )
                for eta in grid.eta_values:
                    m_ref = freeconv.solve_delta_conv(mu_sym, abs(w), 1j * eta).m
                    dev = N * eta * abs(models.m_w(s, eta) - m_ref)
                    recs.append(DevRecord(N, trial, complex(w), eta, dev))
    return recs, splits


def gap_oracle(e, w0, tests, trials):
    """One sample and one spectrum per (test, trial), the tests in turn."""
    out = []
    for alpha, radius in tests:
        rhs = linear_statistic_rhs(e.empirical_measure(), w0, alpha, radius, n=e.N)
        scale = float(e.N) ** (1.0 - 2.0 * alpha) / delta_bump_l1()
        for trial in range(trials):
            lam = np.linalg.eigvals(sample_X(e, trial))
            lhs = e.N ** (2.0 * alpha) * float(
                np.mean(bump_value(np.abs(lam - w0) / (e.N ** (-alpha) * radius)))
            )
            out.append(
                GapRecord(e.N, trial, alpha, complex(w0), lhs, rhs, abs(lhs - rhs) * scale)
            )
    return out


def block_oracle(e, E, grid):
    mu_a, mu_b = measure.symmetrize(e.xi_measure()), measure.symmetrize(e.sigma_measure())
    recs = []
    for trial in range(grid.trials):
        s = models.svd(sample_Y(e, 0, trial))
        for eta in grid.eta_values:
            z = complex(E, eta)
            m_ref = freeconv.solve_phi_system(mu_a, mu_b, z).m
            m_H = complex(np.mean(z / (s * s - z * z)))
            recs.append(BlockRecord(e.N, trial, E, eta, e.N * eta * (1.0 + eta) * abs(m_H - m_ref)))
    return recs


def green_oracle(e, z, trials, window):
    mu_a, mu_b = measure.symmetrize(e.xi_measure()), measure.symmetrize(e.sigma_measure())
    st = freeconv.solve_phi_system(mu_a, mu_b, z)
    recs = []
    for trial in range(trials):
        svd_Y = models.svd(sample_Y(e, trial), compute_uv=True)
        obs = models.resolvent_observables(svd_Y, z, e.xi_diag, st.omega2, bulk_window=window)
        eta = z.imag
        recs.append(
            SubDiagRecord(
                e.N, trial, z,
                math.sqrt(e.N * eta) * obs.Lambda_d,
                e.N * eta * abs(obs.omega_B_c - st.omega2),
                e.N * eta * abs(obs.omega_A_c - st.omega1),
                obs.eigvec_sup,
            )
        )
    return recs


@pytest.fixture
def one_blas_thread():
    """The oracle runs at the one BLAS thread that the scans pin."""
    with locallaw._one_blas_thread():
        yield


@pytest.mark.usefixtures("one_blas_thread")
class TestBatchesMatchPerTrialOracle:
    """Every scan equals the per-trial route exactly, at any thread count.

    14 trials split into batches of ceil(512/40) = 13 at N = 40 and of
    ceil(512/100) = 6 at N = 100, so every scan ends on a short batch.
    """

    TRIALS = 14

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_local_law_scan(self, two_point, threads):
        ring = RingGeometry.from_measure(two_point, tau=0.02)
        e = models.SingleRingEnsemble.from_measure(two_point, 40, "unitary", seed=33)
        grid = ScanGrid(
            np.array([0.5, 0.1]), np.array([1.4 + 0j, 1.4j]), (40, 100), self.TRIALS, ring
        )
        rep = local_law_scan(e, grid, threads=threads)
        recs, splits = local_law_oracle(e, grid)
        assert rep.records == recs
        assert rep.splits == splits

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_linear_statistic_gap(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 40, "unitary", seed=34)
        tests = [(0.0, 0.3), (0.25, 0.5)]
        recs = linear_statistic_gap(e, 1.4 + 0j, tests, self.TRIALS, threads=threads)
        assert recs == gap_oracle(e, 1.4 + 0j, tests, self.TRIALS)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_smallest_sv_tail(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 40, "unitary", seed=35)
        rep = smallest_sv_tail(e, 1.4 + 0j, trials=self.TRIALS, threads=threads)
        oracle = [models.smallest_sv(models.svd(sample_X(e, t), 1.4 + 0j)) for t in range(14)]
        assert rep.lambda1.tolist() == oracle

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_block_local_law_scan(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(40), np.ones(40), 40, "unitary", seed=36)
        grid = ScanGrid(np.array([0.5, 0.1]), np.array([], dtype=complex), (40,), self.TRIALS)
        rep = block_local_law_scan(e, [0.0], grid, threads=threads)
        assert rep.records == block_oracle(e, 0.0, grid)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_green_subordination_scan(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(40), np.ones(40), 40, "unitary", seed=37)
        window = (-0.5, 0.5)
        recs = green_subordination_scan(
            e, [0.25j], trials=self.TRIALS, bulk_window=window, threads=threads
        )
        assert recs == green_oracle(e, 0.25j, self.TRIALS, window)
