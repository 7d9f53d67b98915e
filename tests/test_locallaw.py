import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import bump_laplacian, flagged, log_potential, polyfit_tail_fit
from singlering import freeconv, linalg, locallaw, measure, models
from singlering.locallaw import (
    BlockRecord,
    DevRecord,
    GapRecord,
    SplitRecord,
    SubDiagRecord,
    block_energies,
    block_local_law_scan,
    bump_value,
    delta_bump_l1,
    domination_stats,
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
from singlering.measure import DiscreteMeasure


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

    @pytest.mark.parametrize("eta", [0.0, -0.25])
    def test_scans_reject_nonpositive_eta(self, two_point, eta):
        e = models.SingleRingEnsemble.from_measure(two_point, 8, "unitary", seed=1)
        with pytest.raises(ValueError):
            local_law_scan(e, [1.4 + 0j], [0.5, eta], 1, (0,))
        b = models.BlockAdditiveEnsemble(np.ones(8), np.ones(8), 8, "unitary", seed=1)
        with pytest.raises(ValueError, match="Im z > 0"):
            block_local_law_scan(b, [0.0], [0.5, eta], 1, (0,))


class TestTrials:
    """Every scan runs its trials through one check: trials >= 1."""

    def test_each_scan_rejects_zero_trials(self, two_point):
        e = models.SingleRingEnsemble.from_measure(two_point, 8, "unitary", seed=1)
        b = models.BlockAdditiveEnsemble(np.ones(8), np.ones(8), 8, "unitary", seed=1)
        scans = [
            lambda: local_law_scan(e, [1.4 + 0j], [0.5], 0, (0,)),
            lambda: linear_statistic_gap(e, [(1.4 + 0j, 0.25, 0.5)], 0, (0,)),
            lambda: smallest_sv_tail(e, 1.4 + 0j, None, 0, (0,)),
            lambda: block_local_law_scan(b, [0.0], [0.5], 0, (0,)),
            lambda: green_subordination_scan(b, [0.25j], (-0.5, 0.5), 0, (0,)),
        ]
        for scan in scans:
            with pytest.raises(ValueError, match="need trials >= 1, got 0"):
                scan()


class TestLineFit:
    def test_matches_polyfit_on_masked_rows(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 9))
        y = 1.3 + 0.7 * x + 0.2 * rng.normal(size=x.shape)
        keep = rng.random(x.shape) < 0.6
        # values at points not kept are never read
        x_bad, y_bad = np.where(keep, x, np.inf), np.where(keep, y, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, intercept = locallaw._line_fit(x_bad, y_bad, keep)
        fitted = 0
        for i in range(len(x)):
            if keep[i].sum() < 2:
                assert math.isnan(slope[i]) and math.isnan(intercept[i])
                continue
            ref_slope, ref_intercept = np.polyfit(x[i][keep[i]], y[i][keep[i]], 1)
            assert slope[i] == pytest.approx(ref_slope, rel=1e-12)
            assert intercept[i] == pytest.approx(ref_intercept, rel=1e-12)
            fitted += 1
        assert fitted > 150

    @pytest.mark.parametrize("keep", [[False] * 3, [True, False, False]])
    def test_fewer_than_two_points_is_nan_without_warning(self, keep):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, intercept = locallaw._line_fit([1.0, 2.0, 3.0], [0.5, -np.inf, 1.0], keep)
        assert math.isnan(slope) and math.isnan(intercept)


class TestFitDomination:
    @staticmethod
    def synthetic_records(exponent, rng):
        return [
            DevRecord(N, t, 0j, 0.1, N**exponent * math.exp(0.05 * rng.standard_normal()))
            for N in (64, 128, 256, 512, 1024)
            for t in range(400)
        ]

    def test_flat_signal(self):
        fit = fit_domination(self.synthetic_records(0.0, np.random.default_rng(0)))
        assert fit.slope == pytest.approx(0.0, abs=0.05)
        assert fit.passed

    def test_planted_growth(self):
        fit = fit_domination(self.synthetic_records(0.5, np.random.default_rng(1)))
        assert fit.slope == pytest.approx(0.5, abs=0.05)
        assert not fit.passed

    def test_needs_three_sizes(self):
        assert fit_domination([DevRecord(64, 0, 0j, 0.1, 1.0)]) is None

    def test_stats_skip_flagged_devs(self):
        # the count holds every record of a size; max and quantile only the
        # finite devs, NaN when none is left
        records = [DevRecord(16, t, 0j, 0.1, dev) for t, dev in enumerate([1.0, math.nan, 3.0])]
        records.append(DevRecord(8, 0, 0j, 0.1, math.nan))
        stats = domination_stats(records)
        assert list(stats) == [8, 16]
        assert stats[16] == (3, 3.0, pytest.approx(2.9))
        count, mx, q = stats[8]
        assert count == 1 and math.isnan(mx) and math.isnan(q)


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
        (lhs,) = linear_statistic_lhs(X, [(w0, 0.0, radius)])
        assert lhs == pytest.approx(direct, abs=1e-14)

    def test_lhs_matches_girko_quadrature(self, two_point):
        e = models.SingleRingEnsemble.from_measure(two_point, 32, "unitary", seed=30)
        X = models.sample_X(e, linalg.child_rng(30))
        tests = [(1.4 + 0j, 0.0, 0.5), (1.4 + 0j, 0.25, 0.8)]
        for (_, alpha, radius), direct in zip(tests, linear_statistic_lhs(X, tests)):
            assert direct > 0
            assert girko_statistic(X, 1.4 + 0j, alpha, radius, 128) == pytest.approx(
                direct, abs=1e-4
            )

    def test_lhs_vanishes_off_spectrum(self):
        X = np.diag([0.2 + 0j, 0.3 + 0.1j])
        (val,) = linear_statistic_lhs(X, [(5.0 + 0j, 0.0, 0.5)])
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
        scales = ((0.0, 0.5), (0.25, 0.8), (0.45, 2.0))
        tests = [(w0, a, r) for w0 in (1.4 + 0j, 1.4j) for a, r in scales]
        got, lhs_c = linear_statistic_lhs(X, tests), linear_statistic_lhs(Xc, tests)
        assert np.all(np.abs(got - lhs_c) <= 1e-12 * np.abs(lhs_c))

    def test_lhs_rejects_bad_alpha(self):
        for bad in ((0.0, 0.6, 0.5), (0.0, 0.0, 0.0), (0.0, 0.25, -0.5)):
            with pytest.raises(ValueError, match="alpha in"):
                linear_statistic_lhs(np.eye(2, dtype=complex), [(0.0, 0.0, 0.5), bad])

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
        ensembles = [
            models.SingleRingEnsemble.from_measure(two_point, n, "unitary", seed=21)
            for n in (32, 48)
        ]
        etas = dyadic_etas(0.2, 1.0)
        scans = [
            local_law_scan(e, [1.4 + 0j], etas, 2, (i,), threads) for i, e in enumerate(ensembles)
        ]
        records = [r for recs, _ in scans for r in recs]
        splits = [s for _, ss in scans for s in ss]
        assert len(records) == 2 * 2 * len(etas)
        assert all(np.isfinite(r.dev) and r.dev < 50 for r in records)
        assert list(domination_stats(records)) == [32, 48]
        assert len(splits) == 2 * 2
        for s in splits:
            assert s.lambda1 > 0
            assert s.small_eta_integral >= 0

    def test_failed_reference_solve_flags_its_nodes(self, two_point, monkeypatch):
        e = models.SingleRingEnsemble.from_measure(two_point, 24, "unitary", seed=31)
        solve = freeconv.solve_delta_conv

        def failing(mu, r, z, *args, **kwargs):
            if z.imag == 0.25:
                raise freeconv.ConvergenceError("injected")
            return solve(mu, r, z, *args, **kwargs)

        monkeypatch.setattr(freeconv, "solve_delta_conv", failing)
        with pytest.warns(RuntimeWarning, match="reference solve failed"):
            records, _ = local_law_scan(e, [1.4 + 0j], [0.5, 0.25], 2, (0,))
        assert len(records) == 2 * 2
        bad = flagged(records)
        assert [(r.trial, r.eta) for r in bad] == [(0, 0.25), (1, 0.25)]
        assert all(math.isnan(r.dev) for r in bad)
        others = [r for r in records if r.eta != 0.25]
        assert len(others) == 2 and all(np.isfinite(r.dev) for r in others)

    def test_thread_count_invariance(self, two_point):
        e = models.SingleRingEnsemble.from_measure(two_point, 24, "unitary", seed=22)
        a, _ = local_law_scan(e, [1.4 + 0j], [0.5], 3, (0,), threads=1)
        b, _ = local_law_scan(e, [1.4 + 0j], [0.5], 3, (0,), threads=3)
        assert [(r.N, r.trial, r.eta, r.dev) for r in a] == [
            (r.N, r.trial, r.eta, r.dev) for r in b
        ]


class TestLinearStatisticGap:
    def test_gap_records(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 48, "unitary", seed=23)
        recs = linear_statistic_gap(
            e, [(1.4 + 0j, 0.25, 0.5)], trials=2, path=(), threads=threads
        )
        assert len(recs) == 2
        for r in recs:
            assert np.isfinite(r.gap_norm)
            assert r.rhs == recs[0].rhs  # deterministic side shared

    def test_one_eigvals_call_per_batch(self, two_point, monkeypatch):
        # 14 trials at N = 40 are the batches of 13 and 1 trials; every test,
        # at either w0, reads the spectra of one eigvals call per batch
        e = models.SingleRingEnsemble.from_measure(two_point, 40, "unitary", seed=38)
        eigvals, stacks = np.linalg.eigvals, []

        def counted(X):
            stacks.append(X.shape)
            return eigvals(X)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        scales = ((0.0, 0.1), (0.25, 0.5), (0.45, 2.0))
        tests = [(w0, a, r) for w0 in (1.4 + 0j, 1.4j) for a, r in scales]
        recs = linear_statistic_gap(e, tests, trials=14, path=())
        assert stacks == [(13, 40, 40), (1, 40, 40)]
        assert [(r.w0, r.alpha, r.trial) for r in recs] == [
            (w0, a, t) for w0, a, _ in tests for t in range(14)
        ]


class TestSmallestSvTail:
    def test_tail_shape(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 32, "unitary", seed=24)
        records, fit = smallest_sv_tail(
            e, 1.4 + 0j, t_grid=None, trials=60, path=(), threads=threads
        )
        lambda1 = np.array([r.lambda1 for r in records[:: len(fit["t_grid"])]])
        assert len(lambda1) == 60
        assert fit["monotone"]
        probs = np.array(fit["tail_probability"])
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.mean(lambda1 * 1.4 <= fit["t_grid"][-1] * 10) == 1.0
        big_t = np.array([100.0])
        assert np.mean(lambda1 * 1.4 <= big_t[0]) == 1.0

    # the given grid holds t at which no sample or resample has a tail in (0, 1)
    @pytest.mark.parametrize("n,trials,t_grid", [
        (32, 60, None), (16, 7, None), (32, 80, [-1.0, 0.0, 0.03, 0.05, 0.1, 0.15, 50.0]),
    ])
    def test_fit_matches_polyfit_oracle(self, two_point, n, trials, t_grid):
        e = models.SingleRingEnsemble.from_measure(two_point, n, "unitary", seed=40)
        records, fit = smallest_sv_tail(e, 1.4 + 0j, t_grid, trials, path=())
        lam = [r.lambda1 for r in records[:: len(fit["t_grid"])]]
        oracle = polyfit_tail_fit(lam, 1.4 + 0j, t_grid, e.seed)
        for key in ("monotone", "t_grid", "tail_probability"):
            assert fit[key] == oracle[key]
        assert fit["slope"] == pytest.approx(oracle["slope"], rel=1e-12)
        assert fit["slope_ci"] == pytest.approx(oracle["slope_ci"], rel=1e-12)

    def test_orthogonal_identity_rejected(self):
        e = models.SingleRingEnsemble(np.ones(8), 8, "orthogonal", seed=25)
        with pytest.raises(ValueError, match="identity"):
            smallest_sv_tail(e, 1.0, t_grid=None, trials=2, path=())

    def test_w_whose_square_overflows_rejected(self, two_point):
        # lambda_1 nears |w|, and lambda_1 |w| would overflow
        e = models.SingleRingEnsemble.from_measure(two_point, 8, "unitary", seed=25)
        with pytest.raises(ValueError, match=r"need \|w\| <= 1.34078e\+154, got 1e\+200"):
            smallest_sv_tail(e, 1e200j, t_grid=None, trials=2, path=())


class TestBlockScan:
    def test_degenerate_xi_zero_is_exact(self):
        e = models.BlockAdditiveEnsemble(np.ones(24), np.zeros(24), 24, "unitary", seed=26)
        records = block_local_law_scan(e, [0.0], [0.5, 0.25], 2, (0,))
        assert max(r.dev for r in records) < 1e-10

    def test_arcsine_reference(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(48), np.ones(48), 48, "unitary", seed=27)
        records = block_local_law_scan(e, [0.0], dyadic_etas(0.1, 1.0), 3, (0,), threads=threads)
        assert all(np.isfinite(r.dev) and r.dev < 50 for r in records)

    def test_failed_reference_solve_flags_its_nodes(self, monkeypatch):
        e = models.BlockAdditiveEnsemble(np.ones(24), np.ones(24), 24, "unitary", seed=30)
        solve = freeconv.solve_phi_system

        def failing(mu1, mu2, z, *args, **kwargs):
            if z.imag == 0.25:
                raise freeconv.ConvergenceError("injected")
            return solve(mu1, mu2, z, *args, **kwargs)

        monkeypatch.setattr(freeconv, "solve_phi_system", failing)
        with pytest.warns(RuntimeWarning, match="reference solve failed"):
            records = block_local_law_scan(e, [0.0], [0.5, 0.25], 2, (0,))
        assert len(records) == 2 * 2
        bad = flagged(records)
        assert [(r.trial, r.eta) for r in bad] == [(0, 0.25), (1, 0.25)]
        assert all(math.isnan(r.dev) for r in bad)
        others = [r for r in records if r.eta != 0.25]
        assert len(others) == 2 and all(np.isfinite(r.dev) for r in others)

    def test_bulk_check_rejects_gap(self):
        e = models.BlockAdditiveEnsemble(np.ones(16), np.zeros(16), 16, "unitary", seed=28)
        with pytest.raises(ValueError, match="bulk"):
            block_energies(e, (0.0, 0.0), 1)


class TestGreenSubordination:
    def test_small_scan(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(48), np.ones(48), 48, "unitary", seed=29)
        recs = green_subordination_scan(
            e, [0.25j], bulk_window=(-0.5, 0.5), trials=3, path=(), threads=threads
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
                e, [0.5j, 0.25j], bulk_window=(-0.5, 0.5), trials=2, path=()
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


def local_law_oracle(ensembles, ws, etas, trials):
    recs, splits = [], []
    for ni, ens in enumerate(ensembles):
        N = ens.N
        mu_sym = measure.symmetrize(models.uniform_measure(ens.sigma_diag))
        eta_star = float(N) ** (-locallaw.SPLIT_EXPONENT)
        for trial in range(trials):
            X = sample_X(ens, ni, trial)
            for w in ws:
                s = models.svd(X, w)
                small = float(np.mean(0.5 * np.log1p(eta_star**2 / s**2)))
                splits.append(SplitRecord(N, trial, complex(w), eta_star, small, float(np.min(s))))
                for eta in etas:
                    m_ref = freeconv.solve_delta_conv(mu_sym, abs(w), 1j * eta).m
                    m = complex(np.mean(1j * eta / (s * s + eta * eta)))
                    dev = N * eta * abs(m - m_ref)
                    recs.append(DevRecord(N, trial, complex(w), eta, dev))
    return recs, splits


def gap_oracle(e, tests, trials):
    """One sample and one spectrum per (test, trial), the tests in turn."""
    out = []
    for w0, alpha, radius in tests:
        rhs = linear_statistic_rhs(models.uniform_measure(e.sigma_diag), w0, alpha, radius, n=e.N)
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


def block_oracle(e, E, etas, trials):
    mu_a, mu_b = (measure.symmetrize(models.uniform_measure(d)) for d in (e.xi_diag, e.sigma_diag))
    recs = []
    for trial in range(trials):
        s = models.svd(sample_Y(e, 0, trial))
        for eta in etas:
            z = complex(E, eta)
            m_ref = freeconv.solve_phi_system(mu_a, mu_b, z).m
            m_H = complex(np.mean(z / (s * s - z * z)))
            recs.append(BlockRecord(e.N, trial, E, eta, e.N * eta * (1.0 + eta) * abs(m_H - m_ref)))
    return recs


def green_oracle(e, z, trials, window):
    mu_a, mu_b = (measure.symmetrize(models.uniform_measure(d)) for d in (e.xi_diag, e.sigma_diag))
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
        ensembles = [
            models.SingleRingEnsemble.from_measure(two_point, n, "unitary", seed=33)
            for n in (40, 100)
        ]
        ws, etas = [1.4 + 0j, 1.4j], [0.5, 0.1]
        scans = [
            local_law_scan(e, ws, etas, self.TRIALS, (i,), threads) for i, e in enumerate(ensembles)
        ]
        oracle = local_law_oracle(ensembles, ws, etas, self.TRIALS)
        assert [r for recs, _ in scans for r in recs] == oracle[0]
        assert [s for _, splits in scans for s in splits] == oracle[1]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_linear_statistic_gap(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 40, "unitary", seed=34)
        tests = [(1.4 + 0j, 0.0, 0.3), (1.4j, 0.25, 0.5)]
        recs = linear_statistic_gap(e, tests, self.TRIALS, path=(), threads=threads)
        assert recs == gap_oracle(e, tests, self.TRIALS)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_smallest_sv_tail(self, two_point, threads):
        e = models.SingleRingEnsemble.from_measure(two_point, 40, "unitary", seed=35)
        records, fit = smallest_sv_tail(
            e, 1.4 + 0j, t_grid=None, trials=self.TRIALS, path=(), threads=threads
        )
        oracle = [float(np.min(models.svd(sample_X(e, t), 1.4 + 0j))) for t in range(14)]
        assert [r.lambda1 for r in records[:: len(fit["t_grid"])]] == oracle

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_block_local_law_scan(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(40), np.ones(40), 40, "unitary", seed=36)
        records = block_local_law_scan(e, [0.0], [0.5, 0.1], self.TRIALS, (0,), threads=threads)
        assert records == block_oracle(e, 0.0, [0.5, 0.1], self.TRIALS)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_green_subordination_scan(self, threads):
        e = models.BlockAdditiveEnsemble(np.ones(40), np.ones(40), 40, "unitary", seed=37)
        window = (-0.5, 0.5)
        recs = green_subordination_scan(
            e, [0.25j], bulk_window=window, trials=self.TRIALS, path=(), threads=threads
        )
        assert recs == green_oracle(e, 0.25j, self.TRIALS, window)
