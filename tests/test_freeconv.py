import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levy import levy_distance
from oracles import boundary_density, extrapolate_density, neg_recip_stieltjes
from singlering.freeconv import (
    ConvergenceError,
    bulk_bound_certificate,
    solve_delta_conv,
    solve_phi_system,
)
from singlering.measure import (
    DiscreteMeasure,
    MeasureError,
    stieltjes,
    symmetrize,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def arcsine_m(z):
    """Transform of the two-fold free convolution of the +-1 two-point law.

    Branch fixed so that the map sends the upper half-plane into itself.
    """
    return -1.0 / (np.sqrt(complex(z) - 2.0) * np.sqrt(complex(z) + 2.0))


def random_symmetric_measure(rng, max_atoms=4):
    n = rng.integers(2, max_atoms + 1)
    pos = np.sort(rng.uniform(0.2, 3.0, size=n))
    pos += np.arange(n) * 1e-3
    w = rng.uniform(0.2, 1.0, size=n)
    return symmetrize(DiscreteMeasure(pos, w / w.sum()))


class TestSolvePhiSystem:
    def test_golden_ratio_point(self, bernoulli):
        st_ = solve_phi_system(bernoulli, bernoulli, 1j)
        assert st_.omega2 == pytest.approx(GOLDEN * 1j, abs=1e-10)
        assert st_.omega1 == pytest.approx(GOLDEN * 1j, abs=1e-10)
        assert st_.m == pytest.approx(1j / math.sqrt(5.0), abs=1e-10)
        assert st_.residual <= 1e-12

    def test_arcsine_oracle_across_bulk(self, bernoulli):
        for z in (0.5 + 0.01j, -1.5 + 0.002j, 1.9 + 1j, 0.1j, 3.0 + 0.5j):
            st_ = solve_phi_system(bernoulli, bernoulli, z)
            assert st_.m == pytest.approx(arcsine_m(z), abs=1e-10)

    def test_residual_contract_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu1 = random_symmetric_measure(rng)
            mu2 = random_symmetric_measure(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 5.0))
            st_ = solve_phi_system(mu1, mu2, z)
            assert st_.residual <= 1e-12
            assert st_.omega1.imag >= z.imag - 1e-12
            assert st_.omega2.imag >= z.imag - 1e-12

    def test_large_eta_asymptotics(self, bernoulli, two_point_sym):
        # omega1 - z = F1(omega2) - omega2 ~ -m2(mu1)/(i eta) and conversely,
        # so each gap is controlled by the measure the other omega feeds;
        # both omegas satisfy omega/(i eta) -> 1
        for eta in (50.0, 200.0):
            st_ = solve_phi_system(bernoulli, two_point_sym, 1j * eta)
            assert abs(st_.omega1 / (1j * eta) - 1.0) < 2.0 / eta**2
            assert abs(st_.omega2 / (1j * eta) - 1.0) < 2.0 * 2.5 / eta**2
            assert abs(st_.omega1 - 1j * eta) <= 1.0 / eta + 1e-4
            assert abs(st_.omega2 - 1j * eta) <= 2.5 / eta + 1e-4

    def test_axis_symmetry(self, bernoulli, two_point_sym):
        for eta in (0.01, 0.3, 2.0):
            st_ = solve_phi_system(bernoulli, two_point_sym, 1j * eta)
            assert abs(st_.omega1.real) < 1e-12
            assert abs(st_.omega2.real) < 1e-12
            assert abs(st_.m.real) < 1e-12

    def test_point_mass_is_an_exact_shift(self, bernoulli, two_point):
        # mu [+] delta_a has m(z) = m_mu(z - a), on either side of the pair
        for other, a in ((bernoulli, 0.0), (two_point, 0.7), (two_point, -1.3)):
            delta = DiscreteMeasure(np.array([a]), np.array([1.0]))
            for z in (1j, 0.3 + 0.2j):
                for mu1, mu2 in ((delta, other), (other, delta)):
                    st_ = solve_phi_system(mu1, mu2, z)
                    assert st_.m == stieltjes(other, z - a)
                    assert st_.iterations == 0
                    w1, w2 = st_.omega1, st_.omega2
                    eqs = (
                        neg_recip_stieltjes(mu1, w2) - w1 - w2 + z,
                        neg_recip_stieltjes(mu2, w1) - w1 - w2 + z,
                    )
                    assert max(abs(e) for e in eqs) <= 1e-12
                    assert st_.residual <= 1e-12

    def test_real_z_rejected(self, bernoulli):
        with pytest.raises(ValueError):
            solve_phi_system(bernoulli, bernoulli, 0.5)


class TestSolveDeltaConv:
    def test_golden_ratio(self, bernoulli):
        st_ = solve_delta_conv(bernoulli, 1.0, 1j)
        assert st_.omega2 == pytest.approx(GOLDEN * 1j, abs=1e-10)
        assert st_.m == pytest.approx(1j / math.sqrt(5.0), abs=1e-10)

    def test_boundary_value_two_point(self, two_point_sym):
        st_ = solve_delta_conv(two_point_sym, 1.4, 0.0)
        assert st_.omega2.imag == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-10)
        # m(0) = i y/(y^2 + r^2)
        y = math.sqrt(5.0 / 3.0)
        assert st_.m == pytest.approx(1j * y / (y * y + 1.96), abs=1e-10)

    def test_trivial_upper_bound(self, two_point_sym):
        for r in (1.3, 1.4, 1.5):
            for eta in 10.0 ** np.arange(-6, 3.0):
                st_ = solve_delta_conv(two_point_sym, r, 1j * eta)
                assert abs(st_.omega2 - 1j * eta) <= r * r / eta * (1 + 1e-12)

    def test_agrees_with_generic_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mu1 = random_symmetric_measure(rng)
            r = rng.uniform(0.3, 2.5)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 5.0))
            delta_sym = DiscreteMeasure(np.array([-r, r]), np.array([0.5, 0.5]))
            a = solve_delta_conv(mu1, r, z)
            b = solve_phi_system(mu1, delta_sym, z)
            assert a.omega2 == pytest.approx(b.omega2, abs=1e-9)
            assert a.m == pytest.approx(b.m, abs=1e-9)

    def test_eta_monotonicity(self, two_point_sym):
        # eta (Im omega2(i eta) - eta) is nondecreasing in eta
        etas = np.logspace(-4, 1, 40)
        vals = [
            eta * (solve_delta_conv(two_point_sym, 1.4, 1j * eta).omega2.imag - eta)
            for eta in etas
        ]
        assert np.all(np.diff(vals) >= -1e-10)

    def test_levy_continuity(self, two_point_sym):
        # perturbing mu1 by Levy distance delta moves omega2 by O(delta)
        etas = [0.1, 0.5, 1.0]
        base = [solve_delta_conv(two_point_sym, 1.4, 1j * e).omega2 for e in etas]
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            shifted = DiscreteMeasure(
                two_point_sym.atoms + delta * np.sign(two_point_sym.atoms),
                two_point_sym.weights,
            )
            d = levy_distance(two_point_sym, shifted)
            assert d == pytest.approx(delta, rel=0.2)
            moved = [solve_delta_conv(shifted, 1.4, 1j * e).omega2 for e in etas]
            ratios.append(max(abs(a - b) for a, b in zip(base, moved)) / delta)
        assert max(ratios) < 50.0
        # slope of the response in log-log is ~1 (first-order continuity)
        slope = np.polyfit(
            np.log([1e-2, 1e-3, 1e-4]), np.log([r * d for r, d in zip(ratios, [1e-2, 1e-3, 1e-4])]), 1
        )[0]
        assert 0.8 < slope < 1.2

    def test_rejects_bad_inputs(self, bernoulli, two_point):
        with pytest.raises(ValueError):
            solve_delta_conv(bernoulli, -1.0, 1j)
        with pytest.raises(MeasureError):
            solve_delta_conv(two_point, 1.0, 1j)  # asymmetric
        with pytest.raises(ValueError):
            solve_delta_conv(bernoulli, 1.0, 1.0 + 0j)  # boundary off axis


class TestBoundaryDensity:
    ETAS = tuple(0.1 * 0.5**k for k in range(6))

    def test_arcsine_value(self, bernoulli):
        est = boundary_density(bernoulli, bernoulli, 0.0, self.ETAS)
        assert est.value == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)
        assert est.reliable

    def test_two_point_delta_value(self, two_point_sym):
        delta = DiscreteMeasure(np.array([-1.4, 1.4]), np.array([0.5, 0.5]))
        est = boundary_density(two_point_sym, delta, 0.0, self.ETAS)
        y = math.sqrt(5.0 / 3.0)
        assert est.value == pytest.approx(y / (y * y + 1.96) / math.pi, abs=1e-9)

    def test_outside_support(self, bernoulli):
        est = boundary_density(bernoulli, bernoulli, 5.0, self.ETAS)
        assert abs(est.value) < 1e-8

    def test_rejects_nonmonotone_eta(self, bernoulli):
        with pytest.raises(ValueError):
            boundary_density(bernoulli, bernoulli, 0.0, [0.1, 0.2])

    def test_unreliable_flagged_on_noisy_values(self):
        etas = np.array([0.1, 0.05, 0.025, 0.0125])
        vals = [0.3, 0.1, 0.4, 0.2]  # no coherent limit
        est = extrapolate_density(etas, vals)
        assert not est.reliable


class TestCertificate:
    def test_two_point_r14_exact_values(self, two_point_sym):
        rep = bulk_bound_certificate(two_point_sym, 1.4)
        assert rep.sigma_minus == pytest.approx(math.sqrt(0.4), abs=1e-10)
        assert rep.sigma_plus == pytest.approx(math.sqrt(2.5 / 0.54), abs=1e-10)
        assert rep.s_minus == pytest.approx(math.sqrt(2.5), abs=1e-10)
        assert rep.a_minus == pytest.approx(0.36, abs=1e-10)
        assert rep.t_minus == pytest.approx(1.0, abs=1e-10)
        assert rep.b_minus == pytest.approx(0.36 / 1.96, abs=1e-10)
        assert rep.omega_hat_abs == pytest.approx(1.0, abs=1e-10)
        assert rep.im_omega2_zero == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-8)
        assert rep.im_omega2_zero > (math.sqrt(3.0) / 2.0) * rep.sigma_minus * rep.s_minus
        assert rep.im_omega2_zero_extrapolated == pytest.approx(
            rep.im_omega2_zero, abs=1e-7
        )

    def test_flags_and_grid(self, two_point_sym):
        rep = bulk_bound_certificate(two_point_sym, 1.4, eta_max=10.0, grid=64)
        assert rep.lower_ok and rep.upper_ok and rep.zero_bound_ok
        assert len(rep.eta_grid) == 64
        assert rep.eta_grid[0] == 10.0
        assert all(m >= -1e-12 for m in rep.upper_margins)

    def test_invariant_ranges(self, two_point_sym):
        for r in (1.3, 1.45, 1.55):
            rep = bulk_bound_certificate(two_point_sym, r, grid=16)
            assert 0.0 < rep.sigma_minus < 1.0
            assert rep.sigma_plus > 1.0
            assert 0.0 < rep.s_minus <= rep.s_plus
            assert 0.0 < rep.b_minus <= 1.0
            assert rep.omega_hat_abs >= rep.t_minus - 1e-12
            lo = 0.75 * (r * r - rep.r_minus**2) / rep.s_plus**2
            hi = (rep.r_plus**2 - rep.r_minus**2) / rep.s_minus**2
            assert lo - 1e-12 <= rep.a_minus <= hi + 1e-12

    def test_boundary_radius_rejected(self, two_point_sym):
        r_plus = math.sqrt(2.5)
        with pytest.raises(ValueError, match="open ring"):
            bulk_bound_certificate(two_point_sym, r_plus)
        with pytest.raises(ValueError, match="open ring"):
            bulk_bound_certificate(two_point_sym, 0.5)

    def test_needs_three_support_points(self, bernoulli):
        with pytest.raises(MeasureError):
            bulk_bound_certificate(bernoulli, 1.0)

    def test_json_serializable(self, two_point_sym):
        rep = bulk_bound_certificate(two_point_sym, 1.4, grid=8)
        blob = json.dumps(asdict(rep))
        back = json.loads(blob)
        assert back["s_minus"] == rep.s_minus
        assert len(back["upper_margins"]) == 8
