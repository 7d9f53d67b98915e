import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levy import levy_distance
from oracles import (
    axis_m_decimal,
    boundary_density,
    delta_axis_gap,
    extrapolate_density,
    im_omega2_zero_extrapolated,
    neg_recip_stieltjes,
    nevanlinna_rep,
)
from singlering import freeconv, models, ringlaw
from singlering.freeconv import (
    TOL,
    ConvergenceError,
    _solve_pair,
    bulk_bound_certificate,
    solve_delta_conv,
    solve_phi_system,
)
from singlering.locallaw import BULK_DENSITY_MIN, _block_reference, dyadic_etas
from singlering.measure import (
    DiscreteMeasure,
    MeasureError,
    reference_measure,
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


def random_signed_measure(rng, max_atoms=6):
    """Atoms of either sign with |x| over two decades; one at 0 in 10% of draws."""
    n = rng.integers(2, max_atoms + 1)
    atoms = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    if rng.random() < 0.1:
        atoms[0] = 0.0
    w = rng.uniform(0.05, 1.0, size=n)
    return DiscreteMeasure.from_points(atoms, w / w.sum())


def gapped_axis_pairs(n=300):
    """The seeded symmetric pairs of the axis grid: 2 atoms in (0.05, 3) against
    5 in (0.3, 10), each side with Dirichlet(1) weights; many convolutions have a gap at 0."""
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(n):
        a1, w1 = np.sort(rng.uniform(0.05, 3.0, 2)), rng.dirichlet(np.ones(2))
        a2, w2 = np.sort(rng.uniform(0.3, 10.0, 5)), rng.dirichlet(np.ones(5))
        pairs.append((symmetrize(DiscreteMeasure(a1, w1)), symmetrize(DiscreteMeasure(a2, w2))))
    return pairs


AXIS_ETAS = tuple(10.0**k for k in range(3, -13, -1)) + (1e-50, 1e-100, 1e-150)


def ring_radii(mu_sym):
    """(r_minus, r_plus) of a symmetric measure without an atom at 0."""
    r_minus = 1.0 / math.sqrt(np.sum(mu_sym.weights / mu_sym.atoms**2))
    return r_minus, math.sqrt(mu_sym.second_moment())


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
        def check(mu1, mu2, z):
            st_ = solve_phi_system(mu1, mu2, z)
            assert st_.residual <= TOL * max(1.0, abs(st_.omega1), abs(st_.omega2))
            assert st_.omega1.imag >= z.imag and st_.omega2.imag >= z.imag

        rng = np.random.default_rng(7)
        for _ in range(50):
            mu1 = random_symmetric_measure(rng)
            mu2 = random_symmetric_measure(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 5.0))
            st_ = solve_phi_system(mu1, mu2, z)
            assert st_.residual <= 1e-12
            assert st_.omega1.imag >= z.imag - 1e-12
            assert st_.omega2.imag >= z.imag - 1e-12
        # asymmetric pairs with atoms over two decades, one at 0 in 10% of
        # draws, at z = E + i eta with eta/scale from 1e-9 to 1e3
        for _ in range(400):
            mu1, mu2 = (random_signed_measure(rng) for _ in range(2))
            scale = math.sqrt(mu1.second_moment() + mu2.second_moment())
            for _ in range(4):
                eta = scale * 10.0 ** rng.uniform(-9.0, 3.0)
                check(mu1, mu2, complex(scale * rng.uniform(-2.0, 2.0), eta))
        # the block model's gapped pair, quantized to N, on its energy and eta grids
        for N in (128, 256, 512):
            sigma = models.sigma_from_measure(reference_measure("two_point", a=1.0, b=2.0), N)
            xi = models.sigma_from_measure(reference_measure("uniform", n_atoms=64), N)
            mu_a, mu_b = _block_reference(models.BlockAdditiveEnsemble(sigma, xi, N))
            for E in (0.5, 1.0, 1.5, 2.0, 2.5):
                for eta in dyadic_etas(N**-0.9, 1.0):
                    check(mu_a, mu_b, complex(E, eta))

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

    def test_im_z_whose_square_overflows_rejected(self, bernoulli, two_point_sym):
        # every route squares Im z; past sqrt(max float) it would divide by 0 or overflow
        for solve in (lambda z: solve_phi_system(two_point_sym, bernoulli, 1.0 + z),
                      lambda z: solve_phi_system(two_point_sym, bernoulli, z),
                      lambda z: solve_delta_conv(two_point_sym, 1.4, z)):
            with pytest.raises(ValueError, match=r"need Im z <= 1.34078e\+154, got 1e\+155"):
                solve(1e155j)
            with pytest.raises(ValueError, match="got nan"):
                solve(complex(0.0, math.nan))
            st_ = solve(1e154j)
            assert st_.residual <= TOL * max(1.0, abs(st_.omega1), abs(st_.omega2))

    def test_fixed_point_step_rescues_a_newton_stall(self):
        # off the axis near the real line, Newton steps alone stall in a
        # residual valley at residual 4e-1; the plain step of the self-map K,
        # which _solve_pair takes wherever Newton does not lower |phi|, leads
        # out of it to the unique fixed point
        mu1 = symmetrize(reference_measure("two_point", a=1.0, b=2.0))
        mu2 = symmetrize(reference_measure("two_point", a=0.1, b=3.0, p=0.2))
        st_ = solve_phi_system(mu1, mu2, 1.25 + 0.01j)
        assert st_.residual <= TOL * max(1.0, abs(st_.omega1), abs(st_.omega2))
        m_ref = -0.10214125739737955 + 0.015677604409107863j  # the damped engine's m
        assert abs(st_.m - m_ref) <= 1e-10 * abs(m_ref)

    def test_one_transform_pass_per_trial_point(self, monkeypatch, bernoulli, two_point_sym):
        # each step evaluates F1 and F2 (with F') once at the Newton trial point
        # and once more at the fixed-point step that may replace it
        calls = []
        F = freeconv._F
        monkeypatch.setattr(freeconv, "_F", lambda mu, w: calls.append(w) or F(mu, w))
        stall = [symmetrize(reference_measure("two_point", a=1.0, b=2.0)),
                 symmetrize(reference_measure("two_point", a=0.1, b=3.0, p=0.2))]
        for mu1, mu2, z in ((*stall, 1.25 + 0.01j), (bernoulli, two_point_sym, 0.5 + 0.1j)):
            calls.clear()
            st_ = solve_phi_system(mu1, mu2, z)
            assert st_.iterations > 0
            assert 0 < len(calls) <= 4 * st_.iterations + 4


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

    def test_gap_matches_oracle(self):
        # the shared axis route against the monotone gap equation of delta_r^sym;
        # the root's slope goes like r^2/r_plus^2 - 1, so rings narrower than 5%
        # of r_plus amplify rounding in both routes past the tolerance
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            mu1 = random_symmetric_measure(rng)
            r_minus, r_plus = ring_radii(mu1)
            if r_plus - r_minus < 0.05 * r_plus:
                continue
            r = rng.uniform(r_minus, r_plus)
            eta = 10.0 ** rng.uniform(-6.0, 1.0)
            want = delta_axis_gap(mu1, r, eta)
            got = solve_delta_conv(mu1, r, 1j * eta).omega2.imag - eta
            assert abs(got - want) <= 1e-10 * want
            checked += 1

    def test_boundary_value_matches_ring_law(self):
        # Im omega2(i0) = y(r)^(-1/2), with y(r) the ring law's q(y) = r^2
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 500:
            mu1 = random_symmetric_measure(rng)
            r_minus, r_plus = ring_radii(mu1)
            if r_plus - r_minus < 0.05 * r_plus:
                continue
            r = r_minus + (r_plus - r_minus) * rng.uniform(0.05, 0.95)
            want = ringlaw._inverse_radius(mu1.weights, mu1.atoms**2, r) ** -0.5
            got = solve_delta_conv(mu1, r, 0.0).omega2.imag
            assert abs(got - want) <= 1e-9 * want
            checked += 1

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
        for r in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_delta_conv(bernoulli, r, 1j)
        with pytest.raises(MeasureError):
            solve_delta_conv(two_point, 1.0, 1j)  # asymmetric
        with pytest.raises(ValueError):
            solve_delta_conv(bernoulli, 1.0, 1.0 + 0j)  # boundary off axis


class TestAxisRoute:
    """The symmetric axis route in the gap d, for delta_r^sym and for generic pairs."""

    def test_seeded_stress_has_no_convergence_error(self):
        # narrow rings, atoms at 0 and r near either ring edge included
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            n = rng.integers(2, 7)
            pos = np.sort(rng.uniform(0.0, 3.0, size=n)) + np.arange(n) * 1e-3
            if rng.random() < 0.1:
                pos[0] = 0.0
            w = rng.uniform(0.05, 1.0, size=n)
            mu1 = symmetrize(DiscreteMeasure(pos, w / w.sum()))
            r_minus_sq = 0.0 if pos[0] == 0.0 else 1.0 / np.sum(mu1.weights / mu1.atoms**2)
            r = math.sqrt(r_minus_sq + (mu1.second_moment() - r_minus_sq) * rng.random())
            if not r_minus_sq < r * r < mu1.second_moment():
                continue
            eta = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-6.0, 1.0)
            st_ = solve_delta_conv(mu1, r, 1j * eta)
            assert st_.omega2.imag > eta and st_.omega1.imag >= eta
            assert st_.residual <= 1e-12 * max(1.0, abs(st_.omega1), abs(st_.omega2))

    def test_axis_state_meets_the_tolerance_without_the_engine(self, monkeypatch):
        # at r far below the ring and tiny eta, |omega1| = 6.5e6: summed in complex
        # arithmetic, F's real part rounds to eps-size and the residual misses the
        # tolerance; the state built from the root in real arithmetic meets it alone
        mu1 = symmetrize(reference_measure("quarter_circle", n_atoms=8))
        engine = []
        monkeypatch.setattr(freeconv, "_solve_pair", lambda *args: engine.append(args))
        st_ = solve_delta_conv(mu1, 1e-4, 1e-8j)
        assert not engine
        assert st_.residual <= TOL * max(1.0, abs(st_.omega1), abs(st_.omega2))
        assert st_.omega1.real == st_.omega2.real == st_.m.real == 0.0

    def test_gapped_grid_is_exact_on_the_axis(self):
        # 5,700 solves, many in a spectral gap at 0, where Newton from a
        # complex-arithmetic state stalled or left the axis, and where a bracket
        # search capped at 200 steps stopped short of the root at eta <= 1e-100
        for mu1, mu2 in gapped_axis_pairs():
            for eta in AXIS_ETAS:
                st_ = solve_phi_system(mu1, mu2, 1j * eta)
                assert st_.omega1.real == st_.omega2.real == st_.m.real == 0.0
                assert st_.omega2.imag > eta and st_.omega1.imag >= eta
                assert st_.residual <= TOL * max(1.0, abs(st_.omega1), abs(st_.omega2))

    # (pair index, eta) on the grid where Newton from the complex state stalled
    # (first two rows), returned an m more than 1e-8 off (next two rows) or where
    # a bracket search capped at 200 steps found no sign change (last row)
    GAPPED_SAMPLE = (
        (0, 1e-12), (30, 1e-09), (62, 1e-11), (82, 1e-11), (108, 1e-12), (128, 1e-05),
        (148, 1e-07), (173, 1e-08), (204, 1e-08), (233, 1e-10), (254, 1e-09), (277, 1e-07),
        (0, 1e-06), (24, 1e-06), (45, 1e-12), (73, 1e-06), (98, 1e-06), (125, 1e-05),
        (154, 1e-10), (180, 1e-12), (204, 1e-06), (230, 1e-05), (251, 1e-12), (276, 1e-09),
        (49, 1e-100), (151, 1e-100), (238, 1e-100), (2, 1e-150), (113, 1e-150), (297, 1e-150),
    )

    def test_m_matches_the_decimal_oracle_in_a_gap(self):
        pairs = gapped_axis_pairs(max(i for i, _ in self.GAPPED_SAMPLE) + 1)
        cases = [(*pairs[i], eta) for i, eta in self.GAPPED_SAMPLE]
        # a pair whose axis state had omega2 = 7.0e7 i and a polish that diverged
        mu1 = symmetrize(DiscreteMeasure([0.1767, 2.2838], [0.583, 0.417]))
        mu2 = symmetrize(DiscreteMeasure([0.5124, 2.4161, 4.6963, 8.4398, 9.4562],
                                         [0.0638, 0.2938, 0.1622, 0.3224, 0.1578]))
        cases.append((mu1, mu2, 1.514281824020394e-08))
        for mu1, mu2, eta in cases:
            m = solve_phi_system(mu1, mu2, 1j * eta).m
            assert m.real == 0.0
            assert m.imag == pytest.approx(float(axis_m_decimal(mu1, mu2, eta)), rel=1e-13, abs=0)

    def test_generic_pair_matches_engine_in_bulk(self):
        # with E = 0 in the bulk the safeguarded Newton engine converges from the
        # standard start, so it is an independent route to the same point; it
        # stops at residual 1e-12, which the pair's conditioning amplifies
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            mu1, mu2 = random_symmetric_measure(rng), random_symmetric_measure(rng)
            if solve_phi_system(mu1, mu2, 1e-4j).m.imag / math.pi < BULK_DENSITY_MIN:
                continue
            z = 1j * 10.0 ** rng.uniform(-6.0, 1.0)
            st_ = solve_phi_system(mu1, mu2, z)
            w0 = z + 1j * math.sqrt(mu1.second_moment() + mu2.second_moment())
            pair = _solve_pair(mu1, mu2, z, w0)
            assert abs(st_.omega2 - pair.omega2) <= 1e-8 * abs(pair.omega2)
            assert abs(st_.omega1 - pair.omega1) <= 1e-8 * abs(pair.omega1)
            checked += 1


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
        assert im_omega2_zero_extrapolated(two_point_sym, 1.4) == pytest.approx(
            rep.im_omega2_zero, abs=1e-7
        )

    @pytest.mark.parametrize(
        "atoms, weights, radii_inside",
        [
            ([1.0, 2.0], [0.5, 0.5], (1.3, 1.4, 1.55)),
            ([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], (0.5, 1.0, 1.5)),
            ([0.5, 0.9, 1.4, 2.0], [0.1, 0.4, 0.3, 0.2], (1.0, 1.1, 1.25)),
        ],
    )
    def test_s_minus_and_a_minus_from_the_representing_measure(self, atoms, weights, radii_inside):
        # the certificate's gap zeros and weights are the positive half of mu_tilde
        mu_sym = symmetrize(DiscreteMeasure(np.array(atoms), np.array(weights)))
        _, mu_tilde, r_minus_sq = nevanlinna_rep(mu_sym)
        pos = mu_tilde.atoms > 0
        for r in radii_inside:
            rep = bulk_bound_certificate(mu_sym, r, grid=2)
            assert rep.r_minus**2 == pytest.approx(r_minus_sq, rel=1e-12, abs=1e-300)
            cum = np.cumsum(mu_tilde.weights[pos])
            idx = np.searchsorted(cum, (r * r - r_minus_sq) / 8.0, side="right")
            assert rep.s_minus == mu_tilde.atoms[pos][idx]
            sel = np.abs(mu_tilde.atoms) >= rep.s_minus * (1.0 - 1e-14)
            a_minus = np.sum(mu_tilde.weights[sel] / mu_tilde.atoms[sel] ** 2)
            assert rep.a_minus == pytest.approx(a_minus, rel=1e-13)

    @pytest.mark.parametrize("eta_max", [1e5, 1e8, 1e12])
    def test_passes_at_large_eta_max(self, eta_max):
        # |omega2 - i eta| ~ r^2/eta is read as r^2/|omega1|; subtracting i eta
        # from omega2 = i (eta + d) loses d to rounding and fails the upper bound
        for kind, params, r in (
            ("two_point", {"a": 1.0, "b": 2.0}, 1.4),
            ("quarter_circle", {"n_atoms": 40}, 0.8),
            ("uniform", {"n_atoms": 7, "a": 0.5, "b": 1.5}, 1.0),
        ):
            mu_sym = symmetrize(reference_measure(kind, **params))
            rep = bulk_bound_certificate(mu_sym, r, eta_max=eta_max)
            assert rep.lower_ok and rep.upper_ok and rep.zero_bound_ok

    @pytest.mark.parametrize("eta_max", [0.0, -1.0])
    def test_nonpositive_eta_max_rejected(self, two_point_sym, eta_max):
        with pytest.raises(ValueError, match=f"need eta_max > 0, got {eta_max:g}"):
            bulk_bound_certificate(two_point_sym, 1.4, eta_max=eta_max)

    def test_eta_max_whose_square_overflows_rejected(self, two_point_sym):
        with pytest.raises(ValueError, match=r"need eta_max <= 1.34078e\+154, got 1e\+155"):
            bulk_bound_certificate(two_point_sym, 1.4, eta_max=1e155)
        with pytest.raises(ValueError, match="got nan"):
            bulk_bound_certificate(two_point_sym, 1.4, eta_max=math.nan)

    @pytest.mark.parametrize("w1_scale, w2_zero_scale, failing, best, lower, im_zero", [
        (1.0, 1.0, None, 0.9763, 0.1746, 1.2910),
        (0.5, 1.0, "upper_ok", 1.9525, 0.0873, 1.2910),  # |omega2 - i eta| doubles past r^2/eta
        (1e4, 1.0, "lower_ok", 9.763e-5, 1746.1, 1.2910),  # lower_constant past its cap 1e3
        (1.0, 0.5, "zero_bound_ok", 0.9763, 0.1746, 0.6455),  # below (sqrt(3)/2) s_- sigma_- = 0.866
    ])
    def test_each_verdict_fails_on_a_perturbed_solve(
        self, monkeypatch, two_point_sym, w1_scale, w2_zero_scale, failing, best, lower, im_zero
    ):
        solve = freeconv.solve_delta_conv

        def perturbed(mu, r, z):
            st_ = solve(mu, r, z)
            if z == 0:
                return replace(st_, omega2=st_.omega2 * w2_zero_scale)
            return replace(st_, omega1=st_.omega1 * w1_scale)

        monkeypatch.setattr(freeconv, "solve_delta_conv", perturbed)
        rep = bulk_bound_certificate(two_point_sym, 1.4)
        verdicts = {"lower_ok": rep.lower_ok, "upper_ok": rep.upper_ok,
                    "zero_bound_ok": rep.zero_bound_ok}
        assert verdicts == {name: name != failing for name in verdicts}
        assert rep.best_constant == pytest.approx(best, rel=1e-4)
        assert rep.lower_constant == pytest.approx(lower, rel=1e-4)
        assert rep.im_omega2_zero == pytest.approx(im_zero, rel=1e-4)

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
