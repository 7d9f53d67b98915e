import math
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import log_potential, ring_mass
from singlering import linalg, locallaw, measure, models, ringlaw
from singlering.freeconv import solve_delta_conv
from singlering.measure import DiscreteMeasure, radii, symmetrize
from singlering.ringlaw import RingRecord, radial_profile


def ring_density(mu, s):
    """rho(s) from a one-radius profile."""
    return radial_profile(mu, [s])[0].rho


@pytest.fixture(scope="module")
def unit_circle():
    # singular value profile of a Haar matrix: all singular values 1;
    # the ring degenerates to the unit circle and L(s) = log max(s, 1)
    return DiscreteMeasure(np.array([1.0]), np.array([1.0]))


@pytest.fixture(scope="module")
def laws(two_point, quarter_circle_2000):
    return {
        "two_point": (two_point, (1.32, 1.4, 1.52)),
        "quarter_circle": (quarter_circle_2000, (0.2, 0.5, 0.9)),
        # r_minus = 0: a zero singular value puts its weight at w = 0
        "origin_atom": (
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.7])),
            (0.2, 0.45, 0.7),
        ),
    }


def subordination_mass(mu, s):
    """Ring-law mass inside radius s from the eta = 0 subordination solve."""
    st = solve_delta_conv(symmetrize(mu), s, 0.0)
    return st.omega2.imag * st.m.imag


def split_identity_potential(mu, s):
    """L(s) = int log|u| d(mu^sym [+] delta_s^sym) by the split identity

        int log|u| dnu = log eta0 + m2 / (2 eta0^2) - int_0^eta0 Im m(i eta) deta
                         + O(eta0^-4),

    with m2 = m2(mu^sym) + s^2, the second moment of nu."""
    mu_sym = symmetrize(mu)
    eta0 = 100.0 * (float(mu.atoms[-1]) + s)
    m2 = mu_sym.second_moment() + s * s
    body, _ = quad(
        lambda eta: solve_delta_conv(mu_sym, s, 1j * eta).m.imag,
        0.0, eta0, epsabs=1e-10, epsrel=1e-12, limit=200,
    )
    return math.log(eta0) + m2 / (2.0 * eta0 * eta0) - body


class TestSubordinationOracle:
    @pytest.mark.parametrize("law", ["two_point", "quarter_circle", "origin_atom"])
    def test_mass_matches_eta_zero_solve(self, laws, law):
        # F(s) = s L'(s) is the closed-form mass inside radius s
        mu, ss = laws[law]
        for s, rec in zip(ss, radial_profile(mu, ss)):
            assert s * rec.dL == pytest.approx(subordination_mass(mu, s), rel=1e-8)

    @pytest.mark.parametrize("law", ["two_point", "quarter_circle", "origin_atom"])
    def test_potential_matches_split_identity(self, laws, law):
        mu, ss = laws[law]
        for s in ss:
            L = split_identity_potential(mu, s)
            assert log_potential(mu, s) == pytest.approx(L, abs=1e-5)

    @pytest.mark.parametrize("law", ["two_point", "quarter_circle", "origin_atom"])
    def test_density_matches_mass_derivative(self, laws, law):
        # rho = F'(s) / (2 pi s), central difference of the subordination F;
        # its error F'''(s) h^2 / (12 pi s) stays below 5 h^2 on these laws
        mu, ss = laws[law]
        h = 1e-3
        for s in ss:
            dF = (subordination_mass(mu, s + h) - subordination_mass(mu, s - h)) / (2.0 * h)
            assert ring_density(mu, s) == pytest.approx(dF / (2.0 * math.pi * s), abs=5 * h * h)

    def test_outside_the_open_ring(self, two_point):
        r_minus, r_plus = radii(two_point)
        inner = float(np.dot(two_point.weights, np.log(two_point.atoms)))
        for s in (0.1, 0.5, r_minus):
            assert log_potential(two_point, s) == pytest.approx(inner, abs=1e-12)
            assert ring_density(two_point, s) == 0.0
        for s in (r_plus, 2.5, 10.0):
            assert log_potential(two_point, s) == pytest.approx(math.log(s), abs=1e-12)
            assert ring_density(two_point, s) == 0.0


class TestLogPotential:
    def test_unit_circle_profile(self, unit_circle):
        # one atom: radii warns that r_minus == r_plus on every evaluation
        with pytest.warns(UserWarning, match="the ring is degenerate"):
            assert log_potential(unit_circle, 0.5) == pytest.approx(0.0, abs=1e-4)
            assert log_potential(unit_circle, 1.0) == pytest.approx(0.0, abs=1e-4)
            assert log_potential(unit_circle, 2.0) == pytest.approx(math.log(2.0), abs=1e-4)

    def test_quarter_circle_inside(self, quarter_circle_2000):
        # circular law potential (s^2 - 1)/2 inside the unit disk
        assert log_potential(quarter_circle_2000, 0.5) == pytest.approx(-0.375, abs=1e-3)

    def test_quarter_circle_outside(self, quarter_circle_2000):
        assert log_potential(quarter_circle_2000, 2.0) == pytest.approx(
            math.log(2.0), abs=1e-3
        )

    def test_outside_support_asymptotics(self, two_point):
        # outside the ring the radial potential of a probability measure is
        # exactly log s (mean value property); L stays increasing in s
        s_plus = 2.0
        Ls = [log_potential(two_point, c * s_plus) for c in (2, 4, 8)]
        for c, L in zip((2, 4, 8), Ls):
            assert L == pytest.approx(math.log(c * s_plus), abs=1e-4)
        assert Ls[0] < Ls[1] < Ls[2]

    def test_split_height_validation(self, two_point):
        with pytest.raises(ValueError):
            log_potential(two_point, -0.5)


class TestRingDensity:
    def test_circular_law_density(self, quarter_circle_2000):
        rho = ring_density(quarter_circle_2000, 0.5)
        assert rho == pytest.approx(1.0 / math.pi, rel=0.02)

    def test_outside_ring_is_zero(self, two_point):
        rho = ring_density(two_point, 2.5)
        assert abs(rho) < 1e-4

    def test_numerical_nonnegativity(self, two_point):
        for s in (1.35, 1.4, 1.45):
            assert ring_density(two_point, s) >= -5e-6

    @pytest.mark.parametrize("law", ["two_point", "quarter_circle"])
    def test_density_continuous_up_to_the_edges(self, laws, law):
        # right inside the ring the density sits at its edge value, free of
        # the cancellation that t'A - tA' suffers as s approaches r_minus
        mu = laws[law][0]
        r_minus, r_plus = radii(mu)
        for edge, inward in ((r_minus, r_plus), (r_plus, r_minus)):
            near = ring_density(mu, edge + 1e-9 * (inward - edge))
            for offset in (1e-12, 1e-13):
                s = edge + offset * (inward - edge)
                assert ring_density(mu, s) == pytest.approx(near, rel=1e-6)


class TestRingMass:
    def test_two_point_bulk_mass(self, two_point):
        # the narrow two-point ring piles mass onto its edges: the exact
        # annulus mass at tau = 0.01 is 0.9226 (cumulative-mass identity
        # M(s) = s L'(s), confirmed by Monte Carlo eigenvalue counts)
        mass = ring_mass(two_point, tau=0.01)
        assert 0.90 <= mass <= 0.95

    def test_two_point_exact_mass(self, two_point):
        assert ring_mass(two_point, tau=0.01) == pytest.approx(0.9226452, abs=1e-6)

    def test_origin_atom_stays_at_origin(self, laws):
        # the annulus 0 < |w| < r_plus misses the atom at w = 0
        assert ring_mass(laws["origin_atom"][0], tau=0.0) == pytest.approx(0.7, abs=1e-12)

    def test_empty_annulus(self, two_point):
        assert ring_mass(two_point, tau=0.2) == 0.0

    def test_rejects_negative_tau(self, two_point):
        with pytest.raises(ValueError):
            ring_mass(two_point, tau=-0.1)


class TestRadialProfile:
    def test_profile_matches_pointwise(self, two_point):
        prof = radial_profile(two_point, [1.35, 1.4, 1.45])
        assert [rec.s for rec in prof] == [1.35, 1.4, 1.45]
        for rec in prof:
            assert isinstance(rec, RingRecord)
            assert rec == radial_profile(two_point, [rec.s])[0]

    def test_validation(self, two_point):
        # every radius must be positive, wherever it sits in the grid
        for s_values in ([0.0], [1.4, -0.5]):
            with pytest.raises(ValueError, match="s > 0"):
                radial_profile(two_point, s_values)

    def test_radii_once_per_profile(self, two_point):
        # the ring radii are computed once per call, however many radii;
        # linear_statistic_rhs reads its 64 Gauss nodes from one profile
        counted = mock.Mock(wraps=measure.radii)
        with mock.patch.object(measure, "radii", counted), mock.patch.object(
            ringlaw, "radii", counted
        ):
            radial_profile(two_point, np.linspace(1.3, 1.55, 7))
            assert counted.call_count == 1
            locallaw.linear_statistic_rhs(two_point, 1.4, 0.25, 0.5, n=64)
            assert counted.call_count == 3


@pytest.mark.slow
def test_monte_carlo_trace_consistency(quarter_circle_2000):
    # (1/N) sum log s_i(X - w) = (1/2N) Tr log |H^w| from one N = 512 sample
    # matches L(|w|) to O(N^-1/2)
    N, w = 512, 0.5 + 0.0j
    e = models.SingleRingEnsemble.from_measure(quarter_circle_2000, N, "unitary", seed=4)
    X = models.sample_X(e, linalg.child_rng(4, 0))
    trace_log = float(np.mean(np.log(models.svd(X, w))))
    L = log_potential(e.empirical_measure(), abs(w))
    assert abs(trace_log - L) <= 5.0 / math.sqrt(N)
