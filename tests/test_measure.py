import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from levy import levy_distance
from oracles import neg_recip_stieltjes
from singlering import freeconv, measure, ringlaw
from singlering.measure import (
    AtomicMeasure,
    ConvergenceError,
    DiscreteMeasure,
    MeasureError,
    RingGeometry,
    nevanlinna_rep,
    radii,
    reference_measure,
    stieltjes,
    support_stats,
    symmetrize,
)


def dm(atoms, weights):
    return DiscreteMeasure(np.asarray(atoms, float), np.asarray(weights, float))


@st.composite
def measures(draw, min_atoms=2, max_atoms=6, lo=-3.0, hi=3.0):
    n = draw(st.integers(min_atoms, max_atoms))
    xs = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    xs = np.sort(np.asarray(xs))
    if np.any(np.diff(xs) < 1e-6):
        xs = xs + np.arange(len(xs)) * 1e-3
    ws = draw(st.lists(st.floats(0.1, 1.0), min_size=len(xs), max_size=len(xs)))
    ws = np.asarray(ws)
    return DiscreteMeasure(xs, ws / ws.sum())


def symmetric_measures():
    return measures(min_atoms=1, max_atoms=4, lo=0.2, hi=3.0).map(symmetrize)


class TestDiscreteMeasure:
    def test_rejects_bad_weights(self):
        with pytest.raises(MeasureError):
            dm([0.0, 1.0], [0.5, 0.6])
        with pytest.raises(MeasureError):
            dm([0.0, 1.0], [1.5, -0.5])

    def test_rejects_nonincreasing_atoms(self):
        with pytest.raises(MeasureError):
            dm([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(MeasureError):
            dm([2.0, 1.0], [0.5, 0.5])

    def test_quantiles(self):
        mu = reference_measure("uniform", n_atoms=2, a=0.0, b=1.0)
        assert np.allclose(mu.atoms, [0.25, 0.75])
        assert mu.quantile(0.4) == 0.25
        assert mu.quantile(0.6) == 0.75


class TestSymmetrize:
    def test_point_mass(self):
        out = symmetrize(dm([1.0], [1.0]))
        assert np.allclose(out.atoms, [-1.0, 1.0])
        assert np.allclose(out.weights, [0.5, 0.5])

    def test_two_point(self, two_point):
        out = symmetrize(two_point)
        assert np.allclose(out.atoms, [-2.0, -1.0, 1.0, 2.0])
        assert np.allclose(out.weights, [0.25, 0.25, 0.25, 0.25])

    def test_idempotent_on_symmetric(self, bernoulli):
        out = symmetrize(bernoulli)
        assert np.array_equal(out.atoms, bernoulli.atoms)
        assert np.array_equal(out.weights, bernoulli.weights)

    def test_atom_at_zero_not_doubled(self):
        out = symmetrize(dm([0.0, 1.0], [0.5, 0.5]))
        assert np.allclose(out.atoms, [-1.0, 0.0, 1.0])
        assert np.allclose(out.weights, [0.25, 0.5, 0.25])

    @given(measures())
    def test_result_is_symmetric(self, mu):
        assert symmetrize(mu).is_symmetric()


class TestStieltjes:
    def test_point_mass_at_i(self):
        assert stieltjes(dm([0.0], [1.0]), 1j) == pytest.approx(1j, abs=1e-15)

    def test_bernoulli_closed_form(self, bernoulli):
        # m(w) = w / (1 - w^2) for the symmetric two-point law at +-1
        assert stieltjes(bernoulli, 2j) == pytest.approx(0.4j, abs=1e-15)
        for w in (0.3 + 1.1j, -2.0 + 0.1j):
            assert stieltjes(bernoulli, w) == pytest.approx(w / (1 - w * w), rel=1e-14)

    def test_domain_error(self, bernoulli):
        for z in (1.0, 1 - 1j):
            with pytest.raises(ValueError):
                stieltjes(bernoulli, z)

    @given(measures())
    def test_tail_normalization(self, mu):
        # i eta m(i eta) = -1 - m1/(i eta) + O(eta^-2): the O(eta^-2) rate
        # holds once the first-moment term is accounted for
        m1 = float(np.dot(mu.weights, mu.atoms))
        for eta in (1e3, 1e4):
            val = 1j * eta * stieltjes(mu, 1j * eta)
            assert abs(val + 1.0 + m1 / (1j * eta)) < 20.0 / eta**2

    @given(symmetric_measures())
    def test_purely_imaginary_on_axis_iff_symmetric(self, mu):
        assert abs(stieltjes(mu, 0.7j).real) < 1e-14

    def test_asymmetric_has_real_part(self, two_point):
        assert abs(stieltjes(two_point, 0.7j).real) > 1e-3


class TestNegRecipStieltjes:
    def test_bernoulli(self, bernoulli):
        # F = w - 1/w
        assert neg_recip_stieltjes(bernoulli, 2j) == pytest.approx(2.5j, abs=1e-14)

    def test_point_pair_plugin(self):
        mu = dm([-1.0, 1.0], [0.5, 0.5])
        assert neg_recip_stieltjes(mu, 1j) == pytest.approx(2j, abs=1e-14)

    @given(measures())
    def test_tail(self, mu):
        # F(i eta)/(i eta) = 1 - m1/(i eta) + O(eta^-2)
        m1 = float(np.dot(mu.weights, mu.atoms))
        for eta in (1e3, 1e4):
            val = neg_recip_stieltjes(mu, 1j * eta) / (1j * eta)
            assert abs(val - 1.0 + m1 / (1j * eta)) < 30.0 / eta**2

    @given(measures(), st.floats(0.05, 3.0), st.floats(-2.0, 2.0))
    def test_nevanlinna_property(self, mu, eta, E):
        z = complex(E, eta)
        assert neg_recip_stieltjes(mu, z).imag >= z.imag - 1e-12


class TestRadii:
    def test_two_point_exact(self, two_point):
        r_minus, r_plus = radii(two_point)
        assert r_minus == pytest.approx(math.sqrt(8.0 / 5.0), abs=1e-12)
        assert r_plus == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_atom_at_zero(self):
        r_minus, r_plus = radii(dm([0.0, 1.0], [0.5, 0.5]))
        assert r_minus == 0.0

    def test_single_atom_flags_degenerate_ring(self):
        with pytest.warns(UserWarning):
            r_minus, r_plus = radii(dm([2.0], [1.0]))
        assert r_minus == r_plus == 2.0

    def test_negative_support_rejected(self, bernoulli):
        with pytest.raises(ValueError):
            radii(bernoulli)

    def test_quarter_circle_outer_radius(self, quarter_circle_2000):
        # independent quadrature oracle for the second moment of the density
        oracle, _ = quad(lambda x: x * x * np.sqrt(4 - x * x) / np.pi, 0.0, 2.0)
        _, r_plus = radii(quarter_circle_2000)
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert r_plus == pytest.approx(math.sqrt(oracle), abs=1e-3)

    @given(measures(lo=0.1, hi=3.0), st.floats(0.1, 5.0))
    def test_scaling(self, mu, c):
        scaled = DiscreteMeasure(mu.atoms * c, mu.weights)
        rm, rp = radii(mu)
        srm, srp = radii(scaled)
        assert srm == pytest.approx(c * rm, rel=1e-12)
        assert srp == pytest.approx(c * rp, rel=1e-12)


class TestLevyDistance:
    def test_identity(self, two_point):
        assert levy_distance(two_point, two_point) == 0.0

    def test_point_masses(self):
        got = levy_distance(dm([0.0], [1.0]), dm([0.3], [1.0]))
        assert got == pytest.approx(0.3, abs=1e-9)

    def test_far_point_masses_capped_at_one(self):
        assert levy_distance(dm([0.0], [1.0]), dm([9.0], [1.0])) == pytest.approx(
            1.0, abs=1e-9
        )

    @given(measures(), measures())
    def test_symmetry_and_bound(self, mu, nu):
        d1 = levy_distance(mu, nu)
        d2 = levy_distance(nu, mu)
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert 0.0 <= d1 <= 1.0 + 1e-12

    @given(measures(), measures(), measures())
    def test_triangle_inequality(self, mu, nu, rho):
        assert levy_distance(mu, rho) <= levy_distance(mu, nu) + levy_distance(
            nu, rho
        ) + 1e-8


class TestSupportStats:
    def test_two_point(self, two_point):
        assert support_stats(two_point) == (2.0, 2.5)

    def test_origin(self):
        assert support_stats(dm([0.0], [1.0])) == (0.0, 0.0)

    def test_symmetrization_preserves(self, two_point, two_point_sym):
        assert support_stats(two_point_sym) == support_stats(two_point)


class TestNevanlinnaRep:
    def test_bernoulli_exact(self, bernoulli):
        mu_hat, mu_tilde, r_minus_sq = nevanlinna_rep(bernoulli)
        assert np.allclose(mu_hat.atoms, [0.0])
        assert np.allclose(mu_hat.weights, [1.0])
        assert len(mu_tilde) == 0
        assert r_minus_sq == pytest.approx(1.0, abs=1e-12)

    def test_four_atom_exact(self, two_point_sym):
        # zeros of m at +-sqrt(5/2) with residue weight 9/20 each
        mu_hat, mu_tilde, r_minus_sq = nevanlinna_rep(two_point_sym)
        x0 = math.sqrt(2.5)
        assert np.allclose(mu_hat.atoms, [-x0, 0.0, x0], atol=1e-12)
        assert np.allclose(mu_hat.weights, [0.45, 1.6, 0.45], atol=1e-12)
        assert r_minus_sq == pytest.approx(1.6, abs=1e-12)
        assert mu_tilde.weights.sum() == pytest.approx(0.9, abs=1e-10)

    def test_atom_at_zero_gives_no_zero_weight(self):
        mu = symmetrize(dm([0.0, 1.0], [0.5, 0.5]))
        mu_hat, mu_tilde, r_minus_sq = nevanlinna_rep(mu)
        assert r_minus_sq == 0.0
        assert mu_hat.weights.sum() == pytest.approx(mu.second_moment(), abs=1e-10)

    def test_structural_error(self):
        with pytest.raises(MeasureError):
            nevanlinna_rep(dm([0.0], [1.0]))
        with pytest.raises(MeasureError):
            nevanlinna_rep(dm([1.0, 2.0], [0.5, 0.5]))

    @given(symmetric_measures())
    def test_mass_is_second_moment(self, mu):
        mu_hat, _, _ = nevanlinna_rep(mu)
        assert mu_hat.weights.sum() == pytest.approx(mu.second_moment(), abs=1e-10)

    @given(symmetric_measures())
    def test_reconstruction(self, mu):
        # F(w) - w = int d(mu_hat)/(x - w) at random upper half-plane points
        mu_hat, _, _ = nevanlinna_rep(mu)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))
            lhs = neg_recip_stieltjes(mu, w) - w
            rhs = stieltjes(mu_hat, w)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestReferenceMeasure:
    def test_two_point(self):
        mu = reference_measure("two_point", a=1.0, b=2.0, p=0.5)
        assert np.allclose(mu.atoms, [1.0, 2.0])
        assert np.allclose(mu.weights, [0.5, 0.5])

    def test_uniform_two_atoms(self):
        mu = reference_measure("uniform", n_atoms=2, a=0.0, b=1.0)
        assert np.allclose(mu.atoms, [0.25, 0.75])

    def test_quarter_circle_quantiles(self):
        # independent oracle: integrate the density up to each atom position
        mu = reference_measure("quarter_circle", n_atoms=4)
        for i, x in enumerate(mu.atoms):
            mass, _ = quad(lambda t: np.sqrt(4 - t * t) / np.pi, 0.0, x)
            assert mass == pytest.approx((i + 0.5) / 4.0, abs=1e-10)
        assert np.allclose(mu.weights, 0.25)

    def test_unknown_name(self):
        with pytest.raises(MeasureError):
            reference_measure("pentagon", n_atoms=4)

    def test_needs_two_atoms(self):
        with pytest.raises(MeasureError):
            reference_measure("uniform", n_atoms=1, a=0.0, b=1.0)


class TestRingGeometry:
    def test_ordering_enforced(self):
        with pytest.raises(MeasureError):
            RingGeometry(2.0, 1.0, 3.0)
        with pytest.raises(MeasureError):
            RingGeometry(0.5, 1.0, 0.9)

    def test_annulus(self, two_point):
        ring = RingGeometry.from_measure(two_point, tau=0.05)
        lo, hi = ring.annulus()
        assert lo == pytest.approx(math.sqrt(8 / 5) + 0.05)
        assert hi == pytest.approx(math.sqrt(2.5) - 0.05)
        assert ring.contains(1.4)
        assert not ring.contains(2.0)

    def test_empty_annulus(self, two_point):
        ring = RingGeometry.from_measure(two_point, tau=0.2)
        assert ring.annulus() is None

    def test_default_tau_is_five_percent_of_the_width(self, two_point):
        r_minus, r_plus = radii(two_point)
        ring = RingGeometry.from_measure(two_point)
        assert ring.tau == 0.05 * (r_plus - r_minus)
        assert ring.tau == pytest.approx(0.05 * (math.sqrt(2.5) - math.sqrt(8 / 5)), abs=1e-15)


class TestBrentq:
    """measure._brentq is a port of scipy.optimize.brentq: equal floats and
    the iteration count of its full_output."""

    # (xtol, rtol) pairs the library passes, and scipy's defaults
    TOLS = [(1e-300, 8.9e-16), (1e-14, 4 * np.finfo(float).eps), (2e-12, 4 * np.finfo(float).eps)]

    def test_matches_scipy_on_random_brackets(self):
        rng = np.random.default_rng(5)
        families = [
            lambda c: lambda x: x**3 - c,
            lambda c: lambda x: math.tanh(5.0 * (x - c)),
            lambda c: lambda x: math.expm1(x) - c,
            lambda c: lambda x: np.float64(x) * x - c * c,  # numpy scalar values
        ]
        compared = 0
        for i in range(600):
            f = families[i % len(families)](rng.uniform(0.1, 2.0))
            a, b = rng.uniform(-3.0, 0.0), rng.uniform(2.1, 5.0)
            if i % 2:
                a, b = b, a
            xtol, rtol = self.TOLS[i % len(self.TOLS)]
            try:
                want, info = brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
            except ValueError:  # no sign change on this bracket
                with pytest.raises(ConvergenceError):
                    measure._brentq(f, a, b, xtol=xtol, rtol=rtol)
                continue
            assert measure._brentq(f, a, b, xtol=xtol, rtol=rtol) == (want, info.iterations)
            compared += 1
        assert compared > 450

    def test_endpoint_root(self):
        f = lambda x: x - 1.0  # noqa: E731
        for a, b in ((1.0, 3.0), (-2.0, 1.0), (3.0, 1.0)):
            # scipy leaves full_output's count unset at an endpoint root; the port reports 0
            want = brentq(f, a, b, xtol=1e-14)
            assert measure._brentq(f, a, b, xtol=1e-14) == (want, 0) == (1.0, 0)

    @pytest.fixture
    def against_scipy(self, monkeypatch):
        """Route the library's root-finds through a check against scipy."""
        port, calls = measure._brentq, []

        def checked(f, a, b, **kw):
            got = port(f, a, b, **kw)
            want, info = brentq(f, a, b, full_output=True, **kw)
            assert got == (want, info.iterations)
            calls.append(got)
            return got

        for module in (measure, freeconv, ringlaw):
            monkeypatch.setattr(module, "_brentq", checked)
        return calls

    @pytest.mark.parametrize(
        "mu, ss",
        [
            (dm([1.0, 2.0], [0.5, 0.5]), (1.32, 1.4, 1.52)),
            (None, (0.2, 0.5, 0.9)),  # 500-atom quarter circle
            (dm([0.0, 1.0], [0.3, 0.7]), (0.2, 0.45, 0.7)),  # atom at 0
        ],
    )
    def test_library_equations_ring_law(self, against_scipy, mu, ss):
        if mu is None:
            mu = reference_measure("quarter_circle", n_atoms=500)
            assert len(against_scipy) == 500  # one quantile root each
        for s in ss:
            y = ringlaw._inverse_radius(mu.weights, mu.atoms**2, s)
            assert 0.0 < y < math.inf
        assert len(against_scipy) >= len(ss)

    @pytest.mark.parametrize("eta", [0.0, 0.1, 1.0])
    def test_library_equations_delta_axis(self, against_scipy, eta):
        mu_sym = symmetrize(dm([1.0, 2.0], [0.5, 0.5]))
        assert freeconv._solve_delta_axis(mu_sym, 1.4, eta)[0] > 0.0
        assert len(against_scipy) == 1

    def test_iteration_limit_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match="1 iterations"):
            measure._brentq(lambda x: x**3 - 2.0, 0.0, 4.0, xtol=1e-14, maxiter=1)

    def test_same_sign_bracket_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match="no sign change"):
            measure._brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-14)
        with pytest.raises(ConvergenceError):
            measure._brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-14)

    def test_one_convergence_error_class(self):
        assert freeconv.ConvergenceError is ConvergenceError
        assert issubclass(ConvergenceError, RuntimeError)
