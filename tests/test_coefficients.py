from dataclasses import replace

import numpy as np
import pytest

from mvlab.coefficients import (
    MonotonicityConstants,
    NLDBMParams,
    canonical_confining_potential,
    heat_coefficients,
    meanfield_ou_coefficients,
    nldbm_coefficients,
    validate_hypotheses,
)
from mvlab.lifted import LiftedTestFunction, apply_lifted_generator
from mvlab.measures import EmpiricalMeasure, InnerTest, intrinsic_gradient, kde_density
from mvlab.presets import arctan_params, cos_test, gaussian_grid, tanh_test
from tests_helpers import linear_F, square_test


class TestNLDBMParams:
    def test_gamma_ordering_enforced(self):
        with pytest.raises(ValueError):
            arctan_params().__class__(**{**arctan_params().__dict__, "gamma": 3.0, "gamma1": 2.0})

    def test_diffusion_ratio_at_zero_is_beta_prime(self):
        p = arctan_params()
        assert p.diffusion_ratio(np.array([0.0]))[0] == pytest.approx(3.0)

    def test_diffusion_ratio_positive_branch(self):
        p = arctan_params()
        u = np.array([0.5])
        assert p.diffusion_ratio(u)[0] == pytest.approx((2 * 0.5 + np.arctan(0.5)) / 0.5)

    def test_diffusion_ratio_between_derivative_bounds(self):
        p = arctan_params()
        u = np.linspace(0.0, 50.0, 1000)
        ratio = p.diffusion_ratio(u)
        assert np.all(ratio >= p.gamma - 1e-12)
        assert np.all(ratio <= p.gamma1 + 1e-12)


class TestConfiningPotential:
    def test_phi_at_least_one(self):
        Phi, _ = canonical_confining_potential(1.0, 0.5)
        x = np.random.default_rng(0).normal(size=(100, 3))
        assert np.all(Phi(x) >= 1.0)

    def test_gradient_matches_finite_differences(self):
        Phi, gradPhi = canonical_confining_potential(2.0, 0.3)
        x = np.array([[0.7, -1.2]])
        eps = 1e-6
        for k in range(2):
            e = np.zeros((1, 2))
            e[0, k] = eps
            fd = (Phi(x + e)[0] - Phi(x - e)[0]) / (2 * eps)
            assert gradPhi(x)[0, k] == pytest.approx(fd, rel=1e-6)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            canonical_confining_potential(1.0, 0.7)


class TestCoefficientSets:
    def test_nldbm_drift_points_inward(self):
        p = arctan_params()
        cs = nldbm_coefficients(p)
        cloud = EmpiricalMeasure.from_atoms(np.linspace(-1, 1, 500))
        mu = cloud.with_density(kde_density(cloud, -8.0, 0.01, 1600, 0.2))
        X = np.array([[2.0], [-2.0]])
        b = cs.b(0.0, X, mu)
        assert b[0, 0] < 0 and b[1, 0] > 0

    def test_nldbm_sigma_squared_is_diffusion_ratio(self):
        p = arctan_params()
        cs = nldbm_coefficients(p)
        mu = gaussian_grid(0.25)
        X = np.array([[0.0]])
        a = cs.generator(0.0, X, mu, square_test())[0]  # L(x^2)(0) = a(0)
        u = mu.density_at(np.array([0.0]))[0]
        assert a == pytest.approx(p.diffusion_ratio(np.array([u]))[0])

    def test_ou_drift(self):
        cs, _ = meanfield_ou_coefficients(2.0, 0.5, 1.0)
        mu = EmpiricalMeasure.from_atoms([1.0, 3.0])
        b = cs.b(0.0, np.array([[1.0]]), mu)
        assert b[0, 0] == pytest.approx(-2.0 * 1.0 + 0.5 * 2.0)

    def test_ou_constants(self):
        _, consts = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        assert consts.lam == pytest.approx(1.5)
        assert consts.kappa == pytest.approx(0.5)
        consts.require_contractive()

    def test_non_contractive_rejected(self):
        c = MonotonicityConstants(K=1, lam=0.5, kappa=0.5, lam_bar=1, kappa_bar=0)
        with pytest.raises(ValueError):
            c.require_contractive()

    def test_heat_is_driftless(self):
        cs = heat_coefficients(1, 2.0)
        X = np.array([[3.0]])
        assert cs.b(0.0, X, None)[0, 0] == 0.0
        assert cs.generator(0.0, X, None, square_test())[0] == pytest.approx(2.0)

    def test_frozen_is_the_bar_fields(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        b_bar = lambda t, X, mu: -3.0 * np.atleast_2d(X)
        frozen = replace(cs, b_bar=b_bar).frozen
        assert (frozen.b, frozen.sigma, frozen.d) == (b_bar, cs.sigma, cs.d)
        assert (frozen.b_bar, frozen.sigma_bar) == (b_bar, cs.sigma)
        assert cs.frozen == cs

    def test_generator_matches_closed_form(self):
        # mean-field OU: L g = 1/2 sigma0^2 g'' + (-lambda0 x + kappa0 m) g'
        cs, _ = meanfield_ou_coefficients(2.0, 0.5, 1.5)
        mu = EmpiricalMeasure.from_atoms([1.0, 3.0])
        X = np.array([[-0.4], [0.0], [1.3]])
        x = X[:, 0]
        expected = 0.5 * 1.5**2 * -np.cos(x) + (-2.0 * x + 0.5 * 2.0) * -np.sin(x)
        np.testing.assert_allclose(cs.generator(0.0, X, mu, cos_test()), expected, rtol=1e-14)

    def test_generator_in_two_dimensions(self):
        # heat in R^2 on |x|^2: L = 1/2 tr(a hess) = diffusion * d
        cs = heat_coefficients(2, 0.7)
        sq = InnerTest(
            lambda X: (X**2).sum(axis=1),
            lambda X: 2 * X,
            lambda X: np.broadcast_to(2 * np.eye(2), (X.shape[0], 2, 2)),
        )
        X = np.array([[1.0, -2.0], [0.5, 0.0]])
        np.testing.assert_allclose(cs.generator(0.0, X, None, sq), [1.4, 1.4], rtol=1e-14)


OU, _ = meanfield_ou_coefficients(2.0, 0.5, 1.5)
CLOUD = EmpiricalMeasure.from_atoms([1.0, 3.0])
G = LiftedTestFunction(cos_test(), linear_F(tanh_test()))
PHI, GRAD_PHI = canonical_confining_potential(2.0, 0.3)
# every reader of points, as a function of the points alone
POINT_READERS = {
    "fields_b": lambda x: OU.fields(0.0, x, CLOUD)[0],
    "fields_sigma": lambda x: OU.fields(0.0, x, CLOUD)[1],
    "generator": lambda x: OU.generator(0.0, x, CLOUD, cos_test()),
    "intrinsic_gradient": lambda x: intrinsic_gradient(G.measure_part, CLOUD)(x),
    "lifted_test_function": lambda x: G(x, CLOUD),
    "apply_lifted_generator": lambda x: apply_lifted_generator(G, OU, 0.0, x, CLOUD),
    "Phi": PHI,
    "gradPhi": GRAD_PHI,
}


class TestPointRule:
    @pytest.mark.parametrize("reader", POINT_READERS.values(), ids=POINT_READERS.keys())
    def test_1d_array_is_points_on_the_line(self, reader):
        # three points on the line, not one point in R^3
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(reader(x), reader(x[:, None]))

    def test_fields_rejects_points_of_another_width(self):
        with pytest.raises(ValueError, match="width 2, the coefficients take 1"):
            OU.fields(0.0, np.zeros((3, 2)), CLOUD)


class TestHypothesisValidation:
    def test_nldbm_family_passes(self):
        rep = validate_hypotheses(arctan_params(), rng=np.random.default_rng(1))
        assert rep.passed, rep.margins
        assert set(rep.margins) >= {
            "beta_zero", "beta_prime_lower", "beta_prime_upper",
            "b_bounded", "gradPhi_bounded", "Phi_geq_one",
        }

    def test_nldbm_wrong_bounds_fail(self):
        p = arctan_params()
        bad = NLDBMParams(**{**p.__dict__, "gamma": 2.5, "gamma1": 2.6})
        rep = validate_hypotheses(bad, rng=np.random.default_rng(1))
        assert not rep.passed
        assert rep.margins["beta_prime_upper"] < 0

    def test_ou_family_passes(self):
        cs, consts = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        rep = validate_hypotheses((cs, consts), n_samples=2000, rng=np.random.default_rng(2))
        assert rep.passed, rep.margins

    def test_expanding_drift_fails_monotonicity(self):
        cs, consts = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        bad = type(cs)(
            b=lambda t, X, mu: +2.0 * np.atleast_2d(X),
            sigma=cs.sigma,
            b_bar=cs.b_bar,
            sigma_bar=cs.sigma_bar,
            d=1,
        )
        rep = validate_hypotheses((bad, consts), n_samples=500, rng=np.random.default_rng(3))
        assert not rep.passed
        assert rep.margins["monotone"] < 0
