from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from mvlab.measures import (
    EmpiricalMeasure,
    GridDensity1D,
    InnerTest,
    MeasureViewError,
    intrinsic_gradient,
    kde_density,
    silverman_bandwidth,
)
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


OFF_GRID = (1e300, -1e300, 1e308, np.inf, -np.inf, np.nan)


@st.composite
def grid_and_points(draw):
    """A grid density of M >= 2 cells (x_min, dx and nonnegative values
    drawn, then normalized to mass 1) and points on it, beside it and off
    every grid: 1e300, 1e308, +-inf and NaN."""
    m = draw(st.integers(2, 300))
    x_min, dx = draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 1.0))
    raw = draw(arrays(np.float64, m, elements=st.one_of(st.just(0.0), st.floats(1e-40, 1.0))))
    assume(raw.sum() > 0)
    grid = GridDensity1D(x_min, dx, raw / (dx * raw.sum()))
    near = st.floats(x_min - 2 * dx, x_min + (m + 2) * dx)
    x = draw(st.lists(st.one_of(near, st.floats()), max_size=60))
    return grid, np.array(x + list(OFF_GRID))


def _counting(f, sizes):
    def counted(u):
        sizes.append(np.size(u))
        return f(u)
    return counted


class TestPerCell:
    """NLDBM evaluates b_scalar and sqrt(beta(u)/u) once per cell of the
    density (``cellwise``) and gathers them; grad Phi stays per point."""

    @settings(max_examples=150, deadline=None)
    @given(grid_and_points())
    def test_per_cell_equals_per_point_bit_for_bit(self, case):
        grid, x = case
        p = arctan_params()
        cs = nldbm_coefficients(p)
        m = grid.n_cells
        assert np.array_equal(grid.cell_index(grid.centers), np.arange(m))
        idx = grid.cell_index(x)
        assert idx.shape == x.shape and np.all((idx >= 0) & (idx <= m))
        with np.errstate(over="ignore"):
            quotients = np.floor((x - grid.x_min) / grid.dx)
        assert idx.tolist() == [int(q) if 0 <= q < m else m for q in quotients]
        X = x[:, None]
        for mu in (grid, EmpiricalMeasure.from_atoms([0.0]).with_density(grid)):
            u = mu.density_at(x)
            assert np.array_equal(mu.cellwise(lambda v: v, x), u)
            sigma = np.sqrt(p.diffusion_ratio(u))[:, None, None]
            assert np.array_equal(cs.sigma(0.0, X, mu), sigma, equal_nan=True)
            # grad Phi is inf * 0 at +-inf, per point at both sides
            with np.errstate(invalid="ignore"):
                b = -p.b_scalar(u)[:, None] * p.gradPhi(X)
                assert np.array_equal(cs.b(0.0, X, mu), b, equal_nan=True)

    def test_maps_of_the_density_see_one_value_per_cell(self):
        sizes = []
        p = arctan_params()
        p = replace(p, b_scalar=_counting(p.b_scalar, sizes), beta=_counting(p.beta, sizes))
        cs = nldbm_coefficients(p)
        X = np.random.default_rng(3).normal(0.0, 0.5, (20_000, 1))
        cloud = EmpiricalMeasure.from_atoms(X)
        mu = cloud.with_density(
            kde_density(cloud, -4.0, 0.01, 800, silverman_bandwidth(cloud), method="binned"))
        b, sigma = cs.fields(0.0, X, mu)
        assert b.shape == (20_000, 1) and sigma.shape == (20_000, 1, 1)
        assert sizes == [801, 801]

    @pytest.mark.parametrize("field", ["b", "sigma"])
    def test_cloud_without_density_view_raises(self, field):
        cs = nldbm_coefficients(arctan_params())
        with pytest.raises(MeasureViewError, match="no density view"):
            getattr(cs, field)(0.0, np.zeros((3, 1)), EmpiricalMeasure.from_atoms([0.0, 1.0]))


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
