import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab import presets
from mvlab.measures import (
    CylindricalFunction,
    EmpiricalMeasure,
    GridDensity1D,
    InnerTest,
    MeasureViewError,
    density_at,
    grid_to_measure,
    intrinsic_gradient,
    kde_density,
    pushforward,
    quantile_coupling_plan,
    sample_density,
    silverman_bandwidth,
    sinkhorn_plan,
    w2_gaussian_1d,
    w2_to_quantile,
    wasserstein2,
)
from tests_helpers import lp_w2sq, square_test


def gaussian_grid(mean=0.0, var=1.0, x_min=-10.0, dx=0.01, n=2000):
    return presets.gaussian_grid(var, mean, x_min, dx, n)


class TestEmpiricalMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((3, 1)), np.array([0.5, 0.5, 0.5]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]))

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([1.0, np.nan]))

    def test_moments(self):
        pts = np.array([[0.0], [2.0]])
        mu = EmpiricalMeasure(pts, np.array([0.25, 0.75]))
        assert mu.mean()[0] == pytest.approx(1.5)
        assert mu.cov()[0, 0] == pytest.approx(0.25 * 1.5**2 + 0.75 * 0.5**2)
        assert mu.second_moment() == pytest.approx(3.0)

    def test_csv_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 2))
        w = rng.random(10)
        mu = EmpiricalMeasure(pts, w / w.sum())
        back = EmpiricalMeasure.from_csv(mu.to_csv())
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    def test_integrate(self):
        mu = EmpiricalMeasure.from_atoms([1.0, 3.0])
        assert mu.integrate(lambda X: X[:, 0] ** 2) == pytest.approx(5.0)

    def test_density_view_required(self):
        mu = EmpiricalMeasure.from_atoms([0.0, 1.0])
        with pytest.raises(MeasureViewError):
            density_at(mu, np.array([0.5]))


class TestGridDensity1D:
    def test_mass_enforced(self):
        with pytest.raises(ValueError):
            GridDensity1D(0.0, 0.1, np.ones(5))

    def test_negative_values_rejected(self):
        v = np.array([2.0, -0.5, 8.5])
        with pytest.raises(ValueError):
            GridDensity1D(0.0, 0.1, v)

    def test_nan_values_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            GridDensity1D(0.0, 0.1, np.array([5.0, np.nan, 5.0]))
        with pytest.raises(ValueError, match="dx"):
            GridDensity1D(0.0, np.nan, np.array([5.0, 5.0]))

    def test_centers_are_shared_and_read_only(self):
        g = gaussian_grid(mean=0.3)
        expected = g.x_min + g.dx * (np.arange(g.n_cells) + 0.5)
        assert g.centers.tobytes() == expected.tobytes()
        # another density on the same grid reads the same array
        assert gaussian_grid(mean=-0.3).centers is g.centers
        with pytest.raises(ValueError, match="read-only"):
            g.centers[0] = 0.0

    def test_moments_match_gaussian(self):
        g = gaussian_grid(mean=1.3, var=0.7)
        assert g.mean()[0] == pytest.approx(1.3, abs=1e-8)
        assert g.cov()[0, 0] == pytest.approx(0.7, abs=1e-4)

    def test_quantile_inverts_cdf(self):
        g = gaussian_grid()
        p = np.linspace(0.01, 0.99, 23)
        x = g.quantile(p)
        # CDF at the returned points recovers p up to one cell of mass
        cdf = np.interp(x, g.x_min + g.dx * np.arange(1, g.n_cells + 1), g.cdf_right_edges())
        assert np.max(np.abs(cdf - p)) < g.dx

    def test_csv_roundtrip(self):
        g = gaussian_grid(n=50, dx=0.4)
        back = GridDensity1D.from_csv(g.to_csv())
        assert np.allclose(back.values, g.values, rtol=0, atol=0)
        assert back.x_min == pytest.approx(g.x_min)

    def test_density_at_outside_is_zero(self):
        g = gaussian_grid()
        assert density_at(g, np.array([-50.0, 50.0])).tolist() == [0.0, 0.0]


@st.composite
def small_cloud(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pts = draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    raw = draw(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n)
    )
    w = np.array(raw)
    return EmpiricalMeasure.from_atoms(np.array(pts), w / w.sum())


class TestWasserstein:
    @settings(max_examples=60, deadline=None)
    @given(small_cloud(), small_cloud())
    def test_exact1d_matches_lp(self, mu, nu):
        w2 = wasserstein2(mu, nu)
        lp = lp_w2sq(mu, nu)
        # the monotone coupling is optimal, so it can only undercut the LP
        # solver's vertex tolerance, never exceed it
        assert w2**2 <= lp + 1e-9
        assert w2**2 == pytest.approx(lp, abs=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(small_cloud())
    def test_self_distance_zero(self, mu):
        assert wasserstein2(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_translation(self):
        rng = np.random.default_rng(1)
        mu = EmpiricalMeasure.from_atoms(rng.normal(size=30))
        nu = EmpiricalMeasure.from_atoms(mu.points[:, 0] + 2.5)
        assert wasserstein2(mu, nu) == pytest.approx(2.5, abs=1e-12)

    def test_single_atom_rms(self):
        mu = EmpiricalMeasure.dirac(np.array([1.0, 2.0]))
        nu = EmpiricalMeasure.from_atoms(np.array([[1.0, 2.0], [4.0, 6.0]]))
        assert wasserstein2(mu, nu) == pytest.approx(np.sqrt(0.5 * 25.0))

    def test_quantile_plan_cost_matches_distance(self):
        rng = np.random.default_rng(2)
        mu = EmpiricalMeasure.from_atoms(rng.normal(size=12))
        nu = EmpiricalMeasure.from_atoms(rng.normal(1.0, 2.0, size=9))
        plan = quantile_coupling_plan(mu, nu)
        assert plan.cost() == pytest.approx(wasserstein2(mu, nu) ** 2, rel=1e-12)

    def test_sinkhorn_close_to_exact(self):
        rng = np.random.default_rng(3)
        mu = EmpiricalMeasure.from_atoms(rng.normal(size=40))
        nu = EmpiricalMeasure.from_atoms(rng.normal(0.5, 1.5, size=40))
        exact = wasserstein2(mu, nu)
        approx = wasserstein2(mu, nu, method="sinkhorn", epsilon=1e-2, max_iter=20000)
        # entropic cost after rounding upper-bounds the optimum
        assert exact <= approx + 1e-9
        assert approx <= exact + 0.05

    def test_sinkhorn_marginals_exact(self):
        rng = np.random.default_rng(4)
        mu = EmpiricalMeasure.from_atoms(rng.normal(size=15))
        nu = EmpiricalMeasure.from_atoms(rng.normal(size=10))
        plan = sinkhorn_plan(mu, nu)
        assert np.allclose(plan.coupling.sum(axis=1), mu.weights, atol=1e-12)
        assert np.allclose(plan.coupling.sum(axis=0), nu.weights, atol=1e-12)

    def test_w2_to_quantile_gaussian(self):
        from scipy.stats import norm

        g = gaussian_grid(mean=0.5, var=1.0)
        q = lambda p: norm.ppf(p, loc=-1.0, scale=2.0)
        ref = w2_gaussian_1d(0.5, 1.0, -1.0, 4.0)
        assert w2_to_quantile(g, q) == pytest.approx(ref, abs=5e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein2(
                EmpiricalMeasure.from_atoms([0.0, 1.0]),
                EmpiricalMeasure.from_atoms(np.zeros((2, 2)) + [[0, 0], [1, 1]]),
            )


class TestKDE:
    def test_exact_recovers_gaussian(self):
        rng = np.random.default_rng(5)
        mu = EmpiricalMeasure.from_atoms(rng.normal(size=20000))
        g = kde_density(mu, -10.0, 0.01, 2000, bandwidth=silverman_bandwidth(mu))
        ref = gaussian_grid()
        assert np.abs(g.values - ref.values).sum() * 0.01 < 0.05

    def test_binned_close_to_exact(self):
        rng = np.random.default_rng(6)
        mu = EmpiricalMeasure.from_atoms(rng.normal(size=5000))
        bw = silverman_bandwidth(mu)
        a = kde_density(mu, -10.0, 0.01, 2000, bw, method="exact")
        b = kde_density(mu, -10.0, 0.01, 2000, bw, method="binned")
        assert np.abs(a.values - b.values).sum() * 0.01 < 1e-3

    def test_mass_is_one(self):
        mu = EmpiricalMeasure.from_atoms([0.0, 0.5, 1.0])
        g = kde_density(mu, -8.0, 0.01, 1600, 0.3)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_small_raises(self):
        mu = EmpiricalMeasure.from_atoms([0.0])
        with pytest.raises(ValueError, match="grid too small"):
            kde_density(mu, -0.5, 0.01, 100, bandwidth=0.5)


class TestSamplingAndConversion:
    def test_sample_density_moments(self):
        g = gaussian_grid(mean=2.0, var=0.5)
        mu = sample_density(g, 50000, np.random.default_rng(7))
        assert mu.mean()[0] == pytest.approx(2.0, abs=0.02)
        assert mu.cov()[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_grid_to_measure_preserves_moments(self):
        g = gaussian_grid(mean=-1.0, var=2.0)
        mu = grid_to_measure(g)
        assert mu.mean()[0] == pytest.approx(g.mean()[0], abs=1e-12)
        assert mu.second_moment() == pytest.approx(g.second_moment(), rel=1e-12)


class TestCylindrical:
    def test_pushforward_moves_atoms(self):
        mu = EmpiricalMeasure.from_atoms([0.0, 1.0])
        nu = pushforward(mu, lambda X: np.ones_like(X), 0.5)
        assert nu.points[:, 0].tolist() == [0.5, 1.5]
        assert np.array_equal(nu.weights, mu.weights)

    def test_gradient_representation_independent(self):
        h1, h2 = presets.tanh_test(), square_test()
        # F(mu) = mu(tanh) + mu(x^2) written two ways
        F_a = CylindricalFunction(
            inner=(h1, h2),
            outer=lambda r: float(r[0] + r[1]),
            outer_grad=lambda r: np.ones(2),
        )
        both = InnerTest(
            lambda X: np.tanh(X[:, 0]) + X[:, 0] ** 2,
            lambda X: (1 - np.tanh(X[:, 0]) ** 2 + 2 * X[:, 0])[:, None],
            lambda X: (-2 * np.tanh(X[:, 0]) * (1 - np.tanh(X[:, 0]) ** 2) + 2)[:, None, None],
        )
        F_b = CylindricalFunction.linear(both.h, both.grad, both.hess)
        mu = EmpiricalMeasure.from_atoms(np.linspace(-2, 2, 9))
        pts = np.linspace(-3, 3, 11)[:, None]
        ga = intrinsic_gradient(F_a, mu)(pts)
        gb = intrinsic_gradient(F_b, mu)(pts)
        assert np.max(np.abs(ga - gb)) < 1e-10

    def test_linear_gradient_is_grad_h(self):
        h = square_test()
        F = CylindricalFunction.linear(h.h, h.grad, h.hess)
        mu = EmpiricalMeasure.from_atoms([0.3, -0.7])
        pts = np.array([[1.5]])
        assert intrinsic_gradient(F, mu)(pts)[0, 0] == pytest.approx(3.0)
