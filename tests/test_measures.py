import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvlab import presets
from mvlab.measures import (
    QUANTILE_GRID,
    CylindricalFunction,
    EmpiricalMeasure,
    GridDensity1D,
    InnerTest,
    MeasureViewError,
    grid_to_measure,
    intrinsic_gradient,
    kde_density,
    pushforward,
    sample_density,
    silverman_bandwidth,
    w2_gaussian_1d,
    w2_to_quantile,
    _level_ranks,
    _quantile_levels,
    wasserstein2,
)
from tests_helpers import lp_w2sq, square_test


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

    def test_constructor_reads_1d_points_as_atoms_on_the_line(self):
        w = np.array([0.25, 0.75])
        line = EmpiricalMeasure(np.array([0.0, 2.0]), w)
        column = EmpiricalMeasure(np.array([[0.0], [2.0]]), w)
        assert line.points.shape == (2, 1)
        assert np.array_equal(line.points, column.points)
        assert np.array_equal(line.points, EmpiricalMeasure.from_atoms([0.0, 2.0], w).points)

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            EmpiricalMeasure.from_atoms(np.zeros((2, 1, 1)))

    def test_integrate(self):
        mu = EmpiricalMeasure.from_atoms([1.0, 3.0])
        assert mu.integrate(lambda X: X[:, 0] ** 2) == pytest.approx(5.0)

    def test_density_view_required(self):
        mu = EmpiricalMeasure.from_atoms([0.0, 1.0])
        with pytest.raises(MeasureViewError):
            mu.density_at(np.array([0.5]))


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
        g = presets.gaussian_grid(1.0, 0.3, x_min=-10.0, dx=0.01, n=2000)
        expected = g.x_min + g.dx * (np.arange(g.n_cells) + 0.5)
        assert g.centers.tobytes() == expected.tobytes()
        # another density on the same grid reads the same array
        assert presets.gaussian_grid(1.0, -0.3, x_min=-10.0, dx=0.01, n=2000).centers is g.centers
        with pytest.raises(ValueError, match="read-only"):
            g.centers[0] = 0.0

    def test_moments_match_gaussian(self):
        g = presets.gaussian_grid(0.7, 1.3, x_min=-10.0, dx=0.01, n=2000)
        assert g.mean()[0] == pytest.approx(1.3, abs=1e-8)
        assert g.cov()[0, 0] == pytest.approx(0.7, abs=1e-4)

    def test_quantile_inverts_cdf(self):
        g = presets.gaussian_grid(1.0, 0.0, x_min=-10.0, dx=0.01, n=2000)
        p = np.linspace(0.01, 0.99, 23)
        x = g.quantile(p)
        # CDF at the returned points recovers p up to one cell of mass
        cdf = np.interp(x, g.x_min + g.dx * np.arange(1, g.n_cells + 1), g.cdf_right_edges())
        assert np.max(np.abs(cdf - p)) < g.dx

    def test_csv_roundtrip(self):
        g = presets.gaussian_grid(1.0, 0.0, x_min=-10.0, dx=0.4, n=50)
        back = np.loadtxt(io.StringIO(g.to_csv()), delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], g.centers)
        assert np.array_equal(back[:, 1], g.values)

    @pytest.mark.parametrize("other", [
        presets.gaussian_grid(0.25, x_min=-3.0, dx=0.04, n=200),  # read cell by cell: 1.365
        GridDensity1D(-4.0, 0.04, [25.0]),  # broadcast against one cell: 199.0
    ], ids=["shifted", "one-cell"])
    def test_l1_distance_needs_the_same_grid(self, other):
        u = presets.gaussian_grid(0.25, x_min=-4.0, dx=0.04, n=200)
        with pytest.raises(ValueError, match="same grid"):
            u.l1_distance(other)
        # the tolerances of the rule: x_min within 1e-12, dx within 1e-15
        assert u.same_grid(GridDensity1D(-4.0 + 1e-13, 0.04, u.values))
        assert not u.same_grid(GridDensity1D(-4.0 + 1e-11, 0.04, u.values))
        assert not u.same_grid(GridDensity1D(-4.0, 0.04 + 1e-14, u.values / (1 + 2.5e-13)))

    @pytest.mark.parametrize("x", [0.5, np.float64(0.5), [0.5], np.array([[0.5]])])
    def test_one_point_of_any_shape_read_as_a_float(self, x):
        v = presets.gaussian_grid(0.5).check_inside_centers(x)
        assert v == 0.5 and type(v) is float

    @pytest.mark.parametrize("x, match", [([0.5, 0.7], "one point"), (np.zeros((1, 2)), "one point"),
                                          (30.0, "outside grid centers")])
    def test_point_rule_rejects(self, x, match):
        with pytest.raises(ValueError, match=match):
            presets.gaussian_grid(0.5).check_inside_centers(x)

    def test_density_at_outside_is_zero(self):
        g = presets.gaussian_grid(1.0, 0.0, x_min=-10.0, dx=0.01, n=2000)
        assert g.density_at(np.array([-50.0, 50.0])).tolist() == [0.0, 0.0]


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


@st.composite
def weighted_cloud(draw):
    n, d = draw(st.integers(1, 500)), draw(st.integers(1, 3))
    # magnitudes kept clear of underflow, where rounding is not relative
    coord = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    pts = draw(arrays(np.float64, (n, d), elements=coord))
    raw = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(1e-3, 1.0))))
    assume(raw.sum() > 0)
    return EmpiricalMeasure(pts, raw / raw.sum())


def assert_fsum_close(value, terms):
    """value is the sum of terms within N 4 eps times the sum of their
    absolute values, N the number of atoms (terms has the atoms first)."""
    terms = np.asarray(terms, dtype=float)
    bound = terms.shape[0] * 4 * np.finfo(float).eps * math.fsum(np.abs(terms).ravel())
    assert abs(value - math.fsum(terms.ravel())) <= bound


class TestCloudReductions:
    @settings(max_examples=100, deadline=None)
    @given(weighted_cloud())
    def test_reductions_match_fsum(self, mu):
        w, X = mu.weights, mu.points
        for k in range(mu.dim):
            assert_fsum_close(mu.mean()[k], w * X[:, k])
        # the reference shares the centering; the sum over atoms is under test
        c = X - mu.mean()
        for i in range(mu.dim):
            for j in range(mu.dim):
                assert_fsum_close(mu.cov()[i, j], w * c[:, i] * c[:, j])
        assert_fsum_close(mu.second_moment(), w[:, None] * X * X)
        h = lambda P: P[:, -1] ** 3 - P[:, 0]
        assert_fsum_close(mu.integrate(h), w * h(X))


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
        mu = EmpiricalMeasure.from_atoms([[1.0, 2.0]])
        nu = EmpiricalMeasure.from_atoms(np.array([[1.0, 2.0], [4.0, 6.0]]))
        assert wasserstein2(mu, nu) == pytest.approx(np.sqrt(0.5 * 25.0))

    def test_w2_to_quantile_gaussian(self):
        from scipy.stats import norm

        g = presets.gaussian_grid(1.0, 0.5, x_min=-10.0, dx=0.01, n=2000)
        q = lambda p: norm.ppf(p, loc=-1.0, scale=2.0)
        ref = w2_gaussian_1d(0.5, 1.0, -1.0, 4.0)
        assert w2_to_quantile(g, q) == pytest.approx(ref, abs=5e-3)

    def test_w2_to_quantile_rejects_unequal_weights(self):
        mu = EmpiricalMeasure.from_atoms([0.0, 1.0], [0.25, 0.75])
        with pytest.raises(ValueError, match="wasserstein2"):
            w2_to_quantile(mu, lambda p: np.log(p / (1 - p)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein2(
                EmpiricalMeasure.from_atoms([0.0, 1.0]),
                EmpiricalMeasure.from_atoms(np.zeros((2, 2)) + [[0, 0], [1, 1]]),
            )


class TestLevelRanks:
    @pytest.mark.parametrize("n", [3000, 10000, 20000])
    def test_count_rule_equals_float_cdf_search_without_ties(self, n):
        # (j + 1/2) n / Q is never an integer here (64 does not divide n), so
        # the float cumulative weights never land on a level
        assert not np.any((2 * np.arange(QUANTILE_GRID) + 1) * n % (2 * QUANTILE_GRID) == 0)
        rng = np.random.default_rng(n)
        for _ in range(5):
            counts = np.bincount(rng.integers(0, n, n), minlength=n)
            cdf = np.cumsum(counts / n)
            by_cdf = np.minimum(np.searchsorted(cdf, _quantile_levels(), side="left"), n - 1)
            by_rank = np.repeat(np.arange(n), counts)[_level_ranks(n)]
            assert np.array_equal(by_rank, by_cdf)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**7), j=st.integers(0, QUANTILE_GRID - 1))
    @example(n=40_000, j=0)  # 64 | n: every level a tie, (m + 1) / n == p_j
    @example(n=40_000, j=QUANTILE_GRID - 1)
    @example(n=64, j=312)
    def test_rank_is_the_exact_quantile_rank(self, n, j):
        m = int(_level_ranks(n)[j])
        p = Fraction(2 * j + 1, 2 * QUANTILE_GRID)
        assert Fraction(m, n) < p <= Fraction(m + 1, n)

    @pytest.mark.parametrize("n", [1, 640, 20000])
    def test_cached_ranks_are_read_only_and_fresh(self, n):
        # every bootstrap replicate reads one cached array, which no caller can write
        ranks = _level_ranks(n)
        assert _level_ranks(n) is ranks
        assert not ranks.flags.writeable
        assert np.array_equal(ranks, _level_ranks.__wrapped__(n))


class TestKDE:
    def test_exact_recovers_gaussian(self):
        rng = np.random.default_rng(5)
        mu = EmpiricalMeasure.from_atoms(rng.normal(size=20000))
        g = kde_density(mu, -10.0, 0.01, 2000, bandwidth=silverman_bandwidth(mu))
        ref = presets.gaussian_grid(1.0, 0.0, x_min=-10.0, dx=0.01, n=2000)
        assert g.l1_distance(ref) < 0.05

    def test_binned_close_to_exact(self):
        rng = np.random.default_rng(6)
        wide = EmpiricalMeasure.from_atoms(rng.normal(size=5000))
        cases = [
            (wide, -10.0, 0.01, 2000, silverman_bandwidth(wide)),
            # 200 cells, fewer than the kernel's 2 * ceil(6 bw / dx) + 1 = 217 taps
            (EmpiricalMeasure.from_atoms([0.0]), -0.5, 0.005, 200, 0.09),
        ]
        for mu, x_min, dx, n_cells, bw in cases:
            a = kde_density(mu, x_min, dx, n_cells, bw, method="exact")
            b = kde_density(mu, x_min, dx, n_cells, bw, method="binned")
            assert a.l1_distance(b) < 1e-3

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
        g = presets.gaussian_grid(0.5, 2.0, x_min=-10.0, dx=0.01, n=2000)
        mu = sample_density(g, 50000, np.random.default_rng(7))
        assert mu.mean()[0] == pytest.approx(2.0, abs=0.02)
        assert mu.cov()[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_grid_to_measure_preserves_moments(self):
        g = presets.gaussian_grid(2.0, -1.0, x_min=-10.0, dx=0.01, n=2000)
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
