import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab.coefficients import heat_coefficients, meanfield_ou_coefficients, nldbm_coefficients
from mvlab.feynman_kac import FKProblem, fk_evaluate_grid
from mvlab import lifted
from mvlab.fpe import SolverConfig, solve_frozen_fpe, solve_nonlinear_fpe
from mvlab.lifted import (
    LiftedTestFunction,
    ProductLaw,
    apply_lifted_generator,
    apply_measure_generator,
    chapman_kolmogorov_residual,
    check_split,
    delta_on_grid,
    kernel_evaluate,
    kernel_law,
    measure_flow_derivative_residual,
)
from mvlab.measures import CylindricalFunction
from mvlab.presets import arctan_params, cos_test, gaussian_grid, tanh_test
from tests_helpers import heat_semigroup_ck_residual, identity_test, linear_F, square_test


def no_solve(*args, **kwargs):
    raise AssertionError("solved before checking the arguments")


class TestMeasureGenerator:
    def test_linear_identity_test_is_mean_drift(self):
        # generator applied to mu -> mu(x) integrates the drift
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        mu = gaussian_grid(0.5, 1.0)
        m = mu.mean()[0]
        val = apply_measure_generator(linear_F(identity_test()), cs, 0.0, mu)
        assert val == pytest.approx(-1.0 * m + 0.5 * m, rel=1e-10)

    def test_linear_square_test_adds_diffusion(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        mu = gaussian_grid(0.5, 1.0)
        m, s2 = mu.mean()[0], mu.second_moment()
        # L(x^2) = sigma0^2 + 2x(-lam0 x + kap0 m)
        expected = 1.0 - 2.0 * s2 + 2 * 0.5 * m * m
        val = apply_measure_generator(linear_F(square_test()), cs, 0.0, mu)
        assert val == pytest.approx(expected, rel=1e-6)

    def test_chain_rule_over_outer_function(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        mu = gaussian_grid(0.5, 1.0)
        h = identity_test()
        F = CylindricalFunction(
            inner=(h,),
            outer=lambda r: float(r[0] ** 2),
            outer_grad=lambda r: np.array([2 * r[0]]),
        )
        lin = apply_measure_generator(linear_F(h), cs, 0.0, mu)
        assert apply_measure_generator(F, cs, 0.0, mu) == pytest.approx(
            2 * mu.mean()[0] * lin, rel=1e-10
        )


class TestLiftedGenerator:
    def test_product_structure(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        mu = gaussian_grid(0.5, 1.0)
        g = cos_test()
        F = linear_F(tanh_test())
        G = LiftedTestFunction(g, F)
        x = np.array([0.7])
        # point part: 1/2 sigma0^2 g'' + b g'
        b = -1.0 * 0.7 + 0.5 * mu.mean()[0]
        point = 0.5 * (-np.cos(0.7)) + b * (-np.sin(0.7))
        expected = point * F(mu) + np.cos(0.7) * apply_measure_generator(F, cs, 0.0, mu)
        assert apply_lifted_generator(G, cs, 0.0, x, mu) == pytest.approx([expected], rel=1e-10)
        # (N, d) points: each row gets its single-point value, bitwise
        both = apply_lifted_generator(G, cs, 0.0, np.array([[0.7], [0.2]]), mu)
        singles = [apply_lifted_generator(G, cs, 0.0, np.array([[y]]), mu)[0] for y in (0.7, 0.2)]
        assert both.tolist() == singles


class TestDeltaOnGrid:
    def test_mean_is_exact(self):
        like = gaussian_grid(0.5)
        d = delta_on_grid(0.3456, like)
        assert d.mean()[0] == pytest.approx(0.3456, abs=1e-12)
        assert d.mass() == pytest.approx(1.0, abs=1e-12)

    def test_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            delta_on_grid(100.0, gaussian_grid(0.5))


class TestHeatSemigroupOracle:
    @pytest.mark.parametrize("h", [np.tanh, np.cos, lambda y: y**2, lambda y: y**3 - y])
    def test_ck_defect_is_quadrature_error(self, h):
        assert heat_semigroup_ck_residual(h, 0.0, 0.3, 1.0, 0.7) < 1e-5

    def test_needs_ordered_times(self):
        with pytest.raises(ValueError):
            heat_semigroup_ck_residual(np.tanh, 0.0, 1.5, 1.0, 0.0)


class TestKernel:
    def test_product_law_integrates_point_marginal(self):
        nu = gaussian_grid(0.3, 0.5)
        mu = gaussian_grid(1.0)
        law = ProductLaw(nu, mu)
        G = LiftedTestFunction(identity_test(), linear_F(identity_test()))
        assert law.integrate(G) == pytest.approx(nu.mean()[0] * mu.mean()[0], rel=1e-8)

    def test_heat_kernel_matches_gaussian_smoothing(self):
        cs = heat_coefficients(1, 1.0)
        zeta = gaussian_grid(0.5)
        G = lambda y, mu: np.tanh(y[:, 0])
        val = kernel_evaluate(G, cs, 0.0, 0.5, 0.7, zeta, SolverConfig(dt=1e-3))
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        oracle = np.dot(weights, np.tanh(0.7 + np.sqrt(0.5) * nodes)) / np.sqrt(2 * np.pi)
        assert val == pytest.approx(oracle, abs=5e-3)

    def test_measure_coordinate_is_nonlinear_flow(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        zeta = gaussian_grid(0.25, 2.0)
        law = kernel_law(cs, 0.0, 1.0, 0.5, zeta, SolverConfig(dt=1e-3))
        assert law.measure_atom.mean()[0] == pytest.approx(2.0 * np.exp(-0.5), abs=5e-3)

    def test_ck_residual_under_scheme_tolerance(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        zeta = gaussian_grid(0.25, 1.0, x_min=-8.0, dx=0.04, n=400)
        G = LiftedTestFunction(cos_test(), linear_F(tanh_test()))
        resid = chapman_kolmogorov_residual(
            G, cs, 0.0, 0.4, 1.0, 0.5, zeta, SolverConfig(dt=2e-3), quad_points=64
        )
        assert resid < 5 * (2e-3 + 0.04**2)

    @pytest.mark.parametrize("s, t", [(0.0, 0.5), (0.1, 0.4537)])
    def test_backward_sweep_is_forward_kernel(self, s, t):
        # t = 0.4537 is not a multiple of dt: both directions take the same short last step
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        zeta = gaussian_grid(0.25, 1.0, x_min=-8.0, dx=0.04, n=400)
        cfg = SolverConfig(dt=2e-3)
        G = LiftedTestFunction(cos_test(), linear_F(tanh_test()))
        flow = solve_nonlinear_fpe(zeta, cs, s, t, cfg)
        w = fk_evaluate_grid(FKProblem(cs, t, terminal=G), s, zeta, cfg, flow=flow)
        for y in (-0.83, 0.5, 1.37):
            forward = kernel_evaluate(G, cs, s, t, y, zeta, cfg, flow=flow)
            assert abs(np.interp(y, zeta.centers, w) - forward) <= 1e-13

    def test_ck_rejects_explicit_scheme(self):
        cs = heat_coefficients(1, 1.0)
        with pytest.raises(ValueError, match="semi_implicit"):
            chapman_kolmogorov_residual(
                lambda y, m: y[:, 0], cs, 0.0, 0.5, 1.0, 0.0,
                gaussian_grid(0.5), SolverConfig(dt=1e-3, scheme="explicit"),
            )

    def test_ck_requires_ordered_times(self):
        cs = heat_coefficients(1, 1.0)
        with pytest.raises(ValueError):
            chapman_kolmogorov_residual(
                lambda y, m: y[:, 0], cs, 0.0, 1.5, 1.0, 0.0,
                gaussian_grid(0.5), SolverConfig(dt=1e-3),
            )

    def test_ck_rejects_split_off_step_grid_before_solving(self, monkeypatch):
        # r = 0.025 is 12.5 steps of 2e-3: the flow holds no record there
        monkeypatch.setattr(lifted, "solve_nonlinear_fpe", no_solve)
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"r=0.025 is not on the step grid .*s=0.0, t=0.05, dt=0.002"):
            chapman_kolmogorov_residual(
                lambda y, m: y[:, 0], cs, 0.0, 0.025, 0.05, 0.0,
                gaussian_grid(0.5), SolverConfig(dt=2e-3),
            )


    @pytest.mark.parametrize("x, quad_points, match", [
        ([0.5, 0.7], 16, "one point"), (30.0, 16, "outside grid centers"), (0.5, 0, "quad_points"),
    ])
    def test_ck_reads_point_and_nodes_before_solving(self, monkeypatch, x, quad_points, match):
        monkeypatch.setattr(lifted, "solve_nonlinear_fpe", no_solve)
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=match):
            chapman_kolmogorov_residual(
                lambda y, m: y[:, 0], cs, 0.0, 0.02, 0.05, x,
                gaussian_grid(0.5), SolverConfig(dt=2e-3), quad_points=quad_points,
            )

    def test_kernel_law_reads_the_point_before_solving(self, monkeypatch):
        monkeypatch.setattr(lifted, "solve_nonlinear_fpe", no_solve)
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="outside grid centers"):
            kernel_law(cs, 0.0, 0.05, 30.0, gaussian_grid(0.5), SolverConfig(dt=2e-3))

    def test_delta_reads_a_point_of_any_shape(self):
        like = gaussian_grid(0.5)
        assert np.array_equal(delta_on_grid(np.array([[0.5]]), like).values,
                              delta_on_grid(0.5, like).values)


class TestOneFrozenMarch:
    """The Chapman-Kolmogorov check reads both point laws off one frozen
    march from delta_x over [s, t]."""

    FAMILIES = {"meanfield_ou": meanfield_ou_coefficients(1.0, 0.5, 1.0)[0],
                "nldbm_arctan": nldbm_coefficients(arctan_params())}

    def test_ck_makes_one_frozen_march(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return solve_frozen_fpe(*args, **kwargs)

        monkeypatch.setattr(lifted, "solve_frozen_fpe", counted)
        chapman_kolmogorov_residual(
            lambda y, m: np.cos(y[:, 0]), heat_coefficients(1, 1.0), 0.0, 0.04, 0.1, 0.3,
            gaussian_grid(0.5, x_min=-4.0, dx=0.04, n=200), SolverConfig(dt=1e-2), quad_points=16,
        )
        assert len(calls) == 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([1e-3, 2e-3, 5e-3, 1e-2]), st.sampled_from([0.0, 0.1, 0.37]),
           st.integers(1, 12), st.integers(1, 6), st.floats(-1.5, 1.5))
    def test_march_to_t_holds_the_kernel_law_at_r(self, family, dt, s, n_r, n_after, x):
        # the march to t reaches r at s + n_r dt, the march to r at r itself:
        # the same record of the flow, so the same bits
        cs, cfg = self.FAMILIES[family], SolverConfig(dt=dt)
        r, t = s + n_r * dt, s + (n_r + n_after) * dt
        check_split(s, r, t, cfg)
        zeta = gaussian_grid(0.25, 0.5, x_min=-4.0, dx=0.04, n=200)
        flow = solve_nonlinear_fpe(zeta, cs, s, t, cfg)
        nu = solve_frozen_fpe(delta_on_grid(x, zeta), flow, cs, cfg, s=s, t_end=t)
        law = kernel_law(cs, s, r, x, zeta, cfg, flow=flow)
        assert np.array_equal(nu.state_at(r).values, law.point_law.values)


class TestFlowDerivative:
    def test_matches_generator_along_flow(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        path = solve_nonlinear_fpe(gaussian_grid(0.5, 1.0), cs, 0.0, 1.0,
                                   SolverConfig(dt=1e-4), record_every=1)
        F = linear_F(tanh_test())
        fd, gen, res = measure_flow_derivative_residual(F, cs, path, 0.5, 1e-4)
        assert res / abs(gen) < 1e-2

    def test_zero_step_rejected(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        path = solve_nonlinear_fpe(gaussian_grid(0.5, 1.0), cs, 0.0, 0.01, SolverConfig(dt=1e-3))
        with pytest.raises(ValueError, match="dt_fd"):
            measure_flow_derivative_residual(linear_F(tanh_test()), cs, path, 0.005, 0.0)
