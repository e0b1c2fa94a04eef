import numpy as np
import pytest
from scipy.integrate import quad

from mvlab import feynman_kac
from mvlab.coefficients import heat_coefficients, meanfield_ou_coefficients
from mvlab.feynman_kac import (
    FKProblem,
    fk_evaluate,
    fk_evaluate_grid,
    l_derivative_fd,
    pde_residual,
)
from mvlab.fpe import SolverConfig, solve_nonlinear_fpe
from mvlab.measures import CylindricalFunction, EmpiricalMeasure, intrinsic_gradient
from mvlab.particles import SimConfig, simulate_frozen
from mvlab.presets import gaussian_grid, tanh_test
from tests_helpers import square_test

CFG = SolverConfig(dt=1e-3)


@pytest.fixture(scope="module")
def mu():
    return gaussian_grid(0.5, 1.0, x_min=-10.0, dx=0.01, n=2000)


class TestOracles:
    def test_heat_square(self, mu):
        prob = FKProblem(heat_coefficients(1, 1.0), 1.0, terminal=lambda X, m: X[:, 0] ** 2)
        grid = fk_evaluate(prob, 0.0, 0.7, mu, CFG, backend="grid")
        assert grid.value == pytest.approx(0.7**2 + 1.0, abs=5e-3)
        mc = fk_evaluate(prob, 0.0, 0.7, mu, CFG, backend="mc", n_particles=20000, seed=1)
        assert abs(mc.value - (0.7**2 + 1.0)) < 3 * mc.stderr + 10 * CFG.dt

    def test_ou_identity_closed_form(self, mu):
        lam0, kap0 = 1.0, 0.5
        cs, _ = meanfield_ou_coefficients(lam0, kap0, 1.0)
        m0 = mu.mean()[0]
        T, x = 1.0, 0.5
        mean_flow = lambda r: m0 * np.exp(-(lam0 - kap0) * r)
        integ, _ = quad(lambda r: np.exp(-lam0 * (T - r)) * mean_flow(r), 0.0, T)
        oracle = x * np.exp(-lam0 * T) + kap0 * integ
        prob = FKProblem(cs, T, terminal=lambda X, m: X[:, 0])
        grid = fk_evaluate(prob, 0.0, x, mu, CFG, backend="grid")
        assert grid.value == pytest.approx(oracle, abs=2e-3)
        mc = fk_evaluate(prob, 0.0, x, mu, CFG, backend="mc", n_particles=20000, seed=2)
        assert abs(mc.value - oracle) < 3 * mc.stderr + 10 * CFG.dt

    def test_constant_potential_scales(self, mu):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        base = FKProblem(cs, 1.0, terminal=lambda X, m: X[:, 0])
        scaled = FKProblem(cs, 1.0, terminal=lambda X, m: X[:, 0],
                           potential=lambda t, X, m: np.full(X.shape[0], 0.3))
        v0 = fk_evaluate(base, 0.0, 0.5, mu, CFG, backend="grid").value
        v1 = fk_evaluate(scaled, 0.0, 0.5, mu, CFG, backend="grid").value
        assert v1 == pytest.approx(np.exp(0.3) * v0, rel=2e-3)

    def test_measure_only_terminal(self, mu):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        prob = FKProblem(cs, 1.0, terminal=lambda X, m: np.full(X.shape[0], m.mean()[0]))
        val = fk_evaluate(prob, 0.0, 0.5, mu, CFG, backend="grid").value
        assert val == pytest.approx(mu.mean()[0] * np.exp(-0.5), abs=5e-3)

    def test_mc_covers_horizon_off_the_step_grid(self, mu):
        # dt = 0.1 does not divide T = 0.34: the last step is 0.04 long
        prob = FKProblem(heat_coefficients(1, 1.0), 0.34, terminal=lambda X, m: X[:, 0] ** 2)
        mc = fk_evaluate(prob, 0.0, 0.7, mu, SolverConfig(dt=0.1), backend="mc",
                         n_particles=200_000, seed=1)
        assert abs(mc.value - (0.7**2 + 0.34)) < 3 * mc.stderr

    def test_mc_rejects_flow_that_ends_early(self, mu):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        short = solve_nonlinear_fpe(mu, cs, 0.0, 0.2, SolverConfig(dt=1e-2))
        prob = FKProblem(cs, 1.0, terminal=lambda X, m: X[:, 0])
        with pytest.raises(ValueError, match="span"):
            fk_evaluate(prob, 0.0, 0.5, mu, SolverConfig(dt=1e-2), backend="mc",
                        n_particles=100, seed=0, flow=short)

    def test_mc_reads_the_flow_span_before_stepping(self):
        # a flow on [0, 0.05] and a horizon of 0.1: no step may be taken
        def source(t, X, m):
            raise AssertionError("stepped before checking the flow span")

        nu = gaussian_grid(0.5)
        cs = heat_coefficients(1, 1.0)
        short = solve_nonlinear_fpe(nu, cs, 0.0, 0.05, CFG)
        prob = FKProblem(cs, 0.1, terminal=lambda X, m: X[:, 0], source=source)
        with pytest.raises(ValueError, match="outside the recorded span"):
            fk_evaluate(prob, 0.0, 0.5, nu, CFG, backend="mc", n_particles=100, flow=short)

    @pytest.mark.parametrize("backend", ["mc", "grid"])
    def test_both_backends_read_the_flow_grid_before_stepping(self, backend):
        # mu on 200 cells from -4, the flow from N(2, 0.25) on the default grid:
        # the MC backend used to return the flow's mean, 2.0
        def source(t, X, m):
            raise AssertionError("stepped before checking the flow grid")

        cs = heat_coefficients(1, 1.0)
        mu = gaussian_grid(0.25, x_min=-4.0, dx=0.04, n=200)
        other = solve_nonlinear_fpe(gaussian_grid(0.25, 2.0), cs, 0.0, 0.1, SolverConfig(dt=1e-2))
        prob = FKProblem(cs, 0.1, terminal=lambda X, m: np.full(X.shape[0], m.mean()[0]),
                         source=source)
        with pytest.raises(ValueError, match="mu grid does not match the flow grid"):
            fk_evaluate(prob, 0.0, 0.5, mu, SolverConfig(dt=1e-2), backend=backend,
                        n_particles=100, flow=other)

    def test_mc_needs_two_particles_before_solving(self, mu, monkeypatch):
        # one particle leaves no standard error (ddof=1)
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking n_particles")

        monkeypatch.setattr(feynman_kac, "solve_nonlinear_fpe", no_solve)
        prob = FKProblem(heat_coefficients(1, 1.0), 0.1, terminal=lambda X, m: X[:, 0])
        with pytest.raises(ValueError, match="n_particles"):
            fk_evaluate(prob, 0.0, 0.5, mu, CFG, backend="mc", n_particles=1)

    def test_mc_without_potential_is_the_frozen_cloud_mean(self, mu):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        cfg = SolverConfig(dt=1e-2)
        flow = solve_nonlinear_fpe(mu, cs, 0.0, 0.5, cfg)
        terminal = lambda X, m: np.tanh(X[:, 0]) + m.mean()[0]
        prob = FKProblem(cs, 0.5, terminal=terminal)
        est = fk_evaluate(prob, 0.1, 0.3, mu, cfg, backend="mc", n_particles=500, seed=9,
                          flow=flow)
        ens = simulate_frozen(np.full((500, 1), 0.3), flow.state_at, cs, 0.1, 0.5,
                              SimConfig(dt=1e-2, seed=9))
        assert est.value == terminal(ens.positions[-1], flow.state_at(0.5)).mean()

    def test_constant_source_accumulates(self, mu):
        cs = heat_coefficients(1, 1.0)
        prob = FKProblem(cs, 1.0, terminal=lambda X, m: np.zeros(X.shape[0]),
                         source=lambda t, X, m: np.full(X.shape[0], 0.4))
        val = fk_evaluate(prob, 0.0, 0.0, mu, CFG, backend="grid").value
        assert val == pytest.approx(0.4 * 1.0, rel=2e-3)

    @pytest.mark.parametrize("backend", ["grid", "mc"])
    def test_constant_source_alone_is_its_time_integral(self, mu, backend):
        # terminal 0 and source f: u = f (T - t) along any flow
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        prob = FKProblem(cs, 0.35, terminal=lambda X, m: np.zeros(X.shape[0]),
                         source=lambda t, X, m: np.full(X.shape[0], 0.7))
        est = fk_evaluate(prob, 0.1, 0.5, mu, SolverConfig(dt=1e-2), backend=backend,
                          n_particles=1000, seed=0)
        assert abs(est.value - 0.7 * (0.35 - 0.1)) <= 1e-12

    def test_mc_agrees_with_grid_under_potential_and_source(self, mu):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        cfg = SolverConfig(dt=1e-2)
        prob = FKProblem(cs, 0.35, terminal=lambda X, m: np.tanh(X[:, 0]),
                         potential=lambda t, X, m: np.full(X.shape[0], -0.4),
                         source=lambda t, X, m: np.full(X.shape[0], 0.7))
        grid = fk_evaluate(prob, 0.1, 0.5, mu, cfg, backend="grid")
        mc = fk_evaluate(prob, 0.1, 0.5, mu, cfg, backend="mc", n_particles=20000, seed=3)
        assert abs(mc.value - grid.value) < 3 * mc.stderr


class TestPDEResidual:
    @staticmethod
    def problem():
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        return FKProblem(
            cs, 1.0,
            terminal=lambda X, m: np.tanh(X[:, 0]),
            potential=lambda t, X, m: 0.2 * np.cos(X[:, 0]),
            source=lambda t, X, m: 0.1 * np.sin(X[:, 0]) + m.mean()[0],
        )

    def test_residual_small_relative_to_terms(self, mu):
        res = pde_residual(self.problem(), 0.2, 0.5, mu, SolverConfig(dt=1e-4), dt_fd=1e-3)
        scale = max(abs(res["flow_derivative"]), abs(res["point_term"]), 1e-12)
        assert abs(res["residual"]) / scale < 1e-2

    def test_dt_fd_off_the_step_grid(self, mu):
        # 1e-3 is not a whole number of 3e-4 steps: each piece of the flow
        # and of the sweep ends with a short step
        res = pde_residual(self.problem(), 0.2, 0.5, mu, SolverConfig(dt=3e-4), dt_fd=1e-3)
        scale = max(abs(res["flow_derivative"]), abs(res["point_term"]), 1e-12)
        assert abs(res["residual"]) / scale < 1e-2

    # problem() ends at 1: 0.2 + 2 * 0.45 is past it
    @pytest.mark.parametrize("dt_fd", [0.0, -1e-3, 0.45, float("nan")])
    def test_dt_fd_checked_before_any_march(self, monkeypatch, mu, dt_fd):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking dt_fd")

        monkeypatch.setattr(feynman_kac, "solve_nonlinear_fpe", no_solve)
        with pytest.raises(ValueError, match="dt_fd"):
            pde_residual(self.problem(), 0.2, 0.5, mu, CFG, dt_fd=dt_fd)

    def test_edge_point_rejected(self, mu):
        cs = heat_coefficients(1, 1.0)
        prob = FKProblem(cs, 0.5, terminal=lambda X, m: X[:, 0])
        with pytest.raises(ValueError, match="edge"):
            pde_residual(prob, 0.0, mu.x_min + mu.dx / 2, mu, CFG)

    def test_point_off_the_grid_rejected(self, mu):
        prob = FKProblem(heat_coefficients(1, 1.0), 0.5, terminal=lambda X, m: X[:, 0])
        with pytest.raises(ValueError, match="outside grid centers"):
            pde_residual(prob, 0.0, 30.0, mu, CFG)


class TestLDerivative:
    def test_matches_intrinsic_gradient_pairing(self):
        rng = np.random.default_rng(5)
        cloud = EmpiricalMeasure.from_atoms(rng.normal(size=400))
        h1, h2 = tanh_test(), square_test()
        F = CylindricalFunction(
            inner=(h1, h2),
            outer=lambda r: float(np.sin(r[0]) + 0.5 * r[1] ** 2),
            outer_grad=lambda r: np.array([np.cos(r[0]), r[1]]),
        )
        phi = lambda X: np.cos(X) + 0.3 * X
        fd = l_derivative_fd(F, cloud, phi, eps=1e-5)
        field = intrinsic_gradient(F, cloud)
        pairing = cloud.integrate(lambda X: np.einsum("ni,ni->n", field(X), phi(X)))
        assert fd == pytest.approx(pairing, rel=1e-6)

    def test_second_order_in_eps(self):
        rng = np.random.default_rng(6)
        cloud = EmpiricalMeasure.from_atoms(rng.normal(size=200))
        h = square_test()
        F = CylindricalFunction(
            inner=(h,),
            outer=lambda r: float(np.exp(0.3 * r[0])),
            outer_grad=lambda r: np.array([0.3 * np.exp(0.3 * r[0])]),
        )
        phi = lambda X: np.tanh(X)
        field = intrinsic_gradient(F, cloud)
        exact = cloud.integrate(lambda X: np.einsum("ni,ni->n", field(X), phi(X)))
        errs = [abs(l_derivative_fd(F, cloud, phi, eps=e) - exact) for e in (1e-2, 5e-3)]
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9


class TestGridBackend:
    def test_returns_full_profile(self, mu):
        prob = FKProblem(heat_coefficients(1, 1.0), 0.5, terminal=lambda X, m: X[:, 0] ** 2)
        w = fk_evaluate_grid(prob, 0.0, mu, CFG)
        assert w.shape == (mu.n_cells,)
        mid = np.abs(mu.centers) < 5
        assert np.allclose(w[mid], mu.centers[mid] ** 2 + 0.5, atol=1e-2)

    def test_multidimensional_rejected(self, mu):
        cs = heat_coefficients(2, 1.0)
        prob = FKProblem(cs, 0.5, terminal=lambda X, m: X[:, 0])
        with pytest.raises(ValueError, match="one-dimensional"):
            fk_evaluate_grid(prob, 0.0, mu, CFG)

    def test_flow_on_other_grid_rejected(self, mu):
        prob = FKProblem(heat_coefficients(1, 1.0), 0.01, terminal=lambda X, m: X[:, 0])
        flow = solve_nonlinear_fpe(gaussian_grid(0.5), prob.coeffs, 0.0, 0.01, CFG)
        with pytest.raises(ValueError, match="grid"):
            fk_evaluate_grid(prob, 0.0, mu, CFG, flow=flow)

    @pytest.mark.parametrize("x", [100.0, -10.0])
    def test_point_off_the_grid_rejected(self, mu, x):
        # np.interp would clamp x to the edge cell's value
        prob = FKProblem(heat_coefficients(1, 1.0), 0.01, terminal=lambda X, m: np.tanh(X[:, 0]))
        with pytest.raises(ValueError, match="outside grid centers"):
            fk_evaluate(prob, 0.0, x, mu, CFG, backend="grid")

    def test_more_than_one_point_rejected(self, mu):
        # neither backend may read x[0] alone
        prob = FKProblem(heat_coefficients(1, 1.0), 0.01, terminal=lambda X, m: np.tanh(X[:, 0]))
        x = np.array([0.5, 3.0])
        with pytest.raises(ValueError, match="one point"):
            fk_evaluate(prob, 0.0, x, mu, CFG, backend="grid")
        with pytest.raises(ValueError):
            fk_evaluate(prob, 0.0, x, mu, CFG, backend="mc", n_particles=10)
