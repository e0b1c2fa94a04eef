import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from mvlab.coefficients import heat_coefficients, meanfield_ou_coefficients
from mvlab.fpe import (
    CFLError,
    DensityPath,
    SolverConfig,
    _fv_band,
    _time_steps,
    fpe_weak_residual,
    solve_backward_kolmogorov,
    solve_frozen_fpe,
    solve_nonlinear_fpe,
)
from mvlab.measures import GridDensity1D, InnerTest

X_MIN, DX, M = -8.0, 0.01, 1600
XS = X_MIN + DX * (np.arange(M) + 0.5)


def gaussian(var, mean=0.0):
    v = np.exp(-((XS - mean) ** 2) / (2 * var))
    return GridDensity1D(X_MIN, DX, v / (v.sum() * DX))


def tanh_test():
    return InnerTest(
        lambda X: np.tanh(X[:, 0]),
        lambda X: (1 - np.tanh(X[:, 0]) ** 2)[:, None],
        lambda X: (-2 * np.tanh(X[:, 0]) * (1 - np.tanh(X[:, 0]) ** 2))[:, None, None],
    )


class TestHeatOracle:
    # N(0, 0.1) spreads to N(0, 0.1 + t) under unit diffusion

    def test_semi_implicit(self):
        path = solve_nonlinear_fpe(
            gaussian(0.1), heat_coefficients(1, 1.0), 0.0, 1.0,
            SolverConfig(dt=1e-3), record_every=1000,
        )
        err = np.abs(path.states[-1].values - gaussian(1.1).values).sum() * DX
        assert err < 2 * DX + 10 * 1e-3

    def test_explicit(self):
        path = solve_nonlinear_fpe(
            gaussian(0.1), heat_coefficients(1, 1.0), 0.0, 0.2,
            SolverConfig(dt=4e-5, scheme="explicit"), record_every=5000,
        )
        err = np.abs(path.states[-1].values - gaussian(0.3).values).sum() * DX
        assert err < 1e-4

    def test_explicit_cfl_guard(self):
        with pytest.raises(CFLError):
            solve_nonlinear_fpe(
                gaussian(0.1), heat_coefficients(1, 1.0), 0.0, 0.1,
                SolverConfig(dt=1e-3, scheme="explicit"),
            )


class TestMeanFieldOU:
    def test_transient_moments(self):
        lam0, kap0, sig0 = 1.0, 0.5, 1.0
        cs, _ = meanfield_ou_coefficients(lam0, kap0, sig0)
        path = solve_nonlinear_fpe(gaussian(0.25, 2.0), cs, 0.0, 2.0,
                                   SolverConfig(dt=1e-3), record_every=500)
        var_inf = sig0**2 / (2 * lam0)
        for t, st in zip(path.times, path.states):
            m = 2.0 * np.exp(-(lam0 - kap0) * t)
            v = var_inf + (0.25 - var_inf) * np.exp(-2 * lam0 * t)
            assert st.mean()[0] == pytest.approx(m, abs=8e-3)
            assert st.cov()[0, 0] == pytest.approx(v, abs=8e-3)

    def test_stationary_profile_is_fixed(self):
        lam0, kap0, sig0 = 1.0, 0.5, 1.0
        cs, _ = meanfield_ou_coefficients(lam0, kap0, sig0)
        inv = gaussian(sig0**2 / (2 * lam0))
        path = solve_nonlinear_fpe(inv, cs, 0.0, 5.0, SolverConfig(dt=1e-3),
                                   record_every=5000)
        drift = np.abs(path.states[-1].values - inv.values).sum() * DX
        assert drift < 1e-2

    def test_frozen_matches_nonlinear_when_coefficients_agree(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        u0 = gaussian(0.25, 2.0)
        flow = solve_nonlinear_fpe(u0, cs, 0.0, 1.0, SolverConfig(dt=1e-3))
        frozen = solve_frozen_fpe(u0, flow, cs, SolverConfig(dt=1e-3), record_every=1000)
        err = np.abs(frozen.states[-1].values - flow.states[-1].values).sum() * DX
        assert err < 1e-6


class TestConservation:
    def test_mass_drift_within_budget(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        path = solve_nonlinear_fpe(gaussian(0.5, 1.0), cs, 0.0, 1.0, SolverConfig(dt=1e-3))
        assert path.log.max_mass_drift <= 1e-12
        assert all(st.mass() == pytest.approx(1.0, abs=1e-10) for st in path.states)

    def test_no_clipping_on_smooth_data(self):
        path = solve_nonlinear_fpe(gaussian(0.25), heat_coefficients(1, 1.0), 0.0, 0.5,
                                   SolverConfig(dt=1e-3))
        assert path.log.clipped_mass == 0.0
        assert path.log.worst_undershoot == 0.0


class TestWeakResidual:
    def test_heat_weak_formulation(self):
        coeffs = heat_coefficients(1, 1.0)
        path = solve_nonlinear_fpe(gaussian(0.1, 0.5), coeffs, 0.0, 1.0,
                                   SolverConfig(dt=1e-3), record_every=10)
        r = fpe_weak_residual(path, coeffs, tanh_test())
        assert np.abs(r).max() < 5e-4

    def test_frozen_weak_formulation_uses_flow(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        u0 = gaussian(0.25, 2.0)
        nu0 = gaussian(0.5, -1.0)
        flow = solve_nonlinear_fpe(u0, cs, 0.0, 1.0, SolverConfig(dt=1e-3))
        frozen = solve_frozen_fpe(nu0, flow, cs, SolverConfig(dt=1e-3), record_every=10)
        r = fpe_weak_residual(frozen, cs, tanh_test(), flow=flow, bar=True)
        assert np.abs(r).max() < 2e-3


class TestPathContainer:
    def test_state_at_tolerance(self):
        path = solve_nonlinear_fpe(gaussian(0.25), heat_coefficients(1, 1.0), 0.0, 0.1,
                                   SolverConfig(dt=1e-3), record_every=10)
        with pytest.raises(ValueError):
            path.state_at(0.055, tol=1e-6)
        st = path.state_at(0.05, tol=1e-9)
        assert st.mass() == pytest.approx(1.0, abs=1e-10)

    def test_csv_and_manifest(self):
        path = solve_nonlinear_fpe(gaussian(0.25), heat_coefficients(1, 1.0), 0.0, 0.01,
                                   SolverConfig(dt=1e-3), record_every=5)
        text = path.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + len(path.times) * M
        man = path.manifest()
        assert man["n_cells"] == M
        assert man["t_end"] == pytest.approx(0.01)
        assert man["conservation"]["max_mass_drift"] <= 1e-12

    def test_grid_mismatch_rejected(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        flow = solve_nonlinear_fpe(gaussian(0.25), cs, 0.0, 0.01, SolverConfig(dt=1e-3))
        other = GridDensity1D(X_MIN - 1.0, DX, gaussian(0.25).values)
        with pytest.raises(ValueError, match="grid"):
            solve_frozen_fpe(other, flow, cs, SolverConfig(dt=1e-3))

    def test_times_must_increase(self):
        g = gaussian(0.25)
        with pytest.raises(ValueError):
            DensityPath(np.array([0.0, 0.0]), [g, g])


def _dense(ab):
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


@st.composite
def fv_system(draw):
    m = draw(st.integers(min_value=2, max_value=12))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

    return (vec(0.01, 2.0), vec(-2.0, 2.0), draw(st.floats(0.02, 0.5)),
            draw(st.floats(1e-4, 1e-2)), vec(0.0, 1.0), vec(0.0, 1.0))


class TestFVOperator:
    @settings(max_examples=80, deadline=None)
    @given(fv_system())
    def test_transposed_solve_is_adjoint(self, system):
        a, v, dx, dt, u, g = system
        ab = _fv_band(a, v, dx, dt)
        forward = float(g @ solve_banded((1, 1), ab, u))
        abt = _fv_band(a, v, dx, dt, transpose=True)
        backward = float(solve_banded((1, 1), abt, g) @ u)
        assert abs(forward - backward) <= 1e-12
        A = _dense(ab)
        assert np.array_equal(_dense(abt), A.T)
        assert np.abs(A.sum(axis=0) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("s, t_end, n, last", [
        (0.0, 1.0, 500, 2e-3), (0.4, 1.0, 300, 2e-3), (0.0, 0.5007, 251, 7e-4), (0.3, 0.3, 0, None),
        (0.0, 0.42 * 9, 1890, 2e-3),
    ])
    def test_time_steps_end_exactly(self, s, t_end, n, last):
        steps = _time_steps(s, t_end, 2e-3)
        assert len(steps) == n
        if n:
            assert steps[0][0] == s and steps[-1][2] == t_end
            assert steps[-1][1] == pytest.approx(last, rel=1e-9)
            assert all(a[2] == b[0] for a, b in zip(steps, steps[1:]))
            # full steps are dt exactly; only a genuinely short last step is not
            full = steps if last == 2e-3 else steps[:-1]
            assert all(h == 2e-3 for _, h, _ in full)

    def test_backward_sweep_checks_shape(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        flow = solve_nonlinear_fpe(gaussian(0.25), cs, 0.0, 0.01, SolverConfig(dt=1e-3))
        with pytest.raises(ValueError, match="cells"):
            solve_backward_kolmogorov(np.ones(M - 1), flow, cs, SolverConfig(dt=1e-3), 0.0, 0.01)
