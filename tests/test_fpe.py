from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from mvlab.coefficients import CoefficientSet, heat_coefficients, meanfield_ou_coefficients
from mvlab.fpe import (
    MAX_PICARD,
    SPAN_SLACK,
    CFLError,
    DensityPath,
    NonlinearSolveError,
    SolverConfig,
    _fv_band,
    _record_index,
    _solve,
    _time_steps,
    fpe_weak_residual,
    solve_backward_kolmogorov,
    solve_frozen_fpe,
    solve_nonlinear_fpe,
)
from mvlab.measures import GridDensity1D, density_at
from mvlab.particles import SimConfig, simulate_frozen
from mvlab.presets import gaussian_grid as gaussian, tanh_test

X_MIN, DX, M = -8.0, 0.01, 1600


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

    def test_explicit_nan_drift_raises_at_its_step(self):
        nan_at = []

        def b(t, X, mu):
            if t > 0.005:
                nan_at.append(t)
                return np.full_like(X, np.nan)
            return -X

        cs = CoefficientSet(b=b, sigma=heat_coefficients(1, 1.0).sigma)
        with pytest.raises(NonlinearSolveError) as err:
            solve_nonlinear_fpe(gaussian(0.5), cs, 0.0, 0.01, SolverConfig(dt=2e-5, scheme="explicit"))
        assert len(nan_at) == 1
        assert str(err.value) == f"mass drift nan exceeds 1e-12 at t={nan_at[0]:g}"


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

    def test_frozen_step_evaluates_fields_once_at_its_right_end(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        flow = solve_nonlinear_fpe(gaussian(0.25), cs, 0.0, 0.05, SolverConfig(dt=1e-3))
        calls = []

        def b_bar(t, X, mu):
            calls.append(t)
            return cs.b(t, X, mu)

        frozen = solve_frozen_fpe(gaussian(0.5, -1.0), flow, replace(cs, b_bar=b_bar),
                                  SolverConfig(dt=1e-3))
        assert calls == [t + h for t, h, _ in _time_steps(0.0, 0.05, 1e-3)]
        assert frozen.log.picard_iterations_max == 0

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


class TestPicard:
    @staticmethod
    def one_step(b):
        cs = CoefficientSet(b=b, sigma=heat_coefficients(1, 1.0).sigma)
        return solve_nonlinear_fpe(gaussian(0.25), cs, 0.0, 1e-3, SolverConfig(dt=1e-3))

    def test_each_iterate_evaluates_the_fields_once(self):
        calls = []

        def b(t, X, mu):
            calls.append(t)
            return -density_at(mu, X[:, 0])[:, None]

        n = self.one_step(b).log.picard_iterations_max
        assert 1 <= n < MAX_PICARD
        # the left end once, then the right end on each new iterate
        assert calls == [0.0] + [1e-3] * n

    def test_unconverged_iteration_raises_after_max_picard(self):
        calls = []

        def b(t, X, mu):
            # the drift flips on every evaluation, so no iterate is a fixed point
            calls.append(t)
            return np.full((len(X), 1), 5.0 * (-1) ** len(calls))

        with pytest.raises(NonlinearSolveError, match="Picard"):
            self.one_step(b)
        assert len(calls) == MAX_PICARD + 2


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
        r = fpe_weak_residual(frozen, cs, tanh_test(), flow=flow)
        assert np.abs(r).max() < 2e-3


class TestPathContainer:
    def test_state_at_tolerance(self):
        path = solve_nonlinear_fpe(gaussian(0.25), heat_coefficients(1, 1.0), 0.0, 0.1,
                                   SolverConfig(dt=1e-3), record_every=10)
        with pytest.raises(ValueError):
            path.state_at(0.055, tol=1e-6)
        st = path.state_at(0.05, tol=1e-9)
        assert st.mass() == pytest.approx(1.0, abs=1e-10)

    def test_frozen_runs_along_a_thinned_flow_raise(self):
        # records every 10 steps: the frozen steps in between have no record
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        flow = solve_nonlinear_fpe(gaussian(0.25), cs, 0.0, 0.05, SolverConfig(dt=1e-3),
                                   record_every=10)
        with pytest.raises(ValueError, match="no record"):
            flow.state_at(0.011)
        with pytest.raises(ValueError, match="no record"):
            solve_frozen_fpe(gaussian(0.5, -1.0), flow, cs, SolverConfig(dt=1e-3))
        with pytest.raises(ValueError, match="no record"):
            simulate_frozen(np.zeros((10, 1)), flow, cs, 0.0, 0.05, SimConfig(dt=1e-3, seed=0))

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-5.0, 5.0), st.floats(1e-4, 0.1), st.integers(1, 200), st.floats(0.01, 1.0))
    @example(2.0, 1e-4, 2, 0.99999)  # a full last step that overshoots its end by 1e-9 at |t| = 2
    def test_step_ends_hit_their_records(self, s, dt, n, last):
        steps = _time_steps(s, s + (n - 1 + last) * dt, dt)
        times = np.array([s] + [t_next for _, _, t_next in steps])
        for k, (t, h, _) in enumerate(steps):
            assert _record_index(times, s + k * dt) == k
            assert _record_index(times, t + h) == k + 1
            with pytest.raises(ValueError, match="no record"):
                _record_index(times, t + h / 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
           st.lists(st.floats(-1e3, 1e3), max_size=5),
           st.one_of(st.none(), st.floats(0.0, 1e3)))
    @example([0.0, 1e-17, 2.0], [1.0], 2.0)  # rounding makes records 0 and 1 equally far
    def test_record_index_is_the_nearest_record(self, raw, extra, tol):
        times = np.unique(np.array(raw))  # strictly increasing; -0.0 and 0.0 merge
        slack = [SPAN_SLACK * max(1.0, abs(t)) for t in times[[0, -1]]]
        queries = [*times, *extra, *(0.5 * (times[1:] + times[:-1])),
                   *np.nextafter(times, np.inf), *np.nextafter(times, -np.inf),
                   times[0] - 0.5 * slack[0], times[-1] + 0.5 * slack[1],
                   times[0] - 2 * slack[0], times[-1] + 2 * slack[1]]
        for t in queries:
            assert _lookup(_record_index, times, t, tol) == _lookup(_argmin_index, times, t, tol)

    @pytest.mark.parametrize("record_every", [0, -5])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_record_every_must_be_positive(self, record_every, frozen):
        cs, cfg = heat_coefficients(1, 1.0), SolverConfig(dt=1e-3)
        u0 = gaussian(0.25)
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            if frozen:
                flow = solve_nonlinear_fpe(u0, cs, 0.0, 0.01, cfg)
                solve_frozen_fpe(u0, flow, cs, cfg, record_every=record_every)
            else:
                solve_nonlinear_fpe(u0, cs, 0.0, 0.01, cfg, record_every=record_every)

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


def _argmin_index(times, t, tol=None):
    """The nearest-record lookup as a full scan: ``_record_index``'s reference."""
    slack = SPAN_SLACK * max(1.0, abs(t))
    if not times[0] - slack <= t <= times[-1] + slack:
        raise ValueError("outside the recorded span")
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > (slack if tol is None else tol):
        raise ValueError("no record")
    return i


def _lookup(index, times, t, tol):
    try:
        return index(times, t, tol)
    except ValueError as exc:
        return "outside" if "outside" in str(exc) else "no record"


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

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 64), st.data())
    def test_solve_is_solve_banded(self, m, data):
        def vec(lo, hi):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

        a, v, rhs = vec(1e-3, 2.0), vec(-2.0, 2.0), vec(-1.0, 1.0)
        dx, dt = data.draw(st.floats(0.005, 0.5)), data.draw(st.floats(1e-5, 1e-1))
        ab = _fv_band(a, v, dx, dt, transpose=data.draw(st.booleans()))
        expected = solve_banded((1, 1), ab, rhs)
        band, right = ab.copy(), rhs.copy()
        assert _solve(ab, rhs).tobytes() == expected.tobytes()
        assert np.array_equal(ab, band) and np.array_equal(rhs, right)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (2, 0), None])
    def test_solve_rejects_non_finite_input(self, bad, where):
        ab, rhs = _fv_band(np.ones(5), np.zeros(5), 0.1, 1e-3), np.ones(5)
        if where is None:
            rhs[2] = bad
        else:
            ab[where] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve(ab, rhs)

    def test_solve_rejects_singular_band(self):
        with pytest.raises(LinAlgError, match="singular"):
            _solve(np.zeros((3, 5)), np.ones(5))

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


class TestRandomCoefficients:
    @settings(max_examples=40, deadline=None)
    @given(fv_system())
    def test_semi_implicit_solves_conserve_mass(self, system):
        diffusion, drift, dx, dt, u0, nu0 = system
        u0, nu0, x_min = u0 + 0.01, nu0 + 0.01, -0.5
        centers = x_min + dx * (np.arange(len(u0)) + 0.5)

        def b(t, X, mu):
            u = density_at(mu, X[:, 0])
            return (np.interp(X[:, 0], centers, drift) / (1 + u))[:, None]

        def sigma(t, X, mu):
            u = density_at(mu, X[:, 0])
            a = np.interp(X[:, 0], centers, diffusion) * (1 + u / (1 + u))
            return np.sqrt(a)[:, None, None]

        cs = CoefficientSet(b=b, sigma=sigma)
        cfg = SolverConfig(dt=dt)
        flow = solve_nonlinear_fpe(GridDensity1D(x_min, dx, u0 / (u0.sum() * dx)), cs,
                                   0.0, 4 * dt, cfg)
        frozen = solve_frozen_fpe(GridDensity1D(x_min, dx, nu0 / (nu0.sum() * dx)), flow, cs, cfg)
        assert flow.log.max_mass_drift <= 1e-12
        assert frozen.log.max_mass_drift <= 1e-12
