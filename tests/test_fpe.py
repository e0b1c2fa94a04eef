import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from mvlab import fpe
from mvlab.coefficients import (
    CoefficientSet,
    heat_coefficients,
    meanfield_ou_coefficients,
    nldbm_coefficients,
)
from mvlab.fpe import (
    MAX_PICARD,
    SPAN_SLACK,
    CFLError,
    DensityPath,
    NonlinearSolveError,
    SolverConfig,
    _check_cfl,
    _explicit_step,
    _flux_band,
    _interface_coeffs,
    _record_index,
    _solve,
    _time_steps,
    fpe_weak_residual,
    solve_backward_kolmogorov,
    solve_frozen_fpe,
    solve_nonlinear_fpe,
)
from mvlab.feynman_kac import FKProblem, fk_evaluate_grid, fk_evaluate_mc
from mvlab.measures import GridDensity1D
from mvlab.particles import SimConfig, simulate_frozen, simulate_mckean_vlasov
from mvlab.presets import arctan_params, gaussian_grid as gaussian, tanh_test

X_MIN, DX, M = -8.0, 0.01, 1600


class TestHeatOracle:
    # N(0, 0.1) spreads to N(0, 0.1 + t) under unit diffusion

    def test_semi_implicit(self):
        path = solve_nonlinear_fpe(
            gaussian(0.1), heat_coefficients(1, 1.0), 0.0, 1.0,
            SolverConfig(dt=1e-3), record_every=1000,
        )
        err = path.states[-1].l1_distance(gaussian(1.1))
        assert err < 2 * DX + 10 * 1e-3

    def test_explicit(self):
        path = solve_nonlinear_fpe(
            gaussian(0.1), heat_coefficients(1, 1.0), 0.0, 0.2,
            SolverConfig(dt=4e-5, scheme="explicit"), record_every=5000,
        )
        err = path.states[-1].l1_distance(gaussian(0.3))
        assert err < 1e-4

    def test_explicit_cfl_guard(self):
        with pytest.raises(CFLError):
            solve_nonlinear_fpe(
                gaussian(0.1), heat_coefficients(1, 1.0), 0.0, 0.1,
                SolverConfig(dt=1e-3, scheme="explicit"),
            )

    def test_explicit_guard_bounds_each_cells_outflow(self):
        # unit diffusion plus drift 100 at dx = 0.01: dt = 8e-5 is 0.8 of both
        # dx^2 / a and dx / |v|, yet a cell would send 1.6 of its mass out
        calls = []

        def b(t, X, mu):
            calls.append(t)
            return np.full_like(X, 100.0)

        cs = CoefficientSet(b=b, sigma=heat_coefficients(1, 1.0).sigma)
        u0 = gaussian(0.1, -3.0)
        with pytest.raises(CFLError, match="sends 1.6 of"):
            solve_nonlinear_fpe(u0, cs, 0.0, 0.004, SolverConfig(dt=8e-5, scheme="explicit"))
        assert calls == [0.0]
        path = solve_nonlinear_fpe(u0, cs, 0.0, 0.004, SolverConfig(dt=4e-5, scheme="explicit"))
        assert path.log.clipped_mass == 0.0
        assert path.states[-1].mean()[0] == pytest.approx(-3.0 + 100 * 0.004, abs=1e-6)

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


@pytest.mark.parametrize("coeffs", [heat_coefficients(2, 1.0),
                                    meanfield_ou_coefficients(1.0, 0.5, 1.0, d=2)[0]],
                         ids=["heat", "ou"])
def test_march_rejects_coefficients_of_another_width(coeffs):
    # run on the line, the trace of sigma sigma^T would double the diffusion
    with pytest.raises(ValueError, match="width 1, the coefficients take 2"):
        solve_nonlinear_fpe(gaussian(0.25), coeffs, 0.0, 0.5, SolverConfig(dt=1e-3))


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
        drift = path.states[-1].l1_distance(inv)
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
        assert calls == [t_next for *_, t_next in _time_steps(0.0, 0.05, 1e-3)]
        assert frozen.log.picard_iterations_max == 0

    def test_frozen_matches_nonlinear_when_coefficients_agree(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        u0 = gaussian(0.25, 2.0)
        flow = solve_nonlinear_fpe(u0, cs, 0.0, 1.0, SolverConfig(dt=1e-3))
        frozen = solve_frozen_fpe(u0, flow, cs, SolverConfig(dt=1e-3), record_every=1000)
        err = frozen.states[-1].l1_distance(flow.states[-1])
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
            return -mu.density_at(X[:, 0])[:, None]

        n = self.one_step(b).log.picard_iterations_max
        assert 1 <= n < MAX_PICARD
        # the left end once, then the right end on each new iterate
        assert calls == [0.0] + [1e-3] * n

    @staticmethod
    def traced_march(monkeypatch, clip_returns_copy):
        """Coefficient call times of a five-step density-dependent march,
        each step's solve count, and the march's log."""
        calls, solves, per_step = [], [0], []
        solve, clip = fpe._solve, fpe._clip_and_log

        def counted_solve(ab, rhs):
            solves[0] += 1
            return solve(ab, rhs)

        def step_end(u, log):
            per_step.append(solves[0])
            solves[0] = 0
            out = clip(u, log)
            return out.copy() if clip_returns_copy else out

        def b(t, X, mu):
            calls.append(t)
            return -mu.density_at(X[:, 0])[:, None]

        monkeypatch.setattr(fpe, "_solve", counted_solve)
        monkeypatch.setattr(fpe, "_clip_and_log", step_end)
        cs = CoefficientSet(b=b, sigma=heat_coefficients(1, 1.0).sigma)
        path = solve_nonlinear_fpe(gaussian(0.25), cs, 0.0, 5e-3, SolverConfig(dt=1e-3))
        return calls, per_step, path.log

    def test_unclipped_steps_carry_their_right_end_fields(self, monkeypatch):
        calls, per_step, log = self.traced_march(monkeypatch, clip_returns_copy=False)
        steps = _time_steps(0.0, 5e-3, 1e-3)
        assert len(per_step) == len(steps) and max(per_step) > 1
        # the first left end once, then the right end on each new iterate
        assert calls == [0.0] + [t_next for (*_, t_next), n in zip(steps, per_step) for _ in range(n)]
        assert (log.steps, log.field_evals) == (len(steps), len(calls))

    def test_a_clipped_step_makes_the_next_evaluate_its_left_end(self, monkeypatch):
        calls, per_step, log = self.traced_march(monkeypatch, clip_returns_copy=True)
        steps = _time_steps(0.0, 5e-3, 1e-3)
        assert len(per_step) == len(steps) and max(per_step) > 1
        assert calls == [c for (t, _, t_next), n in zip(steps, per_step) for c in [t] + [t_next] * n]
        assert (log.steps, log.field_evals) == (len(steps), len(calls))

    def test_unconverged_iteration_raises_after_max_picard(self):
        calls = []

        def b(t, X, mu):
            # the drift flips on every evaluation, so no iterate is a fixed point
            calls.append(t)
            return np.full((len(X), 1), 5.0 * (-1) ** len(calls))

        with pytest.raises(NonlinearSolveError, match="Picard"):
            self.one_step(b)
        assert len(calls) == MAX_PICARD + 2


class TestStepTimes:
    @pytest.mark.parametrize("s, t_end", [
        (0.0, 0.02 + 1e-12),  # a full last step that ends 1e-12 past the step grid
        (-0.0025, 1e-4),  # a short last step across t = 0
    ])
    def test_fields_are_evaluated_at_step_ends(self, s, t_end):
        steps = _time_steps(s, t_end, 1e-3)
        t, h, _ = steps[-1]
        assert t + h != t_end
        calls = []

        def b(t, X, mu):
            calls.append(t)
            return -(1.0 + t) * X + 0.5 * mu.mean()

        cs = CoefficientSet(b=b, sigma=heat_coefficients(1, 1.0).sigma)
        cfg = SolverConfig(dt=1e-3)
        u0 = gaussian(0.25, 0.5, -4.0, 0.04, 200)
        flow = solve_nonlinear_fpe(u0, cs, s, t_end, cfg)
        marched = calls[:]
        calls.clear()
        frozen = solve_frozen_fpe(u0, flow, cs, cfg)
        stepped = calls[:]
        calls.clear()
        solve_backward_kolmogorov(np.tanh(u0.centers), flow, cs, cfg, s, t_end)
        ends = [t_next for *_, t_next in steps]
        assert marched[0] == s and set(marched[1:]) == set(ends)
        assert stepped == ends and calls == ends[::-1]
        assert flow.log.steps == frozen.log.steps == frozen.log.field_evals == len(steps)
        assert flow.log.field_evals == len(marched)

    @pytest.mark.parametrize("entry", [
        "solve_nonlinear_fpe", "solve_frozen_fpe", "solve_backward_kolmogorov",
        "simulate_mckean_vlasov", "simulate_frozen", "fk_evaluate_mc", "fk_evaluate_grid",
    ])
    def test_every_march_rejects_a_reversed_interval(self, entry):
        # both ends lie in the flow's span [0, 1], but t_end comes before s
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        cfg = SolverConfig(dt=1e-2)
        mu = gaussian(0.25, 1.0, dx=0.05, n=320)
        flow = solve_nonlinear_fpe(mu, cs, 0.0, 1.0, cfg)
        s, t_end = 0.5, 0.2
        x0, sim = np.zeros((10, 1)), SimConfig(dt=1e-2, seed=0)
        problem = FKProblem(cs, t_end, terminal=lambda x, m: x[:, 0])
        calls = {
            "solve_nonlinear_fpe": lambda: solve_nonlinear_fpe(mu, cs, s, t_end, cfg),
            "solve_frozen_fpe": lambda: solve_frozen_fpe(mu, flow, cs, cfg, s=s, t_end=t_end),
            "solve_backward_kolmogorov": lambda: solve_backward_kolmogorov(
                np.zeros(mu.n_cells), flow, cs, cfg, s, t_end),
            "simulate_mckean_vlasov": lambda: simulate_mckean_vlasov(x0, cs, s, t_end, sim),
            "simulate_frozen": lambda: simulate_frozen(x0, flow.state_at, cs, s, t_end, sim),
            "fk_evaluate_mc": lambda: fk_evaluate_mc(problem, s, 0.0, mu, cfg, 10, 0, flow=flow),
            "fk_evaluate_grid": lambda: fk_evaluate_grid(problem, s, mu, cfg, flow=flow),
        }
        with pytest.raises(ValueError, match="t_end must be >= s"):
            calls[entry]()


def _golden_meanfield_ou():
    cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
    path = solve_nonlinear_fpe(gaussian(0.25, 1.0), cs, 0.0, 0.05, SolverConfig(dt=1e-3),
                               record_every=10)
    return path.states[-1].values


def _golden_nldbm_arctan():
    cs = nldbm_coefficients(arctan_params())
    path = solve_nonlinear_fpe(gaussian(0.5, 0.0, -6.0, 0.02, 600), cs, 0.0, 0.05,
                               SolverConfig(dt=1e-3), record_every=10)
    return path.states[-1].values


def _golden_backward_sweep():
    cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
    cfg = SolverConfig(dt=1e-3)
    flow = solve_nonlinear_fpe(gaussian(0.25, 1.0), cs, 0.0, 0.0503, cfg)
    w_end = tanh_test().h(flow.states[0].centers[:, None])
    return solve_backward_kolmogorov(w_end, flow, cs, cfg, 0.0, 0.0503)


class TestGoldenBits:
    # SHA-256 of FV results; a change that claims to keep the FV layer's
    # bits must keep these
    GOLDEN = [
        (_golden_meanfield_ou, "451c4a259d2d3d73ed0dbc261d021bf6d4123f038f204cde4e4aefd250e70905"),
        (_golden_nldbm_arctan, "65ab9b979322abd2d60a09cdf93bb589550cacdb0cbf9988d8b6abb85a5f3a4a"),
        (_golden_backward_sweep, "220a01222ccc4f7b7aab856fd35d91705bfebfd7fcceca075143b38ffb6daf81"),
    ]

    @pytest.mark.parametrize("run, digest", GOLDEN, ids=[run.__name__[8:] for run, _ in GOLDEN])
    def test_golden_digest(self, run, digest):
        values = np.ascontiguousarray(run(), dtype=np.float64)
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


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
            simulate_frozen(np.zeros((10, 1)), flow.state_at, cs, 0.0, 0.05, SimConfig(dt=1e-3, seed=0))

    def test_reads_and_frozen_solves_share_one_span_rule(self):
        # the relative slack at t = 4 is 4e-9: 3e-9 past the flow's end is
        # inside it for a read and a solve alike, 5e-9 is outside for both
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        cfg = SolverConfig(dt=1e-2)
        flow = solve_nonlinear_fpe(gaussian(0.25, 1.0), cs, 0.0, 4.0, cfg)
        nu0 = gaussian(0.5, -1.0)
        t_end = 4.0 + 3e-9
        assert flow.state_at(t_end) is flow.states[-1]
        assert solve_frozen_fpe(nu0, flow, cs, cfg, t_end=t_end).times[-1] == t_end
        t_end = 4.0 + 5e-9
        with pytest.raises(ValueError, match="span"):
            flow.state_at(t_end)
        with pytest.raises(ValueError, match="span"):
            solve_frozen_fpe(nu0, flow, cs, cfg, t_end=t_end)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-5.0, 5.0), st.floats(1e-4, 0.1), st.integers(1, 200), st.floats(0.01, 1.0))
    @example(2.0, 1e-4, 2, 0.99999)  # a full last step that overshoots its end by 1e-9 at |t| = 2
    # s + n dt misses t_end by 9.99999999e-10, the read's t_{n-1} + dt by 1.0000000003e-9
    @example(0.0, 1e-4, 59, 0.99999)
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
        ab = _flux_band(*_interface_coeffs(a, v, dx), dt / dx)
        forward = float(g @ solve_banded((1, 1), ab, u))
        abt = _flux_band(*_interface_coeffs(a, v, dx), dt / dx, transpose=True)
        backward = float(solve_banded((1, 1), abt, g) @ u)
        assert abs(forward - backward) <= 1e-12
        A = _dense(ab)
        assert np.array_equal(_dense(abt), A.T)
        assert np.abs(A.sum(axis=0) - 1.0).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(fv_system(), st.floats(-4.0, 0.0))
    def test_explicit_step_within_the_guard_keeps_u_nonnegative(self, system, log_c):
        a, v, dx, _, u, _ = system
        p, q = _interface_coeffs(a, v, dx)
        c = 10.0**log_c  # dt / dx
        try:
            _check_cfl(p, q, c)
        except CFLError:
            return
        assert _explicit_step(u, p, q, c).min() >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda m: st.tuples(*(
               st.lists(e, min_size=m, max_size=m) for e in (
                   st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                   st.floats(-2.0, 2.0),
                   st.one_of(st.just(0.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e)))))),
           st.floats(0.005, 0.5), st.floats(1e-5, 1e-1))
    # Peclet numbers 2 v dx / a of +2000 and -2000
    @example(([1e-3] * 4, [2.0, 2.0, -2.0, -2.0], [0.0, 1e-300, 1.0, 0.0]), 0.5, 1e-1)
    def test_forward_solve_keeps_u_nonnegative(self, avu, dx, dt):
        """The forward band is column diagonally dominant, so ``dgtsv`` does
        not pivot and the solve adds only nonnegative terms: u >= 0 gives a
        new u >= 0 exactly, with nothing to clip. The transposed solve has
        no such bound (roundoff leaves about -1e-16 where 0 is exact), which
        is harmless: it acts on value functions, and those are signed."""
        a, v, u = map(np.array, avu)
        ab = _flux_band(*_interface_coeffs(a, v, dx), dt / dx)
        assert _solve(ab, u).min() >= 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 64), st.data())
    def test_solve_is_solve_banded(self, m, data):
        def vec(lo, hi):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

        a, v, rhs = vec(1e-3, 2.0), vec(-2.0, 2.0), vec(-1.0, 1.0)
        dx, dt = data.draw(st.floats(0.005, 0.5)), data.draw(st.floats(1e-5, 1e-1))
        ab = _flux_band(*_interface_coeffs(a, v, dx), dt / dx, transpose=data.draw(st.booleans()))
        expected = solve_banded((1, 1), ab, rhs)
        band, right = ab.copy(), rhs.copy()
        assert _solve(ab, rhs).tobytes() == expected.tobytes()
        assert np.array_equal(ab, band) and np.array_equal(rhs, right)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (2, 0), None])
    def test_solve_rejects_non_finite_input(self, bad, where):
        ab, rhs = _flux_band(*_interface_coeffs(np.ones(5), np.zeros(5), 0.1), 1e-3 / 0.1), np.ones(5)
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
            u = mu.density_at(X[:, 0])
            return (np.interp(X[:, 0], centers, drift) / (1 + u))[:, None]

        def sigma(t, X, mu):
            u = mu.density_at(X[:, 0])
            a = np.interp(X[:, 0], centers, diffusion) * (1 + u / (1 + u))
            return np.sqrt(a)[:, None, None]

        cs = CoefficientSet(b=b, sigma=sigma)
        cfg = SolverConfig(dt=dt)
        flow = solve_nonlinear_fpe(GridDensity1D(x_min, dx, u0 / (u0.sum() * dx)), cs,
                                   0.0, 4 * dt, cfg)
        frozen = solve_frozen_fpe(GridDensity1D(x_min, dx, nu0 / (nu0.sum() * dx)), flow, cs, cfg)
        assert flow.log.max_mass_drift <= 1e-12
        assert frozen.log.max_mass_drift <= 1e-12
        assert flow.log.clipped_mass == 0.0 and frozen.log.clipped_mass == 0.0
