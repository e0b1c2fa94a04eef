import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab.coefficients import (
    CoefficientSet,
    heat_coefficients,
    meanfield_ou_coefficients,
    nldbm_coefficients,
)
from mvlab.feynman_kac import FKProblem, fk_evaluate_mc
from mvlab.fpe import SolverConfig, solve_nonlinear_fpe
from mvlab.measures import EmpiricalMeasure, MeasureViewError, sample_density, w2_to_quantile
from mvlab.particles import (
    _BLOCK,
    KDESpec,
    SimConfig,
    _increments,
    simulate_frozen,
    simulate_lifted,
    simulate_mckean_vlasov,
)
from mvlab.presets import arctan_params, gaussian_grid
from tests_helpers import observed_order, reference_increments


@pytest.fixture(scope="module")
def ou():
    cs, consts = meanfield_ou_coefficients(1.0, 0.5, 1.0)
    return cs


def initial_cloud(n=4000, mean=2.0, std=0.5, seed=0):
    return np.random.default_rng(seed).normal(mean, std, (n, 1))


class TestMoments:
    def test_ou_mean_and_variance(self, ou):
        x0 = initial_cloud()
        ens = simulate_mckean_vlasov(x0, ou, 0.0, 1.0,
                                     SimConfig(dt=1e-3, seed=1, record_every=250))
        n = x0.shape[0]
        for t, pos in zip(ens.times, ens.positions):
            m_ref = 2.0 * np.exp(-0.5 * t)
            v_ref = 0.5 + (0.25 - 0.5) * np.exp(-2 * t)
            assert pos.mean() == pytest.approx(m_ref, abs=4 * np.sqrt(v_ref / n) + 2e-3)
            assert pos.var() == pytest.approx(v_ref, abs=6 * v_ref / np.sqrt(n) + 5e-3)

    def test_heat_variance_growth(self):
        cs = heat_coefficients(1, 1.0)
        x0 = initial_cloud(mean=0.0, std=0.1)
        ens = simulate_mckean_vlasov(x0, cs, 0.0, 0.5, SimConfig(dt=1e-3, seed=2,
                                                                 record_every=500))
        assert ens.positions[-1].var() == pytest.approx(0.01 + 0.5, rel=0.1)


class TestConvergence:
    # The particle leg's two gates: weak order 1 in dt, and a W2 to the FPE
    # that falls like N^(-1/2). Increments of the wrong variance (scaled by
    # 1.1) read order 0.2 and sqrt(N) W2 of 8-30 here.
    def test_weak_order_one_in_dt(self):
        # mean-field OU (1, 0, 1) from X0 = 1: E[X_T^2] = e^(-2T) + (1 - e^(-2T))/2
        cs, _ = meanfield_ou_coefficients(1.0, 0.0, 1.0)
        hs = np.array([0.2, 0.1, 0.05, 0.025])
        exact = np.exp(-2.0) + (1 - np.exp(-2.0)) / 2
        err = []
        for h in hs:
            ens = simulate_mckean_vlasov(np.ones((200_000, 1)), cs, 0.0, 1.0,
                                         SimConfig(dt=h, seed=1, record_every=10**6))
            err.append(abs(np.mean(ens.positions[-1] ** 2) - exact))
        assert observed_order(hs, err) >= 0.7, err

    def test_sqrt_n_w2_to_the_fpe_stays_in_its_band(self):
        # criterion 1's setup (NLDBM-arctan) at t = 1: no bias floor from
        # N = 2.5e3 to 4e4
        coeffs = nldbm_coefficients(arctan_params())
        grid0 = gaussian_grid(0.25, 0.0, x_min=-12.0, dx=0.01, n=2400)
        ref = solve_nonlinear_fpe(grid0, coeffs, 0.0, 1.0, SolverConfig(dt=1e-3),
                                  record_every=1000).state_at(1.0, tol=1e-6)
        cfg = SimConfig(dt=1e-3, seed=0, record_every=1000, kde=KDESpec(-12.0, 0.01, 2400))
        scaled = {}
        for n in (2_500, 10_000, 40_000):
            x0 = sample_density(grid0, n, np.random.default_rng(n)).points
            ens = simulate_mckean_vlasov(x0, coeffs, 0.0, 1.0, replace(cfg, seed=n))
            scaled[n] = np.sqrt(n) * w2_to_quantile(ens.marginal_at(1.0, tol=1e-6), ref.quantile)
        assert all(2.0 <= v <= 3.5 for v in scaled.values()), scaled


class TestReproducibility:
    def test_rerun_bitwise_identical(self, ou):
        x0 = initial_cloud(1000)
        cfg = SimConfig(dt=1e-3, seed=7, record_every=100)
        a = simulate_mckean_vlasov(x0, ou, 0.0, 0.3, cfg)
        b = simulate_mckean_vlasov(x0, ou, 0.0, 0.3, cfg)
        assert np.array_equal(a.positions, b.positions)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 2), n=st.integers(1, 2 * _BLOCK + 7), data=st.data())
    def test_subset_of_streams_gets_the_full_cloud_rows(self, d, n, data):
        # non-interacting coefficients: each path depends on its own stream
        # only, so the first m rows of an n-row run are the m-row run, across
        # block edges too
        m = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        x0 = np.random.default_rng(seed).normal(0.0, 0.5, (n, d))
        cs, cfg = heat_coefficients(d, 1.0), SimConfig(dt=1e-3, seed=seed, record_every=5)
        full = simulate_mckean_vlasov(x0, cs, 0.0, 0.02, cfg)
        part = simulate_mckean_vlasov(x0[:m], cs, 0.0, 0.02, cfg)
        assert np.array_equal(part.positions, full.positions[:, :m])

    def test_seed_changes_output(self, ou):
        x0 = initial_cloud(500)
        a = simulate_mckean_vlasov(x0, ou, 0.0, 0.1, SimConfig(dt=1e-3, seed=1))
        b = simulate_mckean_vlasov(x0, ou, 0.0, 0.1, SimConfig(dt=1e-3, seed=2))
        assert not np.array_equal(a.positions[-1], b.positions[-1])

class TestNormals:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3 * _BLOCK), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           ks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    def test_plan_equals_fresh_generator_per_block(self, n, d, seed, ks):
        draw = _increments(seed, n, d)
        for k in ks:
            assert np.array_equal(draw(k), reference_increments(seed, n, k, d))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 2 * _BLOCK + 70), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           k=st.integers(0, 10**6), data=st.data())
    def test_entries_are_signs_and_streams_are_rows(self, n, d, seed, k, data):
        m = data.draw(st.integers(1, n))
        z = _increments(seed, n, d)(k)
        assert z.shape == (n, d) and np.all(np.abs(z) == 1.0)
        assert np.array_equal(_increments(seed, m, d)(k), z[:m])

    # SHA-256 of the increments' bytes, recorded with numpy 2.4.6. A change in
    # numpy's Philox would move every stochastic result; this shows it
    # without any BLAS call in between. Each case draws a cloud of n rows;
    # the last three cross block edges.
    GOLDEN = [
        (30, 2000, 0, 1, "e5a4641c4d488c3eed6562e89a5c8b4e7d7d38d49ce55c88a76b3fda1150d4e7"),
        (31, 9000, 7, 1, "bc6dce61ad150fd27a6fd04f2cce2a15802c46013d7a204f6ba56e47159c3538"),
        (5, 4097, 3, 2, "094c326d5a3b4f9e35ee54fa90a4064b3d140b17631145338b1d0f74d8784120"),
        (2**32 - 1, 12289, 12, 2,
         "2069a957f633e36905cfad99afabeb9a9197ecace609df00c0da3095eb20b1c8"),
    ]

    @pytest.mark.parametrize("seed, n, k, d, digest", GOLDEN,
                             ids=[f"{seed}-{n}-{k}-{d}" for seed, n, k, d, _ in GOLDEN])
    def test_golden_digest(self, seed, n, k, d, digest):
        z = _increments(seed, n, d)(k)
        assert hashlib.sha256(z.tobytes()).hexdigest() == digest


class TestFrozen:
    def test_frozen_near_nonlinear_with_shared_flow(self, ou):
        x0 = initial_cloud(2000)
        cfg = SimConfig(dt=1e-3, seed=5, record_every=1)
        ens = simulate_mckean_vlasov(x0, ou, 0.0, 0.2, cfg)
        frozen = simulate_frozen(x0, ens.marginal_at, ou, 0.0, 0.2, cfg)
        # same noise, coefficients frozen along the recorded flow: paths agree
        # up to the O(dt) lag of the frozen mean
        assert np.abs(frozen.positions[-1] - ens.positions[-1]).max() < 1e-3

    def test_flow_can_be_callable(self, ou):
        x0 = initial_cloud(200)
        target = EmpiricalMeasure.from_atoms([0.0])
        ens = simulate_frozen(x0, lambda t: target, ou, 0.0, 0.1,
                              SimConfig(dt=1e-3, seed=6))
        assert ens.positions.shape[1] == 200


def _closure(name, seed):
    """Coefficients and config of one closure: mean-field OU in d = 1 or 2,
    or NLDBM-arctan on its KDE view."""
    if name == "kde":
        return nldbm_coefficients(arctan_params()), SimConfig(
            dt=1e-3, seed=seed, record_every=5, kde=KDESpec(-8.0, 0.02, 800))
    d = {"ou": 1, "ou2": 2}[name]
    return meanfield_ou_coefficients(1.0, 0.5, 1.0, d=d)[0], SimConfig(dt=1e-3, seed=seed, record_every=5)


class TestLifted:
    CLOSURES = ["ou", "ou2", "kde"]

    def clouds(self, name, n=300):
        cs, cfg = _closure(name, seed=11)
        rng = np.random.default_rng(12)
        return cs, cfg, rng.normal(0.5, 0.5, (n, cs.d)), rng.normal(-0.5, 0.8, (n, cs.d))

    @pytest.mark.parametrize("name", CLOSURES)
    def test_y_half_is_the_standalone_nonlinear_cloud(self, name):
        cs, cfg, y0, x0 = self.clouds(name)
        ens_y, ens_x = simulate_lifted(y0, x0, cs, 0.0, 0.05, cfg)
        ref = simulate_mckean_vlasov(y0, cs, 0.0, 0.05, cfg)
        assert np.array_equal(ens_y.times, ref.times)
        assert np.array_equal(ens_y.positions, ref.positions)
        assert ens_x.times is ens_y.times
        # the laws the halves give are those of a standalone cloud, bit for bit
        assert np.array_equal(ens_y.marginal(-1).mean(), ref.marginal(-1).mean())

    @pytest.mark.parametrize("name", CLOSURES)
    def test_x_half_reads_the_law_of_its_own_step(self, name):
        # the frozen cloud along the nonlinear run recorded at every step, on
        # the same streams: no record older or newer than the step is read
        cs, cfg, y0, x0 = self.clouds(name)
        _, ens_x = simulate_lifted(y0, x0, cs, 0.0, 0.05, cfg)
        ens = simulate_mckean_vlasov(y0, cs, 0.0, 0.05, replace(cfg, record_every=1))
        ref = simulate_frozen(x0, ens.marginal_at, cs, 0.0, 0.05, cfg)
        assert np.array_equal(ens_x.times, ref.times)
        assert np.array_equal(ens_x.positions, ref.positions)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_halves_ride_one_noise_column(self, scale):
        # zero drift and a sigma of shape (N, 1, 1) for each cloud, the frozen
        # one scaled: both clouds read one draw per step, so x - scale y stays 0
        zero = lambda t, X, mu: np.zeros_like(X)
        cs = CoefficientSet(zero, lambda t, X, mu: np.full((len(X), 1, 1), 0.7),
                            sigma_bar=lambda t, X, mu: np.full((len(X), 1, 1), 0.7 * scale))
        y0 = initial_cloud(50, mean=0.0)
        ens_y, ens_x = simulate_lifted(y0, scale * y0, cs, 0.0, 0.03, SimConfig(dt=1e-3, seed=3))
        assert np.array_equal(ens_x.positions, scale * ens_y.positions)
        assert not np.array_equal(ens_y.positions[-1], y0)

    def test_clouds_of_different_sizes_rejected(self, ou):
        with pytest.raises(ValueError, match="one shape"):
            simulate_lifted(initial_cloud(5), initial_cloud(6), ou, 0.0, 0.01,
                            SimConfig(dt=1e-3, seed=0))


_B_OUT = np.full((20, 1), 0.3)  # one drift array, handed out at every call


class TestStepLoopWritesNothing:
    # the loop makes a new cloud at every step: it writes neither what it was
    # given nor what it handed out
    CFG = SimConfig(dt=1e-3, seed=9, record_every=1)
    heat = heat_coefficients(1, 1.0)

    def test_initial_clouds_unchanged(self, ou):
        y0, x0 = initial_cloud(20), initial_cloud(20, mean=-1.0, seed=1)
        y_copy, x_copy = y0.copy(), x0.copy()
        simulate_lifted(y0, x0, ou, 0.0, 0.01, self.CFG)
        assert np.array_equal(y0, y_copy) and np.array_equal(x0, x_copy)

    def test_coefficient_output_unchanged(self):
        cs = CoefficientSet(lambda t, X, mu: _B_OUT, self.heat.sigma)
        ens_y, _ = simulate_lifted(initial_cloud(20), initial_cloud(20), cs, 0.0, 0.01, self.CFG)
        assert np.all(_B_OUT == 0.3)
        assert not np.array_equal(ens_y.positions[-1], ens_y.positions[0])

    def test_kept_laws_and_points_still_read_their_step(self):
        laws, ys, xs = [], [], []

        def b(t, X, mu):
            laws.append(mu)
            ys.append(X)
            return -X + mu.mean()

        def b_bar(t, X, mu):
            xs.append(X)
            return -X + mu.mean()

        cs = CoefficientSet(b, self.heat.sigma, b_bar=b_bar)
        ens_y, ens_x = simulate_lifted(initial_cloud(20), initial_cloud(20, seed=1), cs,
                                       0.0, 0.01, self.CFG)
        assert len(laws) == len(xs) == len(ens_y.times) - 1 == 10
        for k, mu in enumerate(laws):
            assert np.array_equal(mu.points, ens_y.positions[k])
            assert np.array_equal(ys[k], ens_y.positions[k])
            assert np.array_equal(xs[k], ens_x.positions[k])


def _golden_mkv_kde():
    x0 = np.random.default_rng(21).normal(0.0, 0.7, (300, 1))
    cfg = SimConfig(dt=1e-3, seed=22, record_every=10, kde=KDESpec(-8.0, 0.02, 800))
    return simulate_mckean_vlasov(x0, nldbm_coefficients(arctan_params()), 0.0, 0.05, cfg).positions


def _golden_lifted(d):
    cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0, d=d)
    rng = np.random.default_rng(23)
    y0, x0 = rng.normal(0.5, 0.5, (300, d)), rng.normal(-0.5, 0.8, (300, d))
    ens_y, ens_x = simulate_lifted(y0, x0, cs, 0.0, 0.05, SimConfig(dt=1e-3, seed=24, record_every=10))
    return np.stack([ens_y.positions, ens_x.positions])


def _golden_fk_mc():
    cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
    problem = FKProblem(cs, 0.1, terminal=lambda x, m: np.tanh(x[:, 0]),
                        potential=lambda t, x, m: -0.5 * x[:, 0] ** 2,
                        source=lambda t, x, m: np.cos(x[:, 0]))
    mu = gaussian_grid(0.25, 0.5, x_min=-6.0, dx=0.04, n=300)
    est = fk_evaluate_mc(problem, 0.0, 0.3, mu, SolverConfig(dt=2e-3), 500, 25)
    return np.array([est.value, est.stderr])


class TestGoldenBits:
    # SHA-256 of particle results (every record, both clouds of a lifted
    # run, the Monte Carlo value and stderr); a change that claims to keep
    # the particle layer's bits, its layout or its update order, must keep these
    GOLDEN = {
        "mkv_kde": (_golden_mkv_kde,
                    "342e17de94884cc5777a7027ba79f0b6a774dd61bc10b9d967fa8bb64089c17c"),
        "lifted_d1": (lambda: _golden_lifted(1),
                      "e73d31e0c4b4e70a85d20414827cd5b6f59990b4121f6ba5fc6509869ad01ce4"),
        "lifted_d2": (lambda: _golden_lifted(2),
                      "e349147f75afbfcbcd85fe93e879bb4ba7701c6f58b6dd0100f8b8bbd7c6bf61"),
        "fk_mc": (_golden_fk_mc,
                  "0fd2a060b4dd563d01c59354bb7521aab09e7e711c5c4087635f7199043bf9a7"),
    }

    @pytest.mark.parametrize("run, digest", GOLDEN.values(), ids=GOLDEN.keys())
    def test_golden_digest(self, run, digest):
        values = np.ascontiguousarray(run(), dtype=np.float64)
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestValidation:
    def test_horizon_off_the_step_grid_takes_short_last_step(self):
        cs = heat_coefficients(1, 1.0)
        x0 = np.zeros((5, 1))
        cfg = SimConfig(dt=1e-3, seed=0)
        short = simulate_mckean_vlasov(x0, cs, 0.0, 0.0505, cfg)
        full = simulate_mckean_vlasov(x0, cs, 0.0, 0.051, cfg)
        assert short.times[-1] == 0.0505
        # same increment, step sqrt(h): the half step moves sqrt(1/2) as far
        half = short.positions[-1] - short.positions[-2]
        whole = full.positions[-1] - full.positions[-2]
        assert np.abs(half - np.sqrt(0.5) * whole).max() <= 1e-15

    def test_records_every_kth_step_and_the_last(self):
        ens = simulate_mckean_vlasov(np.zeros((3, 1)), heat_coefficients(1, 1.0), 0.0, 0.01,
                                     SimConfig(dt=1e-3, seed=0, record_every=3))
        assert np.allclose(ens.times, [0.0, 0.003, 0.006, 0.009, 0.01], rtol=0, atol=1e-15)
        assert ens.positions.shape == (5, 3, 1)

    @staticmethod
    def _run(name, x0, cs):
        cfg = SimConfig(dt=1e-3, seed=4, record_every=5)
        if name == "mkv":
            return simulate_mckean_vlasov(x0, cs, 0.0, 0.02, cfg).positions
        if name == "frozen":
            law = EmpiricalMeasure.from_atoms([0.5])
            return simulate_frozen(x0, lambda t: law, cs, 0.0, 0.02, cfg).positions
        ens_y, ens_x = simulate_lifted(x0, -x0, cs, 0.0, 0.02, cfg)
        return np.stack([ens_y.positions, ens_x.positions])

    @pytest.mark.parametrize("name", ["mkv", "frozen", "lifted"])
    def test_1d_cloud_is_particles_on_the_line(self, ou, name):
        x0 = initial_cloud(7)
        line = self._run(name, x0[:, 0], ou)
        column = self._run(name, x0, ou)
        assert line.shape == column.shape and line.shape[-2:] == (7, 1)
        assert np.array_equal(line, column)

    @pytest.mark.parametrize("name", ["mkv", "frozen", "lifted"])
    def test_cloud_wider_than_the_coefficients_rejected(self, ou, name):
        with pytest.raises(ValueError, match="width"):
            self._run(name, np.zeros((5, 2)), ou)

    @pytest.mark.parametrize("name", ["mkv", "frozen", "lifted"])
    def test_empty_cloud_rejected(self, ou, name):
        with pytest.raises(ValueError, match="empty"):
            self._run(name, np.zeros((0, 1)), ou)

    def test_flow_must_cover_horizon(self, ou):
        flow = solve_nonlinear_fpe(gaussian_grid(0.25), ou, 0.0, 0.2, SolverConfig(dt=1e-2))
        with pytest.raises(ValueError, match="span"):
            simulate_frozen(initial_cloud(10), flow.state_at, ou, 0.0, 1.0,
                            SimConfig(dt=1e-2, seed=0))

    @pytest.mark.parametrize("kwargs, field", [
        ({"dx": 0.0}, "dx"), ({"dx": -0.01}, "dx"), ({"n_cells": 0}, "n_cells"),
        ({"n_cells": 1}, "n_cells"), ({"bandwidth": "silvermann"}, "bandwidth"),
        ({"bandwidth": 0.0}, "bandwidth"), ({"bandwidth": np.nan}, "bandwidth"),
        ({"bandwidth": np.inf}, "bandwidth"),
    ], ids=["dx-0", "dx-neg", "cells-0", "cells-1", "bw-typo", "bw-0", "bw-nan", "bw-inf"])
    def test_kde_spec_checks_its_fields(self, kwargs, field):
        with pytest.raises(ValueError, match=f"KDESpec: {field} must be"):
            KDESpec(**{"x_min": -8.0, "dx": 0.02, "n_cells": 800, **kwargs})

    def test_density_closure_requires_kde(self):
        cs = nldbm_coefficients(arctan_params())
        with pytest.raises(MeasureViewError):
            simulate_mckean_vlasov(initial_cloud(50), cs, 0.0, 0.01,
                                   SimConfig(dt=1e-3, seed=0))


class TestSerialization:
    def test_marginal_at(self, ou):
        ens = simulate_mckean_vlasov(initial_cloud(100), ou, 0.0, 0.1,
                                     SimConfig(dt=1e-3, seed=8, record_every=50))
        mu = ens.marginal_at(0.05, tol=1e-9)
        assert mu.n_atoms == 100
        with pytest.raises(ValueError):
            ens.marginal_at(0.033, tol=1e-6)
