import numpy as np
import pytest

from mvlab.coefficients import heat_coefficients, meanfield_ou_coefficients
from mvlab.fpe import SolverConfig, solve_nonlinear_fpe
from mvlab.measures import MeasureViewError
from mvlab.particles import (
    KDESpec,
    PathEnsemble,
    SimConfig,
    simulate_frozen,
    simulate_mckean_vlasov,
)
from tests_helpers import gaussian_grid


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


class TestReproducibility:
    def test_rerun_bitwise_identical(self, ou):
        x0 = initial_cloud(1000)
        cfg = SimConfig(dt=1e-3, seed=7, record_every=100)
        a = simulate_mckean_vlasov(x0, ou, 0.0, 0.3, cfg)
        b = simulate_mckean_vlasov(x0, ou, 0.0, 0.3, cfg)
        assert np.array_equal(a.positions, b.positions)

    def test_exchangeability_bitwise(self, ou):
        x0 = initial_cloud(1000)
        perm = np.random.default_rng(3).permutation(1000)
        cfg = SimConfig(dt=1e-3, seed=7, record_every=100)
        a = simulate_mckean_vlasov(x0, ou, 0.0, 0.3, cfg)
        b = simulate_mckean_vlasov(x0[perm], ou, 0.0, 0.3, cfg, stream_indices=perm)
        for i in range(len(a.times)):
            assert np.array_equal(np.sort(a.positions[i], axis=0),
                                  np.sort(b.positions[i], axis=0))

    def test_seed_changes_output(self, ou):
        x0 = initial_cloud(500)
        a = simulate_mckean_vlasov(x0, ou, 0.0, 0.1, SimConfig(dt=1e-3, seed=1))
        b = simulate_mckean_vlasov(x0, ou, 0.0, 0.1, SimConfig(dt=1e-3, seed=2))
        assert not np.array_equal(a.positions[-1], b.positions[-1])

    def test_kde_closure_is_exchangeable(self):
        from mvlab.coefficients import nldbm_coefficients
        from tests_helpers import arctan_params

        cs = nldbm_coefficients(arctan_params())
        kde = KDESpec(-8.0, 0.01, 1600)
        x0 = initial_cloud(800, mean=0.0, std=0.5)
        perm = np.random.default_rng(4).permutation(800)
        cfg = SimConfig(dt=1e-3, seed=9, record_every=50, kde=kde)
        a = simulate_mckean_vlasov(x0, cs, 0.0, 0.05, cfg)
        b = simulate_mckean_vlasov(x0[perm], cs, 0.0, 0.05, cfg, stream_indices=perm)
        assert np.array_equal(np.sort(a.positions[-1], axis=0),
                              np.sort(b.positions[-1], axis=0))


class TestFrozen:
    def test_frozen_near_nonlinear_with_shared_flow(self, ou):
        x0 = initial_cloud(2000)
        cfg = SimConfig(dt=1e-3, seed=5, record_every=1)
        ens = simulate_mckean_vlasov(x0, ou, 0.0, 0.2, cfg)
        frozen = simulate_frozen(x0, ens, ou, 0.0, 0.2, cfg)
        # same noise, coefficients frozen along the recorded flow: paths agree
        # up to the O(dt) lag of the frozen mean
        assert np.abs(frozen.positions[-1] - ens.positions[-1]).max() < 1e-3

    def test_flow_can_be_callable(self, ou):
        from mvlab.measures import EmpiricalMeasure

        x0 = initial_cloud(200)
        target = EmpiricalMeasure.from_atoms([0.0])
        ens = simulate_frozen(x0, lambda t: target, ou, 0.0, 0.1,
                              SimConfig(dt=1e-3, seed=6))
        assert ens.positions.shape[1] == 200

    def test_bad_flow_type_rejected(self, ou):
        with pytest.raises(TypeError):
            simulate_frozen(initial_cloud(10), object(), ou, 0.0, 0.1,
                            SimConfig(dt=1e-3, seed=0))


class TestValidation:
    def test_horizon_off_the_step_grid_takes_short_last_step(self):
        cs = heat_coefficients(1, 1.0)
        x0 = np.zeros((5, 1))
        cfg = SimConfig(dt=1e-3, seed=0)
        short = simulate_mckean_vlasov(x0, cs, 0.0, 0.0505, cfg)
        full = simulate_mckean_vlasov(x0, cs, 0.0, 0.051, cfg)
        assert short.times[-1] == 0.0505
        # same normal, step sqrt(h): the half step moves sqrt(1/2) as far
        half = short.positions[-1] - short.positions[-2]
        whole = full.positions[-1] - full.positions[-2]
        assert np.abs(half - np.sqrt(0.5) * whole).max() <= 1e-15

    def test_flow_must_cover_horizon(self, ou):
        flow = solve_nonlinear_fpe(gaussian_grid(0.25), ou, 0.0, 0.2, SolverConfig(dt=1e-2))
        with pytest.raises(ValueError, match="span"):
            simulate_frozen(initial_cloud(10), flow, ou, 0.0, 1.0,
                            SimConfig(dt=1e-2, seed=0))

    def test_stream_indices_must_be_distinct(self, ou):
        with pytest.raises(ValueError, match="distinct"):
            simulate_mckean_vlasov(initial_cloud(3), ou, 0.0, 0.01,
                                   SimConfig(dt=1e-3, seed=0),
                                   stream_indices=np.array([0, 0, 1]))

    def test_density_closure_requires_kde(self):
        from mvlab.coefficients import nldbm_coefficients
        from tests_helpers import arctan_params

        cs = nldbm_coefficients(arctan_params())
        with pytest.raises(MeasureViewError):
            simulate_mckean_vlasov(initial_cloud(50), cs, 0.0, 0.01,
                                   SimConfig(dt=1e-3, seed=0))


class TestSerialization:
    def test_save_load_roundtrip(self, ou, tmp_path):
        x0 = initial_cloud(300)
        ens = simulate_mckean_vlasov(x0, ou, 0.0, 0.1,
                                     SimConfig(dt=1e-3, seed=8, record_every=20))
        f = str(tmp_path / "ens.npz")
        ens.save(f)
        back = PathEnsemble.load(f)
        assert np.array_equal(back.positions, ens.positions)
        assert np.array_equal(back.times, ens.times)
        assert back.seed == ens.seed
        assert np.array_equal(back.stream_indices, ens.stream_indices)

    def test_marginal_at(self, ou):
        ens = simulate_mckean_vlasov(initial_cloud(100), ou, 0.0, 0.1,
                                     SimConfig(dt=1e-3, seed=8, record_every=50))
        mu = ens.marginal_at(0.05, tol=1e-9)
        assert mu.n_atoms == 100
        with pytest.raises(ValueError):
            ens.marginal_at(0.033, tol=1e-6)
