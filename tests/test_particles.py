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
from mvlab.measures import EmpiricalMeasure, MeasureViewError
from mvlab.particles import (
    _BLOCK,
    KDESpec,
    SimConfig,
    _normals,
    simulate_frozen,
    simulate_lifted,
    simulate_mckean_vlasov,
)
from mvlab.presets import arctan_params, gaussian_grid
from tests_helpers import reference_normals


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
    @given(n=st.integers(1, 3 * _BLOCK), d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           ks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    def test_plan_equals_fresh_generator_per_block(self, n, d, seed, ks):
        draw = _normals(seed, n, d)
        for k in ks:
            assert np.array_equal(draw(k), reference_normals(seed, n, k, d))

    # SHA-256 of the normals' bytes, recorded with numpy 2.4.6. A change in
    # numpy's Philox or ziggurat would move every stochastic result; this
    # shows it without any BLAS call in between. Each case draws a cloud of
    # n rows; the last three cross block edges.
    GOLDEN = [
        (30, 2000, 0, 1, "0daa4eedbdf12b582b65c6859bade2bf736d41f88c5e2afecc9f0303da8ce4b9"),
        (31, 9000, 7, 1, "e11ca6abc4f64d8c139aba01ba14593011c3d06aa7b6e15a421720e436cc74b9"),
        (5, 4097, 3, 2, "56a26a3c3f916d60d313f599fbbed2fc09ced2afbebe9a50ee3b77c230499fc6"),
        (2**32 - 1, 12289, 12, 2,
         "d704b1191cff9100fcbb1750b39ac0fdbe185f020140aaf27a7de1db35e80c4b"),
    ]

    @pytest.mark.parametrize("seed, n, k, d, digest", GOLDEN,
                             ids=[f"{seed}-{n}-{k}-{d}" for seed, n, k, d, _ in GOLDEN])
    def test_golden_digest(self, seed, n, k, d, digest):
        z = _normals(seed, n, d)(k)
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
                    "a773622282a55633a81dbde5a3cb9ca60dd0f873d57c1095a07534516b81728b"),
        "lifted_d1": (lambda: _golden_lifted(1),
                      "f22938173913c26ad272ef35b396ce9b48cf2982d254e409d3a3701ddee19e95"),
        "lifted_d2": (lambda: _golden_lifted(2),
                      "1a2d40d7d284f1a1719d16547cfebc221aa2ae53fd31d43efe6f7ed51037888a"),
        "fk_mc": (_golden_fk_mc,
                  "1ba20f7d36e5512d564169fc004a2659eaa409b2d6335efd3970e246809cc45c"),
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
        # same normal, step sqrt(h): the half step moves sqrt(1/2) as far
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

    def test_flow_must_cover_horizon(self, ou):
        flow = solve_nonlinear_fpe(gaussian_grid(0.25), ou, 0.0, 0.2, SolverConfig(dt=1e-2))
        with pytest.raises(ValueError, match="span"):
            simulate_frozen(initial_cloud(10), flow.state_at, ou, 0.0, 1.0,
                            SimConfig(dt=1e-2, seed=0))

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
