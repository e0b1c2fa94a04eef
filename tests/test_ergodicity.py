import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from mvlab import ergodicity
from mvlab.coefficients import MonotonicityConstants, meanfield_ou_coefficients
from mvlab.ergodicity import (
    _w2_with_stderr,
    decay_envelope,
    decay_study,
    find_invariant,
    fit_decay_rate,
)
from mvlab.fpe import SolverConfig
from mvlab.measures import QUANTILE_GRID, EmpiricalMeasure, _quantile_levels, w2_to_quantile
from mvlab.particles import SimConfig
from mvlab.presets import gaussian_grid


def consts(lam=1.5, kap=0.5, lam_bar=1.5, kap_bar=0.5):
    return MonotonicityConstants(K=2.0, lam=lam, kappa=kap, lam_bar=lam_bar,
                                 kappa_bar=kap_bar)


def no_march(*args, **kwargs):
    raise AssertionError("marched before checking the arguments")


class TestEnvelope:
    def test_initial_value(self):
        e = decay_envelope(np.array([0.0]), 2.0, 3.0, consts())
        assert e[0] == pytest.approx(5.0)

    def test_nondegenerate_closed_form(self):
        c = consts(lam=2.0, kap=0.5, lam_bar=1.0, kap_bar=0.7)
        t = np.array([0.8])
        delta = c.kappa + c.lam_bar - c.lam  # -0.5
        bracket = (np.exp(-(c.lam - c.kappa) * t) - np.exp(-c.lam_bar * t)) / delta
        ref = 2.0 * (np.exp(-(c.lam - c.kappa) * t) + c.kappa_bar * bracket) + 3.0 * np.exp(-c.lam_bar * t)
        assert decay_envelope(t, 2.0, 3.0, c)[0] == pytest.approx(ref[0], rel=1e-12)

    def test_degenerate_branch_continuity(self):
        t = np.linspace(0.05, 8.0, 60)
        c0 = consts(lam=1.5, kap=0.5, lam_bar=1.0, kap_bar=0.5)  # kap+lam_bar = lam
        e0 = decay_envelope(t, 2.0, 3.0, c0)
        for eps in (1e-9, -1e-9):
            c1 = consts(lam=1.5, kap=0.5, lam_bar=1.0 + eps, kap_bar=0.5)
            e1 = decay_envelope(t, 2.0, 3.0, c1)
            assert np.max(np.abs(e1 - e0) / e0) < 1e-6

    def test_degenerate_point_uses_t_exp(self):
        c0 = consts(lam=1.5, kap=0.5, lam_bar=1.0, kap_bar=0.5)
        t = np.array([2.0])
        ref = 2.0 * (np.exp(-1.0 * 2.0) + 0.5 * 2.0 * np.exp(-1.0 * 2.0)) + 3.0 * np.exp(-1.0 * 2.0)
        assert decay_envelope(t, 2.0, 3.0, c0)[0] == pytest.approx(ref, rel=1e-12)

    def test_non_contractive_rejected(self):
        with pytest.raises(ValueError):
            decay_envelope(np.array([1.0]), 1.0, 1.0, consts(lam=0.5, kap=0.5))


class TestRateFit:
    def test_recovers_synthetic_slope(self):
        t = np.linspace(0, 5, 20)
        sq = 3.0 * np.exp(-1.7 * t)
        assert fit_decay_rate(t, sq) == pytest.approx(1.7, rel=1e-10)

    def test_floor_excludes_noise(self):
        t = np.linspace(0, 5, 20)
        sq = 3.0 * np.exp(-1.7 * t)
        noisy = np.where(sq < 1e-2, 1e-2, sq)
        assert fit_decay_rate(t, noisy, floor=1.1e-2) == pytest.approx(1.7, rel=1e-6)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.5]), floor=2.0)


class TestInvariant:
    def test_ou_invariant_profile(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        inv = find_invariant(cs, gaussian_grid(0.25, 1.5), SolverConfig(dt=2e-3),
                             check_interval=1.0, tol=1e-5, max_time=40.0)
        ref = gaussian_grid(0.5)
        assert inv.l1_distance(ref) < 2e-2

    def test_reports_failure(self):
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        with pytest.raises(RuntimeError, match="invariant"):
            find_invariant(cs, gaussian_grid(0.25, 3.0), SolverConfig(dt=2e-3),
                           check_interval=0.5, tol=1e-14, max_time=2.0)


    @pytest.mark.parametrize("kwargs, name", [({"check_interval": 0.0}, "check_interval"),
                                              ({"max_time": 0.0}, "max_time")])
    def test_empty_march_rejected(self, monkeypatch, kwargs, name):
        # check_interval=0 returned the start density; max_time=0 no density at all
        monkeypatch.setattr(ergodicity, "solve_nonlinear_fpe", no_march)
        cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            find_invariant(cs, gaussian_grid(0.25, 1.5), SolverConfig(dt=2e-3), **kwargs)


class TestDecayStudy:
    def test_envelope_holds_for_ou(self):
        cs, mono = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        rng = np.random.default_rng(3)
        n = 4000
        x0mu = rng.normal(3.0, 0.5, (n, 1))
        x0nu = rng.normal(-2.0, 1.0, (n, 1))
        q = lambda p: norm.ppf(p, scale=np.sqrt(0.5))
        cps = np.linspace(0.0, 5.0, 11)
        rep = decay_study(cs, mono, x0mu, x0nu,
                          SimConfig(dt=2e-3, seed=4, record_every=250),
                          cps, q, q, n_boot=25)
        assert rep.envelope_holds()
        assert rep.rate_fitted > 0.8 * rep.rate_predicted
        d = rep.to_dict()
        assert len(d["times"]) == 11

    def test_off_grid_checkpoint_rejected(self):
        cs, mono = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        rng = np.random.default_rng(3)
        x0 = rng.normal(0.0, 1.0, (200, 1))
        q = lambda p: norm.ppf(p, scale=np.sqrt(0.5))
        # records every 0.05; 0.07 is 0.02 from the nearest one
        with pytest.raises(ValueError, match="no record"):
            decay_study(cs, mono, x0, x0, SimConfig(dt=1e-2, seed=4, record_every=5),
                        np.array([0.0, 0.05, 0.07, 0.1]), q, q, n_boot=2)

    def test_list_clouds_give_the_array_report(self):
        cs, mono = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        rng = np.random.default_rng(3)
        x0mu, x0nu = rng.normal(2.0, 0.5, (200, 1)), rng.normal(-1.0, 1.0, (200, 1))
        q = lambda p: norm.ppf(p, scale=np.sqrt(0.5))
        run = lambda a, b: decay_study(cs, mono, a, b, SimConfig(dt=1e-2, seed=4, record_every=5),
                                       np.array([0.0, 0.05, 0.1]), q, q, n_boot=5).to_dict()
        listed, arrays = run(x0mu.tolist(), x0nu.tolist()), run(x0mu, x0nu)
        assert listed.keys() == arrays.keys()
        for k in arrays:
            np.testing.assert_array_equal(listed[k], arrays[k], err_msg=k)

    def test_one_bootstrap_replicate_rejected(self, monkeypatch):
        # one replicate leaves no standard error (ddof=1)
        monkeypatch.setattr(ergodicity, "simulate_lifted", no_march)
        cs, mono = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        x0 = np.random.default_rng(3).normal(0.0, 1.0, (200, 1))
        q = lambda p: norm.ppf(p, scale=np.sqrt(0.5))
        with pytest.raises(ValueError, match="n_boot"):
            decay_study(cs, mono, x0, x0, SimConfig(dt=1e-2, seed=4),
                        np.array([0.0, 0.1]), q, q, n_boot=1)

    @pytest.mark.parametrize("checkpoints", [[], [0.5, 0.1], [0.1, 0.1], [[0.0, 0.1]], [-0.1, 0.1]],
                             ids=["empty", "decreasing", "repeated", "2-d", "negative"])
    def test_checkpoints_checked_before_any_march(self, monkeypatch, checkpoints):
        monkeypatch.setattr(ergodicity, "simulate_lifted", no_march)
        cs, mono = meanfield_ou_coefficients(1.0, 0.5, 1.0)
        x0 = np.random.default_rng(3).normal(0.0, 1.0, (200, 1))
        q = lambda p: norm.ppf(p, scale=np.sqrt(0.5))
        with pytest.raises(ValueError, match="checkpoints"):
            decay_study(cs, mono, x0, x0, SimConfig(dt=1e-2, seed=4), checkpoints, q, q)


class TestBootstrap:
    @staticmethod
    def q(p):
        return norm.ppf(p, scale=np.sqrt(0.5))

    def test_cloud_order_does_not_matter(self):
        pts = np.random.default_rng(8).normal(0.3, 0.8, (3000, 1))
        perm = np.random.default_rng(9).permutation(3000)
        a = _w2_with_stderr(pts, self.q, 30, np.random.default_rng(0))
        b = _w2_with_stderr(pts[perm], self.q, 30, np.random.default_rng(0))
        assert a == b

    def test_equals_index_resampling_of_the_sorted_cloud(self):
        pts = np.random.default_rng(10).normal(-0.2, 1.1, (3000, 1))
        rng = np.random.default_rng(1)
        atoms = np.sort(pts[:, 0])
        vals = [w2_to_quantile(EmpiricalMeasure.from_atoms(atoms[rng.integers(0, 3000, 3000)]), self.q)
                for _ in range(30)]
        w2, se = _w2_with_stderr(pts, self.q, 30, np.random.default_rng(1))
        assert w2 == w2_to_quantile(EmpiricalMeasure.from_atoms(pts), self.q)
        assert se == float(np.std(vals, ddof=1))

    @pytest.mark.parametrize("n", [3000, 20000])
    def test_point_estimate_equals_w2_to_quantile(self, n):
        # 64 does not divide n: no level ties, and the float cumulative-weight
        # search that w2_to_quantile used for every cloud reads the same atoms
        pts = np.random.default_rng(n).normal(0.3, 0.8, (n, 1))
        xs = np.sort(pts[:, 0])
        by_cdf = np.minimum(np.searchsorted(np.cumsum(np.full(n, 1 / n)), _quantile_levels()), n - 1)
        ref = float(np.sqrt(np.mean((xs[by_cdf] - self.q(_quantile_levels())) ** 2)))
        w2, _ = _w2_with_stderr(pts, self.q, 2, np.random.default_rng(0))
        assert w2 == ref
        assert w2 == w2_to_quantile(EmpiricalMeasure.from_atoms(pts), self.q)

    @pytest.mark.parametrize("n", [64, 640])
    def test_point_estimate_reads_the_exact_rank(self, n):
        # 64 | n: levels p_j = (m + 1) / n tie, where a float cumsum of the
        # weights can read atom m + 1; the quantile reads atom m
        pts = np.random.default_rng(n).normal(0.3, 0.8, (n, 1))
        ranks = [math.ceil(Fraction(2 * j + 1, 2 * QUANTILE_GRID) * n) - 1
                 for j in range(QUANTILE_GRID)]
        ref = np.sqrt(np.mean((np.sort(pts[:, 0])[ranks] - self.q(_quantile_levels())) ** 2))
        w2, _ = _w2_with_stderr(pts, self.q, 2, np.random.default_rng(0))
        assert w2 == ref
        assert w2_to_quantile(EmpiricalMeasure.from_atoms(pts), self.q) == ref
