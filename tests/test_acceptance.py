"""Acceptance battery: one test per headline property, each printing a
single PASS/FAIL line. These run at desk scale; the whole file takes a
few minutes.

Run just this file with

    pytest tests/test_acceptance.py -v -s
"""

import json
import os
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from mvlab.cli import main as cli_main
from mvlab.coefficients import (
    MonotonicityConstants,
    heat_coefficients,
    meanfield_ou_coefficients,
    nldbm_coefficients,
)
from mvlab.ergodicity import decay_envelope, decay_study
from mvlab.feynman_kac import (
    FKProblem,
    fk_evaluate,
    fk_evaluate_grid,
    l_derivative_fd,
)
from mvlab.fpe import SolverConfig, solve_nonlinear_fpe, total_clipped_mass
from mvlab.lifted import (
    LiftedTestFunction,
    apply_lifted_generator,
    chapman_kolmogorov_residual,
    measure_flow_derivative_residual,
)
from mvlab.measures import (
    CylindricalFunction,
    EmpiricalMeasure,
    InnerTest,
    intrinsic_gradient,
    sample_density,
    w2_gaussian_1d,
    w2_to_quantile,
    wasserstein2,
)
from mvlab.particles import (
    KDESpec,
    SimConfig,
    simulate_frozen,
    simulate_mckean_vlasov,
)
from mvlab.presets import arctan_params, cos_test, gaussian_grid, tanh_test
from tests_helpers import heat_semigroup_ck_residual, linear_F, lp_w2sq, square_test


def report(n, name, ok, detail=""):
    line = f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)


# ---------------------------------------------------------------------------
# 1. nonlinear FPE marginals == McKean-Vlasov particle marginals
# ---------------------------------------------------------------------------


def test_criterion_1_fpe_sde_equivalence():
    coeffs = nldbm_coefficients(arctan_params())
    grid0 = gaussian_grid(0.25, 0.0, x_min=-12.0, dx=0.01, n=2400)
    path = solve_nonlinear_fpe(grid0, coeffs, 0.0, 1.0, SolverConfig(dt=1e-3),
                               record_every=50)
    kde = KDESpec(-12.0, 0.01, 2400)
    times = (0.25, 0.5, 1.0)

    def l1_errors(n, seed):
        rng = np.random.default_rng(seed)
        x0 = sample_density(grid0, n, rng).points
        ens = simulate_mckean_vlasov(
            x0, coeffs, 0.0, 1.0,
            SimConfig(dt=1e-3, seed=seed, record_every=50, kde=kde),
        )
        errs = []
        for t in times:
            est = ens.marginal_at(t, tol=1e-6).density
            ref = path.state_at(t, tol=1e-6)
            errs.append(est.l1_distance(ref))
        return np.array(errs)

    l1_small = l1_errors(10_000, seed=101)
    l1_big = l1_errors(40_000, seed=202)
    ok = bool(np.all(l1_small <= 0.1)) and l1_big.mean() < l1_small.mean()
    report(1, "FPE/SDE equivalence", ok,
           f"L1 at N=1e4: {np.array2string(l1_small, precision=4)}, "
           f"mean at N=4e4: {l1_big.mean():.4f}")
    assert np.all(l1_small <= 0.1), l1_small
    assert l1_big.mean() < l1_small.mean(), (l1_small, l1_big)


# ---------------------------------------------------------------------------
# 2. Chapman-Kolmogorov for the pair-space kernel
# ---------------------------------------------------------------------------


def test_criterion_2_chapman_kolmogorov():
    heat_res = max(
        heat_semigroup_ck_residual(h, 0.0, 0.3, 1.0, 0.7)
        for h in (np.tanh, np.cos, lambda y: y**2)
    )

    G = LiftedTestFunction(cos_test(), linear_F(tanh_test()))

    def residual(cs, dx, dt, quad_points):
        # N(1, 0.25): from a symmetric start mu_t stays symmetric, so
        # F(mu) = mu(tanh) = 0, G vanishes and the check is empty
        zeta = gaussian_grid(0.25, 1.0, x_min=-8.0, dx=dx, n=int(round(16.0 / dx)))
        return chapman_kolmogorov_residual(
            G, cs, 0.0, 0.4, 1.0, 0.5, zeta, SolverConfig(dt=dt),
            quad_points=quad_points,
        )

    families = {"ou": meanfield_ou_coefficients(1.0, 0.5, 1.0)[0],
                "nldbm": nldbm_coefficients(arctan_params())}
    res = {name: (residual(cs, 0.04, 2e-3, 64), residual(cs, 0.02, 1e-3, 128))
           for name, cs in families.items()}
    tol_coarse = 5 * (2e-3 + 0.04**2)
    tol_fine = 5 * (1e-3 + 0.02**2)
    ok = heat_res <= 1e-5 and all(
        coarse <= tol_coarse and fine <= tol_fine and fine <= 0.6 * coarse
        for coarse, fine in res.values()
    )
    report(2, "Chapman-Kolmogorov", ok,
           f"heat {heat_res:.2e}, " + ", ".join(
               f"{name} coarse {coarse:.2e}, fine {fine:.2e}" for name, (coarse, fine) in res.items()))
    assert heat_res <= 1e-5
    for name, (coarse, fine) in res.items():
        assert coarse <= tol_coarse, name
        assert fine <= tol_fine, name
        assert fine <= 0.6 * coarse, (name, coarse, fine)


# ---------------------------------------------------------------------------
# 3. two-rate exponential decay envelope
# ---------------------------------------------------------------------------


def test_criterion_3_ergodicity_envelope():
    cs, mono = meanfield_ou_coefficients(1.0, 0.5, 1.0)
    assert abs((mono.lam - mono.kappa) - 1.0) < 1e-14

    n = 20_000
    rng = np.random.default_rng(30)
    x0_mu = rng.normal(3.0, 0.5, (n, 1))
    x0_nu = rng.normal(-2.0, 1.0, (n, 1))
    q_inf = lambda p: norm.ppf(p, scale=np.sqrt(0.5))
    checkpoints = 0.42 * np.arange(20)  # 20 points over [0, 7.98]
    rep = decay_study(
        cs, mono, x0_mu, x0_nu,
        SimConfig(dt=2e-3, seed=31, record_every=30),
        checkpoints, q_inf, q_inf, n_boot=30,
    )
    holds = rep.envelope_holds()
    rate_ok = rep.rate_fitted >= 0.9

    c0 = MonotonicityConstants(K=2.0, lam=1.5, kappa=0.5, lam_bar=1.0, kappa_bar=0.5)
    t = np.linspace(0.05, 8.0, 60)
    e0 = decay_envelope(t, 2.0, 3.0, c0)
    cont = 0.0
    for eps in (1e-9, -1e-9):
        c1 = MonotonicityConstants(K=2.0, lam=1.5, kappa=0.5, lam_bar=1.0 + eps,
                                   kappa_bar=0.5)
        cont = max(cont, float(np.max(np.abs(decay_envelope(t, 2.0, 3.0, c1) - e0) / e0)))

    ok = holds and rate_ok and cont < 1e-6
    report(3, "ergodicity envelope", ok,
           f"envelope holds: {holds}, fitted rate {rep.rate_fitted:.3f}, "
           f"degenerate continuity {cont:.2e}")
    assert holds
    assert rate_ok, rep.rate_fitted
    assert cont < 1e-6


# ---------------------------------------------------------------------------
# 4. Feynman-Kac representation and its tower property
# ---------------------------------------------------------------------------


def test_criterion_4_feynman_kac():
    mu = gaussian_grid(0.5, 1.0, x_min=-10.0, dx=0.01, n=2000)
    cfg = SolverConfig(dt=1e-3)
    cs, _ = meanfield_ou_coefficients(1.0, 0.5, 1.0)
    ones = lambda X, m: np.ones(X.shape[0])
    # every problem below runs along this one flow (or its start, for the
    # tower's outer problem over [0, 0.4])
    flow = solve_nonlinear_fpe(mu, cs, 0.0, 1.0, cfg)

    # (i) terminal 1, no potential/source: u == 1 exactly
    prob = FKProblem(cs, 1.0, terminal=ones)
    e1_grid = abs(fk_evaluate(prob, 0.0, 0.5, mu, cfg, backend="grid", flow=flow).value - 1.0)
    e1_mc = abs(fk_evaluate(prob, 0.0, 0.5, mu, cfg, backend="mc",
                            n_particles=2000, seed=40, flow=flow).value - 1.0)

    # (ii) constant potential c: u = exp(c T) up to dt bias
    prob_v = FKProblem(cs, 1.0, terminal=ones,
                       potential=lambda t, X, m: np.full(X.shape[0], 0.3))
    e2_grid = abs(fk_evaluate(prob_v, 0.0, 0.5, mu, cfg, backend="grid", flow=flow).value
                  - np.exp(0.3))
    e2_mc = abs(fk_evaluate(prob_v, 0.0, 0.5, mu, cfg, backend="mc",
                            n_particles=2000, seed=41, flow=flow).value - np.exp(0.3))

    # (iii) terminal x for mean-field OU: closed-form mean
    m0 = mu.mean()[0]
    mean_flow = lambda r: m0 * np.exp(-0.5 * r)
    integ, _ = quad(lambda r: np.exp(-1.0 * (1.0 - r)) * mean_flow(r), 0.0, 1.0)
    oracle3 = 0.5 * np.exp(-1.0) + 0.5 * integ
    prob_x = FKProblem(cs, 1.0, terminal=lambda X, m: X[:, 0])
    mc3 = fk_evaluate(prob_x, 0.0, 0.5, mu, cfg, backend="mc",
                      n_particles=20000, seed=42, flow=flow)
    e3 = abs(mc3.value - oracle3)
    tol3 = 3 * mc3.stderr + 10 * cfg.dt

    # (iv) measure-only terminal: deterministic mean of the nonlinear flow
    prob_m = FKProblem(cs, 1.0,
                       terminal=lambda X, m: np.full(X.shape[0], m.mean()[0]))
    e4 = abs(fk_evaluate(prob_m, 0.0, 0.5, mu, cfg, backend="grid", flow=flow).value
             - m0 * np.exp(-0.5))

    # tower property at r = 0.4: restarting from the intermediate value
    # function reproduces the full solve
    full = fk_evaluate(prob_x, 0.0, 0.5, mu, cfg, backend="grid", flow=flow).value
    w_r = fk_evaluate_grid(prob_x, 0.4, mu, cfg, flow=flow)
    prob_outer = FKProblem(cs, 0.4,
                           terminal=lambda X, m: np.interp(X[:, 0], mu.centers, w_r))
    tower = fk_evaluate(prob_outer, 0.0, 0.5, mu, cfg, backend="grid", flow=flow).value
    e5 = abs(tower - full)
    mc_full = fk_evaluate(prob_x, 0.0, 0.5, mu, cfg, backend="mc",
                          n_particles=20000, seed=43, flow=flow)
    e6 = abs(mc_full.value - full)
    tol6 = 3 * mc_full.stderr + 10 * cfg.dt

    # the paper's headline family: NLDBM-arctan's frozen fields read the
    # flow's density, through both backends along one grid flow
    nldbm = nldbm_coefficients(arctan_params())
    mu_n = gaussian_grid(0.25, 1.0)
    flow_n = solve_nonlinear_fpe(mu_n, nldbm, 0.0, 0.5, cfg)
    prob_n = FKProblem(nldbm, 0.5, terminal=lambda X, m: np.tanh(X[:, 0]))
    grid_n = fk_evaluate(prob_n, 0.0, 0.5, mu_n, cfg, backend="grid", flow=flow_n).value
    mc_n = fk_evaluate(prob_n, 0.0, 0.5, mu_n, cfg, backend="mc",
                       n_particles=40_000, seed=7, flow=flow_n)
    e7 = abs(mc_n.value - grid_n)
    tol7 = 3 * mc_n.stderr + 10 * cfg.dt

    ok = (e1_grid < 1e-9 and e1_mc < 1e-12 and e2_grid < 10 * cfg.dt
          and e2_mc < 1e-10 and e3 < tol3 and e4 < 5e-3 and e5 < 1e-10
          and e6 < tol6 and e7 < tol7)
    report(4, "Feynman-Kac", ok,
           f"unit {e1_grid:.1e}/{e1_mc:.1e}, potential {e2_grid:.1e}/{e2_mc:.1e}, "
           f"mean {e3:.1e}<{tol3:.1e}, measure {e4:.1e}, "
           f"tower {e5:.1e}, mc/grid {e6:.1e}<{tol6:.1e}, "
           f"nldbm mc/grid {e7:.1e}<{tol7:.1e}")
    assert e1_grid < 1e-9 and e1_mc < 1e-12
    assert e2_grid < 10 * cfg.dt and e2_mc < 1e-10
    assert e3 < tol3
    assert e4 < 5e-3
    assert e5 < 1e-10
    assert e6 < tol6
    assert e7 < tol7


# ---------------------------------------------------------------------------
# 5. intrinsic gradient vs finite differences along pushforward curves
# ---------------------------------------------------------------------------


def _sin_test(w):
    return InnerTest(
        lambda X: np.sin(w * X[:, 0]),
        lambda X: (w * np.cos(w * X[:, 0]))[:, None],
        lambda X: (-w * w * np.sin(w * X[:, 0]))[:, None, None],
    )


def test_criterion_5_intrinsic_gradient():
    rng = np.random.default_rng(50)
    worst_rel, worst_order, worst_rep = 0.0, np.inf, 0.0
    for _ in range(20):
        cloud = EmpiricalMeasure.from_atoms(rng.normal(size=300))
        w = rng.uniform(0.7, 1.3)
        a1, a2 = rng.uniform(0.5, 1.5, 2)
        h1, h2 = _sin_test(w), square_test()
        F = CylindricalFunction(
            inner=(h1, h2),
            outer=lambda r, a1=a1, a2=a2: float(np.exp(a1 * r[0]) + a2 * r[0] * r[1]),
            outer_grad=lambda r, a1=a1, a2=a2: np.array(
                [a1 * np.exp(a1 * r[0]) + a2 * r[1], a2 * r[0]]
            ),
        )
        c1, c2 = rng.uniform(0.5, 1.5, 2)
        phi = lambda X, c1=c1, c2=c2: c1 * np.tanh(X) + c2 * np.sin(X)

        field = intrinsic_gradient(F, cloud)
        exact = cloud.integrate(lambda X: np.einsum("ni,ni->n", field(X), phi(X)))
        rel = abs(l_derivative_fd(F, cloud, phi, eps=1e-5) - exact) / max(abs(exact), 1e-8)
        worst_rel = max(worst_rel, rel)

        e_big = abs(l_derivative_fd(F, cloud, phi, eps=1e-2) - exact)
        e_half = abs(l_derivative_fd(F, cloud, phi, eps=5e-3) - exact)
        if e_big > 1e-10:
            worst_order = min(worst_order, np.log2(e_big / e_half))

        # same functional with the inner tests permuted: identical gradient
        F_perm = CylindricalFunction(
            inner=(h2, h1),
            outer=lambda r, a1=a1, a2=a2: float(np.exp(a1 * r[1]) + a2 * r[1] * r[0]),
            outer_grad=lambda r, a1=a1, a2=a2: np.array(
                [a2 * r[1], a1 * np.exp(a1 * r[1]) + a2 * r[0]]
            ),
        )
        gap = np.max(np.abs(field(cloud.points) - intrinsic_gradient(F_perm, cloud)(cloud.points)))
        worst_rep = max(worst_rep, float(gap))

    ok = worst_rel <= 1e-4 and worst_order >= 1.9 and worst_rep <= 1e-10
    report(5, "intrinsic gradient", ok,
           f"worst rel {worst_rel:.2e}, worst order {worst_order:.3f}, "
           f"representation gap {worst_rep:.2e}")
    assert worst_rel <= 1e-4
    assert worst_order >= 1.9
    assert worst_rep <= 1e-10


# ---------------------------------------------------------------------------
# 6. conservation and positivity across solver regimes
# ---------------------------------------------------------------------------


def test_criterion_6_conservation_positivity():
    grid = gaussian_grid(0.25, 0.5, x_min=-8.0, dx=0.05, n=320)
    runs = [
        (heat_coefficients(1, 1.0), SolverConfig(dt=1e-3, scheme="explicit"), 0.5),
        (heat_coefficients(1, 1.0), SolverConfig(dt=1e-3), 0.5),
        (meanfield_ou_coefficients(1.0, 0.5, 1.0)[0], SolverConfig(dt=1e-3), 1.0),
        (nldbm_coefficients(arctan_params()), SolverConfig(dt=1e-3), 0.5),
    ]
    worst_drift, worst_clip = 0.0, 0.0
    for coeffs, cfg, horizon in runs:
        path = solve_nonlinear_fpe(grid, coeffs, 0.0, horizon, cfg, record_every=100)
        worst_drift = max(worst_drift, path.log.max_mass_drift)
        worst_clip = max(worst_clip, path.log.clipped_mass)
    total = total_clipped_mass()
    ok = worst_drift <= 1e-12 and worst_clip <= 1e-6 and total <= 1e-6
    report(6, "conservation/positivity", ok,
           f"max drift {worst_drift:.2e}, clipped {worst_clip:.2e}, "
           f"process total {total:.2e}")
    assert worst_drift <= 1e-12
    assert worst_clip <= 1e-6
    assert total <= 1e-6


# ---------------------------------------------------------------------------
# 7. lifted generator consistency on pair space
# ---------------------------------------------------------------------------


def test_criterion_7_lifted_generator():
    mu0 = gaussian_grid(0.5, 1.0)
    cfg = SolverConfig(dt=1e-3)
    n = 20_000
    x0 = sample_density(mu0, n, np.random.default_rng(70)).points
    t, step = 0.5, 0.05

    def check(cs):
        """Pair-space gaps and their tolerances, and the measure-flow
        residual's relative size. mu_t is read from the grid flow, so a
        density-dependent family needs no KDE view of the cloud."""
        flow = solve_nonlinear_fpe(mu0, cs, 0.0, 1.0, cfg)
        ens = simulate_frozen(x0, flow.state_at, cs, 0.0, 1.0,
                              SimConfig(dt=1e-3, seed=71, record_every=50))
        gaps, tols = [], []
        for g, F in [(cos_test(), linear_F(tanh_test())),
                     (tanh_test(), linear_F(square_test()))]:
            # raw record order keeps particles paired across times, so the
            # difference quotient has the per-path cancellation built in
            Xm = ens.marginal_at(t - step, tol=1e-6).points
            Xp = ens.marginal_at(t + step, tol=1e-6).points
            Xt = ens.marginal_at(t, tol=1e-6).points
            Fp = F(flow.state_at(t + step, tol=1e-6))
            Fm = F(flow.state_at(t - step, tol=1e-6))
            D = (g.h(Xp) * Fp - g.h(Xm) * Fm) / (2 * step)
            fd, se = float(D.mean()), float(D.std(ddof=1) / np.sqrt(n))

            mu_t = flow.state_at(t, tol=1e-6)
            gen = float(np.mean(apply_lifted_generator(LiftedTestFunction(g, F), cs, t, Xt, mu_t)))
            gaps.append(abs(fd - gen))
            tols.append(3 * (se + cfg.dt))

        fine = solve_nonlinear_fpe(mu0, cs, 0.4, 0.6, SolverConfig(dt=1e-4))
        _, gen, res = measure_flow_derivative_residual(linear_F(tanh_test()), cs, fine, 0.5, 1e-4)
        return gaps, tols, res / abs(gen)

    # the paper's headline family, NLDBM-arctan, beside mean-field OU
    families = {"ou": meanfield_ou_coefficients(1.0, 0.5, 1.0)[0],
                "nldbm": nldbm_coefficients(arctan_params())}
    res = {name: check(cs) for name, cs in families.items()}
    ok = all(all(g <= tl for g, tl in zip(gaps, tols)) and rel < 1e-2
             for gaps, tols, rel in res.values())
    report(7, "lifted generator", ok, ", ".join(
        f"{name} pair-space gaps {np.array2string(np.array(gaps), precision=3)} "
        f"(tols {np.array2string(np.array(tols), precision=3)}), "
        f"measure flow rel {rel:.2e}" for name, (gaps, tols, rel) in res.items()))
    for name, (gaps, tols, rel) in res.items():
        assert all(g <= tl for g, tl in zip(gaps, tols)), (name, gaps, tols)
        assert rel < 1e-2, (name, rel)


# ---------------------------------------------------------------------------
# 8. Wasserstein-2 against brute force and closed forms
# ---------------------------------------------------------------------------


def _separated_cloud(rng, n):
    x = np.cumsum(rng.uniform(0.4, 1.4, n))
    x -= x.mean()
    w = rng.uniform(0.2, 1.0, n)
    return EmpiricalMeasure.from_atoms(x, w / w.sum())


def test_criterion_8_w2_correctness():
    rng = np.random.default_rng(80)
    worst_lp = 0.0
    for n in range(1, 7):
        for m in range(1, 7):
            for _ in range(3):
                mu, nu = _separated_cloud(rng, n), _separated_cloud(rng, m)
                gap = abs(wasserstein2(mu, nu) ** 2 - lp_w2sq(mu, nu))
                worst_lp = max(worst_lp, gap)

    N = 10_000
    a = EmpiricalMeasure.from_atoms(rng.normal(0.0, 1.0, N))
    b = EmpiricalMeasure.from_atoms(rng.normal(3.0, np.sqrt(2.0), N))
    ref = w2_gaussian_1d(0.0, 1.0, 3.0, 2.0)
    e_emp = abs(wasserstein2(a, b) - ref)
    e_quant = abs(
        w2_to_quantile(a, lambda p: norm.ppf(p, loc=3.0, scale=np.sqrt(2.0))) - ref
    )
    tol = 3 * N ** (-0.5) * ref
    e_grid = abs(
        w2_to_quantile(gaussian_grid(1.0, 0.0),
                       lambda p: norm.ppf(p, loc=3.0, scale=np.sqrt(2.0))) - ref
    )

    ok = worst_lp <= 1e-9 and e_emp <= tol and e_quant <= tol and e_grid <= 1e-3
    report(8, "W2 correctness", ok,
           f"LP gap {worst_lp:.2e}, gaussian errors {e_emp:.2e}/{e_quant:.2e} "
           f"(tol {tol:.2e}), grid quantile {e_grid:.2e}")
    assert worst_lp <= 1e-9
    assert e_emp <= tol and e_quant <= tol
    assert e_grid <= 1e-3


# ---------------------------------------------------------------------------
# 9. bitwise deterministic reruns
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "experiment": "frozen-compare",
        "seed": 9,
        "coefficients": {"family": "meanfield-ou", "lambda0": 1.0,
                         "kappa0": 0.5, "sigma0": 1.0},
        "numerics": {"dt": 2e-3, "dx": 0.02, "x_min": -8.0, "n_cells": 800,
                     "horizon": 0.3, "n_particles": 2000, "record_every": 50},
        "initial": {"kind": "gaussian", "mean": 1.0, "var": 0.25},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["run", str(cfg_path), "--out", out_a]) == 0
    assert cli_main(["run", str(cfg_path), "--out", out_b]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    same = all(Path(out_a, f).read_bytes() == Path(out_b, f).read_bytes() for f in names)
    report(9, "determinism", same, f"{len(names)} artifacts compared")
    assert same
