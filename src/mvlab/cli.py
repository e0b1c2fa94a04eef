"""Experiment runner.

One experiment per invocation, driven by a JSON config file. The resolved
config, library versions, and seed are written to manifest.json in the
output directory; rerunning with the same manifest reproduces every
artifact bitwise (no timestamps anywhere).

Exit codes: 0 success, 2 invariant violation (for example an ergodicity
envelope breach or a hypothesis check failure), 1 error (bad config, bad
paths, solver failure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .coefficients import (
    heat_coefficients,
    meanfield_ou_coefficients,
    nldbm_coefficients,
    validate_hypotheses,
)
from .ergodicity import decay_study
from .feynman_kac import FKProblem, fk_evaluate
from .fpe import SolverConfig, solve_frozen_fpe, solve_nonlinear_fpe
from .lifted import LiftedTestFunction, chapman_kolmogorov_residual
from .measures import (
    CylindricalFunction,
    FLOAT_FMT,
    GridDensity1D,
    grid_to_measure,
    intrinsic_gradient,
    sample_density,
    wasserstein2,
)
from .particles import KDESpec, SimConfig, simulate_mckean_vlasov
from .plotting import line_plot
from .presets import arctan_params, cos_test, gaussian_grid, tanh_test

EXPERIMENTS = (
    "simulate-mkv",
    "solve-fpe",
    "frozen-compare",
    "check-ck",
    "ergodicity",
    "feynman-kac",
    "gradient-check",
    "validate-hypotheses",
)


class ConfigError(ValueError):
    pass


def _require_keys(d: dict, allowed: dict, required: tuple, context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")
    for k, v in d.items():
        typ = allowed[k]
        if typ is float:
            ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        elif typ is int:
            ok = isinstance(v, int) and not isinstance(v, bool)
        else:
            ok = isinstance(v, typ)
        if not ok:
            raise ConfigError(f"{context}: key {k!r} must be {typ.__name__}")


_NUMERICS_KEYS = {
    "dt": float,
    "dx": float,
    "x_min": float,
    "n_cells": int,
    "n_particles": int,
    "horizon": float,
    "bandwidth": float,
    "record_every": int,
    "replicas": int,
    "checkpoints": int,
    "quad_points": int,
    "n_boot": int,
    "scheme": str,
    "tolerance": float,
    "split_time": float,
    "eval_time": float,
    "eval_point": float,
    "potential": float,
    "source": float,
}

_INITIAL_KEYS = {"kind": str, "mean": float, "var": float}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    top = {
        "experiment": str,
        "seed": int,
        "coefficients": dict,
        "numerics": dict,
        "initial": dict,
        "initial_frozen": dict,
        "terminal": str,
        "output_dir": str,
    }
    _require_keys(cfg, top, ("experiment", "seed", "coefficients", "numerics"), "config")
    if cfg["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"config: experiment must be one of {list(EXPERIMENTS)}, got {cfg['experiment']!r}"
        )
    fam = cfg["coefficients"]
    _require_keys(
        fam,
        {"family": str, "diffusion": float, "lambda0": float, "kappa0": float,
         "sigma0": float, "C": float, "alpha": float},
        ("family",),
        "coefficients",
    )
    if fam["family"] not in ("heat", "meanfield-ou", "nldbm-arctan"):
        raise ConfigError(f"coefficients: unknown family {fam['family']!r}")
    _require_keys(cfg["numerics"], _NUMERICS_KEYS, (), "numerics")
    if cfg["numerics"].get("record_every", 1) < 1:
        raise ConfigError("numerics: record_every must be >= 1")
    for key in ("initial", "initial_frozen"):
        if key in cfg:
            _require_keys(cfg[key], _INITIAL_KEYS, ("kind",), key)
            if cfg[key]["kind"] != "gaussian":
                raise ConfigError(f"{key}: only kind 'gaussian' is supported")


def build_coefficients(fam: dict):
    """Returns (CoefficientSet, MonotonicityConstants or NLDBMParams or None)."""
    family = fam["family"]
    if family == "heat":
        return heat_coefficients(1, fam.get("diffusion", 1.0)), None
    if family == "meanfield-ou":
        cs, consts = meanfield_ou_coefficients(
            fam.get("lambda0", 1.0), fam.get("kappa0", 0.5), fam.get("sigma0", 1.0)
        )
        return cs, consts
    p = arctan_params(fam.get("C", 1.0), fam.get("alpha", 0.5))
    return nldbm_coefficients(p), p


def _numerics(cfg: dict) -> dict:
    num = dict(
        dt=1e-3, dx=1e-2, x_min=-8.0, n_cells=1600, n_particles=10000, horizon=1.0,
        record_every=1, replicas=1, checkpoints=20, quad_points=64, n_boot=50,
        scheme="semi_implicit", tolerance=0.0, split_time=0.0, eval_time=0.0,
        eval_point=0.5, potential=0.0, source=0.0, bandwidth=0.0,
    )
    num.update(cfg["numerics"])
    return num


def _initial_grid(spec: dict | None, x_min: float, dx: float, M: int) -> GridDensity1D:
    spec = spec or {"kind": "gaussian", "mean": 0.0, "var": 0.25}
    return gaussian_grid(spec.get("var", 0.25), spec.get("mean", 0.0), x_min, dx, M)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def run_experiment(cfg: dict, out_dir: str) -> int:
    num = _numerics(cfg)
    coeffs, extra = build_coefficients(cfg["coefficients"])
    seed = cfg["seed"]
    experiment = cfg["experiment"]
    results: dict = {"experiment": experiment}
    code = 0
    dx, x_min, M = num["dx"], num["x_min"], num["n_cells"]
    solver_cfg = SolverConfig(dt=num["dt"], scheme=num["scheme"])

    if experiment == "solve-fpe":
        u0 = _initial_grid(cfg.get("initial"), x_min, dx, M)
        path = solve_nonlinear_fpe(u0, coeffs, 0.0, num["horizon"], solver_cfg,
                                   record_every=num["record_every"])
        final = path.states[-1]
        _write_csv(os.path.join(out_dir, "results.csv"),
                   ["x", "u"], [final.centers, final.values])
        results["conservation"] = path.log.to_dict()
        results["final_mean"] = float(final.mean()[0])
        results["final_second_moment"] = final.second_moment()
        line_plot([("initial", u0.centers, u0.values), ("final", final.centers, final.values)],
                  os.path.join(out_dir, "plot.svg"), title="density evolution",
                  xlabel="x", ylabel="u")

    elif experiment == "simulate-mkv":
        u0 = _initial_grid(cfg.get("initial"), x_min, dx, M)
        rng = np.random.default_rng(seed)
        x0 = sample_density(u0, num["n_particles"], rng).points
        kde = KDESpec(x_min, dx, M,
                      bandwidth=num["bandwidth"] if num["bandwidth"] > 0 else "silverman")
        ens = simulate_mckean_vlasov(
            x0, coeffs, 0.0, num["horizon"],
            SimConfig(dt=num["dt"], seed=seed, record_every=num["record_every"], kde=kde),
        )
        mu_T = ens.marginal(len(ens.times) - 1)
        _write_csv(os.path.join(out_dir, "results.csv"),
                   ["x", "weight"], [mu_T.points[:, 0], mu_T.weights])
        results["final_mean"] = float(mu_T.mean()[0])
        results["final_second_moment"] = mu_T.second_moment()
        line_plot([("kde", mu_T.density.centers, mu_T.density.values)],
                  os.path.join(out_dir, "plot.svg"), title="terminal density estimate",
                  xlabel="x", ylabel="u")

    elif experiment == "frozen-compare":
        u0 = _initial_grid(cfg.get("initial"), x_min, dx, M)
        nu0 = _initial_grid(cfg.get("initial_frozen"), x_min, dx, M)
        flow = solve_nonlinear_fpe(u0, coeffs, 0.0, num["horizon"], solver_cfg)
        frozen = solve_frozen_fpe(nu0, flow, coeffs, solver_cfg,
                                  record_every=num["record_every"])
        ts, l1s, w2s = [], [], []
        for t, st in zip(frozen.times, frozen.states):
            ref = flow.state_at(t)
            ts.append(t)
            l1s.append(float(np.abs(st.values - ref.values).sum() * dx))
            w2s.append(wasserstein2(grid_to_measure(st), grid_to_measure(ref)))
        _write_csv(os.path.join(out_dir, "results.csv"), ["t", "l1", "w2"],
                   [np.array(ts), np.array(l1s), np.array(w2s)])
        results["final_l1"] = l1s[-1]
        results["final_w2"] = w2s[-1]
        line_plot([("L1", np.array(ts), np.array(l1s)), ("W2", np.array(ts), np.array(w2s))],
                  os.path.join(out_dir, "plot.svg"), title="frozen vs nonlinear flow",
                  xlabel="t", ylabel="distance")

    elif experiment == "check-ck":
        h, g = tanh_test(), cos_test()
        G = LiftedTestFunction(g, CylindricalFunction.linear(h.h, h.grad, h.hess))
        zeta = _initial_grid(cfg.get("initial"), x_min, dx, M)
        r = num["split_time"] if num["split_time"] > 0 else num["horizon"] / 2
        resid = chapman_kolmogorov_residual(
            G, coeffs, 0.0, r, num["horizon"], num["eval_point"], zeta, solver_cfg,
            quad_points=num["quad_points"],
        )
        results["residual"] = resid
        tol = num["tolerance"] if num["tolerance"] > 0 else 5 * (num["dt"] + dx * dx)
        results["tolerance"] = tol
        if resid > tol:
            code = 2

    elif experiment == "ergodicity":
        if cfg["coefficients"]["family"] != "meanfield-ou":
            raise ConfigError("ergodicity experiment requires the meanfield-ou family")
        lam0 = cfg["coefficients"].get("lambda0", 1.0)
        sig0 = cfg["coefficients"].get("sigma0", 1.0)
        from scipy.stats import norm

        scale = sig0 / np.sqrt(2 * lam0)
        qfun = lambda p: norm.ppf(p, loc=0.0, scale=scale)
        rng = np.random.default_rng(seed)
        init = cfg.get("initial") or {"kind": "gaussian", "mean": 4.0, "var": 0.25}
        init_f = cfg.get("initial_frozen") or {"kind": "gaussian", "mean": -3.0, "var": 1.0}
        N = num["n_particles"]
        x0mu = rng.normal(init.get("mean", 4.0), np.sqrt(init.get("var", 0.25)), (N, 1))
        x0nu = rng.normal(init_f.get("mean", -3.0), np.sqrt(init_f.get("var", 1.0)), (N, 1))
        # checkpoints about horizon / (checkpoints - 1) apart, on the record grid
        rec = max(int(round(num["horizon"] / max(num["checkpoints"] - 1, 1) / num["dt"])), 1)
        cps = np.arange(num["checkpoints"]) * rec * num["dt"]
        report = decay_study(
            coeffs, extra, x0mu, x0nu,
            SimConfig(dt=num["dt"], seed=seed, record_every=rec),
            cps, qfun, qfun, n_boot=num["n_boot"], boot_seed=seed,
        )
        results.update(report.to_dict())
        results["envelope_holds"] = report.envelope_holds()
        _write_csv(os.path.join(out_dir, "results.csv"),
                   ["t", "w2_mu", "w2_nu", "envelope_sq"],
                   [report.times, report.w2_mu, report.w2_nu, report.envelope_sq])
        line_plot(
            [("observed", report.times, report.observed_sq()),
             ("envelope", report.times, report.envelope_sq)],
            os.path.join(out_dir, "plot.svg"), title="decay to the invariant measure",
            xlabel="t", ylabel="squared W2", logy=True,
        )
        if not report.envelope_holds():
            code = 2

    elif experiment == "feynman-kac":
        mu = _initial_grid(cfg.get("initial"), x_min, dx, M)
        terminal_name = cfg.get("terminal", "tanh")
        terms = {
            "tanh": lambda X, m: np.tanh(X[:, 0]),
            "square": lambda X, m: X[:, 0] ** 2,
            "identity": lambda X, m: X[:, 0],
        }
        if terminal_name not in terms:
            raise ConfigError(f"terminal must be one of {sorted(terms)}")
        Vc, fc = num["potential"], num["source"]
        prob = FKProblem(
            coeffs, num["horizon"], terminal=terms[terminal_name],
            potential=(lambda t, X, m: np.full(X.shape[0], Vc)) if Vc != 0 else None,
            source=(lambda t, X, m: np.full(X.shape[0], fc)) if fc != 0 else None,
        )
        est_grid = fk_evaluate(prob, num["eval_time"], num["eval_point"], mu, solver_cfg,
                               backend="grid")
        est_mc = fk_evaluate(prob, num["eval_time"], num["eval_point"], mu, solver_cfg,
                             backend="mc", n_particles=num["n_particles"], seed=seed)
        results["grid_value"] = est_grid.value
        results["mc_value"] = est_mc.value
        results["mc_stderr"] = est_mc.stderr

    elif experiment == "gradient-check":
        from .feynman_kac import l_derivative_fd

        h, g = tanh_test(), cos_test()
        F = CylindricalFunction(
            inner=(h, g),
            outer=lambda rv: float(np.sin(rv[0]) + rv[0] * rv[1]),
            outer_grad=lambda rv: np.array([np.cos(rv[0]) + rv[1], rv[0]]),
        )
        mu = grid_to_measure(_initial_grid(cfg.get("initial"), x_min, dx, M))
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(num["replicas"]):
            c0, c1 = rng.normal(size=2)
            phi = lambda X: c0 * np.tanh(X) + c1 * np.cos(X)
            fd = l_derivative_fd(F, mu, phi, eps=1e-5)
            field = intrinsic_gradient(F, mu)
            pairing = mu.integrate(lambda X: np.einsum("ni,ni->n", field(X), phi(X)))
            worst = max(worst, abs(fd - pairing) / max(abs(pairing), 1e-12))
        results["worst_rel_err"] = worst
        tol = num["tolerance"] if num["tolerance"] > 0 else 1e-4
        results["tolerance"] = tol
        if worst > tol:
            code = 2

    elif experiment == "validate-hypotheses":
        rng = np.random.default_rng(seed)
        family = cfg["coefficients"]["family"]
        if family == "meanfield-ou":
            report = validate_hypotheses((coeffs, extra), rng=rng)
        elif family == "nldbm-arctan":
            report = validate_hypotheses(extra, rng=rng)
        else:
            raise ConfigError("validate-hypotheses needs meanfield-ou or nldbm-arctan")
        results["margins"] = report.to_dict()
        results["passed"] = report.passed
        if not report.passed:
            code = 2

    results["exit_code"] = code
    _write_json(os.path.join(out_dir, "results.json"), results)
    return code


def _manifest(cfg: dict, out_dir: str) -> None:
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "config": cfg,
            "versions": {
                "mvlab": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        },
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mvlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print("config ok")
        return 0

    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = args.out or cfg.get("output_dir") or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        _manifest(cfg, out_dir)
        code = run_experiment(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 2:
        print("invariant violation; see results.json", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
