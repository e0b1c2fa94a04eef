"""Experiment runner.

One experiment per invocation, driven by a JSON config file. The config as
given (with the ``--seed`` override, if any, in place of its seed; defaults
are not filled in) and the library versions are written to manifest.json in
the output directory; rerunning with the same manifest reproduces every
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
from contextlib import contextmanager

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
from .feynman_kac import FKProblem, fk_evaluate, l_derivative_fd
from .fpe import SCHEMES, SolverConfig, solve_frozen_fpe, solve_nonlinear_fpe
from .lifted import LiftedTestFunction, chapman_kolmogorov_residual, check_split
from .measures import (
    CylindricalFunction,
    GridDensity1D,
    csv_table,
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


# The accepted keys of each config section with their defaults. A key's
# type is the type of its default, and an int is accepted for a float; a
# required key's default only gives its type.
TOP = {
    "experiment": "", "seed": 0, "coefficients": {}, "numerics": {},
    "initial": {}, "initial_frozen": {}, "terminal": "tanh", "output_dir": ".",
}
REQUIRED = ("experiment", "seed", "coefficients", "numerics")
COEFFICIENTS = {
    "heat": {"diffusion": 1.0},
    "meanfield-ou": {"lambda0": 1.0, "kappa0": 0.5, "sigma0": 1.0},
    "nldbm-arctan": {"C": 1.0, "alpha": 0.5},
}
NUMERICS = {
    "dt": 1e-3, "dx": 1e-2, "x_min": -8.0, "n_cells": 1600, "n_particles": 10000,
    "horizon": 1.0, "bandwidth": 0.0, "record_every": 1, "replicas": 1,
    "checkpoints": 20, "quad_points": 64, "n_boot": 50, "scheme": "semi_implicit",
    "tolerance": 0.0, "split_time": 0.0, "eval_time": 0.0, "eval_point": 0.5,
    "potential": 0.0, "source": 0.0,
}
INITIAL = {"kind": "gaussian", "mean": 0.0, "var": 0.25}
# ergodicity starts its two clouds on either side of the invariant law
ERGODICITY_INITIAL = {"initial": {"mean": 4.0}, "initial_frozen": {"mean": -3.0, "var": 1.0}}
TERMINALS = {
    "tanh": lambda X, m: np.tanh(X[:, 0]),
    "square": lambda X, m: X[:, 0] ** 2,
    "identity": lambda X, m: X[:, 0],
}
# The smallest accepted value of a number: the smallest at which every
# experiment that reads the key runs (n_boot and n_particles >= 2 for the
# ddof=1 standard errors; n_cells >= 2 for the binned KDE, which splits an
# atom between two cells, and for check-ck's delta). A bandwidth or
# tolerance of 0 selects its default.
BOUNDS = {
    "dt": (">", 0), "dx": (">", 0), "horizon": (">", 0), "var": (">", 0),
    "n_cells": (">=", 2), "n_particles": (">=", 2), "record_every": (">=", 1),
    "replicas": (">=", 1), "checkpoints": (">=", 2), "quad_points": (">=", 1),
    "n_boot": (">=", 2), "seed": (">=", 0), "bandwidth": (">=", 0), "tolerance": (">=", 0),
}
# the accepted values of a string
CHOICES = {
    "experiment": EXPERIMENTS, "scheme": SCHEMES, "kind": ("gaussian",),
    "terminal": tuple(TERMINALS),
}
# experiments that need particular coefficient families
FAMILIES = {"ergodicity": ("meanfield-ou",), "validate-hypotheses": ("meanfield-ou", "nldbm-arctan")}
# the initial laws that an experiment builds on the grid (default: "initial")
GRID_LAWS = {"frozen-compare": ("initial", "initial_frozen"), "ergodicity": (),
             "validate-hypotheses": ()}


def _check(d: dict, table: dict, context: str, required: tuple = ()) -> dict:
    """``d`` with the defaults of ``table`` filled in, or ``ConfigError`` on an
    unknown, missing, mistyped or out-of-range key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(d) - set(table)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")
    for k, v in d.items():
        typ = type(table[k])
        if isinstance(v, bool) or not isinstance(v, (int, float) if typ is float else typ):
            raise ConfigError(f"{context}: key {k!r} must be {typ.__name__}")
        if k in CHOICES and v not in CHOICES[k]:
            raise ConfigError(f"{context}: {k} must be one of {list(CHOICES[k])}, got {v!r}")
        if k in BOUNDS:
            op, low = BOUNDS[k]
            if not (v > low if op == ">" else v >= low):
                raise ConfigError(f"{context}: {k} must be {op} {low}, got {v!r}")
    return {**table, **d}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected an object")
    return cfg


@contextmanager
def _config_errors(context: str):
    """Reraise a library ``ValueError`` as a ``ConfigError`` on ``context``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _split_time(num: dict) -> float:
    return num["split_time"] if num["split_time"] > 0 else num["horizon"] / 2


def _inputs(cfg: dict) -> tuple:
    """The one check of a config, and the inputs it builds for the run:
    (config with the defaults of every section filled in, coefficient set,
    extra, laws), where ``laws`` maps each key of the experiment's
    ``GRID_LAWS`` to its grid density."""
    full = _check(cfg, TOP, "config", REQUIRED)
    experiment, fam = cfg["experiment"], cfg["coefficients"]
    families = FAMILIES.get(experiment, tuple(COEFFICIENTS))
    if fam.get("family") not in families:
        raise ConfigError(
            f"coefficients: family must be one of {list(families)} for {experiment}, "
            f"got {fam.get('family')!r}"
        )
    full["coefficients"] = _check(fam, {"family": "", **COEFFICIENTS[fam["family"]]}, "coefficients")
    num = full["numerics"] = _check(cfg["numerics"], NUMERICS, "numerics")
    for key in ("initial", "initial_frozen"):
        law = {**INITIAL, **ERGODICITY_INITIAL[key]} if experiment == "ergodicity" else INITIAL
        full[key] = _check(cfg[key], law, key, ("kind",)) if key in cfg else law
    with _config_errors("coefficients"):
        coeffs, extra = build_coefficients(fam)
        if experiment == "ergodicity":
            extra.require_contractive()
    laws = {}
    for key in GRID_LAWS.get(experiment, ("initial",)):
        with _config_errors(key):
            laws[key] = _initial_grid(full[key], num["x_min"], num["dx"], num["n_cells"])
    if experiment in ("check-ck", "feynman-kac"):
        with _config_errors("numerics: eval_point"):
            laws["initial"].check_inside_centers(num["eval_point"])
    if experiment == "feynman-kac" and not 0 <= num["eval_time"] <= num["horizon"]:
        raise ConfigError(f"numerics: eval_time must be in [0, horizon], got {num['eval_time']!r}")
    if experiment == "check-ck":
        with _config_errors("numerics: split_time"):
            check_split(0.0, _split_time(num), num["horizon"], SolverConfig(num["dt"], num["scheme"]))
    return full, coeffs, extra, laws


def validate_config(cfg: dict) -> dict:
    """The one check of a config: ``ConfigError`` on anything that
    ``run_experiment`` would reject as a config. Returns the numerics with
    their defaults filled in."""
    return _inputs(cfg)[0]["numerics"]


def build_coefficients(fam: dict):
    """Returns (CoefficientSet, MonotonicityConstants or NLDBMParams or None)."""
    c = {**COEFFICIENTS[fam["family"]], **fam}
    if c["family"] == "heat":
        return heat_coefficients(1, c["diffusion"]), None
    if c["family"] == "meanfield-ou":
        return meanfield_ou_coefficients(c["lambda0"], c["kappa0"], c["sigma0"])
    p = arctan_params(c["C"], c["alpha"])
    return nldbm_coefficients(p), p


def _initial_grid(spec: dict | None, x_min: float, dx: float, M: int) -> GridDensity1D:
    law = {**INITIAL, **(spec or {})}
    return gaussian_grid(law["var"], law["mean"], x_min, dx, M)


def _write_json(path: str, obj: dict) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run_experiment(cfg: dict, out_dir: str) -> int:
    """Check ``cfg`` and build its inputs, then write manifest.json and the
    results into ``out_dir``: a rejected config writes no file."""
    full, coeffs, extra, laws = _inputs(cfg)
    os.makedirs(out_dir, exist_ok=True)
    _manifest(cfg, out_dir)
    num, seed, experiment = full["numerics"], full["seed"], full["experiment"]
    results: dict = {"experiment": experiment}
    ok = True
    dx, u0 = num["dx"], laws.get("initial")
    solver_cfg = SolverConfig(dt=num["dt"], scheme=num["scheme"])

    def write_csv(text: str) -> None:
        _write(os.path.join(out_dir, "results.csv"), text)

    def plot(series: list, title: str, xlabel: str, ylabel: str, **kw) -> None:
        line_plot(series, os.path.join(out_dir, "plot.svg"), title=title, xlabel=xlabel,
                  ylabel=ylabel, **kw)

    if experiment == "solve-fpe":
        path = solve_nonlinear_fpe(u0, coeffs, 0.0, num["horizon"], solver_cfg,
                                   record_every=num["record_every"])
        final = path.states[-1]
        write_csv(final.to_csv())
        results["conservation"] = path.log.to_dict()
        results["final_mean"] = float(final.mean()[0])
        results["final_second_moment"] = final.second_moment()
        plot([("initial", u0.centers, u0.values), ("final", final.centers, final.values)],
             "density evolution", "x", "u")

    elif experiment == "simulate-mkv":
        rng = np.random.default_rng(seed)
        x0 = sample_density(u0, num["n_particles"], rng).points
        kde = KDESpec(num["x_min"], dx, num["n_cells"],
                      bandwidth=num["bandwidth"] if num["bandwidth"] > 0 else "silverman")
        ens = simulate_mckean_vlasov(
            x0, coeffs, 0.0, num["horizon"],
            SimConfig(dt=num["dt"], seed=seed, record_every=num["record_every"], kde=kde),
        )
        mu_T = ens.marginal(len(ens.times) - 1)
        write_csv(csv_table(["x", "weight"], [mu_T.points[:, 0], mu_T.weights]))
        results["final_mean"] = float(mu_T.mean()[0])
        results["final_second_moment"] = mu_T.second_moment()
        plot([("kde", mu_T.density.centers, mu_T.density.values)],
             "terminal density estimate", "x", "u")

    elif experiment == "frozen-compare":
        flow = solve_nonlinear_fpe(u0, coeffs, 0.0, num["horizon"], solver_cfg)
        frozen = solve_frozen_fpe(laws["initial_frozen"], flow, coeffs, solver_cfg,
                                  record_every=num["record_every"])
        ts, l1s, w2s = [], [], []
        for t, st in zip(frozen.times, frozen.states):
            ref = flow.state_at(t)
            ts.append(t)
            l1s.append(st.l1_distance(ref))
            w2s.append(wasserstein2(grid_to_measure(st), grid_to_measure(ref)))
        write_csv(csv_table(["t", "l1", "w2"], [ts, l1s, w2s]))
        results["final_l1"] = l1s[-1]
        results["final_w2"] = w2s[-1]
        plot([("L1", np.array(ts), np.array(l1s)), ("W2", np.array(ts), np.array(w2s))],
             "frozen vs nonlinear flow", "t", "distance")

    elif experiment == "check-ck":
        h, g = tanh_test(), cos_test()
        G = LiftedTestFunction(g, CylindricalFunction.linear(h.h, h.grad, h.hess))
        resid = chapman_kolmogorov_residual(
            G, coeffs, 0.0, _split_time(num), num["horizon"], num["eval_point"], u0, solver_cfg,
            quad_points=num["quad_points"],
        )
        results["residual"] = resid
        tol = num["tolerance"] if num["tolerance"] > 0 else 5 * (num["dt"] + dx * dx)
        results["tolerance"] = tol
        ok = resid <= tol

    elif experiment == "ergodicity":
        from scipy.special import ndtri

        ou, init, init_f = full["coefficients"], full["initial"], full["initial_frozen"]
        scale = ou["sigma0"] / np.sqrt(2 * ou["lambda0"])
        qfun = lambda p: ndtri(p) * scale
        rng = np.random.default_rng(seed)
        N = num["n_particles"]
        x0mu = rng.normal(init["mean"], np.sqrt(init["var"]), (N, 1))
        x0nu = rng.normal(init_f["mean"], np.sqrt(init_f["var"]), (N, 1))
        # checkpoints about horizon / (checkpoints - 1) apart, on the record grid
        rec = max(int(round(num["horizon"] / (num["checkpoints"] - 1) / num["dt"])), 1)
        cps = np.arange(num["checkpoints"]) * rec * num["dt"]
        report = decay_study(
            coeffs, extra, x0mu, x0nu,
            SimConfig(dt=num["dt"], seed=seed, record_every=rec),
            cps, qfun, qfun, n_boot=num["n_boot"],
            # default_rng(seed) drew the clouds; a child of seed's sequence
            # resamples them on other words (seed + 1 is the next seed's clouds)
            boot_seed=np.random.SeedSequence(seed).spawn(1)[0],
        )
        results.update(report.to_dict())
        ok = results["envelope_holds"] = report.envelope_holds()
        write_csv(csv_table(["t", "w2_mu", "w2_nu", "envelope_sq"],
                            [report.times, report.w2_mu, report.w2_nu, report.envelope_sq]))
        plot([("observed", report.times, report.observed_sq()),
              ("envelope", report.times, report.envelope_sq)],
             "decay to the invariant measure", "t", "squared W2", logy=True)

    elif experiment == "feynman-kac":
        Vc, fc = num["potential"], num["source"]
        prob = FKProblem(
            coeffs, num["horizon"], terminal=TERMINALS[full["terminal"]],
            potential=(lambda t, X, m: np.full(X.shape[0], Vc)) if Vc != 0 else None,
            source=(lambda t, X, m: np.full(X.shape[0], fc)) if fc != 0 else None,
        )
        flow = solve_nonlinear_fpe(u0, coeffs, num["eval_time"], num["horizon"], solver_cfg)
        est_grid = fk_evaluate(prob, num["eval_time"], num["eval_point"], u0, solver_cfg,
                               backend="grid", flow=flow)
        est_mc = fk_evaluate(prob, num["eval_time"], num["eval_point"], u0, solver_cfg,
                             backend="mc", n_particles=num["n_particles"], seed=seed, flow=flow)
        results["grid_value"] = est_grid.value
        results["mc_value"] = est_mc.value
        results["mc_stderr"] = est_mc.stderr

    elif experiment == "gradient-check":
        h, g = tanh_test(), cos_test()
        F = CylindricalFunction(
            inner=(h, g),
            outer=lambda rv: float(np.sin(rv[0]) + rv[0] * rv[1]),
            outer_grad=lambda rv: np.array([np.cos(rv[0]) + rv[1], rv[0]]),
        )
        mu = grid_to_measure(u0)
        rng = np.random.default_rng(seed)
        errs = []
        for _ in range(num["replicas"]):
            c0, c1 = rng.normal(size=2)
            phi = lambda X: c0 * np.tanh(X) + c1 * np.cos(X)
            fd = l_derivative_fd(F, mu, phi, eps=1e-5)
            field = intrinsic_gradient(F, mu)
            pairing = mu.integrate(lambda X: np.einsum("ni,ni->n", field(X), phi(X)))
            errs.append(abs(fd - pairing) / max(abs(pairing), 1e-12))
        # np.max, not max: a NaN error is the worst
        worst = results["worst_rel_err"] = float(np.max(errs))
        tol = num["tolerance"] if num["tolerance"] > 0 else 1e-4
        results["tolerance"] = tol
        ok = worst <= tol

    elif experiment == "validate-hypotheses":
        rng = np.random.default_rng(seed)
        target = (coeffs, extra) if full["coefficients"]["family"] == "meanfield-ou" else extra
        report = validate_hypotheses(target, rng=rng)
        results["margins"] = report.to_dict()
        ok = results["passed"] = report.passed

    code = results["exit_code"] = 0 if ok else 2
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
        if args.command == "validate":
            validate_config(cfg)
            print("config ok")
            return 0
        if args.seed is not None:
            cfg["seed"] = args.seed
        code = run_experiment(cfg, args.out or cfg.get("output_dir") or TOP["output_dir"])
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
