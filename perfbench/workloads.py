"""The benchmark's workloads: inputs built from a seed, and one checked pass.

Each workload calls mvlab only through module attributes (``fpe.solve_...``,
``lifted.chapman_...``), so that the tracer in ``tracing.py`` can swap those
attributes for timed wrappers without any change to the workload code.
A pass returns its checks (each one counted operation) and the numeric
outputs whose SHA-256 shows whether two passes agree bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from mvlab import cli, coefficients, ergodicity, feynman_kac, fpe, lifted, measures, particles

DEFAULT_SEEDS = {"ck_fk_ou": 0, "mkv_nldbm": 101, "decay_ou": 30}


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float

    @property
    def ok(self) -> bool:
        # NaN fails: comparisons with NaN are false
        return bool(self.value <= self.limit)


@dataclass
class PassResult:
    checks: list[Check]
    outputs: dict[str, np.ndarray]

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.outputs[key], dtype=np.float64).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    n_checks: int
    build: Callable[[int], dict]
    run: Callable[[dict, Callable], PassResult]


def _cos_test():
    return measures.InnerTest(
        lambda X: np.cos(X[:, 0]),
        lambda X: (-np.sin(X[:, 0]))[:, None],
        lambda X: (-np.cos(X[:, 0]))[:, None, None],
    )


def _tanh_test():
    return measures.InnerTest(
        lambda X: np.tanh(X[:, 0]),
        lambda X: (1 - np.tanh(X[:, 0]) ** 2)[:, None],
        lambda X: (-2 * np.tanh(X[:, 0]) * (1 - np.tanh(X[:, 0]) ** 2))[:, None, None],
    )


# ---------------------------------------------------------------------------
# ck_fk_ou: Chapman-Kolmogorov residual and Feynman-Kac tower property
# ---------------------------------------------------------------------------


def build_ck_fk_ou(seed: int) -> dict:
    """The default seed gives criteria 2 and 4's inputs: x = 0.5 and initial
    laws of mean 1. Any other seed draws x from [0.3, 0.7] and both means from
    [0.8, 1.2]; grids, steps and node counts are fixed, so the work is
    seed-independent."""
    x, zeta_mean, mu_mean = 0.5, 1.0, 1.0
    if seed != DEFAULT_SEEDS["ck_fk_ou"]:
        rng = np.random.default_rng(seed)
        x = float(rng.uniform(0.3, 0.7))
        zeta_mean, mu_mean = (float(m) for m in rng.uniform(0.8, 1.2, 2))
    cs, _ = coefficients.meanfield_ou_coefficients(1.0, 0.5, 1.0)
    tanh = _tanh_test()
    return {
        "coeffs": cs,
        "x": x,
        "G": lifted.LiftedTestFunction(
            _cos_test(), measures.CylindricalFunction.linear(tanh.h, tanh.grad, tanh.hess)
        ),
        "zeta": cli._initial_grid({"mean": zeta_mean, "var": 0.25}, -8.0, 0.04, 400),
        "ck_cfg": fpe.SolverConfig(dt=2e-3),
        "mu": cli._initial_grid({"mean": mu_mean, "var": 0.5}, -10.0, 0.01, 2000),
        "fk_cfg": fpe.SolverConfig(dt=1e-3),
    }


def run_ck_fk_ou(inp: dict, wrap_coeffs: Callable) -> PassResult:
    cs = wrap_coeffs(inp["coeffs"])
    x, mu, cfg = inp["x"], inp["mu"], inp["fk_cfg"]

    residual = lifted.chapman_kolmogorov_residual(
        inp["G"], cs, 0.0, 0.4, 1.0, x, inp["zeta"], inp["ck_cfg"], quad_points=64
    )

    prob = feynman_kac.FKProblem(cs, 1.0, terminal=lambda X, m: X[:, 0])
    flow = fpe.solve_nonlinear_fpe(mu, cs, 0.0, 1.0, cfg)
    full = feynman_kac.fk_evaluate(prob, 0.0, x, mu, cfg, backend="grid", flow=flow).value
    w_r = feynman_kac.fk_evaluate_grid(prob, 0.4, mu, cfg, flow=flow)
    outer = feynman_kac.FKProblem(
        cs, 0.4, terminal=lambda X, m: np.interp(X[:, 0], mu.centers, w_r)
    )
    tower = feynman_kac.fk_evaluate(outer, 0.0, x, mu, cfg, backend="grid").value
    gap = abs(tower - full)

    dt, dx = inp["ck_cfg"].dt, inp["zeta"].dx
    return PassResult(
        checks=[
            Check("ck_residual", residual, 5 * (dt + dx * dx)),
            Check("fk_tower_gap", gap, 1e-10),
        ],
        outputs={"ck_residual": np.array([residual]), "fk": np.array([full, tower]), "w_r": w_r},
    )


# ---------------------------------------------------------------------------
# mkv_nldbm: nonlinear FPE against the interacting particle cloud
# ---------------------------------------------------------------------------

_NLDBM_GRID = (-12.0, 0.01, 2400)
_NLDBM_TIMES = (0.25, 0.5, 1.0)


def build_mkv_nldbm(seed: int) -> dict:
    grid0 = cli._initial_grid({"mean": 0.0, "var": 0.25}, *_NLDBM_GRID)
    rng = np.random.default_rng(seed)
    return {
        # beta(r) = 2r + arctan(r), drift modulation 1/(1+r^2), C = 1, alpha = 1/2
        "coeffs": cli.build_coefficients({"family": "nldbm-arctan"})[0],
        "grid0": grid0,
        "x0": measures.sample_density(grid0, 20_000, rng).points,
        "fpe_cfg": fpe.SolverConfig(dt=1e-3),
        "sim_cfg": particles.SimConfig(
            dt=1e-3, seed=seed, record_every=50, kde=particles.KDESpec(*_NLDBM_GRID)
        ),
    }


def run_mkv_nldbm(inp: dict, wrap_coeffs: Callable) -> PassResult:
    cs = wrap_coeffs(inp["coeffs"])
    path = fpe.solve_nonlinear_fpe(inp["grid0"], cs, 0.0, 1.0, inp["fpe_cfg"], record_every=50)
    ens = particles.simulate_mckean_vlasov(inp["x0"], cs, 0.0, 1.0, inp["sim_cfg"])
    x_min, dx, n = _NLDBM_GRID
    errors = []
    for t in _NLDBM_TIMES:
        i = int(np.argmin(np.abs(ens.times - t)))
        if abs(ens.times[i] - t) > 1e-6:
            raise ValueError(f"no recorded cloud at t={t}")
        cloud = measures.EmpiricalMeasure.from_atoms(ens.positions[i])
        est = measures.kde_density(
            cloud, x_min, dx, n, measures.silverman_bandwidth(cloud), method="binned"
        )
        ref = path.state_at(t, tol=1e-6)
        errors.append(float(np.abs(est.values - ref.values).sum() * dx))
    return PassResult(
        checks=[Check(f"l1_t{t:g}", e, 0.1) for t, e in zip(_NLDBM_TIMES, errors)],
        outputs={"l1": np.array(errors), "fpe_final": path.states[-1].values},
    )


# ---------------------------------------------------------------------------
# decay_ou: ergodicity envelope over the first ten checkpoints
# ---------------------------------------------------------------------------

_DECAY_CHECKPOINTS = 0.42 * np.arange(10)


def _q_inf(p):
    """Quantile function of the invariant law N(0, 1/2)."""
    return ndtri(p) * np.sqrt(0.5)


def build_decay_ou(seed: int) -> dict:
    """Clouds from ``default_rng(seed)``; the simulation is keyed by seed + 1,
    as in acceptance criterion 3 (seeds 30 and 31)."""
    cs, mono = coefficients.meanfield_ou_coefficients(1.0, 0.5, 1.0)
    rng = np.random.default_rng(seed)
    n = 20_000
    return {
        "coeffs": cs,
        "mono": mono,
        "x0_mu": rng.normal(3.0, 0.5, (n, 1)),
        "x0_nu": rng.normal(-2.0, 1.0, (n, 1)),
        "sim_cfg": particles.SimConfig(dt=2e-3, seed=seed + 1, record_every=30),
    }


def run_decay_ou(inp: dict, wrap_coeffs: Callable) -> PassResult:
    cs = wrap_coeffs(inp["coeffs"])
    rep = ergodicity.decay_study(
        cs, inp["mono"], inp["x0_mu"], inp["x0_nu"], inp["sim_cfg"],
        _DECAY_CHECKPOINTS, _q_inf, _q_inf, n_boot=30,
    )
    excess = rep.observed_sq() - (rep.envelope_sq + 3.0 * rep.stat_error_sq())
    return PassResult(
        checks=[Check(f"envelope_t{t:.2f}", e, 0.0) for t, e in zip(rep.times, excess)],
        outputs={
            "w2_mu": rep.w2_mu,
            "w2_nu": rep.w2_nu,
            "stderr_mu": rep.stderr_mu,
            "stderr_nu": rep.stderr_nu,
        },
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ck_fk_ou", 2, build_ck_fk_ou, run_ck_fk_ou),
        Workload("mkv_nldbm", len(_NLDBM_TIMES), build_mkv_nldbm, run_mkv_nldbm),
        Workload("decay_ou", len(_DECAY_CHECKPOINTS), build_decay_ou, run_decay_ou),
    )
}
