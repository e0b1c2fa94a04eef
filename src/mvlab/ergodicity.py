"""Exponential decay to the invariant measure for dissipative mean-field
dynamics, and the matching two-rate envelope.

Under linear growth plus the monotonicity constants (lam, kap, lam_bar,
kap_bar) the squared quadratic-Wasserstein distances of the nonlinear flow
and its frozen linearization from their invariant measures are bounded by

    W2(zeta, mu_inf)^2 * [ e^{-(lam-kap)t}
        + kap_bar * (e^{-(lam-kap)t} - e^{-lam_bar t}) / (kap + lam_bar - lam) ]
    + W2(theta, nu_inf)^2 * e^{-lam_bar t}

with the middle ratio read as t * e^{-lam_bar t} at kap + lam_bar = lam.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet, MonotonicityConstants
from .fpe import SolverConfig, solve_nonlinear_fpe
from .measures import EmpiricalMeasure, GridDensity1D, w2_to_quantile
from .particles import PathEnsemble, SimConfig, simulate_frozen, simulate_mckean_vlasov

__all__ = [
    "ErgodicityReport",
    "decay_envelope",
    "find_invariant",
    "decay_study",
    "fit_decay_rate",
]


def decay_envelope(
    t: np.ndarray,
    w2_mu0_sq: float,
    w2_nu0_sq: float,
    consts: MonotonicityConstants,
) -> np.ndarray:
    """Envelope for the summed squared distances at times t.

    The ratio (e^{-(lam-kap)t} - e^{-lam_bar t}) / (kap + lam_bar - lam) is
    computed as t e^{-lam_bar t} expm1(dt)/(dt), which is continuous through
    the degenerate point kap + lam_bar = lam.
    """
    consts.require_contractive()
    t = np.asarray(t, dtype=float)
    lam, kap = consts.lam, consts.kappa
    lam_bar, kap_bar = consts.lam_bar, consts.kappa_bar
    delta = kap + lam_bar - lam
    x = delta * t
    safe = np.where(np.abs(x) < 1e-300, 1.0, x)
    ratio = np.where(np.abs(x) < 1e-300, 1.0, np.expm1(safe) / safe)
    bracket = t * np.exp(-lam_bar * t) * ratio
    mu_term = np.exp(-(lam - kap) * t) + kap_bar * bracket
    return w2_mu0_sq * mu_term + w2_nu0_sq * np.exp(-lam_bar * t)


def find_invariant(
    coeffs: CoefficientSet,
    u0: GridDensity1D,
    cfg: SolverConfig,
    check_interval: float = 1.0,
    tol: float = 1e-8,
    max_time: float = 200.0,
) -> GridDensity1D:
    """March the nonlinear equation until successive checkpoints agree in L1."""
    state = u0
    t = 0.0
    while t < max_time:
        path = solve_nonlinear_fpe(state, coeffs, t, t + check_interval, cfg, record_every=10**9)
        new = path.states[-1]
        drift = float(np.abs(new.values - state.values).sum() * state.dx)
        state = new
        t += check_interval
        if drift < tol:
            return state
    raise RuntimeError(f"no invariant measure found within horizon {max_time} (last drift {drift:.3e})")


def fit_decay_rate(times: np.ndarray, sq_dists: np.ndarray, floor: float = 0.0) -> float:
    """Least-squares slope of -log(squared distance); points at or below the
    noise floor are excluded."""
    times = np.asarray(times, dtype=float)
    sq_dists = np.asarray(sq_dists, dtype=float)
    keep = sq_dists > max(floor, 0.0)
    if keep.sum() < 2:
        raise ValueError("not enough points above the floor to fit a rate")
    slope, _ = np.polyfit(times[keep], np.log(sq_dists[keep]), 1)
    return -float(slope)


@dataclass
class ErgodicityReport:
    times: np.ndarray
    w2_mu: np.ndarray            # W2(mu_t, mu_inf)
    w2_nu: np.ndarray            # W2(nu_t, nu_inf)
    stderr_mu: np.ndarray        # bootstrap stderr of w2_mu
    stderr_nu: np.ndarray
    envelope_sq: np.ndarray      # bound on w2_mu^2 + w2_nu^2
    rate_fitted: float
    rate_predicted: float

    def observed_sq(self) -> np.ndarray:
        return self.w2_mu**2 + self.w2_nu**2

    def stat_error_sq(self) -> np.ndarray:
        """Propagated statistical error of the summed squared distances."""
        return 2 * (self.w2_mu * self.stderr_mu + self.w2_nu * self.stderr_nu)

    def envelope_holds(self, n_sigma: float = 3.0) -> bool:
        return bool(np.all(self.observed_sq() <= self.envelope_sq + n_sigma * self.stat_error_sq()))

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "w2_mu": self.w2_mu.tolist(),
            "w2_nu": self.w2_nu.tolist(),
            "stderr_mu": self.stderr_mu.tolist(),
            "stderr_nu": self.stderr_nu.tolist(),
            "envelope_sq": self.envelope_sq.tolist(),
            "rate_fitted": self.rate_fitted,
            "rate_predicted": self.rate_predicted,
        }


def _bootstrap_w2(points: np.ndarray, qfun, n_boot: int, rng: np.random.Generator) -> float:
    n = points.shape[0]
    vals = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, n, size=n)
        vals[b] = w2_to_quantile(EmpiricalMeasure.from_atoms(points[idx]), qfun)
    return float(vals.std(ddof=1))


def decay_study(
    coeffs: CoefficientSet,
    consts: MonotonicityConstants,
    x0_mu: np.ndarray,
    x0_nu: np.ndarray,
    sim_cfg: SimConfig,
    checkpoints: np.ndarray,
    quantile_mu_inf,
    quantile_nu_inf,
    n_boot: int = 50,
    boot_seed: int = 0,
) -> ErgodicityReport:
    """Particle decay study in one dimension.

    The nonlinear cloud starts from x0_mu, the frozen cloud from x0_nu and is
    driven by the nonlinear empirical flow. Distances to the invariant
    measures are exact quantile-coupling W2 against the supplied analytic
    quantile functions, with bootstrap standard errors. Each checkpoint must
    lie on the record grid (a recorded time within dt/2), else ``ValueError``.
    """
    checkpoints = np.asarray(checkpoints, dtype=float)
    horizon = float(checkpoints[-1])
    ens_mu = simulate_mckean_vlasov(x0_mu, coeffs, 0.0, horizon, sim_cfg)
    cfg_nu = replace(sim_cfg, seed=sim_cfg.seed + 1)
    ens_nu = simulate_frozen(x0_nu, ens_mu, coeffs, 0.0, horizon, cfg_nu)

    rng = np.random.default_rng(boot_seed)
    w2_mu = np.empty(len(checkpoints))
    w2_nu = np.empty(len(checkpoints))
    se_mu = np.empty(len(checkpoints))
    se_nu = np.empty(len(checkpoints))
    for i, t in enumerate(checkpoints):
        pm = ens_mu.marginal_at(t, tol=sim_cfg.dt / 2).points
        pn = ens_nu.marginal_at(t, tol=sim_cfg.dt / 2).points
        w2_mu[i] = w2_to_quantile(EmpiricalMeasure.from_atoms(pm), quantile_mu_inf)
        w2_nu[i] = w2_to_quantile(EmpiricalMeasure.from_atoms(pn), quantile_nu_inf)
        se_mu[i] = _bootstrap_w2(pm, quantile_mu_inf, n_boot, rng)
        se_nu[i] = _bootstrap_w2(pn, quantile_nu_inf, n_boot, rng)

    mu0 = EmpiricalMeasure.from_atoms(x0_mu)
    nu0 = EmpiricalMeasure.from_atoms(x0_nu)
    env = decay_envelope(
        checkpoints,
        w2_to_quantile(mu0, quantile_mu_inf) ** 2,
        w2_to_quantile(nu0, quantile_nu_inf) ** 2,
        consts,
    )

    n = x0_mu.shape[0]
    floor = (2.0 / np.sqrt(n)) ** 2
    sq = w2_mu**2 + w2_nu**2
    try:
        rate = fit_decay_rate(checkpoints, sq, floor=floor)
    except ValueError:
        rate = float("nan")
    rate_pred = min(consts.lam - consts.kappa, consts.lam_bar)
    return ErgodicityReport(
        times=checkpoints,
        w2_mu=w2_mu,
        w2_nu=w2_nu,
        stderr_mu=se_mu,
        stderr_nu=se_nu,
        envelope_sq=env,
        rate_fitted=rate,
        rate_predicted=rate_pred,
    )
