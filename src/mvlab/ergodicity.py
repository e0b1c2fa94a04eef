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

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, MonotonicityConstants
from .fpe import SolverConfig, solve_nonlinear_fpe
from .measures import EmpiricalMeasure, GridDensity1D, w2_to_quantile
from .particles import SimConfig, simulate_frozen, simulate_mckean_vlasov

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
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}


def _w2_with_stderr(points: np.ndarray, qfun, n_boot: int, rng: np.random.Generator) -> tuple[float, float]:
    """W2 of a 1-D cloud to qfun and its bootstrap standard error. The cloud
    is sorted once; each replicate weights the sorted atoms by the counts of
    n draws with replacement, so neither value depends on the cloud's order."""
    atoms = np.sort(points[:, 0])
    n = len(atoms)
    vals = np.empty(n_boot)
    for b in range(n_boot):
        counts = np.bincount(rng.integers(0, n, n), minlength=n)
        vals[b] = w2_to_quantile(EmpiricalMeasure.from_atoms(atoms, counts / n), qfun)
    return w2_to_quantile(EmpiricalMeasure.from_atoms(atoms), qfun), float(vals.std(ddof=1))


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

    The nonlinear cloud starts from x0_mu on streams 0..N-1 of the seed; the
    frozen cloud starts from x0_nu on the streams after them, N onwards, and
    is driven by the nonlinear empirical flow: each step reads the nearest
    recorded cloud, at most record_every * dt / 2 stale. Distances to the
    invariant measures are exact quantile-coupling W2 against the supplied
    analytic quantile functions, with bootstrap standard errors. Each
    checkpoint must be a recorded time, else ``ValueError``.
    """
    checkpoints = np.asarray(checkpoints, dtype=float)
    horizon = float(checkpoints[-1])
    n = x0_mu.shape[0]
    ens_mu = simulate_mckean_vlasov(x0_mu, coeffs, 0.0, horizon, sim_cfg)
    # half a record interval, with room for a step start exactly between two records
    stale = sim_cfg.record_every * sim_cfg.dt / 2 * (1 + 1e-9)
    ens_nu = simulate_frozen(x0_nu, lambda t: ens_mu.marginal_at(t, tol=stale), coeffs,
                             0.0, horizon, sim_cfg, stream_indices=n + np.arange(x0_nu.shape[0]))

    rng = np.random.default_rng(boot_seed)
    w2_mu = np.empty(len(checkpoints))
    w2_nu = np.empty(len(checkpoints))
    se_mu = np.empty(len(checkpoints))
    se_nu = np.empty(len(checkpoints))
    for i, t in enumerate(checkpoints):
        for ens, qfun, w2, se in ((ens_mu, quantile_mu_inf, w2_mu, se_mu),
                                  (ens_nu, quantile_nu_inf, w2_nu, se_nu)):
            cloud = ens.marginal_at(t).points
            w2[i], se[i] = _w2_with_stderr(cloud, qfun, n_boot, rng)

    mu0 = EmpiricalMeasure.from_atoms(x0_mu)
    nu0 = EmpiricalMeasure.from_atoms(x0_nu)
    env = decay_envelope(
        checkpoints,
        w2_to_quantile(mu0, quantile_mu_inf) ** 2,
        w2_to_quantile(nu0, quantile_nu_inf) ** 2,
        consts,
    )

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
