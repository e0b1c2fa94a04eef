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
from .measures import (
    EmpiricalMeasure,
    GridDensity1D,
    _cloud,
    _quantile_levels,
    _w2_at_ranks,
    w2_to_quantile,
)
from .particles import SimConfig, simulate_lifted
# not called here: perfbench's tracer patches these names on this module
from .particles import simulate_frozen, simulate_mckean_vlasov  # noqa: F401

__all__ = [
    "ErgodicityReport",
    "decay_envelope",
    "find_invariant",
    "decay_study",
    "fit_decay_rate",
]

ENVELOPE_SIGMAS = 3.0  # standard errors of slack in ``envelope_holds``


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
    """March the nonlinear equation until successive checkpoints agree in L1.
    A check_interval or max_time that is not positive raises ``ValueError``."""
    for name, v in (("check_interval", check_interval), ("max_time", max_time)):
        if not v > 0:
            raise ValueError(f"{name} must be > 0, got {v!r}")
    state = u0
    t = 0.0
    while t < max_time:
        path = solve_nonlinear_fpe(state, coeffs, t, t + check_interval, cfg, record_every=10**9)
        new = path.states[-1]
        drift = new.l1_distance(state)
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
        """Propagated statistical error of the summed squared distances:
        2 w2 stderr for each squared distance, added linearly. The two
        clouds share their noise, so their errors correlate, but
        sd(A + B) <= sd(A) + sd(B) under any correlation."""
        return 2 * (self.w2_mu * self.stderr_mu + self.w2_nu * self.stderr_nu)

    def envelope_holds(self) -> bool:
        slack = ENVELOPE_SIGMAS * self.stat_error_sq()
        return bool(np.all(self.observed_sq() <= self.envelope_sq + slack))

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}


def _w2_with_stderr(points: np.ndarray, qfun, n_boot: int, rng: np.random.Generator) -> tuple[float, float]:
    """W2 of a 1-D cloud to qfun and its bootstrap standard error. The cloud
    is sorted and qfun evaluated on the quantile levels once. The cloud and
    each replicate, n atoms drawn with replacement and expanded from their
    counts, read their quantile by ``_w2_at_ranks``, the rule of
    ``w2_to_quantile`` for equal weights, so neither value depends on the
    cloud's order."""
    atoms = np.sort(points[:, 0])
    n = len(atoms)
    q_ref = np.asarray(qfun(_quantile_levels()), dtype=float)
    vals = np.empty(n_boot)
    for b in range(n_boot):
        vals[b] = _w2_at_ranks(np.repeat(atoms, np.bincount(rng.integers(0, n, n), minlength=n)), q_ref)
    return _w2_at_ranks(atoms, q_ref), float(vals.std(ddof=1))


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
    boot_seed: int | np.random.SeedSequence = 0,
) -> ErgodicityReport:
    """Particle decay study in one dimension.

    The two clouds are those of one ``particles.simulate_lifted`` run: the
    nonlinear cloud starts from x0_mu, the frozen cloud from x0_nu, both
    share one draw per step, so row i of both rides stream i of the seed,
    and every frozen step reads the nonlinear cloud's law at that same
    step. Distances to the invariant measures are exact quantile-coupling
    W2 against the supplied analytic quantile functions, with bootstrap
    standard errors drawn from ``default_rng(boot_seed)``; a generator
    that drew the initial clouds would resample them with their own words.
    The clouds must have one shape, (N, 1) or (N,), which
    ``measures._cloud`` reads as N particles on the line; clouds of other
    shapes or of a width other than ``coeffs.d``, checkpoints that are not
    a non-empty, strictly increasing 1-D array of times >= 0, a checkpoint
    that is not a recorded time, and n_boot < 2, raise ``ValueError``.
    """
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot!r}")
    checkpoints = np.asarray(checkpoints, dtype=float)
    if not (checkpoints.ndim == 1 and checkpoints.size and checkpoints[0] >= 0
            and np.all(np.diff(checkpoints) > 0)):
        raise ValueError(
            f"checkpoints must be a non-empty, strictly increasing 1-D array of "
            f"times >= 0, got {checkpoints.tolist()!r}"
        )
    horizon = float(checkpoints[-1])
    n = _cloud(x0_mu).shape[0]
    ens_mu, ens_nu = simulate_lifted(x0_mu, x0_nu, coeffs, 0.0, horizon, sim_cfg)

    rng = np.random.default_rng(boot_seed)
    w2_mu = np.empty(len(checkpoints))
    w2_nu = np.empty(len(checkpoints))
    se_mu = np.empty(len(checkpoints))
    se_nu = np.empty(len(checkpoints))
    for i, t in enumerate(checkpoints):
        for ens, qfun, w2, se in ((ens_mu, quantile_mu_inf, w2_mu, se_mu),
                                  (ens_nu, quantile_nu_inf, w2_nu, se_nu)):
            w2[i], se[i] = _w2_with_stderr(ens.marginal_at(t).points, qfun, n_boot, rng)
    # the records are read: free them (the study's largest arrays) before the rate fit
    del ens_mu, ens_nu, ens

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
