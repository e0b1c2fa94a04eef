"""Coefficient fields for measure-dependent SDEs and their Fokker-Planck
equations: the porous-medium (Nemytskii) family of nonlinear distorted
Brownian motion, the linear mean-field Ornstein-Uhlenbeck family, and
sampling-based validators for the structural hypotheses each family claims.

Coefficient callables are vectorized: ``b(t, X, mu) -> (N, d)`` and
``sigma(t, X, mu) -> (N, d, m)`` for point batches ``X`` of shape ``(N, d)``.
The measure argument is any object with ``mean()``/``second_moment()`` and,
for Nemytskii coefficients, a density view (see ``measures.density_at``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measures import EmpiricalMeasure, density_at

__all__ = [
    "CoefficientSet",
    "NLDBMParams",
    "MonotonicityConstants",
    "HypothesisReport",
    "nldbm_coefficients",
    "meanfield_ou_coefficients",
    "heat_coefficients",
    "validate_hypotheses",
    "canonical_confining_potential",
]

_DENSITY_FLOOR = 1e-30


@dataclass(frozen=True)
class CoefficientSet:
    """The four coefficient fields (b, sigma) of the nonlinear equation and
    (b_bar, sigma_bar) of its frozen companion, plus dimensions. The frozen
    fields default to the nonlinear ones."""

    b: Callable
    sigma: Callable
    b_bar: Callable | None = None
    sigma_bar: Callable | None = None
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "b_bar", self.b_bar or self.b)
        object.__setattr__(self, "sigma_bar", self.sigma_bar or self.sigma)

    def diffusion_matrix(self, t, X, mu, bar: bool = False) -> np.ndarray:
        """sigma sigma^T at each point, shape (N, d, d)."""
        s = (self.sigma_bar if bar else self.sigma)(t, X, mu)
        return np.einsum("nij,nkj->nik", s, s)


@dataclass(frozen=True)
class NLDBMParams:
    """Parameters of the porous-medium drift-diffusion family.

    beta must be C^1 with beta(0) = 0 and gamma <= beta' <= gamma1;
    b_scalar is a bounded scalar drift modulation; the confining potential
    Phi (with Phi >= 1 and bounded gradient) enters through D = -grad Phi.
    """

    beta: Callable[[np.ndarray], np.ndarray]
    beta_prime: Callable[[np.ndarray], np.ndarray]
    gamma: float
    gamma1: float
    b_scalar: Callable[[np.ndarray], np.ndarray]
    b_scalar_prime: Callable[[np.ndarray], np.ndarray]
    Phi: Callable[[np.ndarray], np.ndarray]
    gradPhi: Callable[[np.ndarray], np.ndarray]
    C: float = 1.0
    alpha: float = 0.5

    def __post_init__(self):
        if not (0 < self.gamma < self.gamma1):
            raise ValueError("need 0 < gamma < gamma1")

    def diffusion_ratio(self, u: np.ndarray) -> np.ndarray:
        """beta(u)/u with the u = 0 convention beta(0)/0 := beta'(0)."""
        u = np.asarray(u, dtype=float)
        safe = np.maximum(u, _DENSITY_FLOOR)
        return np.where(u > _DENSITY_FLOOR, self.beta(safe) / safe, self.beta_prime(np.zeros_like(u)))


def canonical_confining_potential(C: float = 1.0, alpha: float = 0.5):
    """Phi(x) = C (1 + |x|^2)^alpha and its gradient, vectorized over (N, d)."""
    if not (0 < alpha <= 0.5):
        raise ValueError("alpha must lie in (0, 1/2]")

    def Phi(x):
        x = np.atleast_2d(x)
        return C * (1 + np.einsum("ij,ij->i", x, x)) ** alpha

    def gradPhi(x):
        x = np.atleast_2d(x)
        r2 = np.einsum("ij,ij->i", x, x)
        return 2 * alpha * C * x * ((1 + r2) ** (alpha - 1))[:, None]

    return Phi, gradPhi


@dataclass(frozen=True)
class MonotonicityConstants:
    """Constants of the linear-growth / monotonicity condition; lam > kappa
    is what the exponential-ergodicity bound requires."""

    K: float
    lam: float
    kappa: float
    lam_bar: float
    kappa_bar: float

    def require_contractive(self):
        if not self.lam > self.kappa >= 0:
            raise ValueError(
                f"ergodicity requires lam > kappa >= 0, got lam={self.lam}, kappa={self.kappa}"
            )


def _isotropic_sigma(values: np.ndarray, d: int, m: int) -> np.ndarray:
    """Scalar field -> (N, d, m) multiples of the identity block."""
    out = np.zeros((values.shape[0], d, m))
    k = min(d, m)
    idx = np.arange(k)
    out[:, idx, idx] = values[:, None]
    return out


def nldbm_coefficients(p: NLDBMParams) -> CoefficientSet:
    """Nemytskii coefficients of nonlinear distorted Brownian motion on R.

    The diffusion of the generator is beta(u)/u, so sigma = sqrt(beta(u)/u);
    the drift is b_scalar(u(x)) * D(x) with D = -grad Phi. The measure
    argument must expose a one-dimensional density view.
    """

    def b(t, X, mu):
        X = np.atleast_2d(X)
        u = density_at(mu, X[:, 0])
        return -np.asarray(p.b_scalar(u), dtype=float)[:, None] * np.asarray(p.gradPhi(X), dtype=float)

    def sigma(t, X, mu):
        X = np.atleast_2d(X)
        u = density_at(mu, X[:, 0])
        return _isotropic_sigma(np.sqrt(p.diffusion_ratio(u)), 1, 1)

    return CoefficientSet(b=b, sigma=sigma, d=1)


def meanfield_ou_coefficients(
    lambda0: float, kappa0: float, sigma0: float, d: int = 1
) -> tuple[CoefficientSet, MonotonicityConstants]:
    """Mean-field Ornstein-Uhlenbeck family b(x, mu) = -lambda0 x + kappa0 m(mu),
    sigma = sigma0 * Id, with its declared monotonicity constants.

    The dissipativity constants follow from Young's inequality:
    2 kappa0 |m(mu)-m(nu)| |x-y| <= kappa0 W2^2 + kappa0 |x-y|^2 and
    |m(mu)-m(nu)| <= W2(mu, nu), giving lam = 2 lambda0 - kappa0, kap = kappa0.
    """
    if lambda0 <= 0 or sigma0 <= 0:
        raise ValueError("lambda0 and sigma0 must be positive")

    def b(t, X, mu):
        X = np.atleast_2d(X)
        return -lambda0 * X + kappa0 * np.broadcast_to(np.atleast_1d(mu.mean()), (X.shape[0], d))

    def sigma(t, X, mu):
        X = np.atleast_2d(X)
        return _isotropic_sigma(np.full(X.shape[0], sigma0), d, d)

    consts = MonotonicityConstants(
        K=max(lambda0, abs(kappa0), sigma0) + 1.0,
        lam=2 * lambda0 - kappa0,
        kappa=kappa0,
        lam_bar=2 * lambda0 - kappa0,
        kappa_bar=kappa0,
    )
    return CoefficientSet(b=b, sigma=sigma, d=d), consts


def heat_coefficients(d: int = 1, diffusion: float = 1.0) -> CoefficientSet:
    """Plain Brownian coefficients: b = 0, sigma sigma^T = diffusion * Id."""

    def b(t, X, mu):
        return np.zeros_like(np.atleast_2d(X))

    def sigma(t, X, mu):
        X = np.atleast_2d(X)
        return _isotropic_sigma(np.full(X.shape[0], np.sqrt(diffusion)), d, d)

    return CoefficientSet(b=b, sigma=sigma, d=d)


# ---------------------------------------------------------------------------
# hypothesis validation (sampling-based)
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    """Worst sampled margin per declared inequality; a negative margin below
    -1e-8 marks the hypothesis as failed."""

    margins: dict[str, float] = field(default_factory=dict)
    tol: float = 1e-8

    @property
    def passed(self) -> bool:
        return all(np.isfinite(m) and m >= -self.tol for m in self.margins.values())

    def record(self, name: str, margin: float):
        self.margins[name] = float(margin)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "margins": dict(self.margins), "tol": self.tol}


def validate_hypotheses(
    target,
    sample_box: tuple[float, float] = (-10.0, 10.0),
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> HypothesisReport:
    """Monte-Carlo verification of the structural hypotheses.

    ``target`` is either an ``NLDBMParams`` (porous-medium hypotheses) or a
    ``(CoefficientSet, MonotonicityConstants)`` pair (growth + monotonicity).
    Failure is reported, never raised.
    """
    rng = rng or np.random.default_rng(0)
    if isinstance(target, NLDBMParams):
        return _validate_nldbm(target, sample_box, n_samples, rng)
    coeffs, consts = target
    return _validate_monotone(coeffs, consts, sample_box, n_samples, rng)


def _validate_nldbm(p: NLDBMParams, box, n, rng) -> HypothesisReport:
    rep = HypothesisReport()
    r = rng.uniform(box[0], box[1], n)
    with np.errstate(all="ignore"):
        bp = np.asarray(p.beta_prime(r), dtype=float)
        rep.record("beta_zero", -abs(float(np.asarray(p.beta(np.zeros(1)))[0])))
        rep.record("beta_prime_lower", float(np.min(bp - p.gamma)))
        rep.record("beta_prime_upper", float(np.min(p.gamma1 - bp)))
        bvals = np.asarray(p.b_scalar(r), dtype=float)
        rep.record("b_bounded", 1.0 if np.all(np.isfinite(bvals)) else -np.inf)
        X = rng.uniform(box[0], box[1], (n, 1))
        g = np.linalg.norm(np.atleast_2d(p.gradPhi(X)), axis=1)
        rep.record("gradPhi_bounded", 1.0 if np.all(np.isfinite(g)) else -np.inf)
        rep.record("Phi_geq_one", float(np.min(np.asarray(p.Phi(X)) - 1.0)))
    return rep


def _two_atom_measure(rng, box, d) -> EmpiricalMeasure:
    return EmpiricalMeasure.from_atoms(rng.uniform(box[0], box[1], (2, d)))


def _w2_two_atom(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    # exact for uniform 2-atom clouds: best of the two pairings
    a, b = mu.points
    c, e = nu.points
    c1 = np.sum((a - c) ** 2) + np.sum((b - e) ** 2)
    c2 = np.sum((a - e) ** 2) + np.sum((b - c) ** 2)
    return float(np.sqrt(0.5 * min(c1, c2)))


def _validate_monotone(coeffs: CoefficientSet, consts: MonotonicityConstants, box, n, rng) -> HypothesisReport:
    rep = HypothesisReport()
    d = coeffs.d
    growth_margin = np.inf
    lst_margin = np.inf
    lst_bar_margin = np.inf
    t = 0.0
    for _ in range(n):
        x = rng.uniform(box[0], box[1], (1, d))
        y = rng.uniform(box[0], box[1], (1, d))
        mu = _two_atom_measure(rng, box, d)
        nu = _two_atom_measure(rng, box, d)
        w2 = _w2_two_atom(mu, nu)
        for bar, store in ((False, "plain"), (True, "bar")):
            bfun = coeffs.b_bar if bar else coeffs.b
            sfun = coeffs.sigma_bar if bar else coeffs.sigma
            bx, by = bfun(t, x, mu)[0], bfun(t, y, nu)[0]
            sx, sy = sfun(t, x, mu)[0], sfun(t, y, nu)[0]
            lhs = 2 * np.dot(bx - by, (x - y)[0]) + np.sum((sx - sy) ** 2)
            if bar:
                rhs = consts.kappa_bar * w2**2 - consts.lam_bar * np.sum((x - y) ** 2)
                lst_bar_margin = min(lst_bar_margin, rhs - lhs)
            else:
                rhs = consts.kappa * w2**2 - consts.lam * np.sum((x - y) ** 2)
                lst_margin = min(lst_margin, rhs - lhs)
        size = (
            np.linalg.norm(coeffs.b(t, x, mu)[0])
            + np.linalg.norm(coeffs.sigma(t, x, mu)[0])
            + np.linalg.norm(coeffs.b_bar(t, x, mu)[0])
            + np.linalg.norm(coeffs.sigma_bar(t, x, mu)[0])
        )
        bound = consts.K * (1 + np.linalg.norm(x) + np.sqrt(mu.second_moment()))
        growth_margin = min(growth_margin, bound - size)
    rep.record("linear_growth", growth_margin)
    rep.record("monotone", lst_margin)
    rep.record("monotone_bar", lst_bar_margin)
    return rep
