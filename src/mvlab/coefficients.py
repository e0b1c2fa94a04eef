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
HYPOTHESIS_TOL = 1e-8  # a sampled margin below -HYPOTHESIS_TOL fails
SAMPLE_BOX = (-10.0, 10.0)  # coordinates and densities sampled by ``validate_hypotheses``


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

    @property
    def frozen(self) -> "CoefficientSet":
        """The frozen companion (b_bar, sigma_bar) as a coefficient set of its
        own: every solver runs the frozen dynamics on ``coeffs.frozen``."""
        return CoefficientSet(self.b_bar, self.sigma_bar, d=self.d)

    def fields(self, t, X, mu) -> tuple[np.ndarray, np.ndarray]:
        """(b, sigma) at the points X as float arrays; b is evaluated first."""
        return (
            np.asarray(self.b(t, X, mu), dtype=float),
            np.asarray(self.sigma(t, X, mu), dtype=float),
        )

    def generator(self, t, X, mu, h) -> np.ndarray:
        """The Kolmogorov operator 1/2 sigma sigma^T : hess h + b . grad h
        of the inner test function ``h`` at the points X, shape (N,)."""
        X = np.atleast_2d(X)
        b, s = self.fields(t, X, mu)
        a = np.einsum("nik,njk->nij", s, s)
        grad = np.asarray(h.grad(X), dtype=float)
        hess = np.asarray(h.hess(X), dtype=float)
        return 0.5 * np.einsum("nij,nij->n", a, hess) + np.einsum("ni,ni->n", b, grad)


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
    """Worst sampled margin per declared inequality; a margin below
    -``HYPOTHESIS_TOL`` marks the hypothesis as failed."""

    margins: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(np.isfinite(m) and m >= -HYPOTHESIS_TOL for m in self.margins.values())

    def record(self, name: str, margin: float):
        self.margins[name] = float(margin)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "margins": dict(self.margins), "tol": HYPOTHESIS_TOL}


def validate_hypotheses(
    target,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> HypothesisReport:
    """Monte-Carlo verification of the structural hypotheses on samples
    drawn uniformly from ``SAMPLE_BOX``.

    ``target`` is either an ``NLDBMParams`` (porous-medium hypotheses) or a
    ``(CoefficientSet, MonotonicityConstants)`` pair (growth + monotonicity).
    Failure is reported, never raised.
    """
    rng = rng or np.random.default_rng(0)
    if isinstance(target, NLDBMParams):
        return _validate_nldbm(target, n_samples, rng)
    coeffs, consts = target
    return _validate_monotone(coeffs, consts, n_samples, rng)


def _validate_nldbm(p: NLDBMParams, n, rng) -> HypothesisReport:
    rep = HypothesisReport()
    r = rng.uniform(*SAMPLE_BOX, n)
    with np.errstate(all="ignore"):
        bp = np.asarray(p.beta_prime(r), dtype=float)
        rep.record("beta_zero", -abs(float(np.asarray(p.beta(np.zeros(1)))[0])))
        rep.record("beta_prime_lower", float(np.min(bp - p.gamma)))
        rep.record("beta_prime_upper", float(np.min(p.gamma1 - bp)))
        bvals = np.asarray(p.b_scalar(r), dtype=float)
        rep.record("b_bounded", 1.0 if np.all(np.isfinite(bvals)) else -np.inf)
        X = rng.uniform(*SAMPLE_BOX, (n, 1))
        g = np.linalg.norm(np.atleast_2d(p.gradPhi(X)), axis=1)
        rep.record("gradPhi_bounded", 1.0 if np.all(np.isfinite(g)) else -np.inf)
        rep.record("Phi_geq_one", float(np.min(np.asarray(p.Phi(X)) - 1.0)))
    return rep


def _two_atom_measure(rng, d) -> EmpiricalMeasure:
    return EmpiricalMeasure.from_atoms(rng.uniform(*SAMPLE_BOX, (2, d)))


def _w2_two_atom(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    # exact for uniform 2-atom clouds: best of the two pairings
    a, b = mu.points
    c, e = nu.points
    c1 = np.sum((a - c) ** 2) + np.sum((b - e) ** 2)
    c2 = np.sum((a - e) ** 2) + np.sum((b - c) ** 2)
    return float(np.sqrt(0.5 * min(c1, c2)))


def _validate_monotone(coeffs: CoefficientSet, consts: MonotonicityConstants, n, rng) -> HypothesisReport:
    d = coeffs.d
    frozen = coeffs.frozen
    dynamics = (
        ("monotone", coeffs, consts.kappa, consts.lam),
        ("monotone_bar", frozen, consts.kappa_bar, consts.lam_bar),
    )
    margins = dict.fromkeys(("linear_growth", "monotone", "monotone_bar"), np.inf)
    t = 0.0
    for _ in range(n):
        x = rng.uniform(*SAMPLE_BOX, (1, d))
        y = rng.uniform(*SAMPLE_BOX, (1, d))
        mu = _two_atom_measure(rng, d)
        nu = _two_atom_measure(rng, d)
        w2 = _w2_two_atom(mu, nu)
        for name, cs, kappa, lam in dynamics:
            (bx, sx), (by, sy) = cs.fields(t, x, mu), cs.fields(t, y, nu)
            lhs = 2 * np.dot(bx[0] - by[0], (x - y)[0]) + np.sum((sx[0] - sy[0]) ** 2)
            rhs = kappa * w2**2 - lam * np.sum((x - y) ** 2)
            margins[name] = min(margins[name], rhs - lhs)
        size = sum(np.linalg.norm(f[0]) for cs in (coeffs, frozen) for f in cs.fields(t, x, mu))
        bound = consts.K * (1 + np.linalg.norm(x) + np.sqrt(mu.second_moment()))
        margins["linear_growth"] = min(margins["linear_growth"], bound - size)
    rep = HypothesisReport()
    for name, margin in margins.items():
        rep.record(name, margin)
    return rep
