"""Probability measures on R^d: particle clouds, 1-D grid densities, transport
distances, cylindrical test functionals and their intrinsic gradient.

Conventions used throughout the package:

* point arrays have shape ``(N, d)``,
* spatial test functions are vectorized: ``h(points) -> (N,)``,
  ``grad(points) -> (N, d)``, ``hess(points) -> (N, d, d)``,
* weights always sum to one.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "GridDensity1D",
    "CylindricalFunction",
    "TransportPlan",
    "MeasureViewError",
    "wasserstein2",
    "quantile_coupling_plan",
    "sinkhorn_plan",
    "w2_gaussian_1d",
    "w2_to_quantile",
    "kde_density",
    "sample_density",
    "pushforward",
    "intrinsic_gradient",
    "grid_to_measure",
    "density_at",
    "silverman_bandwidth",
]

WEIGHT_TOL = 1e-12
MASS_TOL = 1e-10
SINKHORN_MARGINAL_TOL = 1e-8  # L1 row-marginal error that ends Sinkhorn
QUANTILE_GRID = 20_000  # probability levels of the ``w2_to_quantile`` integral
FLOAT_FMT = "%.17g"


class MeasureViewError(ValueError):
    """A coefficient asked for a measure feature (e.g. a density) that the
    supplied measure object cannot provide."""


def _fmt(v: float) -> str:
    return FLOAT_FMT % v


# ---------------------------------------------------------------------------
# measure types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted particle cloud on R^d.

    ``density`` optionally attaches a 1-D grid density view (typically a KDE of
    the cloud) so that Nemytskii-type coefficients can evaluate the cloud's
    density at a point; moments are always computed from the atoms themselves.
    """

    points: np.ndarray
    weights: np.ndarray
    density: "GridDensity1D | None" = field(default=None, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2:
            raise ValueError("points must be an (N, d) array")
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights length mismatch")
        if pts.shape[0] < 1:
            raise ValueError("need at least one atom")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= WEIGHT_TOL:  # NaN fails too
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_atoms(cls, positions, weights=None) -> "EmpiricalMeasure":
        pts = np.atleast_1d(np.asarray(positions, dtype=float))
        if pts.ndim == 1:
            pts = pts[:, None]
        if weights is None:
            weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return cls(pts, np.asarray(weights, dtype=float))

    @classmethod
    def dirac(cls, x) -> "EmpiricalMeasure":
        return cls.from_atoms([np.atleast_1d(x)])

    def integrate(self, h: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, np.asarray(h(self.points), dtype=float)))

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def cov(self) -> np.ndarray:
        c = self.points - self.mean()
        return (c * self.weights[:, None]).T @ c

    def second_moment(self) -> float:
        """``int |x|^2 dmu`` (squared P_2 norm)."""
        return float(np.dot(self.weights, np.einsum("ij,ij->i", self.points, self.points)))

    def with_density(self, density: "GridDensity1D") -> "EmpiricalMeasure":
        return replace(self, density=density)

    def sorted_1d(self) -> tuple[np.ndarray, np.ndarray]:
        if self.dim != 1:
            raise ValueError("sorted_1d requires dim == 1")
        order = np.argsort(self.points[:, 0], kind="stable")
        return self.points[order, 0], self.weights[order]

    def to_csv(self) -> str:
        buf = io.StringIO()
        cols = [f"x{i + 1}" for i in range(self.dim)] + ["weight"]
        buf.write(",".join(cols) + "\n")
        for p, w in zip(self.points, self.weights):
            buf.write(",".join(_fmt(v) for v in p) + "," + _fmt(w) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "EmpiricalMeasure":
        lines = [ln for ln in text.strip().splitlines() if ln]
        header = lines[0].split(",")
        if header[-1] != "weight":
            raise ValueError("missing weight column")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        return cls(rows[:, :-1], rows[:, -1])


@dataclass(frozen=True)
class GridDensity1D:
    """Cell-averaged probability density on a uniform 1-D grid."""

    x_min: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if np.any(v < 0):
            raise ValueError("density values must be nonnegative")
        if not abs(self.dx * v.sum() - 1.0) <= MASS_TOL:  # NaN fails too
            raise ValueError(f"total mass {self.dx * v.sum()!r} is not 1")
        object.__setattr__(self, "values", v)

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * self.n_cells

    @property
    def centers(self) -> np.ndarray:
        """Cell centers, read-only and shared by every density on this grid."""
        return _grid_centers(self.x_min, self.dx, self.n_cells)

    @property
    def dim(self) -> int:
        return 1

    def mass(self) -> float:
        return float(self.dx * self.values.sum())

    def density_at(self, x) -> np.ndarray:
        """Cell lookup; zero outside the grid (Lebesgue-point convention)."""
        x = np.asarray(x, dtype=float)
        idx = np.floor((x - self.x_min) / self.dx).astype(int)
        inside = (idx >= 0) & (idx < self.n_cells)
        out = np.zeros_like(x, dtype=float)
        out[inside] = self.values[idx[inside]]
        return out

    def integrate(self, h: Callable[[np.ndarray], np.ndarray]) -> float:
        vals = np.asarray(h(self.centers[:, None]), dtype=float)
        return float(self.dx * np.dot(self.values, vals))

    def mean(self) -> np.ndarray:
        return np.array([self.dx * np.dot(self.values, self.centers)])

    def cov(self) -> np.ndarray:
        m = self.mean()[0]
        return np.array([[self.dx * np.dot(self.values, (self.centers - m) ** 2)]])

    def second_moment(self) -> float:
        return float(self.dx * np.dot(self.values, self.centers**2))

    def cdf_right_edges(self) -> np.ndarray:
        return np.cumsum(self.values) * self.dx

    def quantile(self, p: np.ndarray) -> np.ndarray:
        """Inverse CDF of the piecewise-constant density (piecewise linear)."""
        p = np.asarray(p, dtype=float)
        cdf = self.cdf_right_edges()
        cdf = cdf / cdf[-1]
        idx = np.searchsorted(cdf, p, side="left")
        idx = np.clip(idx, 0, self.n_cells - 1)
        prev = np.where(idx > 0, cdf[idx - 1], 0.0)
        cell_mass = cdf[idx] - prev
        frac = np.where(cell_mass > 0, (p - prev) / np.where(cell_mass > 0, cell_mass, 1.0), 0.5)
        return self.x_min + (idx + np.clip(frac, 0.0, 1.0)) * self.dx

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,u\n")
        for x, u in zip(self.centers, self.values):
            buf.write(_fmt(x) + "," + _fmt(u) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GridDensity1D":
        lines = [ln for ln in text.strip().splitlines() if ln][1:]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        x = rows[:, 0]
        dx = x[1] - x[0]
        return cls(x[0] - dx / 2, dx, rows[:, 1])


@functools.lru_cache(maxsize=16)
def _grid_centers(x_min: float, dx: float, n_cells: int) -> np.ndarray:
    # keyed by grid, not by density: Picard iterates and flow records are
    # distinct objects on one grid
    centers = x_min + dx * (np.arange(n_cells) + 0.5)
    centers.flags.writeable = False
    return centers


def density_at(mu, x) -> np.ndarray:
    """Density view of a measure at points ``x`` (1-D values).

    Grid densities evaluate by cell lookup; particle clouds must carry an
    attached density view (KDE), otherwise this raises ``MeasureViewError``.
    """
    if isinstance(mu, GridDensity1D):
        return mu.density_at(x)
    if isinstance(mu, EmpiricalMeasure):
        if mu.density is None:
            raise MeasureViewError(
                "empirical measure has no density view; attach one with "
                "with_density(kde_density(...))"
            )
        return mu.density.density_at(x)
    raise MeasureViewError(f"no density view for {type(mu).__name__}")


# ---------------------------------------------------------------------------
# cylindrical functions F(mu) = f(mu(h_1), ..., mu(h_n))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerTest:
    """One spatial factor h_i of a cylindrical function, with derivatives."""

    h: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CylindricalFunction:
    """F(mu) = f(mu(h_1), ..., mu(h_n)) with all derivative data supplied."""

    inner: Sequence[InnerTest]
    outer: Callable[[np.ndarray], float]
    outer_grad: Callable[[np.ndarray], np.ndarray]

    @property
    def n(self) -> int:
        return len(self.inner)

    def inner_values(self, mu) -> np.ndarray:
        return np.array([mu.integrate(t.h) for t in self.inner])

    def __call__(self, mu) -> float:
        return float(self.outer(self.inner_values(mu)))

    @classmethod
    def linear(cls, h, grad, hess) -> "CylindricalFunction":
        """F(mu) = mu(h)."""
        return cls(
            inner=(InnerTest(h, grad, hess),),
            outer=lambda r: float(r[0]),
            outer_grad=lambda r: np.ones(1),
        )


def intrinsic_gradient(F: CylindricalFunction, mu) -> Callable[[np.ndarray], np.ndarray]:
    """Gradient of F on measure space at mu, as a vector field on R^d.

    The field is sum_i df_i(mu(h_1), ..., mu(h_n)) * grad h_i; it does not
    depend on the chosen cylindrical representation of F.
    """
    coeff = np.asarray(F.outer_grad(F.inner_values(mu)), dtype=float)

    def field(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for c, t in zip(coeff, F.inner):
            out += c * np.asarray(t.grad(x), dtype=float)
        return out

    return field


def pushforward(mu: EmpiricalMeasure, phi: Callable[[np.ndarray], np.ndarray], t: float) -> EmpiricalMeasure:
    """Image of mu under x -> x + t*phi(x); weights are unchanged."""
    shifted = mu.points + t * np.asarray(phi(mu.points), dtype=float)
    if not np.all(np.isfinite(shifted)):
        raise ValueError("phi produced non-finite values on the support")
    return EmpiricalMeasure(shifted, mu.weights)


# ---------------------------------------------------------------------------
# Wasserstein-2 distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportPlan:
    source: EmpiricalMeasure
    target: EmpiricalMeasure
    coupling: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coupling, dtype=float)
        if np.any(c < 0):
            raise ValueError("coupling must be nonnegative")
        if not np.allclose(c.sum(axis=1), self.source.weights, atol=1e-9):
            raise ValueError("row sums do not match source weights")
        if not np.allclose(c.sum(axis=0), self.target.weights, atol=1e-9):
            raise ValueError("column sums do not match target weights")
        object.__setattr__(self, "coupling", c)

    def cost(self) -> float:
        d2 = _sq_dists(self.source.points, self.target.points)
        return float(np.sum(self.coupling * d2))


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _monotone_merge(ws: np.ndarray, vs: np.ndarray):
    """Monotone coupling of two sorted weight vectors: merge the cumulative
    weights and return, per merged piece, the atom index on each side and the
    piece's mass. Pieces are (c_{k-1}, c_k] for the union c of both cumsums."""
    cw, cv = np.cumsum(ws), np.cumsum(vs)
    c = np.union1d(cw, cv)
    i = np.minimum(np.searchsorted(cw, c), len(ws) - 1)
    j = np.minimum(np.searchsorted(cv, c), len(vs) - 1)
    return i, j, np.diff(c, prepend=0.0)


def quantile_coupling_plan(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportPlan:
    """Monotone (quantile) coupling of two 1-D clouds; optimal for W_2."""
    order_x = np.argsort(mu.points[:, 0], kind="stable")
    order_y = np.argsort(nu.points[:, 0], kind="stable")
    i, j, m = _monotone_merge(mu.weights[order_x], nu.weights[order_y])
    plan = np.zeros((mu.n_atoms, nu.n_atoms))
    np.add.at(plan, (order_x[i], order_y[j]), m)
    return TransportPlan(mu, nu, plan)


def sinkhorn_plan(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    epsilon: float | None = None,
    max_iter: int = 10_000,
) -> TransportPlan:
    """Entropically regularized coupling via log-domain Sinkhorn iterations.

    The returned plan is rounded onto the transport polytope so its marginals
    match the inputs exactly (up to float error); its cost therefore upper
    bounds the true squared distance.
    """
    C = _sq_dists(mu.points, nu.points)
    if epsilon is None:
        med = np.median(C[C > 0]) if np.any(C > 0) else 1.0
        epsilon = 1e-2 * med
    loga = np.log(np.maximum(mu.weights, 1e-300))
    logb = np.log(np.maximum(nu.weights, 1e-300))
    f = np.zeros(mu.n_atoms)
    g = np.zeros(nu.n_atoms)
    K = -C / epsilon
    err = np.inf
    for it in range(max_iter):
        f = epsilon * (loga - _logsumexp_rows(K + g[None, :] / epsilon))
        g = epsilon * (logb - _logsumexp_rows(K.T + f[None, :] / epsilon))
        P = np.exp(K + (f[:, None] + g[None, :]) / epsilon)
        err = np.abs(P.sum(axis=1) - mu.weights).sum()
        if err < SINKHORN_MARGINAL_TOL:
            break
    else:
        # stopping is "tolerance or iteration cap"; only a residual too large
        # to round away is a genuine failure
        if err > 1e-3:
            raise RuntimeError(
                f"Sinkhorn did not converge in {max_iter} iterations "
                f"(final marginal error {err:.3e})"
            )
    # round to the polytope (scale rows, then columns, then fix the residual)
    r = np.minimum(mu.weights / np.maximum(P.sum(axis=1), 1e-300), 1.0)
    P = P * r[:, None]
    c = np.minimum(nu.weights / np.maximum(P.sum(axis=0), 1e-300), 1.0)
    P = P * c[None, :]
    ra = np.maximum(mu.weights - P.sum(axis=1), 0.0)
    ca = np.maximum(nu.weights - P.sum(axis=0), 0.0)
    if ra.sum() > 0 and ca.sum() > 0:
        P = P + np.outer(ra, ca) / ra.sum()
    return TransportPlan(mu, nu, P)


def _logsumexp_rows(M: np.ndarray) -> np.ndarray:
    mx = M.max(axis=1)
    return mx + np.log(np.exp(M - mx[:, None]).sum(axis=1))


def wasserstein2(mu: EmpiricalMeasure, nu: EmpiricalMeasure, method: str = "exact1d", **kw) -> float:
    """W_2 distance between two particle clouds.

    ``exact1d`` uses the monotone quantile coupling (dim must be 1);
    ``sinkhorn`` uses entropic regularization and works in any dimension.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    # all mass at a single location: W2 is a root-mean-square distance
    for a, b in ((mu, nu), (nu, mu)):
        pts = a.points[a.weights > 0]
        if np.all(pts == pts[0]):
            diff = b.points - pts[0]
            return float(np.sqrt(np.dot(b.weights, np.einsum("ij,ij->i", diff, diff))))
    if method == "exact1d":
        if mu.dim != 1:
            raise ValueError("exact1d requires dim == 1")
        xs, ws = mu.sorted_1d()
        ys, vs = nu.sorted_1d()
        i, j, m = _monotone_merge(ws, vs)
        return float(np.sqrt(np.dot(m, (xs[i] - ys[j]) ** 2)))
    if method == "sinkhorn":
        return float(np.sqrt(sinkhorn_plan(mu, nu, **kw).cost()))
    raise ValueError(f"unknown method {method!r}")


def w2_to_quantile(mu, quantile: Callable[[np.ndarray], np.ndarray]) -> float:
    """W_2 between a 1-D measure and a distribution given by its quantile
    function, via the quantile-coupling integral on the midpoints of
    ``QUANTILE_GRID`` equal probability cells.

    Avoids double sampling noise when comparing against analytic references.
    """
    p = (np.arange(QUANTILE_GRID) + 0.5) / QUANTILE_GRID
    q_ref = np.asarray(quantile(p), dtype=float)
    if isinstance(mu, GridDensity1D):
        q_mu = mu.quantile(p)
    else:
        xs, ws = mu.sorted_1d()
        cdf = np.cumsum(ws)
        idx = np.minimum(np.searchsorted(cdf, p, side="left"), len(xs) - 1)
        q_mu = xs[idx]
    return float(np.sqrt(np.mean((q_mu - q_ref) ** 2)))


def w2_gaussian_1d(m1: float, v1: float, m2: float, v2: float) -> float:
    """Closed-form W_2 between the 1-D Gaussians N(m1, v1) and N(m2, v2)."""
    return float(np.sqrt((m1 - m2) ** 2 + (np.sqrt(v1) - np.sqrt(v2)) ** 2))


# ---------------------------------------------------------------------------
# grid <-> cloud conversions
# ---------------------------------------------------------------------------


def silverman_bandwidth(mu: EmpiricalMeasure) -> float:
    """N^(-1/5) * sigma-hat default bandwidth for the Gaussian KDE."""
    sigma = float(np.sqrt(mu.cov()[0, 0]))
    if sigma == 0.0:
        sigma = 1.0
    return mu.n_atoms ** (-0.2) * sigma


def kde_density(
    mu: EmpiricalMeasure,
    x_min: float,
    dx: float,
    n_cells: int,
    bandwidth: float,
    method: str = "exact",
) -> GridDensity1D:
    """Gaussian-kernel density estimate of a 1-D cloud on a uniform grid,
    renormalized so the discrete mass is exactly one.

    ``binned`` assigns atoms to cells by linear interpolation and convolves
    with a discretized kernel; it is O(N + M log M) and is what the particle
    simulator uses per step. ``exact`` sums kernels atom by atom.
    """
    if mu.dim != 1:
        raise ValueError("kde_density requires dim == 1")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    x = mu.points[:, 0]
    lo, hi = x_min + 5 * bandwidth, x_min + n_cells * dx - 5 * bandwidth
    outside = float(mu.weights[(x < lo) | (x > hi)].sum())
    if outside > 1e-6:
        raise ValueError(
            f"grid too small: mass {outside:.3e} lies within 5 bandwidths of the edge"
        )
    if method == "exact":
        z = (_grid_centers(x_min, dx, n_cells)[:, None] - x[None, :]) / bandwidth
        dens = (np.exp(-0.5 * z**2) / (bandwidth * np.sqrt(2 * np.pi))) @ mu.weights
    elif method == "binned":
        # split each atom's weight between its two neighboring cell centers
        pos = (x - x_min) / dx - 0.5
        i0 = np.clip(np.floor(pos).astype(int), 0, n_cells - 2)
        frac = np.clip(pos - i0, 0.0, 1.0)
        hist = np.zeros(n_cells)
        np.add.at(hist, i0, mu.weights * (1 - frac))
        np.add.at(hist, i0 + 1, mu.weights * frac)
        half = int(np.ceil(6 * bandwidth / dx))
        kx = np.arange(-half, half + 1) * dx
        kernel = np.exp(-0.5 * (kx / bandwidth) ** 2)
        kernel /= kernel.sum() * dx
        dens = np.convolve(hist, kernel, mode="same")
    else:
        raise ValueError(f"unknown method {method!r}")
    total = dens.sum() * dx
    if total <= 0:
        raise ValueError("estimated density has zero mass on the grid")
    return GridDensity1D(x_min, dx, dens / total)


def sample_density(rho: GridDensity1D, n: int, rng: np.random.Generator) -> EmpiricalMeasure:
    """Inverse-CDF sampling from a piecewise-constant density."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = rng.random(n)
    return EmpiricalMeasure.from_atoms(rho.quantile(u))


def grid_to_measure(rho: GridDensity1D) -> EmpiricalMeasure:
    """Cell centers become atoms with weights values * dx."""
    w = rho.values * rho.dx
    return EmpiricalMeasure(rho.centers[:, None], w / w.sum())
