"""Probability measures on R^d: particle clouds, 1-D grid densities, W_2
distances, cylindrical test functionals and their intrinsic gradient.

Conventions used throughout the package:

* point arrays have shape ``(N, d)``, C-ordered float (``_cloud``); a
  scalar or a 1-D array is N atoms on the line. Every function of the
  package that takes points (clouds, coefficient fields, test functions of
  the lifted dynamics, the field of ``intrinsic_gradient``) reads them by
  this one rule, and ``CoefficientSet.fields`` (like a particle simulator,
  up front) raises ``ValueError`` on points whose width d is not the
  coefficients' ``d``,
* spatial test functions are vectorized: ``h(points) -> (N,)``,
  ``grad(points) -> (N, d)``, ``hess(points) -> (N, d, d)``,
* weights always sum to one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "GridDensity1D",
    "CylindricalFunction",
    "InnerTest",
    "MeasureViewError",
    "wasserstein2",
    "w2_gaussian_1d",
    "w2_to_quantile",
    "kde_density",
    "sample_density",
    "pushforward",
    "intrinsic_gradient",
    "grid_to_measure",
    "silverman_bandwidth",
    "csv_table",
]

WEIGHT_TOL = 1e-12
MASS_TOL = 1e-10
QUANTILE_GRID = 20_000  # probability levels of the ``w2_to_quantile`` integral
FLOAT_FMT = "%.17g"


def _quantile_levels() -> np.ndarray:
    """The ``QUANTILE_GRID`` probability levels p_j = (j + 1/2) / Q."""
    return (np.arange(QUANTILE_GRID) + 0.5) / QUANTILE_GRID


@functools.lru_cache(maxsize=16)
def _level_ranks(n: int) -> np.ndarray:
    """For each level p_j of ``_quantile_levels``, the 0-based rank of the
    atom that the quantile of n equally weighted sorted atoms reads there:
    the least m with (m + 1) / n >= p_j, i.e. ceil((2j + 1) n / 2Q) - 1, in
    exact integer arithmetic. Cached per n (every bootstrap replicate of a
    cloud reads the same ranks), so the array is read-only."""
    num = (2 * np.arange(QUANTILE_GRID, dtype=np.int64) + 1) * n
    ranks = -(-num // (2 * QUANTILE_GRID)) - 1
    ranks.flags.writeable = False
    return ranks


def _cloud(positions) -> np.ndarray:
    """The one shape rule of a particle cloud: ``positions`` as a C-ordered
    float array of shape (N, d), copied only when its dtype or order
    differs. A scalar or a 1-D array is N atoms on the line; more than two
    dimensions raise ``ValueError``."""
    # C order: einsum sums strided atoms in another order, to other bits
    pts = np.asarray(positions, dtype=float, order="C")
    if pts.ndim > 2:
        raise ValueError(f"a cloud has shape (N, d), got {pts.shape}")
    return pts.reshape(-1, 1) if pts.ndim < 2 else pts


class MeasureViewError(ValueError):
    """A coefficient asked for a measure feature (e.g. a density) that the
    supplied measure object cannot provide."""


def csv_table(header: Sequence[str], columns: Sequence[Sequence[float]]) -> str:
    """CSV text: the header line, then one line per row of the columns, every
    value in ``FLOAT_FMT`` (round-trips a float exactly)."""
    lines = [",".join(header)] + [",".join(FLOAT_FMT % v for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# measure types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted particle cloud on R^d.

    ``density`` optionally attaches a 1-D grid density view (typically a KDE of
    the cloud) so that Nemytskii-type coefficients can evaluate the cloud's
    density at a point (``density_at``, ``cellwise``); moments are always
    computed from the atoms themselves.
    """

    points: np.ndarray
    weights: np.ndarray
    density: "GridDensity1D | None" = field(default=None, compare=False)

    def __post_init__(self):
        pts = _cloud(self.points)
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
        pts = _cloud(positions)
        if weights is None:
            weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return cls(pts, weights)

    # sums over the atoms run in einsum's loops: threaded BLAS bits follow the thread count
    def integrate(self, h: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.einsum("n,n->", self.weights, np.asarray(h(self.points), dtype=float)))

    def mean(self) -> np.ndarray:
        return np.einsum("n,nd->d", self.weights, self.points)

    def cov(self) -> np.ndarray:
        c = self.points - self.mean()
        return np.einsum("n,ni,nj->ij", self.weights, c, c)

    def second_moment(self) -> float:
        """``int |x|^2 dmu`` (squared P_2 norm)."""
        return float(np.einsum("n,ni,ni->", self.weights, self.points, self.points))

    def with_density(self, density: "GridDensity1D") -> "EmpiricalMeasure":
        return replace(self, density=density)

    def _density_view(self) -> "GridDensity1D":
        if self.density is None:
            raise MeasureViewError(
                "empirical measure has no density view; attach one with "
                "with_density(kde_density(...))"
            )
        return self.density

    def density_at(self, x) -> np.ndarray:
        """The attached density view at the points x; ``MeasureViewError``
        when none is attached."""
        return self._density_view().density_at(x)

    def cellwise(self, f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
        """``cellwise`` of the attached density view; ``MeasureViewError``
        when none is attached."""
        return self._density_view().cellwise(f, x)

    def sorted_1d(self) -> tuple[np.ndarray, np.ndarray]:
        if self.dim != 1:
            raise ValueError("sorted_1d requires dim == 1")
        order = np.argsort(self.points[:, 0], kind="stable")
        return self.points[order, 0], self.weights[order]


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
    def centers(self) -> np.ndarray:
        """Cell centers, read-only and shared by every density on this grid."""
        return _grid_centers(self.x_min, self.dx, self.n_cells)

    def check_inside_centers(self, x) -> float:
        """The one rule for a point on the grid: x, holding one value of any
        shape, as a float. ``ValueError`` unless it is one value lying between
        the first and the last cell center, where values on the centers
        interpolate without clamping."""
        if np.size(x) != 1:
            raise ValueError(f"x must be one point on the grid, got x={x!r}")
        x = np.asarray(x).item()
        c = self.centers
        if not (c[0] <= x <= c[-1]):
            raise ValueError(f"x={x} outside grid centers [{c[0]}, {c[-1]}]")
        return float(x)

    def mass(self) -> float:
        return float(self.dx * self.values.sum())

    def cell_index(self, x) -> np.ndarray:
        """The one cell rule: the cell floor((x - x_min) / dx) of each point
        as an int array of x's shape, and M for every point whose floored
        quotient lies outside [0, M), NaN and +-inf included."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # a quotient past the float range is +-inf
            q = np.floor((x - self.x_min) / self.dx).reshape(-1)
        q[~((q >= 0) & (q < self.n_cells))] = self.n_cells
        return q.astype(int).reshape(x.shape)

    def cellwise(self, f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
        """f of the density at the points x, with f evaluated once per cell:
        on the M cell values and the 0 outside, then gathered by
        ``cell_index``. For a Nemytskii map f (one acting elementwise) this
        is f(density_at(x)) bit for bit, at M + 1 evaluations however many
        points x holds."""
        return np.asarray(f(np.append(self.values, 0.0)), dtype=float)[self.cell_index(x)]

    def density_at(self, x) -> np.ndarray:
        """Cell lookup as one gather: every point outside the M cells, NaN
        and +-inf included, reads 0 (Lebesgue-point convention)."""
        return np.append(self.values, 0.0)[self.cell_index(x)]

    def integrate(self, h: Callable[[np.ndarray], np.ndarray]) -> float:
        """Cell-midpoint rule dx * sum_i u_i h(c_i), with h called on the
        (M, 1) cell centers: the one grid integral of the package."""
        vals = np.asarray(h(self.centers[:, None]), dtype=float)
        return float(self.dx * np.dot(self.values, vals))

    def same_grid(self, other: "GridDensity1D") -> bool:
        """The one same-grid rule: equal cell counts, x_min within 1e-12 and
        dx within 1e-15."""
        return (other.n_cells == self.n_cells and abs(other.x_min - self.x_min) <= 1e-12
                and abs(other.dx - self.dx) <= 1e-15)

    def l1_distance(self, other: "GridDensity1D") -> float:
        """dx * sum_i |u_i - v_i| to a density on the same grid (``same_grid``)."""
        if not self.same_grid(other):
            raise ValueError("l1_distance needs a density on the same grid")
        return float(np.abs(self.values - other.values).sum() * self.dx)

    def mean(self) -> np.ndarray:
        return np.array([self.integrate(lambda X: X[:, 0])])

    def cov(self) -> np.ndarray:
        m = self.mean()[0]
        return np.array([[self.integrate(lambda X: (X[:, 0] - m) ** 2)]])

    def second_moment(self) -> float:
        return self.integrate(lambda X: X[:, 0] ** 2)

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
        return csv_table(["x", "u"], [self.centers, self.values])


@functools.lru_cache(maxsize=16)
def _grid_centers(x_min: float, dx: float, n_cells: int) -> np.ndarray:
    # keyed by grid, not by density: Picard iterates and flow records are
    # distinct objects on one grid
    centers = x_min + dx * (np.arange(n_cells) + 0.5)
    centers.flags.writeable = False
    return centers


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
    depend on the chosen cylindrical representation of F. It reads its
    points by ``_cloud`` (a 1-D array is N points on the line) and returns
    the (N, d) gradients.
    """
    coeff = np.asarray(F.outer_grad(F.inner_values(mu)), dtype=float)

    def field(x: np.ndarray) -> np.ndarray:
        x = _cloud(x)
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


def wasserstein2(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """W_2 distance between two particle clouds: the root-mean-square
    distance when one side is a single location, otherwise the monotone
    quantile coupling (dim must be 1)."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    # all mass at a single location: W2 is a root-mean-square distance
    for a, b in ((mu, nu), (nu, mu)):
        pts = a.points[a.weights > 0]
        if np.all(pts == pts[0]):
            diff = b.points - pts[0]
            return float(np.sqrt(np.einsum("n,ni,ni->", b.weights, diff, diff)))
    xs, ws = mu.sorted_1d()
    ys, vs = nu.sorted_1d()
    # monotone coupling: the pieces (c_{k-1}, c_k] of the merged cumulative
    # weights c, each with its atom on either side and its mass
    cw, cv = np.cumsum(ws), np.cumsum(vs)
    c = np.union1d(cw, cv)
    i = np.minimum(np.searchsorted(cw, c), len(ws) - 1)
    j = np.minimum(np.searchsorted(cv, c), len(vs) - 1)
    return float(np.sqrt(np.einsum("n,n->", np.diff(c, prepend=0.0), (xs[i] - ys[j]) ** 2)))


def _w2_at_ranks(xs: np.ndarray, q_ref: np.ndarray) -> float:
    """W_2 of n equally weighted sorted atoms xs to the quantile values q_ref
    on ``_quantile_levels``: each level reads the atom at its exact rank
    ``_level_ranks(n)``, which a float cumulative sum of the weights misses
    at the levels where (j + 1/2) n / Q is an integer."""
    return float(np.sqrt(np.mean((xs[_level_ranks(len(xs))] - q_ref) ** 2)))


def w2_to_quantile(mu, quantile: Callable[[np.ndarray], np.ndarray]) -> float:
    """W_2 between a 1-D measure and a distribution given by its quantile
    function, via the quantile-coupling integral on the midpoints of
    ``QUANTILE_GRID`` equal probability cells.

    mu is a grid density or an equally weighted cloud, which reads each
    level at its exact rank (``_w2_at_ranks``); a cloud with unequal
    weights raises ``ValueError`` (``wasserstein2`` takes weighted clouds).
    Avoids double sampling noise when comparing against analytic references.
    """
    p = _quantile_levels()
    q_ref = np.asarray(quantile(p), dtype=float)
    if isinstance(mu, GridDensity1D):
        return float(np.sqrt(np.mean((mu.quantile(p) - q_ref) ** 2)))
    if not np.all(mu.weights == mu.weights[0]):
        raise ValueError("w2_to_quantile needs equal weights; use wasserstein2 for a weighted cloud")
    return _w2_at_ranks(mu.sorted_1d()[0], q_ref)


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
        # a BLAS gemv, which splits output rows (not the sum over atoms)
        # across threads: bitwise equal at 1 and 2 threads for N = 3e3 to 1e5
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
        # the n_cells centered entries of the full convolution: mode "same"
        # returns the kernel's length when the kernel is the longer one
        dens = np.convolve(hist, kernel, mode="full")[half : half + n_cells]
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
