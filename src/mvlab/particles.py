"""Interacting-particle Euler-Maruyama simulation of mean-field SDEs.

The mean-field interaction is closed over the empirical law of the particle
system; density-dependent (Nemytskii) coefficients additionally see a binned
kernel-density view on a fixed grid. The lifted process steps the nonlinear
cloud and a cloud of the frozen dynamics side by side, sharing one draw per
step (``simulate_lifted``); each cloud is stepped as its own contiguous array.

Reproducibility contract: row i of a cloud rides stream i, and its normals
are a function of (seed, row, step) alone, drawn from a counter-based
generator (Philox) with no state carried between steps. They do not depend
on how many rows the cloud has: the first m rows of an n-row run draw what
an m-row run draws.

Cost: a simulation keeps one generator whose counter it sets for each
``_BLOCK``-row block and step, and each block draws straight into its rows
of the step's noise array; no step builds a generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet
from .fpe import _record_index, _time_steps
from .measures import EmpiricalMeasure, _cloud, kde_density, silverman_bandwidth

__all__ = [
    "KDESpec",
    "SimConfig",
    "PathEnsemble",
    "simulate_mckean_vlasov",
    "simulate_frozen",
    "simulate_lifted",
]


@dataclass(frozen=True)
class KDESpec:
    """Grid and bandwidth for the density view attached to empirical laws."""

    x_min: float
    dx: float
    n_cells: int
    bandwidth: float | str = "silverman"

    def resolve_bandwidth(self, cloud: EmpiricalMeasure) -> float:
        if self.bandwidth == "silverman":
            return silverman_bandwidth(cloud)
        return float(self.bandwidth)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    seed: int
    record_every: int = 1
    kde: KDESpec | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def _law(X: np.ndarray, kde: KDESpec | None) -> EmpiricalMeasure:
    mu = EmpiricalMeasure.from_atoms(X)
    if kde is not None:
        bw = kde.resolve_bandwidth(mu)
        mu = mu.with_density(
            kde_density(mu, kde.x_min, kde.dx, kde.n_cells, bw, method="binned")
        )
    return mu


@dataclass
class PathEnsemble:
    """Recorded particle positions at increasing times. Row i of
    ``positions`` is the particle of row i of the initial cloud, which rode
    stream i. It is read by ``marginal_at`` (or ``marginal``), whose span
    rule is that of ``fpe._record_index``."""

    times: np.ndarray
    positions: np.ndarray  # (n_records, n_particles, d)
    kde: KDESpec | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.positions.shape[0] != len(self.times):
            raise ValueError("times/positions length mismatch")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def marginal(self, i: int) -> EmpiricalMeasure:
        """Empirical law at record index i, with the density view if configured."""
        return _law(self.positions[i], self.kde)

    def marginal_at(self, t: float, tol: float | None = None) -> EmpiricalMeasure:
        """Empirical law recorded at time t; ``ValueError`` if no record lies
        at t or, with ``tol``, within tol of t (see ``fpe._record_index``)."""
        return self.marginal(_record_index(self.times, t, tol))


# Rows per Philox counter block (see ``_normals``). It is part of the key
# scheme: changing it moves every particle result.
_BLOCK = 4096


def _normals(seed: int, n: int, d: int) -> Callable[[int], np.ndarray]:
    """``draw(k)``: the (n, d) standard normals of step k, row i for stream i.

    Row i is row i mod B (B = ``_BLOCK``) of the draw keyed by seed at
    counter (0, k, i // B, 0), and each block is drawn straight into its
    rows of the output. ``standard_normal`` fills rows in order, so a row's
    normals do not depend on n. One Philox generator serves every block of
    every step, its counter set through ``state``. Every call returns the
    same output array, overwritten.
    """
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # fresh buffer, as a newly keyed Philox has
    counter = state["state"]["counter"]
    out = np.empty((n, d))

    def draw(k: int) -> np.ndarray:
        for blk, r0 in enumerate(range(0, n, _BLOCK)):
            counter[:] = (0, k, blk, 0)
            bitgen.state = state
            gen.standard_normal(out=out[r0 : r0 + _BLOCK])
        return out

    return draw


def _simulate(
    x0s: tuple,
    width: int,
    s: float,
    t_end: float,
    cfg: SimConfig,
    drift_diffusion: Callable,
) -> list[PathEnsemble]:
    """The one Euler-Maruyama loop, over one or more clouds that share one
    draw per step. Each x0 takes the cloud shape rule of ``measures._cloud``
    (a 1-D x0 is N particles on the line); clouds of different shapes, or
    of a width d other than ``width``, the coefficients' dimension, raise
    ``ValueError`` before the first step. ``drift_diffusion(t, h, *Xs)`` is
    called once per step (t, h) with the clouds at t and returns one
    (b, sigma) per cloud there, shapes (N, d) and (N, d, m); each cloud then
    moves by b h + sigma Z sqrt(h), with one Z for all clouds: the (N, m)
    normals of ``_normals``, whose generator is made once for the whole
    simulation, at the first step, where the first sigma tells m.

    Each cloud is stepped as its own contiguous (N, d) array, into a new
    array per step: the caller's x0, the coefficients' outputs and a cloud
    that a law was built on are never written. Returns one ensemble per
    cloud; all share one ``times`` array, and their records fill one
    preallocated array."""
    Xs = [_cloud(x0) for x0 in x0s]
    if len({X.shape for X in Xs}) > 1:
        raise ValueError(f"the clouds must have one shape (N, d), got {[X.shape for X in Xs]}")
    N, d = Xs[0].shape
    if d != width:
        raise ValueError(f"the cloud has width {d}, the coefficients take {width}")

    steps = _time_steps(s, t_end, cfg.dt)
    n_records = 1 + -(-len(steps) // cfg.record_every)  # start, every k-th step, last
    times = np.empty(n_records)
    records = np.empty((len(Xs), n_records, N, d))
    times[0], records[:, 0] = s, Xs
    r = 1
    draw = None
    for k, (t, h, t_next) in enumerate(steps):
        fields = drift_diffusion(t, h, *Xs)
        if draw is None:
            draw = _normals(cfg.seed, N, fields[0][1].shape[-1])
        z, sqrt_h = draw(k), np.sqrt(h)
        for i, (b, sig) in enumerate(fields):
            # X + b h + (sigma Z) sqrt(h) bit for bit: IEEE addition commutes
            Xn = b * h
            Xn += Xs[i]
            e = np.einsum("nij,nj->ni", sig, z)
            e *= sqrt_h
            Xn += e
            Xs[i] = Xn
        if (k + 1) % cfg.record_every == 0 or k + 1 == len(steps):
            times[r], records[:, r] = t_next, Xs
            r += 1
    return [PathEnsemble(times=times, positions=rec, kde=cfg.kde) for rec in records]


def simulate_mckean_vlasov(
    x0: np.ndarray,
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
) -> PathEnsemble:
    """Coefficients are closed over the evolving empirical law of the cloud."""

    def drift_diffusion(t, h, X):
        return [coeffs.fields(t, X, _law(X, cfg.kde))]

    return _simulate((x0,), coeffs.d, s, t_end, cfg, drift_diffusion)[0]


def simulate_frozen(
    x0: np.ndarray,
    flow: Callable[[float], object],
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
) -> PathEnsemble:
    """Linear dynamics of the frozen fields ``coeffs.frozen``, which see a
    stored measure flow.

    ``flow`` is a callable t -> law, such as a grid-density path's
    ``state_at`` or a particle ensemble's ``marginal_at``. Each step reads
    the law at the step's start time, so a recorded flow must hold a record
    at every step start in [s, t_end]; a missing record raises ``ValueError``
    at the first step without one. A callable may read stale records on
    purpose, e.g. ``lambda t: ens.marginal_at(t, tol=...)``.
    """
    frozen = coeffs.frozen

    def drift_diffusion(t, h, X):
        return [frozen.fields(t, X, flow(t))]

    return _simulate((x0,), coeffs.d, s, t_end, cfg, drift_diffusion)[0]


def simulate_lifted(
    x0_mu: np.ndarray,
    x0_nu: np.ndarray,
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
) -> tuple[PathEnsemble, PathEnsemble]:
    """The lifted process on R^d x P as two clouds of N particles, y and
    x: y follows the nonlinear fields under the empirical law mu_t of the y
    cloud, x follows ``coeffs.frozen`` under that same mu_t of the current
    step, and the two clouds share one draw per step, so row i of both
    rides stream i (synchronous coupling). Each cloud is stepped as its own
    contiguous (N, d) array.

    Returns the y and x clouds as two ensembles that share ``times``. The y
    cloud is bit for bit ``simulate_mckean_vlasov`` from x0_mu, and the x
    cloud ``simulate_frozen`` from x0_nu along that run recorded at every
    step: row i of both rides stream i, as in either standalone run. Each
    cloud takes the shape rule of ``measures._cloud``; clouds of different
    shapes, or of a width other than ``coeffs.d``, raise ``ValueError``.
    """
    frozen = coeffs.frozen

    def drift_diffusion(t, h, Y, X):
        mu = _law(Y, cfg.kde)
        return [coeffs.fields(t, Y, mu), frozen.fields(t, X, mu)]

    return tuple(_simulate((x0_mu, x0_nu), coeffs.d, s, t_end, cfg, drift_diffusion))
