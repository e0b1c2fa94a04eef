"""Interacting-particle Euler-Maruyama simulation of mean-field SDEs.

The mean-field interaction is closed over the empirical law of the particle
system; density-dependent (Nemytskii) coefficients additionally see a binned
kernel-density view on a fixed grid.

Reproducibility contract: normals are a function of (seed, stream index,
step), drawn from a counter-based generator (Philox) with no state carried
between steps, so a stream gets the same normals whichever other streams
run beside it. A cloud is held in one canonical order, increasing stream
index: the simulator reorders the initial positions by their stream indices
once, then steps, reduces and records the cloud in that order. Permuting
particles together with their stream indices therefore yields the same
cloud row for row, and bitwise-identical empirical laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet
from .fpe import _record_index, _time_steps
from .measures import EmpiricalMeasure, kde_density, silverman_bandwidth

__all__ = [
    "KDESpec",
    "SimConfig",
    "PathEnsemble",
    "simulate_mckean_vlasov",
    "simulate_frozen",
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
    """Recorded particle positions at increasing times. Rows of ``positions``
    follow the increasing ``stream_indices``: the caller's order for the
    default ``arange``."""

    times: np.ndarray
    positions: np.ndarray  # (n_records, n_particles, d)
    seed: int
    stream_indices: np.ndarray
    kde: KDESpec | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.positions.shape[0] != len(self.times):
            raise ValueError("times/positions length mismatch")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    @property
    def dim(self) -> int:
        return self.positions.shape[2]

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def marginal(self, i: int) -> EmpiricalMeasure:
        """Empirical law at record index i, with the density view if configured."""
        return _law(self.positions[i], self.kde)

    def marginal_at(self, t: float, tol: float | None = None) -> EmpiricalMeasure:
        """Empirical law recorded at time t; ``ValueError`` if no record lies
        at t or, with ``tol``, within tol of t (see ``fpe._record_index``)."""
        return self.marginal(_record_index(self.times, t, tol))

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            times=self.times,
            positions=self.positions,
            seed=np.int64(self.seed),
            stream_indices=self.stream_indices,
        )

    @classmethod
    def load(cls, path: str, kde: KDESpec | None = None) -> "PathEnsemble":
        with np.load(path) as z:
            return cls(
                times=z["times"],
                positions=z["positions"],
                seed=int(z["seed"]),
                stream_indices=z["stream_indices"],
                kde=kde,
            )


# Streams per Philox counter block. A block is drawn up to its largest
# needed offset, so a lone stream costs at most this many normals per step.
_BLOCK = 4096


def _normals(seed: int, stream_indices: np.ndarray, k: int, d: int) -> np.ndarray:
    """(N, d) standard normals of step k for increasing stream indices.

    Stream i takes row i mod B (B = ``_BLOCK``) of the draw keyed by seed at
    counter (0, k, i // B, 0), which has just enough rows for the largest
    offset in its block. ``standard_normal`` fills rows in order, so a
    stream's normals do not depend on which other streams are drawn.
    """
    blocks, offsets = np.divmod(stream_indices, _BLOCK)
    cuts = np.flatnonzero(np.diff(blocks)) + 1
    parts = []
    for blk, off in zip(blocks[np.r_[0, cuts]], np.split(offsets, cuts)):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, k, blk, 0]))
        parts.append(gen.standard_normal((off[-1] + 1, d))[off])
    return np.concatenate(parts)


def _simulate(
    x0: np.ndarray,
    s: float,
    t_end: float,
    cfg: SimConfig,
    drift_diffusion: Callable,
    stream_indices: np.ndarray | None,
) -> PathEnsemble:
    """The one Euler-Maruyama loop. ``drift_diffusion(t, h, X)`` is called
    once per step (t, h) with the cloud at t and returns (b, sigma) there;
    the cloud then moves by b h + sigma Z sqrt(h), Z from ``_normals``."""
    X = np.atleast_2d(np.asarray(x0, dtype=float))
    if X.ndim != 2:
        raise ValueError("x0 must have shape (N, d)")
    N, d = X.shape
    if stream_indices is None:
        stream_indices = np.arange(N, dtype=np.int64)
    stream_indices = np.asarray(stream_indices, dtype=np.int64)
    if stream_indices.shape != (N,) or len(np.unique(stream_indices)) != N:
        raise ValueError("stream_indices must be N distinct integers")
    order = np.argsort(stream_indices)
    X, stream_indices = X[order], stream_indices[order]

    steps = _time_steps(s, t_end, cfg.dt)
    times = [s]
    records = [X]
    for k, (t, h, t_next) in enumerate(steps):
        b, sig = drift_diffusion(t, h, X)
        Z = _normals(cfg.seed, stream_indices, k, d)
        X = X + b * h + np.einsum("nij,nj->ni", sig, Z) * np.sqrt(h)
        if (k + 1) % cfg.record_every == 0 or k + 1 == len(steps):
            times.append(t_next)
            records.append(X)
    return PathEnsemble(
        times=np.asarray(times),
        positions=np.stack(records),
        seed=cfg.seed,
        stream_indices=stream_indices,
        kde=cfg.kde,
    )


def simulate_mckean_vlasov(
    x0: np.ndarray,
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
    stream_indices: np.ndarray | None = None,
) -> PathEnsemble:
    """Coefficients are closed over the evolving empirical law of the cloud."""

    def drift_diffusion(t, h, X):
        return coeffs.fields(t, X, _law(X, cfg.kde))

    return _simulate(x0, s, t_end, cfg, drift_diffusion, stream_indices)


def simulate_frozen(
    x0: np.ndarray,
    flow,
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
    stream_indices: np.ndarray | None = None,
) -> PathEnsemble:
    """Linear dynamics of the frozen fields ``coeffs.frozen``, which see a
    stored measure flow.

    ``flow`` may be a grid-density path (``state_at``), a particle ensemble
    (``marginal_at``), or a callable t -> measure. Each step reads the law
    recorded at the step's start time, so a recorded flow must hold a record
    at every step start in [s, t_end]; a missing record raises ``ValueError``
    at the first step without one. A callable may read stale records on
    purpose, e.g. ``lambda t: ens.marginal_at(t, tol=...)``.
    """
    flow_at = getattr(flow, "state_at", None) or getattr(flow, "marginal_at", None)
    if flow_at is None:
        if not callable(flow):
            raise TypeError("flow must expose state_at, marginal_at, or be callable")
        flow_at = flow
    frozen = coeffs.frozen

    def drift_diffusion(t, h, X):
        return frozen.fields(t, X, flow_at(t))

    return _simulate(x0, s, t_end, cfg, drift_diffusion, stream_indices)
