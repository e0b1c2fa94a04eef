"""Interacting-particle Euler-Maruyama simulation of mean-field SDEs.

The mean-field interaction is closed over the empirical law of the particle
system; density-dependent (Nemytskii) coefficients additionally see a binned
kernel-density view on a fixed grid.

Reproducibility contract: each particle draws from its own counter-based
stream (Philox keyed by (seed, stream index)), and every reduction over the
cloud that feeds back into the dynamics is computed on the lexicographically
sorted cloud. Permuting particles together with their stream indices
therefore yields bitwise-identical empirical laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet
from .fpe import _record_index, _time_steps
from .measures import EmpiricalMeasure, GridDensity1D, kde_density, silverman_bandwidth

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
    method: str = "binned"

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


def _sorted_cloud(X: np.ndarray) -> np.ndarray:
    order = np.lexsort(X.T[::-1])
    return X[order]


def _law(X: np.ndarray, kde: KDESpec | None) -> EmpiricalMeasure:
    mu = EmpiricalMeasure.from_atoms(_sorted_cloud(X))
    if kde is not None:
        bw = kde.resolve_bandwidth(mu)
        mu = mu.with_density(
            kde_density(mu, kde.x_min, kde.dx, kde.n_cells, bw, method=kde.method)
        )
    return mu


@dataclass
class PathEnsemble:
    """Recorded particle positions at increasing times."""

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
        """Empirical law at the recorded time nearest to t; ``ValueError`` if
        t lies outside the recorded span or, with ``tol``, farther than tol
        from every record (see ``fpe._record_index``)."""
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


class _NoiseBank:
    """Buffers standard normals per particle from independent Philox streams,
    at most 256 steps at a time. The draws do not depend on the buffer size;
    the cap bounds memory for large clouds."""

    def __init__(self, seed: int, stream_indices: np.ndarray, d: int, n_steps: int):
        self._gens = [
            np.random.Generator(np.random.Philox(key=[seed, int(ix)]))
            for ix in stream_indices
        ]
        self._d = d
        self._block = min(256, n_steps)
        self._buf = None
        self._pos = 0

    def draw(self) -> np.ndarray:
        """(N, d) normals for one step."""
        if self._buf is None or self._pos == self._block:
            self._buf = np.stack(
                [g.standard_normal((self._block, self._d)) for g in self._gens]
            )
            self._pos = 0
        out = self._buf[:, self._pos, :]
        self._pos += 1
        return out


def _simulate(
    x0: np.ndarray,
    s: float,
    t_end: float,
    cfg: SimConfig,
    drift_diffusion: Callable,
    stream_indices: np.ndarray | None,
) -> PathEnsemble:
    X = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    if X.ndim != 2:
        raise ValueError("x0 must have shape (N, d)")
    N, d = X.shape
    if stream_indices is None:
        stream_indices = np.arange(N, dtype=np.int64)
    stream_indices = np.asarray(stream_indices, dtype=np.int64)
    if stream_indices.shape != (N,) or len(np.unique(stream_indices)) != N:
        raise ValueError("stream_indices must be N distinct integers")

    steps = _time_steps(s, t_end, cfg.dt)
    bank = _NoiseBank(cfg.seed, stream_indices, d, len(steps))
    times = [s]
    records = [X.copy()]
    for k, (t, h, t_next) in enumerate(steps):
        b, sig = drift_diffusion(t, X)
        X = X + b * h + np.einsum("nij,nj->ni", sig, bank.draw()) * np.sqrt(h)
        if (k + 1) % cfg.record_every == 0 or k + 1 == len(steps):
            times.append(t_next)
            records.append(X.copy())
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

    def drift_diffusion(t, X):
        mu = _law(X, cfg.kde)
        return (
            np.asarray(coeffs.b(t, X, mu), dtype=float),
            np.asarray(coeffs.sigma(t, X, mu), dtype=float),
        )

    return _simulate(x0, s, t_end, cfg, drift_diffusion, stream_indices)


def simulate_frozen(
    x0: np.ndarray,
    flow,
    coeffs_bar: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
    stream_indices: np.ndarray | None = None,
) -> PathEnsemble:
    """Linear dynamics whose coefficients see a stored measure flow.

    ``flow`` may be a grid-density path (``state_at``), a particle ensemble
    (``marginal_at``), or a callable t -> measure. Each step reads the
    recorded law nearest to the step's start time; a recorded flow that does
    not cover [s, t_end] raises ``ValueError`` at the first step outside it.
    """
    if callable(flow) and not hasattr(flow, "state_at") and not hasattr(flow, "marginal_at"):
        flow_at = flow
    elif hasattr(flow, "state_at"):
        flow_at = flow.state_at
    elif hasattr(flow, "marginal_at"):
        flow_at = flow.marginal_at
    else:
        raise TypeError("flow must expose state_at, marginal_at, or be callable")

    def drift_diffusion(t, X):
        mu = flow_at(t)
        return (
            np.asarray(coeffs_bar.b_bar(t, X, mu), dtype=float),
            np.asarray(coeffs_bar.sigma_bar(t, X, mu), dtype=float),
        )

    return _simulate(x0, s, t_end, cfg, drift_diffusion, stream_indices)
