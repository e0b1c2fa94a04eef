"""Interacting-particle Euler-Maruyama simulation of mean-field SDEs.

The mean-field interaction is closed over the empirical law of the particle
system; density-dependent (Nemytskii) coefficients additionally see a binned
kernel-density view on a fixed grid. The lifted process pairs each particle
with a point of the frozen dynamics on the same stream (``simulate_lifted``).

Reproducibility contract: normals are a function of (seed, stream index,
step), drawn from a counter-based generator (Philox) with no state carried
between steps, so a stream gets the same normals whichever other streams
run beside it. A cloud is held in one canonical order, increasing stream
index: the simulator reorders the initial positions by their stream indices
once, then steps, reduces and records the cloud in that order. Permuting
particles together with their stream indices therefore yields the same
cloud row for row, and bitwise-identical empirical laws.

Cost: a simulation plans its noise once, which Philox blocks its streams
fall in and where their rows go, and keeps one generator whose counter it
sets for each block and step. Streams that fill a block from its first row
on draw straight into the step's noise array; no step builds a generator.
"""

from __future__ import annotations

import itertools
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
    """Recorded particle positions at increasing times. Rows of ``positions``
    follow the increasing ``stream_indices``: the caller's order for the
    default ``arange``. It is read by ``marginal_at`` (or ``marginal``),
    whose span rule is that of ``fpe._record_index``."""

    times: np.ndarray
    positions: np.ndarray  # (n_records, n_particles, d)
    stream_indices: np.ndarray
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


# Streams per Philox counter block. A block is drawn up to its largest
# needed offset, so a lone stream costs at most this many normals per step.
_BLOCK = 4096


def _normals(seed: int, stream_indices: np.ndarray, d: int) -> Callable[[int], np.ndarray]:
    """``draw(k)``: the (N, d) standard normals of step k for increasing
    stream indices.

    Stream i takes row i mod B (B = ``_BLOCK``) of the draw keyed by seed at
    counter (0, k, i // B, 0), which has just enough rows for the largest
    offset in its block. ``standard_normal`` fills rows in order, so a
    stream's normals do not depend on which other streams are drawn.

    The block plan is made here, once per simulation: each block's rows in
    the cloud and how its offsets lie. A block whose offsets run 0, 1, 2, ...
    draws straight into its rows of the output; any other block draws into a
    scratch buffer, then gathers its rows. One Philox generator serves every
    block of every step, its counter set through ``state``. Every call
    returns the same output array, overwritten.
    """
    blocks, offsets = np.divmod(stream_indices, _BLOCK)
    cuts = np.r_[0, np.flatnonzero(np.diff(blocks)) + 1, len(blocks)]
    plan = []  # (block, first row, end row, rows drawn, rows taken or None)
    for r0, r1 in itertools.pairwise(cuts.tolist()):
        off = offsets[r0:r1]  # strictly increasing
        n_draw = int(off[-1]) + 1
        plan.append((int(blocks[r0]), r0, r1, n_draw, None if n_draw == r1 - r0 else off))

    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # fresh buffer, as a newly keyed Philox has
    counter = state["state"]["counter"]
    out = np.empty((len(stream_indices), d))
    scratch = np.empty((_BLOCK, d))

    def draw(k: int) -> np.ndarray:
        for blk, r0, r1, n_draw, taken in plan:
            counter[:] = (0, k, blk, 0)
            bitgen.state = state
            if taken is None:
                gen.standard_normal(out=out[r0:r1])
            else:
                gen.standard_normal(out=scratch[:n_draw])
                out[r0:r1] = scratch[taken]
        return out

    return draw


def _simulate(
    x0: np.ndarray,
    s: float,
    t_end: float,
    cfg: SimConfig,
    drift_diffusion: Callable,
    stream_indices: np.ndarray | None,
) -> PathEnsemble:
    """The one Euler-Maruyama loop. ``drift_diffusion(t, h, X)`` is called
    once per step (t, h) with the cloud at t and returns (b, sigma) there,
    shapes (N, d) and (N, d, m); the cloud then moves by
    b h + sigma Z sqrt(h), Z the (N, m) normals of ``_normals``, whose block
    plan and generator are made once for the whole simulation, at the first
    step, which tells m. Records fill one preallocated array.
    Stream indices must be distinct integers in [0, 2**63)."""
    X = np.atleast_2d(np.asarray(x0, dtype=float))
    if X.ndim != 2:
        raise ValueError("x0 must have shape (N, d)")
    N, d = X.shape
    if stream_indices is None:
        stream_indices = np.arange(N, dtype=np.int64)
    raw = np.asarray(stream_indices)
    # checked before the int64 cast, which would wrap 2**64 - i to -i and
    # truncate 0.5 to 0
    if raw.shape == (N,) and (raw.dtype.kind not in "iu" or raw.min() < 0 or raw.max() >= 2**63):
        raise ValueError("stream_indices must be integers in [0, 2**63)")
    stream_indices = raw.astype(np.int64)
    if stream_indices.shape != (N,) or len(np.unique(stream_indices)) != N:
        raise ValueError("stream_indices must be N distinct integers")
    order = np.argsort(stream_indices)
    X, stream_indices = X[order], stream_indices[order]

    steps = _time_steps(s, t_end, cfg.dt)
    n_records = 1 + -(-len(steps) // cfg.record_every)  # start, every k-th step, last
    times = np.empty(n_records)
    positions = np.empty((n_records, N, d))
    times[0], positions[0] = s, X
    r = 1
    draw = None
    for k, (t, h, t_next) in enumerate(steps):
        b, sig = drift_diffusion(t, h, X)
        if draw is None:
            draw = _normals(cfg.seed, stream_indices, sig.shape[-1])
        X = X + b * h + np.einsum("nij,nj->ni", sig, draw(k)) * np.sqrt(h)
        if (k + 1) % cfg.record_every == 0 or k + 1 == len(steps):
            times[r], positions[r] = t_next, X
            r += 1
    return PathEnsemble(times=times, positions=positions, stream_indices=stream_indices, kde=cfg.kde)


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
    flow: Callable[[float], object],
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
    stream_indices: np.ndarray | None = None,
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
        return frozen.fields(t, X, flow(t))

    return _simulate(x0, s, t_end, cfg, drift_diffusion, stream_indices)


def simulate_lifted(
    x0_mu: np.ndarray,
    x0_nu: np.ndarray,
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SimConfig,
    stream_indices: np.ndarray | None = None,
) -> tuple[PathEnsemble, PathEnsemble]:
    """The lifted process on R^d x P as one cloud of N pairs (y, x): y
    follows the nonlinear fields under the empirical law mu_t of the y
    cloud, x follows ``coeffs.frozen`` under that same mu_t of the current
    step, and both halves of pair i ride stream i (synchronous coupling).

    Returns the y and x clouds as two ensembles that share ``times`` and
    ``stream_indices``. The y cloud is bit for bit ``simulate_mckean_vlasov``
    from x0_mu, and the x cloud ``simulate_frozen`` from x0_nu along that
    run recorded at every step, both on the same streams. Clouds of
    different shapes raise ``ValueError``.
    """
    Y0 = np.atleast_2d(np.asarray(x0_mu, dtype=float))
    X0 = np.atleast_2d(np.asarray(x0_nu, dtype=float))
    if Y0.shape != X0.shape:
        raise ValueError(f"the two clouds must have one shape (N, d), got {Y0.shape} and {X0.shape}")
    N, d = Y0.shape
    frozen = coeffs.frozen
    b = np.empty((N, 2 * d))
    sig = np.empty((N, 2 * d, d))

    def drift_diffusion(t, h, Z):
        # each half in C order, as a standalone simulator hands its cloud to the fields
        Y, X = np.ascontiguousarray(Z[:, :d]), np.ascontiguousarray(Z[:, d:])
        mu = _law(Y, cfg.kde)
        b[:, :d], sig[:, :d] = coeffs.fields(t, Y, mu)
        b[:, d:], sig[:, d:] = frozen.fields(t, X, mu)
        return b, sig

    pair = _simulate(np.hstack([Y0, X0]), s, t_end, cfg, drift_diffusion, stream_indices)
    return tuple(
        PathEnsemble(pair.times, pair.positions[..., half], pair.stream_indices, cfg.kde)
        for half in (slice(None, d), slice(d, None))
    )
