"""Conservative 1-D finite-volume solver for nonlinear Fokker-Planck
equations of the form

    du/dt = 1/2 d^2/dx^2 (a(t,x,mu) u) - d/dx (v(t,x,mu) u)

with a = sigma sigma^T and v = b evaluated on the current density
(Nemytskii or mean-field), plus the frozen linear variant where the
coefficients see a stored flow instead of the evolving state.

The scheme is flux-form with no-flux boundaries: differences of
A = a*u for the diffusion term (conservative for porous-medium
nonlinearities, where A = beta(u)) and upwinding for the transport term.

This module is the only place that knows the discretization. Value
functions of the frozen dynamics (the lifted kernel acting on test
functions, Feynman-Kac terminal-value problems) are computed by the
transposed frozen step, so forward densities and backward value functions
are exact adjoints of each other on the grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .coefficients import CoefficientSet
from .measures import GridDensity1D, InnerTest

__all__ = [
    "DensityPath",
    "SolverConfig",
    "ConservationLog",
    "CFLError",
    "NonlinearSolveError",
    "solve_nonlinear_fpe",
    "solve_frozen_fpe",
    "solve_backward_kolmogorov",
    "fpe_weak_residual",
    "total_clipped_mass",
]

MASS_STEP_TOL = 1e-12
CFL_SAFETY = 0.9  # most of a cell's mass one explicit step may send out
MAX_PICARD = 20  # Picard iterations per nonlinear semi-implicit step
PICARD_TOL = 1e-10  # max-norm step residual that ends the Picard iteration
SPAN_SLACK = 1e-9  # how far a read may miss a record or its span (relative)
CLIP_FLOOR = -1e-13
CLIP_BUDGET = 1e-6
SCHEMES = ("explicit", "semi_implicit")

_total_clipped = 0.0


def total_clipped_mass() -> float:
    """Cumulative density mass clipped by every solve in this process."""
    return _total_clipped


class CFLError(RuntimeError):
    pass


class NonlinearSolveError(RuntimeError):
    pass


@dataclass
class ConservationLog:
    """What a march did: its mass and positivity audit, the most Picard
    solves any step needed, and how many steps it took and how often it
    evaluated the coefficient fields."""

    max_mass_drift: float = 0.0
    clipped_mass: float = 0.0
    worst_undershoot: float = 0.0
    picard_iterations_max: int = 0
    steps: int = 0
    field_evals: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    scheme: str = "semi_implicit"  # one of SCHEMES

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class DensityPath:
    """Solution path on a shared grid, sampled at strictly increasing times.
    It is read by ``state_at``; a frozen solve along it checks its [s, t_end]
    by the same span rule, ``_check_span``."""

    times: np.ndarray
    states: list[GridDensity1D]
    log: ConservationLog = field(default_factory=ConservationLog)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times/states length mismatch")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float, tol: float | None = None) -> GridDensity1D:
        """State recorded at time t; ``ValueError`` if no record lies at t or,
        with ``tol``, within tol of t (see ``_record_index``)."""
        return self.states[_record_index(self.times, t, tol)]


def _unchecked_grid(x_min: float, dx: float, values: np.ndarray) -> GridDensity1D:
    # intermediate iterates can carry tiny negative values / mass drift that
    # the public constructor rejects; coefficients still need a density view
    g = object.__new__(GridDensity1D)
    object.__setattr__(g, "x_min", x_min)
    object.__setattr__(g, "dx", dx)
    object.__setattr__(g, "values", values)
    return g


def _interface_coeffs(a: np.ndarray, v: np.ndarray, dx: float):
    """Flux G_{i+1/2} = p_i u_i + q_i u_{i+1} for interfaces i = 0..M-2,
    with p >= 0 >= q. Every step, its explicit guard and the backward sweep
    read the fields through (p, q), so the flux is defined here alone."""
    vi = 0.5 * (v[:-1] + v[1:])
    half_a = a / (2 * dx)
    p = np.maximum(vi, 0.0) + half_a[:-1]
    q = np.minimum(vi, 0.0) - half_a[1:]
    return p, q


def _explicit_step(u, p, q, c):
    """u minus c times the flux divergence of the interface coefficients
    (p, q), with c = dt/dx. With -c it applies the implicit operator
    ``_flux_band`` assembles, which gives the Picard residual."""
    G = p * u[:-1] + q * u[1:]
    out = u.copy()
    out[:-1] -= c * G
    out[1:] += c * G
    return out


def _flux_band(p, q, c, transpose=False):
    """A = I + c * (flux divergence) for the interface coefficients (p, q)
    and c = dt/dx, or its transpose, in LAPACK band layout (row 0 the
    superdiagonal from column 1, row 1 the diagonal, row 2 the subdiagonal
    up to column M-2). The one assembly of the implicit FV operator: the
    forward step solves A u_new = u_old, the backward Kolmogorov step solves
    with A^T. Columns of A sum to 1 (mass conservation) and A is an M-matrix
    (positivity)."""
    upper, lower = c * q, -c * p  # A[i, i+1] and A[i+1, i] across interface i
    if transpose:
        upper, lower = lower, upper
    ab = np.zeros((3, p.shape[0] + 1))
    ab[0, 1:] = upper
    ab[1] = 1.0
    ab[1, :-1] += c * p
    ab[1, 1:] -= c * q
    ab[2, :-1] = lower
    return ab


def _solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system in ``_flux_band`` layout with LAPACK
    ``gtsv``: the call, and so the bits, of SciPy's banded solver for a
    (1, 1) band, without its wrapper. Raises ``ValueError`` for a non-finite
    band or right-hand side and ``LinAlgError`` for a singular system.
    Neither argument is modified."""
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if ab.shape[1] == 1:
        return rhs / ab[1]
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _check_cfl(p, q, c):
    """The explicit step's positivity bound, read off the interface
    coefficients (p, q) with c = dt/dx: cell i sends c p_i across its right
    interface and -c q_{i-1} across its left, and keeps the rest of its
    mass. ``CFLError`` when some cell sends more than ``CFL_SAFETY`` of it."""
    outflow = np.zeros(p.shape[0] + 1)
    outflow[:-1] = c * p
    outflow[1:] -= c * q
    i = int(np.argmax(outflow))
    if outflow[i] > CFL_SAFETY:
        raise CFLError(
            f"explicit step sends {outflow[i]:.3g} of cell {i}'s mass out, above "
            f"CFL_SAFETY = {CFL_SAFETY:g} (dt/dx = {c:g})"
        )


def _extrapolate(now, before, ratio: float, out: np.ndarray):
    """now + ratio (now - before) for the interface coefficients (p, q) of
    the last two step ends, ``now`` and ``before``: their linear
    extrapolation to the end of a step ``ratio`` times as long as the last,
    written into ``out``. p is clipped to >= 0 and q to <= 0, so the band
    stays an M-matrix."""
    for row, a, b in zip(out, now, before):
        np.subtract(a, b, out=row)
        row *= ratio
        row += a
    np.maximum(out[0], 0.0, out=out[0])
    np.minimum(out[1], 0.0, out=out[1])
    return out[0], out[1]


def _eval_fields(coeffs: CoefficientSet, t: float, centers2d: np.ndarray, mu):
    """Diffusion a = sigma sigma^T and drift v = b on the cell centers."""
    b, s = coeffs.fields(t, centers2d, mu)
    return np.einsum("nij,nij->n", s, s), b[:, 0]


def _clip_and_log(u, log: ConservationLog) -> np.ndarray:
    global _total_clipped
    neg = u < 0
    if np.any(neg):
        undershoot = float(u[neg].min())
        log.worst_undershoot = min(log.worst_undershoot, undershoot)
        clipped = float(-u[neg].sum())
        log.clipped_mass += clipped
        _total_clipped += clipped
        if log.clipped_mass > CLIP_BUDGET:
            raise NonlinearSolveError(
                f"cumulative clipped mass {log.clipped_mass:.3e} exceeds budget {CLIP_BUDGET:g}"
            )
        u = np.maximum(u, 0.0)
        u = u * (1.0 + clipped / max(u.sum(), 1e-300))
    return u


def _time_steps(s: float, t_end: float, dt: float) -> list[tuple[float, float, float]]:
    """The steps ``(t_k, h_k, t_{k+1})`` that cover [s, t_end], t_k = s + k dt.
    Every step is exactly dt except a last step that is genuinely short,
    which has h = t_end - t_k; the last step ends at t_end exactly. A last
    step is full when t_{n-1} + dt, the end that a read computes, lies
    within half of ``SPAN_SLACK`` of t_end, so the read hits the record at
    t_end. This is the one rule from (s, t_end, dt) to steps: the FPE
    march, the backward sweep, the particle simulator and the Feynman-Kac
    Monte Carlo backend all step by it, so their steps coincide, and all
    raise ``ValueError`` for a reversed interval t_end < s."""
    if t_end < s:
        raise ValueError(f"t_end must be >= s, got s={s}, t_end={t_end}")
    n = int(round((t_end - s) / dt))
    slack = 0.5 * SPAN_SLACK * max(1.0, abs(t_end))
    full = n > 0 and abs((s + (n - 1) * dt) + dt - t_end) <= slack
    if not full:
        n = int(np.ceil((t_end - s) / dt - 1e-12))
    starts = [s + k * dt for k in range(n)]
    ends = starts[1:] + [t_end]
    sizes = [dt] * n
    if n and not full:
        sizes[-1] = t_end - starts[-1]
    return list(zip(starts, sizes, ends))


def _check_span(times: np.ndarray, t: float) -> None:
    """``ValueError`` unless t lies in [times[0], times[-1]] up to a relative
    ``SPAN_SLACK`` (twice the slack by which ``_time_steps`` lets a full
    last step overshoot its end). The one span rule of a recorded flow:
    every read and both ends of every frozen solve along the flow are held
    to it."""
    slack = SPAN_SLACK * max(1.0, abs(t))
    if not times[0] - slack <= t <= times[-1] + slack:
        raise ValueError(f"t={t} lies outside the recorded span [{times[0]}, {times[-1]}]")


def _record_index(times: np.ndarray, t: float, tol: float | None = None) -> int:
    """Index of the record at time t, the one lookup of a recorded flow.
    t must pass ``_check_span``, and the read must hit a record up to a
    relative ``SPAN_SLACK``; an explicit ``tol`` accepts the nearest record
    within tol instead. Raises ``ValueError`` when t is outside the span or
    no record is close enough."""
    _check_span(times, t)
    if tol is None:
        tol = SPAN_SLACK * max(1.0, abs(t))
    # the nearest of the two records around t, ties to the lower index as
    # argmin(|times - t|) would break them
    i = int(np.searchsorted(times, t))  # times[i - 1] < t <= times[i]
    if i == len(times) or (i > 0 and t - times[i - 1] <= times[i] - t):
        i -= 1
        # rounding can leave earlier records exactly as far from t
        while i > 0 and t - times[i - 1] == t - times[i]:
            i -= 1
    if abs(times[i] - t) > tol:
        raise ValueError(f"no record within {tol} of t={t}")
    return i


def _march(
    u0: GridDensity1D,
    s: float,
    t_end: float,
    cfg: SolverConfig,
    coeffs: CoefficientSet,
    flow: DensityPath | None = None,
    record_every: int = 1,
) -> DensityPath:
    """Shared time loop. Without ``flow`` it marches the nonlinear equation:
    the fields of ``coeffs`` see the evolving density. With ``flow`` it
    marches the frozen one: the fields of ``coeffs.frozen`` see
    ``flow.state_at(t)``. Every step ends at its ``t_next`` from
    ``_time_steps``, and every right-end evaluation is at that time. Frozen
    fields do not depend on u, so the semi-implicit step evaluates them
    once, at its right end, and solves once: the fixed point that Picard
    iteration would reach, and the step ``solve_backward_kolmogorov``
    transposes. Otherwise each Picard solve uses the last fields, then
    evaluates them once at the right end on the new iterate, and the step
    stops once its residual is below ``PICARD_TOL``; after ``MAX_PICARD``
    re-solves a residual above 1e3 ``PICARD_TOL`` raises
    ``NonlinearSolveError``. The first solve of a step starts from fields
    it does not evaluate, except at the first step, which evaluates its
    left end. A step whose accepted iterate needed no clipping carries its
    right-end fields, which saw those very values at the next step's start
    time, to the next step. The second step solves with them; every later
    step extrapolates the last two carried fields linearly in time to its
    right end, (p, q)_k + (h_k / h_{k-1}) ((p, q)_k - (p, q)_{k-1}), with p
    clipped to >= 0 and q to <= 0 (``_extrapolate``), so that one solve
    usually meets the residual test. The guess only starts the iteration,
    and the residual test decides as before. After a clip the next step
    evaluates its left end again and the extrapolation starts over.
    ``log.field_evals`` counts the evaluations."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    dx = u0.dx
    u = u0.values * dx  # work with cell masses; conservation is then telescoping
    mass0 = u.sum()
    steps = _time_steps(s, t_end, cfg.dt)
    n_steps = len(steps)
    log = ConservationLog(steps=n_steps)
    times = [s]
    states = [u0]
    centers2d = u0.centers[:, None]
    if flow is not None:
        coeffs = coeffs.frozen

    def fields(t, u):
        """The interface coefficients (p, q) of the fields at time t."""
        log.field_evals += 1
        mu = _unchecked_grid(u0.x_min, dx, u / dx) if flow is None else flow.state_at(t)
        return _interface_coeffs(*_eval_fields(coeffs, t, centers2d, mu), dx)

    carried = None  # (p, q) at the next step's left end, from the last Picard iterate
    before = None  # (p, q) carried into the step before, while no clip intervened
    guess = np.empty((2, u.shape[0] - 1))  # the extrapolated (p, q), one buffer per march
    for k, (t, dt, t_next) in enumerate(steps):
        c = dt / dx
        if cfg.scheme == "explicit":
            p, q = fields(t, u)
            _check_cfl(p, q, c)
            u_new = _explicit_step(u, p, q, c)
        elif flow is not None:
            u_new = _solve(_flux_band(*fields(t_next, u), c), u)
        else:
            if carried is None:
                p, q = fields(t, u)
            elif before is None:
                p, q = carried
            else:
                p, q = _extrapolate(carried, before, dt / dt_before, guess)
            for it in range(MAX_PICARD + 1):
                u_new = _solve(_flux_band(p, q, c), u)
                p, q = fields(t_next, u_new)
                resid = float(np.max(np.abs(_explicit_step(u_new, p, q, -c) - u)))
                if resid <= PICARD_TOL:
                    break
            log.picard_iterations_max = max(log.picard_iterations_max, min(it + 1, MAX_PICARD))
            if not resid <= 1e3 * PICARD_TOL:
                raise NonlinearSolveError(
                    f"Picard iteration did not converge at t={t:g} "
                    f"(residual {resid:.3e} after {MAX_PICARD} iterations)"
                )
            before, carried = carried, (p, q)
            dt_before = dt
        drift = abs(u_new.sum() - mass0)
        log.max_mass_drift = max(log.max_mass_drift, drift)
        if not drift <= MASS_STEP_TOL:  # NaN fails too
            raise NonlinearSolveError(f"mass drift {drift:.3e} exceeds {MASS_STEP_TOL:g} at t={t:g}")
        if float(u_new.min()) < CLIP_FLOOR:
            # genuine scheme failure, not roundoff
            raise NonlinearSolveError(
                f"undershoot {float(u_new.min()):.3e} below {CLIP_FLOOR:g} at t={t:g}"
            )
        u = _clip_and_log(u_new, log)
        if u is not u_new:
            carried = before = None  # the clip moved the values the carried fields saw
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            times.append(t_next)
            states.append(GridDensity1D(u0.x_min, dx, (u / u.sum()) / dx))
    return DensityPath(np.asarray(times), states, log)


def solve_nonlinear_fpe(
    u0: GridDensity1D,
    coeffs: CoefficientSet,
    s: float,
    t_end: float,
    cfg: SolverConfig,
    record_every: int = 1,
) -> DensityPath:
    """March the nonlinear equation: coefficients see the evolving density."""
    return _march(u0, s, t_end, cfg, coeffs, record_every=record_every)


def _check_flow(flow: DensityPath, grid: GridDensity1D, s: float, t_end: float, what: str) -> None:
    _check_span(flow.times, s)
    _check_span(flow.times, t_end)
    if not flow.states[0].same_grid(grid):
        raise ValueError(f"{what} grid does not match the flow grid")


def solve_frozen_fpe(
    nu0: GridDensity1D,
    flow: DensityPath,
    coeffs: CoefficientSet,
    cfg: SolverConfig,
    s: float | None = None,
    t_end: float | None = None,
    record_every: int = 1,
) -> DensityPath:
    """March the linear equation of the frozen fields ``coeffs.frozen``,
    which see the stored flow. [s, t_end] defaults to the flow's span and
    must lie within it by the span rule of its reads (``_check_span``)."""
    s = flow.t_start if s is None else s
    t_end = flow.t_end if t_end is None else t_end
    _check_flow(flow, nu0, s, t_end, "nu0")
    return _march(nu0, s, t_end, cfg, coeffs, flow, record_every)


def solve_backward_kolmogorov(
    w_end: np.ndarray,
    flow: DensityPath,
    coeffs: CoefficientSet,
    cfg: SolverConfig,
    s: float,
    t_end: float,
    potential: Callable | None = None,
    source: Callable | None = None,
) -> np.ndarray:
    """Solve the backward Kolmogorov equation of the frozen dynamics
    ``coeffs.frozen``,

        d_r w + 1/2 a w'' + v w' + V w + f = 0 on [s, t_end],  w(t_end) = w_end,

    with a, v (and ``potential(r, X, mu)`` = V, ``source(r, X, mu)`` = f)
    evaluated along ``flow``, and return w(s) on the flow's cell centers.

    Each step is the transpose of the semi-implicit frozen step of
    ``solve_frozen_fpe`` over the same time step (same step times, fields at
    the step's right end), with -dt V on the diagonal and dt f on the right-hand
    side. Without potential and source, <w(s), nu_s> = <w_end, nu_{t_end}> up
    to roundoff for the frozen law nu started from any nu_s. The explicit
    scheme has no transposed sweep here: ``cfg.scheme`` is not consulted.
    """
    grid = flow.states[0]
    _check_flow(flow, grid, s, t_end, "flow")
    w = np.array(w_end, dtype=float)
    if w.shape != (grid.n_cells,):
        raise ValueError(f"w_end has shape {w.shape}, the flow grid has {grid.n_cells} cells")
    centers2d = grid.centers[:, None]
    frozen = coeffs.frozen
    for _, dt, r in reversed(_time_steps(s, t_end, cfg.dt)):
        mu_r = flow.state_at(r)
        p, q = _interface_coeffs(*_eval_fields(frozen, r, centers2d, mu_r), grid.dx)
        ab = _flux_band(p, q, dt / grid.dx, transpose=True)
        if potential is not None:
            ab[1] -= dt * np.asarray(potential(r, centers2d, mu_r), dtype=float)
        if source is not None:
            w = w + dt * np.asarray(source(r, centers2d, mu_r), dtype=float)
        w = _solve(ab, w)
    return w


def fpe_weak_residual(
    path: DensityPath,
    coeffs: CoefficientSet,
    h: InnerTest,
    flow: DensityPath | None = None,
) -> np.ndarray:
    """Residual of the weak formulation at each recorded time:

        mu_t(h) - mu_s(h) - int_s^t int L h dmu_r dr

    with L the Kolmogorov operator ``CoefficientSet.generator``, by
    trapezoidal quadrature over the recorded times. For frozen paths pass
    the driving flow: L is then that of ``coeffs.frozen``, evaluated on it.
    """
    gen_coeffs = coeffs if flow is None else coeffs.frozen

    def generator_integral(t, state):
        mu = state if flow is None else flow.state_at(t)
        return state.integrate(lambda X: gen_coeffs.generator(t, X, mu, h))

    mu_h = np.array([st.integrate(h.h) for st in path.states])
    gen = np.array([generator_integral(t, st) for t, st in zip(path.times, path.states)])
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (gen[1:] + gen[:-1]) * np.diff(path.times))])
    return mu_h - mu_h[0] - integral
