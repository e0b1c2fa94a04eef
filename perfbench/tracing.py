"""Outside-in tracing of mvlab's layers.

The tracer replaces the module attributes through which each layer is
entered with wrappers that record a span: calls, inclusive time, and self
time (inclusive time minus the time of spans opened inside it). Coefficient
callables are wrapped on a copy of the benchmark's ``CoefficientSet``, so
coefficient time is a child span of whichever layer evaluates it, and the
enclosing layer's self time excludes it. mvlab's source is not modified:
``patched()`` restores every attribute on exit.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from mvlab import ergodicity, feynman_kac, fpe, lifted, particles

# (module, attribute, span). A span entered through several names is only
# complete when every name exists, so one missing name marks it missing.
PATCH_SITES = [
    (fpe, "solve_nonlinear_fpe", "fpe.nonlinear"),
    (lifted, "solve_nonlinear_fpe", "fpe.nonlinear"),
    (feynman_kac, "solve_nonlinear_fpe", "fpe.nonlinear"),
    (lifted, "solve_frozen_fpe", "fpe.frozen"),
    (lifted, "chapman_kolmogorov_residual", "lifted.ck"),
    (lifted, "kernel_evaluate", "lifted.kernel"),
    (feynman_kac, "fk_evaluate_grid", "feynman_kac.grid"),
    (particles, "simulate_mckean_vlasov", "particles.mkv"),
    (ergodicity, "simulate_mckean_vlasov", "particles.mkv"),
    (ergodicity, "simulate_frozen", "particles.frozen"),
    (particles, "kde_density", "measures.kde"),
    (particles, "silverman_bandwidth", "measures.bandwidth"),
    (ergodicity, "w2_to_quantile", "measures.w2"),
    (ergodicity, "decay_study", "ergodicity.study"),
]

_COEFF_FIELDS = ("b", "sigma", "b_bar", "sigma_bar")


def _n_steps(s: float, t_end: float, dt: float) -> int:
    """Steps needed to cover [s, t_end] with step dt (a last short step counts)."""
    return max(math.ceil((t_end - s) / dt - 1e-9), 0)


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []  # [span name, time of child spans]
        self.missing = sorted(
            {span for mod, attr, span in PATCH_SITES if not callable(getattr(mod, attr, None))}
        )

    def _wrap(self, span, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
            if after is not None:
                after(fn, args, kwargs, out)
            return out

        return traced

    # -- what each span counts besides calls and time -----------------------

    def _after_fpe(self, kind):
        def after(fn, args, kwargs, path):
            a = _bind(fn, args, kwargs)
            if kind == "frozen":
                s = a["flow"].t_start if a["s"] is None else a["s"]
                t_end = a["flow"].t_end if a["t_end"] is None else a["t_end"]
            else:
                s, t_end = a["s"], a["t_end"]
            self.counts[f"fpe.{kind}.steps"] += _n_steps(s, t_end, a["cfg"].dt)
            log = path.log
            self.counts["fpe.picard_max"] = max(self.counts["fpe.picard_max"], log.picard_iterations_max)
            self.counts["fpe.max_mass_drift"] = max(self.counts["fpe.max_mass_drift"], log.max_mass_drift)
            self.counts["fpe.clipped_mass"] += log.clipped_mass

        return after

    def _after_particles(self, fn, args, kwargs, ens):
        a = _bind(fn, args, kwargs)
        n = ens.positions.shape[1]
        self.counts["particles.particle_steps"] += n * _n_steps(a["s"], a["t_end"], a["cfg"].dt)

    def _after_for(self, span):
        if span.startswith("fpe."):
            return self._after_fpe(span.split(".")[1])
        if span.startswith("particles."):
            return self._after_particles
        return None

    # -- coefficients -------------------------------------------------------

    def _wrap_coefficient(self, field, fn):
        traced = self._wrap("coefficients", fn)

        @functools.wraps(fn)
        def counted(t, X, mu):
            caller = self._stack[-1][0] if self._stack else None
            self.counts["coefficients.rows"] += len(X)
            # b or b_bar opens one (drift, diffusion) field evaluation
            if field in ("b", "b_bar") and caller in ("fpe.nonlinear", "fpe.frozen"):
                self.counts[f"{caller}.field_evals"] += 1
            return traced(t, X, mu)

        return counted

    def coefficients(self, cs):
        """Copy of ``cs`` whose four callables are traced."""
        return dataclasses.replace(
            cs, **{f: self._wrap_coefficient(f, getattr(cs, f)) for f in _COEFF_FIELDS}
        )

    @contextmanager
    def patched(self):
        saved = []
        try:
            for mod, attr, span in PATCH_SITES:
                if span in self.missing:
                    continue
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span, fn, self._after_for(span)))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- per-layer metrics --------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer ``name -> (value, unit)`` of everything traced so far;
        metrics that need a missing span are left out, never reported as zero."""
        c, s, own, n = self.calls, self.total_s, self.self_s, self.counts
        steps = n["fpe.frozen.steps"] + n["fpe.nonlinear.steps"]
        evals = n["fpe.frozen.field_evals"] + n["fpe.nonlinear.field_evals"]
        p_steps = n["particles.particle_steps"]
        p_self = own["particles.mkv"] + own["particles.frozen"]

        def ratio(a, b):
            return a / b if b else 0.0

        table = [
            ("fpe.frozen.calls", "count", ("fpe.frozen",), c["fpe.frozen"]),
            ("fpe.frozen.s", "s", ("fpe.frozen",), s["fpe.frozen"]),
            ("fpe.frozen.steps", "count", ("fpe.frozen",), n["fpe.frozen.steps"]),
            ("fpe.frozen.field_evals_per_step", "evals/step", ("fpe.frozen",),
             ratio(n["fpe.frozen.field_evals"], n["fpe.frozen.steps"])),
            ("fpe.nonlinear.calls", "count", ("fpe.nonlinear",), c["fpe.nonlinear"]),
            ("fpe.nonlinear.s", "s", ("fpe.nonlinear",), s["fpe.nonlinear"]),
            ("fpe.nonlinear.steps", "count", ("fpe.nonlinear",), n["fpe.nonlinear.steps"]),
            ("fpe.nonlinear.field_evals_per_step", "evals/step", ("fpe.nonlinear",),
             ratio(n["fpe.nonlinear.field_evals"], n["fpe.nonlinear.steps"])),
            ("fpe.field_evals_per_step", "evals/step", ("fpe.frozen", "fpe.nonlinear"), ratio(evals, steps)),
            ("fpe.self_s", "s", ("fpe.frozen", "fpe.nonlinear"), own["fpe.frozen"] + own["fpe.nonlinear"]),
            ("fpe.picard_max", "iterations", ("fpe.frozen", "fpe.nonlinear"), n["fpe.picard_max"]),
            ("fpe.max_mass_drift", "mass", ("fpe.frozen", "fpe.nonlinear"), n["fpe.max_mass_drift"]),
            ("fpe.clipped_mass", "mass", ("fpe.frozen", "fpe.nonlinear"), n["fpe.clipped_mass"]),
            ("coefficients.calls", "count", (), c["coefficients"]),
            ("coefficients.rows", "rows", (), n["coefficients.rows"]),
            ("coefficients.s", "s", (), s["coefficients"]),
            ("particles.mkv.s", "s", ("particles.mkv",), s["particles.mkv"]),
            ("particles.frozen.s", "s", ("particles.frozen",), s["particles.frozen"]),
            ("particles.particle_steps", "count", ("particles.mkv", "particles.frozen"), p_steps),
            ("particles.self_s", "s", ("particles.mkv", "particles.frozen"), p_self),
            ("particles.ns_per_particle_step", "ns", ("particles.mkv", "particles.frozen"),
             1e9 * ratio(p_self, p_steps)),
            ("measures.kde.calls", "count", ("measures.kde",), c["measures.kde"]),
            ("measures.kde.s", "s", ("measures.kde",), s["measures.kde"]),
            ("measures.bandwidth.calls", "count", ("measures.bandwidth",), c["measures.bandwidth"]),
            ("measures.bandwidth.s", "s", ("measures.bandwidth",), s["measures.bandwidth"]),
            ("measures.w2.calls", "count", ("measures.w2",), c["measures.w2"]),
            ("measures.w2.s", "s", ("measures.w2",), s["measures.w2"]),
            ("ergodicity.study.s", "s", ("ergodicity.study",), s["ergodicity.study"]),
            ("ergodicity.self_s", "s", ("ergodicity.study",), own["ergodicity.study"]),
            ("lifted.ck.s", "s", ("lifted.ck",), s["lifted.ck"]),
            ("lifted.kernel_evals", "count", ("lifted.kernel",), c["lifted.kernel"]),
            ("lifted.self_s", "s", ("lifted.ck", "lifted.kernel"), own["lifted.ck"] + own["lifted.kernel"]),
            ("feynman_kac.grid.calls", "count", ("feynman_kac.grid",), c["feynman_kac.grid"]),
            ("feynman_kac.grid.s", "s", ("feynman_kac.grid",), s["feynman_kac.grid"]),
            ("feynman_kac.grid.self_s", "s", ("feynman_kac.grid",), own["feynman_kac.grid"]),
        ]
        return {
            name: (float(value), unit)
            for name, unit, needs, value in table
            if not any(span in self.missing for span in needs)
        }
