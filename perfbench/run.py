"""mvlab benchmark driver.

    python3 perfbench/run.py --workload ck_fk_ou [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Runs one workload as a closed loop (one caller, one process): checked passes
back to back for ``--seconds``, never starting a pass that the last pass's
duration says would end after it, but always at least one (two when traced).
Set-up probes (fresh interpreters that import mvlab and build the inputs) run
in batches after the passes, inside the same time budget, so that they see
the same machine as the passes. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` (checks count as
operations) and ``metrics``:

- ``--trace 0``: end-to-end ``wall_s`` and ``cpu_s`` (medians over passes),
  ``setup_s`` (median over the set-up probes), ``peak_rss_mb`` (through
  the first pass);
- ``--trace 1``: per-layer metrics from ``tracing.py``. Passes alternate
  untraced and traced, so the same run gives the tracing overhead and
  compares the outputs of both kinds of pass bit for bit.

``--workload all`` runs every workload in its own process and prints a table.
mvlab is imported from ``src/`` next to this directory; nothing is installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ck_fk_ou", "mkv_nldbm", "decay_ou")
SETUP_SAMPLES = 9
SETUP_BATCH = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
    "OMP_WAIT_POLICY", "OMP_PROC_BIND",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance seed)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = {k: v for k, v in os.environ.items()
             if "THREAD" in k or k.startswith(("OMP_", "OPENBLAS", "GOTO", "MKL_"))}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {**{k: None for k in THREAD_VARS}, **found},
    }


def probe_setup(args, n: int) -> list[float]:
    """Seconds from launching a fresh interpreter until it has imported mvlab
    and built the workload's inputs, for each of ``n`` interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                child.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


def run_pass(workload, inputs, tracer):
    """One checked pass. Returns (wall s, cpu s, result or None)."""
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = workload.run(inputs, lambda cs: cs)
        else:
            with tracer.patched():
                result = workload.run(inputs, tracer.coefficients)
    except Exception:  # a failed pass counts all its checks as failed
        traceback.print_exc()
        result = None
    return time.perf_counter() - t0, time.process_time() - c0, result


def run_workload(args) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    n_setup = 0 if args.trace else SETUP_SAMPLES
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
        wall, cpu, result = run_pass(workload, inputs, tracer)
        passes.append({
            "traced": tracer is not None,
            "wall_s": wall,
            "cpu_s": cpu,
            "checks": None if result is None else
                      {c.name: [c.value, c.limit, c.ok] for c in result.checks},
            "failed": workload.n_checks if result is None else
                      sum(not c.ok for c in result.checks),
            "sha256": None if result is None else result.digest(),
            "layers": None if tracer is None else tracer.metrics(),
            "missing_layers": None if tracer is None else tracer.missing,
            "peak_rss_mb": peak_rss_mb(),
        })
        t_probe = time.perf_counter()
        setup += probe_setup(args, min(SETUP_BATCH, n_setup - len(setup)))
        probe_s = time.perf_counter() - t_probe
        # stop before a pass that would end past the budget, judged by the last
        if (time.perf_counter() - start + probe_s + wall > args.seconds
                and len(passes) >= 1 + args.trace):
            break
    setup += probe_setup(args, n_setup - len(setup))
    return {"passes": passes, "setup_samples_s": setup}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def summarize(args, n_checks, run) -> dict:
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        layers = {}
        for name, (_, unit) in traced[0]["layers"].items():
            value = statistics.median(p["layers"][name][0] for p in traced)
            layers[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        digests = {p["sha256"] for p in passes}
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        layers["trace.outputs_identical"] = {
            "value": float(len(digests) == 1 and None not in digests), "unit": "flag"}
        metrics = layers
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(run["setup_samples_s"]), "unit": "s"},
            # through the first pass: later passes can raise the peak by an
            # amount that differs from run to run
            "peak_rss_mb": {"value": passes[0]["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": failed == 0,
        "attempted": len(passes) * n_checks,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process; a table on stdout, then the combined
    result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"{name}: {res['attempted'] - res['failed']}/{res['attempted']} checks passed")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvlab" / "__init__.py").is_file():
        print(f"error: mvlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import DEFAULT_SEEDS, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.setup_probe:
        WORKLOADS[args.workload].build(args.seed)
        print("ready", flush=True)
        return 0

    run = run_workload(args)
    result = summarize(args, WORKLOADS[args.workload].n_checks, run)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), **run,
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
