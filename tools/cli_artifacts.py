"""Run every command line experiment on a small config and print the
SHA-256 of each file it writes.

    PYTHONPATH=src python tools/cli_artifacts.py OUT

Runs each experiment with the `meanfield-ou` and `nldbm-arctan`
families (`ergodicity` with `meanfield-ou` only), 15 runs in all, through
``mvlab.cli.main`` with ``--seed 7``. Each run writes to ``OUT/<run>/``.
The script prints one ``sha256  run/file`` line per artifact, sorted by
run and file, and exits 1 if a run does not exit 0. Two checkouts that write the same bytes
give the same output, so one ``diff`` of the two outputs compares them.
Uses the standard library and ``mvlab``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from mvlab import cli

FAMILIES = {
    "meanfield-ou": {"family": "meanfield-ou", "lambda0": 1.0, "kappa0": 0.5, "sigma0": 1.0},
    "nldbm-arctan": {"family": "nldbm-arctan", "C": 1.0, "alpha": 0.5},
}
NUMERICS = {"dt": 2e-3, "dx": 0.02, "x_min": -8.0, "n_cells": 800, "horizon": 0.2,
            "n_particles": 500, "record_every": 50, "quad_points": 16, "n_boot": 10}
EXPERIMENTS = ("simulate-mkv", "solve-fpe", "frozen-compare", "check-ck", "feynman-kac",
               "gradient-check", "validate-hypotheses")


def configs():
    """(run name, config) of each run."""
    for experiment in EXPERIMENTS:
        for name, family in FAMILIES.items():
            yield f"{experiment}-{name}", {
                "experiment": experiment, "seed": 11, "coefficients": family,
                "numerics": NUMERICS,
                "initial": {"kind": "gaussian", "mean": 1.0, "var": 0.25},
            }
    yield "ergodicity-meanfield-ou", {
        "experiment": "ergodicity", "seed": 11, "coefficients": FAMILIES["meanfield-ou"],
        "numerics": {**NUMERICS, "horizon": 2.0, "checkpoints": 5, "n_particles": 800},
    }


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    runs, failed = dict(configs()), []
    for run, cfg in runs.items():
        path = out / f"{run}.json"
        path.write_text(json.dumps(cfg))
        if cli.main(["run", str(path), "--out", str(out / run), "--seed", "7"]) != 0:
            failed.append(run)
    for run in sorted(runs):
        for f in sorted((out / run).glob("*")):
            print(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {run}/{f.name}")
    if failed:
        print(f"runs that did not exit 0: {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1])))
