"""Print the output digest of one pass of each benchmark workload.

    python tools/digests.py [--seed N]

Builds each workload of ``perfbench/workloads.py`` (at ``--seed N``, or at
the workload's own default seed) and runs one untraced pass of it, with
mvlab imported from ``src/`` next to this directory. Prints one
``workload seed sha256 checks-ok`` line per workload, where ``sha256`` is
the pass's ``PassResult.digest()`` (the digest ``perfbench/run.py`` records
per pass) and ``checks-ok`` is ``ok`` when every check of the pass passed,
else ``failed``. Exits 1 if a check failed. The benchmark files are only
imported: no bytecode cache is written next to them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed of every workload (default: each workload's own)")
    args = ap.parse_args(argv)
    all_ok = True
    for name, workload in WORKLOADS.items():
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        result = workload.run(workload.build(seed), lambda cs: cs)
        ok = all(c.ok for c in result.checks)
        all_ok &= ok
        print(f"{name} {seed} {result.digest()} {'ok' if ok else 'failed'}", flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
