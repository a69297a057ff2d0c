"""Benchmark driver for the elastiq toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 it times the workload's CLI
stages as fresh `python -m elastiq.cli` processes, repeating whole passes
over the workload's seeded models for --seconds (every model at least
twice), serves the workload's profiles in-process between the commands,
and prints the end-to-end metrics. With --trace 1 it runs the same stages
in-process through cli.main, plain and with every public elastiq function
wrapped in a span, and prints the per-layer metrics. The last stdout line
is one JSON object; the exit code is 1 when an output check failed, 2 when
there is no src/elastiq. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS must see these before numpy is first imported, here and in children
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    from workloads import NAMES
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "elastiq" / "__init__.py").is_file():
        print(f"error: no elastiq package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    import harness
    out_dir = ROOT / ".bench_out" / f"{args.workload}-trace{args.trace}"
    if args.trace:
        import tracing
        return tracing.traced_run(args.workload, args.seed, out_dir)
    return harness.timed_run(args.workload, args.seed, args.seconds, out_dir)


if __name__ == "__main__":
    sys.exit(main())
