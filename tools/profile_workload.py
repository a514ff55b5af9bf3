#!/usr/bin/env python3
"""cProfile over one repetition of a pipeline-benchmark workload.

    python tools/profile_workload.py WORKLOAD [--seed N] [--sort cumulative|tottime]
        [--limit 40] [--match REGEX]

Generates the workload's traffic and builds its objects outside the profile
(``setup()`` then ``build()``, exactly as a benchmark repetition does), then
profiles one call of ``run()`` and prints the ``pstats`` table, so a "where the
time goes" figure is reproduced by one command.  ``--match REGEX`` keeps only
the rows whose ``file:line(function)`` matches, as ``print_stats(regex)`` does
(applied before ``--limit``).  The workloads are imported
read-only from ``benchmarks/pipeline/``; nothing there is written.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "pipeline")]

from pipebench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative")
    parser.add_argument("--limit", type=int, default=40)
    parser.add_argument(
        "--match", metavar="REGEX", help="print only the rows whose function matches REGEX"
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    rig = workload.build()
    profiler = cProfile.Profile()
    repetition = profiler.runcall(workload.run, rig)
    if repetition.failures:
        print("\n".join(f"CHECK FAILED: {failure}" for failure in repetition.failures))
    restrictions = [args.limit] if args.match is None else [args.match, args.limit]
    pstats.Stats(profiler, stream=sys.stdout).sort_stats(args.sort).print_stats(*restrictions)
    return 1 if repetition.failures else 0


if __name__ == "__main__":
    sys.exit(main())
