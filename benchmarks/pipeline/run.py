#!/usr/bin/env python3
"""Entry point of the pipeline benchmark: ``python3 benchmarks/pipeline/run.py``.

Runs the program from the checkout's own ``src/`` (never an installed copy)
and exits non-zero, printing no result, where there is no program to measure.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

if not (SRC / "repro").is_dir():
    sys.exit(f"pipeline benchmark: no program to measure ({SRC / 'repro'} is missing)")
sys.path[:0] = [str(SRC), str(HERE)]

from pipebench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
