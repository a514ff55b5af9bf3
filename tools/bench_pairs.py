#!/usr/bin/env python3
"""Interleaved parent/change runs of the pipeline benchmark.

    python tools/bench_pairs.py PARENT_REV [--workload W ...] [--pairs 10] [--seconds 12]

Checks ``PARENT_REV`` out into a temporary ``git worktree`` and runs
``benchmarks/pipeline/run.py --trace 0`` for the parent and for this checkout
(the change, uncommitted edits included) alternately: pair ``i`` uses seed
``i`` on both sides and the side that goes first swaps every pair, so a
neighbour that slows the host hits both.  The runs are appended to
``parent.jsonl`` / ``change.jsonl`` in a temporary directory (``--out-dir``
keeps them), judged by ``run.py compare``, and the pair wins per workload x
end-to-end metric are printed: a gain needs the change to win at least nine
tenths of the pairs (ties count for neither) on top of ``compare``'s verdict.

The tool drives the benchmark's command line only; it imports nothing from
``benchmarks/pipeline/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "pipeline" / "run.py"
SIDES = ("parent", "change")


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.DEVNULL)


def _measure(checkout: Path, workload: str, seed: int, seconds: float, out: Path) -> None:
    command = [
        sys.executable, str(checkout / RUNNER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--out", str(out),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode:
        sys.exit(f"bench_pairs: {' '.join(command)} failed:\n{done.stdout}{done.stderr}")


def _load(path: Path) -> dict:
    """``{(workload, seed): {metric: value}}`` of one recorded set."""
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        document = json.loads(line)
        values = {name: metric["value"] for name, metric in document["metrics"].items()}
        runs[document["workload"], document["env"]["seed"]] = values
    return runs


def pair_wins(parent: dict, change: dict, metrics: list) -> list:
    """One ``(workload, metric, change wins, parent wins, ties)`` row per cell."""
    rows = []
    for workload in dict.fromkeys(workload for workload, _ in parent):
        seeds = [seed for name, seed in parent if name == workload]
        for metric in metrics:
            name = metric["name"]
            sign = 1 if metric["better"] == "higher" else -1
            deltas = [
                sign * (change[workload, seed][name] - parent[workload, seed][name])
                for seed in seeds
            ]
            wins = sum(delta > 0 for delta in deltas)
            losses = sum(delta < 0 for delta in deltas)
            rows.append((workload, name, wins, losses, len(deltas) - wins - losses))
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out-dir", help="keep parent.jsonl / change.jsonl here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        out_dir = Path(args.out_dir).resolve() if args.out_dir else Path(scratch)
        if (ROOT / RUNNER).parent in (out_dir, *out_dir.parents):
            parser.error("--out-dir may not be under benchmarks/pipeline/")
        out_dir.mkdir(parents=True, exist_ok=True)
        outs = {side: out_dir / f"{side}.jsonl" for side in SIDES}
        for out in outs.values():
            out.write_text("", encoding="utf-8")  # a set holds this invocation's runs only
        worktree = Path(scratch) / "parent"
        _git("worktree", "add", "--detach", str(worktree), args.parent_rev)
        try:
            checkouts = {"parent": worktree, "change": ROOT}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for workload in args.workload or names:
                    for side in order:
                        _measure(checkouts[side], workload, pair + 1, args.seconds, outs[side])
                print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", flush=True)
        finally:
            _git("worktree", "remove", "--force", str(worktree))
            _git("worktree", "prune")

        judge = [sys.executable, str(ROOT / RUNNER), "compare", *map(str, outs.values())]
        status = subprocess.run(judge, check=False).returncode
        print(f"\npair wins over {args.pairs} pairs (change / parent / tie):")
        for workload, metric, wins, losses, ties in pair_wins(
            _load(outs["parent"]), _load(outs["change"]), spec["end_to_end"]
        ):
            print(f"  {workload:24s} {metric:16s} {wins:2d} / {losses:2d} / {ties:2d}")
        if args.out_dir:
            print(f"runs kept in {out_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
