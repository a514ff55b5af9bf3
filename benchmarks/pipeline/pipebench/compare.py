"""``run.py compare A B``: judge a change (B) against its parent (A).

A and B are files written with ``--out`` — one JSON document per line, any
number of runs per workload.  One row per workload × end-to-end metric:
both medians and quartiles, the bound from ``BENCHMARK.json`` and a verdict.

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance ÷ median, the
  wider side) exceeds the bound, so a move of the bound's size cannot be
  seen; reported as ``better`` only if every run of B beats every run of A;
* ``better`` — B's median is better by more than A's own quartile distance;
* ``same`` — none of the above.

The spread is between *runs*: record several per side (ten, each at
another seed, is what the bounds were set against).  With one run per side
nothing can be called ``better`` or ``unresolved`` — only ``worse`` beyond
the bound, else ``same``.  ``failed_ops_share`` (absolute, may not rise) and the simulated
``sim_mdesc_s`` (deterministic per seed, compared exactly) get rows of their
own.  Scaled (smoke-test) documents are refused.  Exits non-zero on any
``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple


class CompareError(ValueError):
    """The two sets cannot be compared (scaled, failed, or disjoint)."""


def load_set(path: str) -> Dict[str, List[dict]]:
    """Timed run documents of one file, grouped by workload."""
    runs: Dict[str, List[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            document = json.loads(line)
            if document.get("scaled"):
                raise CompareError(f"{path}: scaled (smoke-test) output cannot be compared")
            if document["mode"] == "timed":
                runs.setdefault(document["workload"], []).append(document)
    if not runs:
        raise CompareError(f"{path}: no timed runs")
    return runs


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_low, p_med, p_high = _quartiles(parent)
    c_low, c_med, c_high = _quartiles(change)
    worse_by = sign * (c_med - p_med) / abs(p_med)
    spread = max((p_high - p_low) / abs(p_med), (c_high - c_low) / abs(c_med))
    if spread > bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if len(parent) > 1 and -sign * (c_med - p_med) > (p_high - p_low):
        return "better"
    return "same"


def main(parent_path: str, change_path: str, spec: dict) -> int:
    try:
        parent, change = load_set(parent_path), load_set(change_path)
    except CompareError as error:
        print(f"compare: {error}")
        return 2
    status = 0
    header = ("workload", "metric", "unit", "runs", "parent q1/med/q3", "change q1/med/q3",
              "bound", "verdict")
    rows = [header]
    for workload in parent:
        if workload not in change:
            print(f"compare: {workload} is missing from {change_path}")
            status = 2
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in parent[workload]]
            b = [run["metrics"][name]["value"] for run in change[workload]]
            result = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            rows.append(
                (
                    workload, name, metric["unit"], f"{len(a)}+{len(b)}",
                    "/".join(f"{value:.4g}" for value in _quartiles(a)),
                    "/".join(f"{value:.4g}" for value in _quartiles(b)),
                    f"{metric['bound']:.0%}", result,
                )
            )
        failed_before = max(run["failed_ops_share"] for run in parent[workload])
        failed_after = max(run["failed_ops_share"] for run in change[workload])
        rose = failed_after > failed_before
        rows.append(
            (workload, "failed_ops_share", "ratio", "", f"{failed_before:.4g}",
             f"{failed_after:.4g}", "0 abs", "worse" if rose else "same")
        )
        if rose or not all(run["correct"] for run in change[workload]):
            status = 1
        # Simulated figures are deterministic per seed: compared exactly, on
        # the seeds both sets ran.
        before = {run["env"]["seed"]: run["sim_mdesc_s"] for run in parent[workload]}
        after = {run["env"]["seed"]: run["sim_mdesc_s"] for run in change[workload]}
        for seed in sorted(set(before) & set(after)):
            fell = after[seed] < before[seed]
            moved = "worse" if fell else "better" if after[seed] > before[seed] else "same"
            rows.append(
                (workload, f"sim_mdesc_s[seed {seed}]", "Mdesc/s", "", f"{before[seed]:.6g}",
                 f"{after[seed]:.6g}", "exact", moved)
            )
            if fell:
                status = 1
    widths = [max(len(row[column]) for row in rows) for column in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return status
