"""Command line of the pipeline benchmark (see ``README.md`` beside ``run.py``).

``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
workload in this process and prints every metric by name and unit, then one
JSON result object as the last line.  ``--workload all`` runs every workload
timed and traced, each in a process of its own so ``peak_rss_mb`` is per
workload.  ``run.py compare A B`` judges two recorded sets.
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
from pathlib import Path
from typing import List

from repro.columns import backend as column_backend

from pipebench import compare
from pipebench.layers import span_metrics
from pipebench.tracing import Tracer
from pipebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
SCHEMA = "pipebench/v1"
SETUPS = 3  # set-ups per timed run; setup_s is their median
MIN_REPS = 3  # repetitions a run makes however short --seconds is
MIN_CYCLES = 2  # plain/traced repetition pairs of a traced run


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_rev() -> str:
    """HEAD of the checkout, read from its own ``.git`` only (a benchmark
    checkout is not a repository, and nothing above it is consulted)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text(encoding="utf-8").strip()
        return text
    except OSError:
        return "unknown"


def environment(args, workload) -> dict:
    """Where and how this run was made — only settings the runner read."""
    numpy_version = getattr(column_backend.np, "__version__", None)
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": "numpy" if column_backend.using_numpy() else "stdlib",
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),  # read by repro.columns
        "executor": "sequential",
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "sizes": workload.sizes,
    }


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _collect_failures(reps, failures: List[str]) -> None:
    """Failed checks of a set of like repetitions (same build, same inputs)."""
    for index, rep in enumerate(reps):
        failures.extend(f"rep {index}: {failure}" for failure in rep.failures)
    if len({rep.sim_mdesc_s for rep in reps}) > 1:
        failures.append(
            f"simulated rate did not repeat bit-for-bit: {[rep.sim_mdesc_s for rep in reps]}"
        )


def measure_timed(workload, seconds: float) -> dict:
    """Tracing off: the end-to-end metrics, each with its per-rep samples."""
    setup_s = []
    for _ in range(SETUPS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    reps = []
    began = time.perf_counter()
    cost = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - began + cost <= seconds:
        gc.collect()
        start = time.perf_counter()
        rig = workload.build()
        reps.append(workload.run(rig))
        del rig
        cost = time.perf_counter() - start
    segment_ms = [ns / 1e6 for rep in reps for ns in rep.segment_ns]
    samples = {
        "setup_s": setup_s,
        "ingest_kdesc_s": [rep.offered * 1e6 / rep.ingest_ns for rep in reps],
        "report_ms": [rep.report_ns / 1e6 for rep in reps],
        "recover_ms": [rep.recover_ns / 1e6 for rep in reps],
    }
    values = {name: statistics.median(series) for name, series in samples.items()}
    values["segment_ms_p90"] = _p90(segment_ms)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["segment_ms_p90"] = segment_ms
    failures: List[str] = []
    _collect_failures(reps, failures)
    return {
        "values": values,
        "samples": samples,
        "reps": len(reps),
        "attempted": sum(rep.offered for rep in reps),
        "failed": sum(rep.failed_ops for rep in reps),
        "failures": failures,
        "sim_mdesc_s": reps[0].sim_mdesc_s,
        "spans": None,
    }


def measure_traced(workload, seconds: float, names: List[str]) -> dict:
    """Tracing on: plain and traced repetitions interleaved (and, where the
    workload carries the obs plane, obs-off ones), then the standalone layer
    measurements.  Per-layer values are medians over the
    traced repetitions; a metric the workload never touches reads 0."""
    workload.setup()
    kinds = ["plain", "traced"]
    if workload.control_plane:
        kinds.append("bare")  # the same fleet with the obs plane off
    plain, traced, bare, books = [], [], [], []
    rig = spans = None
    cycles = 0
    began = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - began < seconds / 2:
        # Each cycle starts with another kind, so none always runs first.
        turn = cycles % len(kinds)
        for kind in kinds[turn:] + kinds[:turn]:
            gc.collect()
            if kind == "plain":
                plain.append(workload.run(workload.build()))
            elif kind == "bare":
                bare.append(workload.run(workload.build(obs=False)))
            else:
                tracer = Tracer()
                rig = workload.build()
                traced.append(workload.run(rig, tracer))
                spans = tracer.recorder.spans
                books.append(span_metrics(spans))
        cycles += 1

    def ingest_median(reps) -> float:
        return statistics.median(rep.ingest_ns for rep in reps)

    values = dict.fromkeys(names, 0.0)
    for name in books[0]:
        values[name] = statistics.median(book[name] for book in books)
    values.update(traced[-1].layer)
    values.update(workload.standalone_metrics(rig))
    values["trace.overhead_ratio"] = ingest_median(traced) / ingest_median(plain)
    if bare:
        values["obs.wall_ratio"] = ingest_median(plain) / ingest_median(bare)
    failures: List[str] = []
    _collect_failures(plain + traced, failures)
    _collect_failures(bare, failures)
    failures.extend(_span_tree_failures(spans))
    reps = plain + traced + bare
    return {
        "values": values,
        "samples": {
            "trace.overhead_ratio": [rep.ingest_ns / ingest_median(plain) for rep in traced],
            "obs.wall_ratio": [rep.ingest_ns / ingest_median(bare) for rep in plain] if bare else [],
        },
        "reps": len(reps),
        "attempted": sum(rep.offered for rep in reps),
        "failed": sum(rep.failed_ops for rep in reps),
        "failures": failures,
        "sim_mdesc_s": traced[0].sim_mdesc_s,
        "spans": spans,
    }


def _span_tree_failures(spans) -> List[str]:
    """The spans of a repetition must form one tree under ``driver``."""
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    failures = []
    if [span.name for span in roots] != ["driver"]:
        failures.append(f"span roots are {[span.name for span in roots]}, not one driver")
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if span.parent_id is not None and parent is None:
            failures.append(f"span {span.span_id} has no parent {span.parent_id}")
        elif parent is not None and not (
            parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns
        ):
            failures.append(f"span {span.span_id} ({span.name}) is not inside its parent")
    return failures


def run_workload(args) -> int:
    spec = load_spec()
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    env = environment(args, workload)
    if args.trace:
        measured = measure_traced(workload, args.seconds, list(units))
    else:
        measured = measure_timed(workload, args.seconds)
    failures = measured["failures"]
    # Every name BENCHMARK.json declares must have been measured: a missing
    # one is a KeyError here, and so a non-zero exit without a result.
    metrics = {
        name: {"value": measured["values"][name], "unit": unit} for name, unit in units.items()
    }
    share = measured["failed"] / measured["attempted"]
    correct = not failures and measured["failed"] == 0

    label = "scaled " if args.scale != 1.0 else ""
    print(f"# {label}{args.workload} seed={args.seed} trace={args.trace} reps={measured['reps']}")
    for name, metric in metrics.items():
        count = len(measured["samples"].get(name, ()))
        note = f"  (n={count})" if count else ""
        print(f"{name} {metric['value']!r} {metric['unit']}{note}")
    print(f"failed_ops_share {share!r} ratio")
    print(f"sim_mdesc_s {measured['sim_mdesc_s']!r} Mdesc/s  (simulated, exact per seed)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.out:
        document = {
            "schema": SCHEMA,
            "workload": args.workload,
            "mode": "traced" if args.trace else "timed",
            "scaled": args.scale != 1.0,
            "env": env,
            "reps": measured["reps"],
            "metrics": {
                name: {**metric, "samples": measured["samples"].get(name, [])}
                for name, metric in metrics.items()
            },
            "failed_ops_share": share,
            "sim_mdesc_s": measured["sim_mdesc_s"],
            "correct": correct,
            "failures": failures,
        }
        out = Path(args.out)
        with out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(document, sort_keys=True) + "\n")
        if measured["spans"] is not None:
            lines = (
                json.dumps(
                    {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "name": span.name,
                        "start_ns": span.start_ns,
                        "end_ns": span.end_ns,
                        "segment_id": span.attrs["segment"],
                    }
                )
                for span in measured["spans"]
            )
            spans_path = out.with_name(f"{out.name}.{args.workload}.spans.jsonl")
            spans_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, timed then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(ROOT / "benchmarks" / "pipeline" / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale),
            ]
            if args.out:
                command += ["--out", args.out]
            status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    commands = parser.add_subparsers(dest="command")
    judge = commands.add_parser("compare", help="judge two recorded sets (A is the parent)")
    judge.add_argument("parent")
    judge.add_argument("change")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"],
                        help="measuring time of one run (fixed-size repetitions until it is used)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every size (smoke test only; output is labelled scaled)")
    parser.add_argument("--out", help="append this run's JSON document to FILE")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main(args.parent, args.change, load_spec())
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)
