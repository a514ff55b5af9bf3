"""Smoke test of the pipeline benchmark: every workload at 1/20 scale.

Runs each workload timed and traced once (module-scoped, in-process, minimum
repetitions) and holds the output to the contract in ``BENCHMARK.json``:
every metric printed by name with its unit, the output checks passing, the
spans forming one tree whose books close.  Scaled output is labelled and
``compare`` refuses it, so a smoke run can never be mistaken for a baseline.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from pipebench import cli, compare  # noqa: E402
from pipebench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = "0.05"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{(workload, trace): (exit status, stdout lines)}`` plus the out file."""
    out = tmp_path_factory.mktemp("pipebench") / "smoke.jsonl"
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli.main(
                    ["--workload", name, "--seed", "11", "--seconds", "0",
                     "--trace", str(trace), "--scale", SCALE, "--out", str(out)]
                )
            results[name, trace] = (status, stdout.getvalue().splitlines())
    return results, out


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit_and_checks_pass(runs, name, trace, group):
    status, lines = runs[0][name, trace]
    assert status == 0, "\n".join(lines)
    assert lines[0].startswith(f"# scaled {name} ")
    assert not [line for line in lines if line.startswith("CHECK FAILED")]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[1:] if len(line.split()) >= 3}
    for metric, unit in expected.items():
        assert printed.get(metric) == unit
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert any(line.startswith("env {") for line in lines)


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/pipeline"]


def test_every_layer_metric_is_live_on_some_workload(runs):
    live = set()
    for name in WORKLOADS:
        metrics = json.loads(runs[0][name, 1][1][-1])["metrics"]
        live |= {metric for metric, entry in metrics.items() if entry["value"]}
    # At 1/20 scale a node sees fewer flows than Space-Saving has counters.
    quiet_at_this_scale = {"telemetry.space_saving_evictions"}
    assert {m["name"] for m in SPEC["per_layer"]} - live - quiet_at_this_scale == set()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_form_one_tree_and_the_books_close(runs, name):
    out = runs[1]
    text = out.with_name(f"{out.name}.{name}.spans.jsonl").read_text(encoding="utf-8")
    spans = [json.loads(line) for line in text.splitlines()]
    by_id = {span["span_id"]: span for span in spans}
    assert [span["name"] for span in spans if span["parent_id"] is None] == ["driver"]
    for span in spans:
        assert set(span) == {"span_id", "parent_id", "name", "start_ns", "end_ns", "segment_id"}
        if span["parent_id"] is not None:
            parent = by_id[span["parent_id"]]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
    # The books close: self times (duration minus direct children) sum to
    # the traced wall, which is the root's duration.
    self_ns = {span["span_id"]: span["end_ns"] - span["start_ns"] for span in spans}
    for span in spans:
        if span["parent_id"] is not None:
            self_ns[span["parent_id"]] -= span["end_ns"] - span["start_ns"]
    root = next(span for span in spans if span["parent_id"] is None)
    assert sum(self_ns.values()) == root["end_ns"] - root["start_ns"]
    assert min(self_ns.values()) >= 0
    metrics = json.loads(runs[0][name, 1][1][-1])["metrics"]
    assert metrics["trace.spans"]["value"] == len(spans)
    assert metrics["trace.wall_s"]["value"] > 0


def test_telemetry_bypass_design_holds(runs):
    share = {
        name: json.loads(runs[0][name, 1][1][-1])["metrics"]["telemetry.ingest_share"]["value"]
        for name in WORKLOADS
    }
    assert share["full_zipf_k2"] > 0.5 and share["telemetry_uniform"] > 0.5
    assert share["lookup_uniform"] == share["control_plane_hotspot"] == 0
    assert share["paper_table2b_timed"] == 0


def test_compare_refuses_scaled_output(runs, capsys):
    out = str(runs[1])
    assert compare.main(out, out, SPEC) == 2
    assert "scaled" in capsys.readouterr().out


def _document(workload, values, correct=True, failed_share=0.0):
    return {
        "schema": cli.SCHEMA, "workload": workload, "mode": "timed", "scaled": False,
        "correct": correct, "failed_ops_share": failed_share, "failures": [],
        "env": {"seed": 11}, "sim_mdesc_s": 62.5,
        "metrics": {
            metric["name"]: {"value": values.get(metric["name"], 1.0), "unit": metric["unit"],
                             "samples": []}
            for metric in SPEC["end_to_end"]
        },
    }


def test_compare_verdicts(tmp_path, capsys):
    assert compare.verdict([100, 101, 102, 103], [100, 101, 102, 103], "lower", 0.1) == "same"
    assert compare.verdict([100, 101, 102, 103], [120, 121, 122, 123], "lower", 0.1) == "worse"
    assert compare.verdict([100, 101, 102, 103], [80, 81, 82, 83], "lower", 0.1) == "better"
    assert compare.verdict([100, 101, 102, 103], [80, 81, 82, 83], "higher", 0.1) == "worse"
    assert compare.verdict([60, 100, 140, 180], [70, 100, 150, 170], "lower", 0.1) == "unresolved"
    assert compare.verdict([60, 100, 140, 180], [10, 20, 30, 40], "lower", 0.1) == "better"

    def write(path, ingest, failed_share=0.0):
        lines = [
            json.dumps(_document("lookup_uniform", {"ingest_kdesc_s": value}, failed_share=failed_share))
            for value in ingest
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    parent = write(tmp_path / "a.jsonl", [100, 101, 102, 103])
    assert compare.main(parent, write(tmp_path / "b.jsonl", [100, 101, 102, 103]), SPEC) == 0
    assert compare.main(parent, write(tmp_path / "c.jsonl", [50, 51, 52, 53]), SPEC) == 1
    assert compare.main(parent, write(tmp_path / "d.jsonl", [100, 101, 102, 103], 0.01), SPEC) == 1
    table = capsys.readouterr().out
    assert "worse" in table and "ingest_kdesc_s" in table and "failed_ops_share" in table


def test_exits_non_zero_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "lookup_uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
