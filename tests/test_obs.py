"""Observability plane (ISSUE 6) — metrics, journal, exporters, integration.

The battery locks down:

* histogram bucket boundary semantics (inclusive ``le``, +Inf tail),
* the merge laws — merging per-shard metrics equals metering the
  concatenated stream — and the fail-before-mutate merge guards,
* journal sequence ordering and the JSONL round trip (gap detection),
* the Prometheus text exposition, parsed line by line,
* the disabled path being a no-op and the enabled path changing **no**
  simulated result: an obs-on cluster run yields byte-identical flow
  books and merged top-k versus obs-off,
* a failover scenario whose journal reproduces the coordinator's
  membership history exactly,
* the persist / trace / telemetry instrumentation hooks,
* the BENCH_<area>.json emitter and its schema validator.
"""

import json

import pytest

from repro.cluster import ClusterCoordinator
from repro.engine import ShardedFlowLUT
from repro.core.config import small_test_config
from repro.obs import (
    BenchSchemaError,
    Counter,
    EventJournal,
    Gauge,
    Histogram,
    JournalError,
    MetricError,
    MetricsRegistry,
    Observability,
    SNAPSHOT_SCHEMA,
    Stopwatch,
    default_ns_buckets,
    log_buckets,
    registry_snapshot,
    to_prometheus_text,
)
from repro.obs.bench import SCHEMA_TAG, emit_bench_result, load_bench_result, validate_bench_result
from repro.persist import dump_node_snapshot, load_node_snapshot
from repro.reporting import merged_top_k
from repro.telemetry import TelemetryConfig, TelemetryPipeline
from repro.trace.netflow import NetFlowV5Exporter
from repro.trace.pcap import build_pcap, parse_pcap
from repro.traffic import generate_scenario, scenario_descriptors


class FakeClock:
    """A deterministic ns clock: every read advances by ``step``."""

    def __init__(self, step: int = 100) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


# --------------------------------------------------------------------- #
# Buckets and histogram boundary semantics
# --------------------------------------------------------------------- #


def test_log_buckets_geometry_and_validation():
    bounds = log_buckets(256.0, 4.0, 5)
    assert bounds == (256.0, 1024.0, 4096.0, 16384.0, 65536.0)
    assert default_ns_buckets()[0] == 256.0
    assert len(default_ns_buckets()) == 19
    # One geometry spans stage timings to multi-second checkpoints.
    assert default_ns_buckets()[-1] > 4e9
    with pytest.raises(MetricError):
        log_buckets(0.0, 4.0, 3)
    with pytest.raises(MetricError):
        log_buckets(256.0, 1.0, 3)
    with pytest.raises(MetricError):
        log_buckets(256.0, 4.0, 0)


def test_histogram_bucket_boundaries_are_inclusive_upper_bounds():
    hist = Histogram("h", "", buckets=(10.0, 100.0))
    child = hist.labels()
    child.observe(10.0)   # == first bound: belongs to the 10.0 bucket
    child.observe(10.5)   # first value beyond it: next bucket
    child.observe(100.0)  # == second bound
    child.observe(101.0)  # beyond every bound: +Inf bucket
    assert child.buckets == [1, 2, 1]
    assert child.count == 4
    assert child.sum == pytest.approx(221.5)


def test_histogram_quantile_interpolates_within_buckets():
    hist = Histogram("h", "", buckets=(10.0, 100.0, 1000.0))
    for value in (5, 50, 500):
        hist.observe(value)
    # rank 1.5 lands mid-way through the (10, 100] bucket: 10 + 0.5 * 90.
    assert hist.quantile(0.5) == pytest.approx(55.0)
    # q=0 degenerates to the lower edge of the first occupied bucket.
    assert hist.quantile(0.0) == 0.0
    # q=1 is the top of the last occupied finite bucket.
    assert hist.quantile(1.0) == pytest.approx(1000.0)
    with pytest.raises(MetricError):
        hist.quantile(1.5)
    with pytest.raises(MetricError):
        hist.quantile(-0.1)


def test_histogram_quantile_boundary_cases():
    hist = Histogram("h", "", buckets=(10.0, 100.0, 1000.0))
    # A single observation: every quantile lives in its bucket.
    hist.observe(50)
    assert 10.0 <= hist.quantile(0.01) <= 100.0
    assert 10.0 <= hist.quantile(0.99) <= 100.0
    assert hist.quantile(1.0) == pytest.approx(100.0)
    # Mass in the +Inf bucket clamps to the largest finite bound instead
    # of reporting an infinite (useless) figure.
    hist.observe(5000)
    assert hist.quantile(1.0) == pytest.approx(1000.0)
    # Empty child: quantile of nothing is 0.
    empty = Histogram("e", "", buckets=(10.0,))
    assert empty.quantile(0.5) == 0.0


def test_histogram_rejects_bad_bucket_definitions():
    with pytest.raises(MetricError):
        Histogram("h", "", buckets=())
    with pytest.raises(MetricError):
        Histogram("h", "", buckets=(10.0, 10.0))
    with pytest.raises(MetricError):
        Histogram("h", "", buckets=(100.0, 10.0))


# --------------------------------------------------------------------- #
# Counter / gauge basics
# --------------------------------------------------------------------- #


def test_counter_labels_and_monotonicity():
    counter = Counter("c_total", "", ("node",))
    counter.inc(3, node="a")
    counter.labels(node="a").inc()
    counter.inc(2, node="b")
    assert counter.value(node="a") == 4
    assert counter.value(node="b") == 2
    with pytest.raises(MetricError):
        counter.inc(-1, node="a")
    with pytest.raises(MetricError):
        counter.inc(1, shard="a")  # wrong label name
    with pytest.raises(MetricError):
        counter.inc(1)  # missing label


def test_gauge_set_inc_dec():
    gauge = Gauge("g", "")
    gauge.set(5.0)
    gauge.inc(2.0)
    gauge.labels().dec(1.0)
    assert gauge.value() == 6.0


def test_metric_name_validation():
    with pytest.raises(MetricError):
        Counter("", "")
    with pytest.raises(MetricError):
        Counter("bad name", "")
    with pytest.raises(MetricError):
        Counter("bad-name", "")
    Counter("good_name:subsystem_total", "")  # colons and underscores are fine


# --------------------------------------------------------------------- #
# Merge laws: merged == metered-concatenated-stream
# --------------------------------------------------------------------- #


def test_counter_merge_equals_concatenated_stream():
    left, right, together = (Counter("c", "", ("node",)) for _ in range(3))
    for counter, node, amounts in (
        (left, "a", (1, 2, 3)),
        (right, "a", (10,)),
        (right, "b", (7,)),
    ):
        for amount in amounts:
            counter.inc(amount, node=node)
            together.inc(amount, node=node)
    left.merge(right)
    assert left.samples() == together.samples()


def test_histogram_merge_equals_concatenated_stream():
    bounds = (10.0, 100.0, 1000.0)
    left = Histogram("h", "", buckets=bounds)
    right = Histogram("h", "", buckets=bounds)
    together = Histogram("h", "", buckets=bounds)
    stream_a = [1, 15, 50, 200, 5000]
    stream_b = [9, 99, 999, 10**6]
    for value in stream_a:
        left.observe(value)
        together.observe(value)
    for value in stream_b:
        right.observe(value)
        together.observe(value)
    left.merge(right)
    merged_child, expected_child = left.labels(), together.labels()
    assert merged_child.buckets == expected_child.buckets
    assert merged_child.count == expected_child.count
    assert merged_child.sum == pytest.approx(expected_child.sum)


def test_registry_merge_is_all_or_nothing():
    fleet = MetricsRegistry()
    fleet.counter("shared_total", "", labels=("node",)).inc(5, node="a")
    fleet.histogram("lat_ns", "", buckets=(10.0, 100.0)).observe(7)

    incompatible = MetricsRegistry()
    incompatible.counter("shared_total", "", labels=("node",)).inc(9, node="b")
    # Same name, different geometry: the merge must refuse...
    incompatible.histogram("lat_ns", "", buckets=(1.0, 2.0)).observe(1)
    with pytest.raises(MetricError):
        fleet.merge(incompatible)
    # ...and must not have half-applied the compatible families first:
    # the incompatible registry's "b" child never appears.
    assert fleet.counter("shared_total", "", labels=("node",)).samples() == [
        ({"node": "a"}, 5)
    ]


def test_registry_merge_adopts_copies_of_new_families():
    fleet = MetricsRegistry()
    node = MetricsRegistry()
    node.counter("only_on_node_total", "").inc(3)
    fleet.merge(node)
    assert fleet.counter("only_on_node_total", "").value() == 3
    # The adopted family is a copy: mutating the source later leaves the
    # fleet registry untouched.
    node.counter("only_on_node_total", "").inc(100)
    assert fleet.counter("only_on_node_total", "").value() == 3


def test_family_merge_guards_raise_before_mutating():
    counter = Counter("x", "", ("node",))
    counter.inc(1, node="a")
    other_labels = Counter("x", "", ("shard",))
    with pytest.raises(MetricError):
        counter.merge(other_labels)
    other_name = Counter("y", "", ("node",))
    with pytest.raises(MetricError):
        counter.merge(other_name)
    gauge = Gauge("x", "", ("node",))
    with pytest.raises(MetricError):
        counter.merge(gauge)
    assert counter.value(node="a") == 1


def test_registry_get_or_create_conflicts():
    registry = MetricsRegistry()
    registry.counter("a_total", "")
    with pytest.raises(MetricError):
        registry.gauge("a_total", "")
    with pytest.raises(MetricError):
        registry.counter("a_total", "", labels=("node",))
    registry.histogram("h_ns", "", buckets=(1.0, 2.0))
    with pytest.raises(MetricError):
        registry.histogram("h_ns", "", buckets=(3.0, 4.0))
    # Re-asking with identical shape returns the same family object.
    assert registry.counter("a_total", "") is registry.counter("a_total", "")


# --------------------------------------------------------------------- #
# Timing on a fake clock
# --------------------------------------------------------------------- #


def test_timer_span_is_exact_under_fake_clock():
    clock = FakeClock(step=100)
    registry = MetricsRegistry(clock=clock)
    with registry.timer("span_ns", "", stage="steer") as span:
        pass  # enter reads once, exit reads once: exactly one step apart
    assert span.elapsed_ns == 100
    hist = registry.get("span_ns")
    assert hist.labels(stage="steer").count == 1
    assert hist.labels(stage="steer").sum == 100.0


def test_stopwatch_on_fake_clock():
    clock = FakeClock(step=7)
    watch = Stopwatch(clock)
    assert watch.elapsed_ns == 7
    watch.restart()
    assert watch.elapsed_ns == 7
    assert Stopwatch(FakeClock(step=2_000_000_000)).elapsed_s == pytest.approx(2.0)


# --------------------------------------------------------------------- #
# Event journal
# --------------------------------------------------------------------- #


def test_journal_sequence_numbers_are_gapless_and_ordered():
    journal = EventJournal(clock=FakeClock())
    journal.record("join", node="a")
    journal.record("checkpoint_write", node="a", size_bytes=128)
    journal.record("failure", node="a", lost=3)
    assert [event.seq for event in journal] == [0, 1, 2]
    assert [event.ts_ns for event in journal] == sorted(e.ts_ns for e in journal)
    assert [event.kind for event in journal.membership()] == ["join", "failure"]
    assert journal.events("checkpoint_write")[0].fields == {"size_bytes": 128}
    assert len(journal) == 3
    with pytest.raises(JournalError):
        journal.record("")


def test_journal_jsonl_round_trip(tmp_path):
    journal = EventJournal(clock=FakeClock())
    journal.record("join", node="n0")
    journal.record("migration", migrated=5, lost=0)
    journal.record("leave", node="n0")
    path = journal.write_jsonl(tmp_path / "journal.jsonl")
    restored = EventJournal.read_jsonl(path)
    assert [e.to_json() for e in restored] == [e.to_json() for e in journal]
    assert [e.kind for e in restored.membership()] == ["join", "leave"]


def test_journal_jsonl_detects_gaps_and_damage():
    journal = EventJournal(clock=FakeClock())
    journal.record("join", node="a")
    journal.record("leave", node="a")
    lines = journal.to_jsonl().splitlines()
    with pytest.raises(JournalError):
        EventJournal.from_jsonl("\n".join(lines[1:]))  # dropped first line
    with pytest.raises(JournalError):
        EventJournal.from_jsonl("not json\n")
    with pytest.raises(JournalError):
        EventJournal.from_jsonl(json.dumps({"seq": 0, "kind": "join"}) + "\n")


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #


def _tiny_registry() -> MetricsRegistry:
    registry = MetricsRegistry(clock=FakeClock())
    registry.counter("req_total", "Requests", labels=("node",)).inc(3, node="a")
    registry.counter("req_total", "Requests", labels=("node",)).inc(1, node="b")
    registry.gauge("live", "Live flows").set(12.5)
    hist = registry.histogram("lat_ns", "Latency", buckets=(10.0, 100.0))
    hist.observe(5)
    hist.observe(50)
    hist.observe(5000)
    return registry


def test_prometheus_text_line_by_line():
    text = to_prometheus_text(_tiny_registry())
    lines = text.splitlines()
    assert lines == [
        "# HELP lat_ns Latency",
        "# TYPE lat_ns histogram",
        'lat_ns_bucket{le="10"} 1',
        'lat_ns_bucket{le="100"} 2',
        'lat_ns_bucket{le="+Inf"} 3',
        "lat_ns_sum 5055",
        "lat_ns_count 3",
        "# HELP live Live flows",
        "# TYPE live gauge",
        "live 12.5",
        "# HELP req_total Requests",
        "# TYPE req_total counter",
        'req_total{node="a"} 3',
        'req_total{node="b"} 1',
    ]
    assert text.endswith("\n")


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("c_total", "", labels=("path",)).inc(1, path='a"b\\c\nd')
    line = to_prometheus_text(registry).splitlines()[-1]
    assert line == 'c_total{path="a\\"b\\\\c\\nd"} 1'


def _parse_prometheus_sample(line):
    """A tiny exposition-format line parser reversing the label escaping."""
    name, rest = line.split("{", 1) if "{" in line else (line.split(" ", 1)[0], None)
    if rest is None:
        return name, {}, float(line.split(" ", 1)[1])
    body, value = rest.rsplit("} ", 1)
    labels = {}
    index = 0
    while index < len(body):
        eq = body.index('="', index)
        key = body[index:eq]
        cursor = eq + 2
        out = []
        while True:
            char = body[cursor]
            if char == "\\":
                escape = body[cursor + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}[escape])
                cursor += 2
            elif char == '"':
                cursor += 1
                break
            else:
                out.append(char)
                cursor += 1
        labels[key] = "".join(out)
        index = cursor + 1 if cursor < len(body) and body[cursor] == "," else cursor
    return name, labels, float(value)


def test_prometheus_escaping_round_trips_through_a_parser():
    registry = MetricsRegistry()
    nasty = {
        "plain": "value",
        "quotes": 'say "hi"',
        "slashes": "a\\b\\\\c",
        "newlines": "line1\nline2",
        "mixed": '\\"\n\\"',
        "empty": "",
    }
    counter = registry.counter("edge_total", "", labels=("case", "payload"))
    for case, payload in nasty.items():
        counter.inc(1, case=case, payload=payload)
    sample_lines = [
        line for line in to_prometheus_text(registry).splitlines()
        if not line.startswith("#")
    ]
    seen = {}
    for line in sample_lines:
        name, labels, value = _parse_prometheus_sample(line)
        assert name == "edge_total"
        assert value == 1.0
        seen[labels["case"]] = labels["payload"]
    assert seen == nasty


def test_prometheus_empty_families_and_registry():
    # An empty registry renders as the empty string, not a stray newline.
    assert to_prometheus_text(MetricsRegistry()) == ""
    # A family with no children still announces itself (HELP/TYPE) so
    # scrapers learn the metadata before the first sample exists.
    registry = MetricsRegistry()
    registry.counter("later_total", "Appears later", labels=("node",))
    registry.gauge("g", "")
    text = to_prometheus_text(registry)
    assert text.splitlines() == [
        "# HELP g ",
        "# TYPE g gauge",
        "# HELP later_total Appears later",
        "# TYPE later_total counter",
    ]


def test_prometheus_output_order_is_deterministic():
    def build(order):
        registry = MetricsRegistry()
        for name in order:
            registry.counter(name, "", labels=("k",))
        registry.get("a_total").inc(1, k="z")
        registry.get("a_total").inc(1, k="a")
        registry.get("c_total").inc(1, k="m")
        return to_prometheus_text(registry)

    # Registration order and label-creation order never leak into the text.
    assert build(["b_total", "a_total", "c_total"]) == build(
        ["c_total", "b_total", "a_total"]
    )
    lines = build(["b_total", "a_total", "c_total"]).splitlines()
    sample_lines = [line for line in lines if not line.startswith("#")]
    assert sample_lines == sorted(sample_lines)


def test_registry_snapshot_schema():
    snapshot = registry_snapshot(_tiny_registry())
    assert snapshot["schema"] == SNAPSHOT_SCHEMA == "repro.obs/v1"
    by_name = {entry["name"]: entry for entry in snapshot["metrics"]}
    assert by_name["req_total"]["type"] == "counter"
    assert by_name["req_total"]["samples"] == [
        {"labels": {"node": "a"}, "value": 3},
        {"labels": {"node": "b"}, "value": 1},
    ]
    hist = by_name["lat_ns"]
    assert hist["buckets"] == [10.0, 100.0]
    assert hist["samples"][0]["counts"] == [1, 1, 1]  # raw, not cumulative
    assert hist["samples"][0]["count"] == 3
    # The snapshot is JSON-serialisable as-is.
    json.dumps(snapshot)


# --------------------------------------------------------------------- #
# Observability bundle
# --------------------------------------------------------------------- #


def test_observability_coerce_forms():
    assert Observability.coerce(None) is None
    assert Observability.coerce(False) is None
    fresh = Observability.coerce(True)
    assert isinstance(fresh, Observability)
    assert Observability.coerce(fresh) is fresh
    with pytest.raises(TypeError):
        Observability.coerce("yes")
    with pytest.raises(TypeError):
        Observability.coerce(MetricsRegistry())


def test_observability_shares_one_clock():
    obs = Observability(clock=FakeClock())
    obs.record("join", node="a")
    obs.metrics.counter("c_total", "").inc()
    assert obs.journal.clock is obs.metrics.clock is obs.clock
    assert obs.snapshot()["schema"] == SNAPSHOT_SCHEMA
    assert "c_total 1" in obs.prometheus_text()


# --------------------------------------------------------------------- #
# Engine integration: disabled no-op, enabled identical results
# --------------------------------------------------------------------- #


def _drive_engine(obs):
    descriptors = scenario_descriptors("zipf_mix", 400, seed=5)
    engine = ShardedFlowLUT(shards=2, config=small_test_config(), obs=obs)
    for offset in range(0, len(descriptors), 128):
        engine.process_batch(descriptors[offset : offset + 128])
    return engine


def test_disabled_obs_engine_keeps_no_instrumentation_state():
    engine = _drive_engine(obs=None)
    assert engine.obs is None
    assert engine.set_span_recorder(object()) is None  # no emit path to feed
    assert not any(name.startswith("_obs") for name in vars(engine))


def test_enabled_obs_engine_is_simulation_identical_and_metered():
    plain = _drive_engine(obs=None)
    registry = MetricsRegistry()
    metered = _drive_engine(obs=registry)

    # Identical simulated outcome, to the picosecond.
    assert (metered.hits, metered.misses, metered.new_flows) == (
        plain.hits, plain.misses, plain.new_flows
    )
    assert metered.elapsed_ps == plain.elapsed_ps

    # Per-shard ingest counters cover every descriptor exactly once.
    shard_counter = registry.get("repro_engine_shard_descriptors_total")
    assert sum(value for _, value in shard_counter.samples()) == metered.completed
    # Stage histograms saw every batch.
    stage_hist = registry.get("repro_engine_stage_ns")
    by_stage = {labels["stage"]: child for labels, child in stage_hist.samples()}
    assert set(by_stage) == {"hash", "steer", "probe", "pack", "telemetry"}
    for stage in ("hash", "steer", "probe", "pack"):
        assert by_stage[stage].count == metered.batches, stage
    assert by_stage["telemetry"].count == 0  # no on_batch consumer attached
    assert registry.get("repro_engine_batches_total").value() == metered.batches


def test_cluster_obs_on_vs_off_books_are_identical():
    def run(obs):
        coordinator = ClusterCoordinator(
            nodes=3,
            config=small_test_config(),
            telemetry_config=TelemetryConfig(heavy_hitter_capacity=4096),
            telemetry_seed=11,
            obs=obs,
        )
        descriptors = scenario_descriptors("node_failover", 900, seed=11)
        coordinator.ingest(descriptors[:450])
        victim = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)
        coordinator.fail_node(victim)
        coordinator.ingest(descriptors[450:])
        return coordinator

    plain = run(obs=None)
    metered = run(obs=True)
    assert metered.flow_books() == plain.flow_books()
    assert merged_top_k(metered, 10) == merged_top_k(plain, 10)
    assert metered.cluster_totals() == plain.cluster_totals()
    # The disabled coordinator has no journal to expose.
    with pytest.raises(RuntimeError):
        plain.journal
    with pytest.raises(RuntimeError):
        plain.metrics_snapshot()


def test_failover_journal_reproduces_membership_history():
    coordinator = ClusterCoordinator(nodes=["n0", "n1", "n2"], telemetry_seed=3, obs=True)
    descriptors = scenario_descriptors("churn", 600, seed=3)
    coordinator.ingest(descriptors[:300])
    coordinator.add_node("n3")
    coordinator.fail_node("n1")
    coordinator.remove_node("n2")
    coordinator.ingest(descriptors[300:])

    # The journal's membership view mirrors the coordinator's own event
    # list exactly — kind for kind, node for node, in order.
    expected = [
        ("join" if e["event"] == "join" else "leave" if e["event"] == "leave" else "failure",
         e["node"])
        for e in coordinator.events
        if e["event"] in ("join", "leave", "failure")
    ]
    observed = [(event.kind, event.node) for event in coordinator.journal.membership()]
    assert observed == expected == [("join", "n3"), ("failure", "n1"), ("leave", "n2")]

    # And the journal round-trips losslessly for incident archival.
    restored = EventJournal.from_jsonl(coordinator.journal.to_jsonl())
    assert [(e.kind, e.node) for e in restored.membership()] == expected

    # Fleet export works end to end.
    text = coordinator.prometheus_text()
    assert 'repro_cluster_fleet{figure="nodes_alive"} 2' in text
    snapshot = coordinator.metrics_snapshot()
    assert snapshot["schema"] == SNAPSHOT_SCHEMA
    names = {entry["name"] for entry in snapshot["metrics"]}
    assert "repro_cluster_ingested_total" in names
    assert "repro_node_active_flows" in names
    assert "repro_telemetry_occupancy" in names


# --------------------------------------------------------------------- #
# Persist / trace / telemetry hooks
# --------------------------------------------------------------------- #


def test_persist_snapshot_metrics():
    coordinator = ClusterCoordinator(nodes=["a", "b"], telemetry_seed=7, obs=True)
    coordinator.ingest(scenario_descriptors("uniform_random", 300, seed=7))
    registry = coordinator.obs.metrics
    node = coordinator.nodes["a"]
    blob = dump_node_snapshot(node, obs=registry)
    load_node_snapshot(blob, obs=registry)

    frames = registry.get("repro_persist_frames_total")
    by_op = {labels["op"]: value for labels, value in frames.samples()}
    assert by_op["dump"] >= 1
    assert by_op["load"] >= 1
    size_hist = registry.get("repro_persist_bytes")
    assert all(child.sum >= len(blob) for _, child in size_hist.samples())
    duration = registry.get("repro_persist_ns")
    assert all(child.count >= 1 for _, child in duration.samples())


def test_trace_ingest_and_netflow_export_metrics():
    registry = MetricsRegistry()
    packets = generate_scenario("uniform_random", 80, seed=2)
    trace = parse_pcap(build_pcap(packets), obs=registry)
    frames = registry.get("repro_trace_frames_total")
    assert frames.value(result="converted") == trace.converted == 80
    assert registry.get("repro_trace_parse_ns").labels().count == 1
    assert registry.get("repro_trace_bytes_total").value() > 0

    exporter = NetFlowV5Exporter(obs=registry)
    from repro.core.flow_state import FlowStateTable

    table = FlowStateTable(timeout_us=50.0)
    flow_ids = {}
    for packet in packets:
        flow_id = flow_ids.setdefault(packet.key, len(flow_ids))
        table.update(flow_id, packet.key, packet.length_bytes,
                     packet.timestamp_ps, packet.tcp_flags)
    table.expire(now_ps=2**62)
    records = table.drain_exported()
    datagrams = exporter.export(records)
    assert registry.get("repro_netflow_records_total").value(engine="0") == len(records)
    assert registry.get("repro_netflow_datagrams_total").value(engine="0") == len(datagrams)
    assert registry.get("repro_netflow_bytes_total").value(engine="0") == sum(
        len(d) for d in datagrams
    )
    assert registry.get("repro_netflow_export_ns").labels().count == 1
    # Empty exports meter nothing.
    exporter.export([])
    assert registry.get("repro_netflow_export_ns").labels().count == 1


def test_telemetry_occupancy_gauges():
    pipeline = TelemetryPipeline(TelemetryConfig(), seed=1)
    pipeline.observe_packets(generate_scenario("zipf_mix", 500, seed=1))
    registry = MetricsRegistry()
    pipeline.record_occupancy(registry, node="x")
    occupancy = registry.get("repro_telemetry_occupancy")
    by_structure = {labels["structure"]: value for labels, value in occupancy.samples()}
    for structure in ("cm_packets", "cm_bytes", "heavy_hitters", "spreaders", "port_scanners"):
        assert structure in by_structure
        assert 0.0 <= by_structure[structure] <= 1.0
    assert by_structure["cm_packets"] > 0.0
    assert registry.get("repro_telemetry_packets").value(node="x") == 500
    # Occupancy mirrors the sketch's own stats() figure.
    assert by_structure["cm_packets"] == pytest.approx(
        pipeline.packet_counts.stats()["occupancy"]
    )


# --------------------------------------------------------------------- #
# BENCH emitter
# --------------------------------------------------------------------- #


def test_bench_emit_and_load_round_trip(tmp_path):
    path = emit_bench_result("unit_area", {"rate": 1.5}, directory=tmp_path)
    assert path == tmp_path / "BENCH_unit_area.json"
    doc = load_bench_result(path)
    assert doc["schema"] == SCHEMA_TAG
    assert doc["area"] == "unit_area"
    assert doc["results"] == {"rate": 1.5}
    assert isinstance(doc["git_rev"], str) and doc["git_rev"]


def test_bench_emit_merges_by_key(tmp_path):
    emit_bench_result("unit_area", {"a": 1, "b": 2}, directory=tmp_path)
    emit_bench_result("unit_area", {"b": 20, "c": 3}, directory=tmp_path)
    doc = load_bench_result(tmp_path / "BENCH_unit_area.json")
    assert doc["results"] == {"a": 1, "b": 20, "c": 3}


def test_bench_emit_replaces_corrupt_predecessor(tmp_path):
    target = tmp_path / "BENCH_unit_area.json"
    target.write_text("{ not json", encoding="utf-8")
    emit_bench_result("unit_area", {"a": 1}, directory=tmp_path)
    assert load_bench_result(target)["results"] == {"a": 1}


def test_bench_emit_can_embed_metrics_snapshot(tmp_path):
    snapshot = registry_snapshot(_tiny_registry())
    emit_bench_result("unit_area", {"a": 1}, directory=tmp_path, metrics=snapshot)
    doc = load_bench_result(tmp_path / "BENCH_unit_area.json")
    assert doc["metrics"]["schema"] == SNAPSHOT_SCHEMA
    # A later emission without metrics keeps the embedded snapshot.
    emit_bench_result("unit_area", {"b": 2}, directory=tmp_path)
    assert load_bench_result(tmp_path / "BENCH_unit_area.json")["metrics"] == doc["metrics"]


def test_bench_validator_names_the_offence():
    good = {
        "schema": SCHEMA_TAG,
        "area": "x",
        "created_unix": 0,
        "git_rev": "abc",
        "quick_mode": {},
        "results": {"a": 1},
    }
    validate_bench_result(good)
    for mutation, match in (
        ({"schema": "other/v9"}, "schema"),
        ({"area": "Bad-Area"}, "area"),
        ({"created_unix": "now"}, "created_unix"),
        ({"git_rev": ""}, "git_rev"),
        ({"quick_mode": {"K": 5}}, "quick_mode"),
        ({"results": {}}, "results"),
    ):
        broken = {**good, **mutation}
        with pytest.raises(BenchSchemaError, match=match):
            validate_bench_result(broken)
    with pytest.raises(BenchSchemaError, match="missing required key"):
        validate_bench_result({k: v for k, v in good.items() if k != "results"})
    with pytest.raises(BenchSchemaError):
        validate_bench_result([good])


def test_bench_env_quick_mode_capture(tmp_path, monkeypatch):
    monkeypatch.setenv("SHARDED_BENCH_PACKETS", "1600")
    monkeypatch.setenv("UNRELATED_VAR", "1")
    doc = load_bench_result(emit_bench_result("unit_area", {"a": 1}, directory=tmp_path))
    assert doc["quick_mode"].get("SHARDED_BENCH_PACKETS") == "1600"
    assert "UNRELATED_VAR" not in doc["quick_mode"]


def test_bench_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    path = emit_bench_result("unit_area", {"a": 1})
    assert path.parent == tmp_path


# --------------------------------------------------------------------- #
# BENCH trajectory history (v2) and the regression diff
# --------------------------------------------------------------------- #


def _pin_git_rev(monkeypatch, rev):
    import repro.obs.bench as bench_module

    monkeypatch.setattr(bench_module, "_git_rev", lambda directory: rev)


def test_bench_history_archives_previous_commit(tmp_path, monkeypatch):
    _pin_git_rev(monkeypatch, "commit_one")
    emit_bench_result("unit_area", {"rate": 100.0, "only_old": 1}, directory=tmp_path)
    _pin_git_rev(monkeypatch, "commit_two")
    path = emit_bench_result("unit_area", {"rate": 110.0}, directory=tmp_path)
    doc = load_bench_result(path)
    assert doc["schema"] == SCHEMA_TAG
    assert doc["git_rev"] == "commit_two"
    # The new entry does NOT inherit the old commit's results by key...
    assert doc["results"] == {"rate": 110.0}
    # ...they live in history instead, newest last.
    assert [entry["git_rev"] for entry in doc["history"]] == ["commit_one"]
    assert doc["history"][0]["results"] == {"rate": 100.0, "only_old": 1}
    # Same-commit emission still merges by key without growing history.
    emit_bench_result("unit_area", {"extra": 5}, directory=tmp_path)
    doc = load_bench_result(path)
    assert doc["results"] == {"rate": 110.0, "extra": 5}
    assert len(doc["history"]) == 1


def test_bench_history_is_bounded(tmp_path, monkeypatch):
    from repro.obs.bench import HISTORY_LIMIT

    for index in range(HISTORY_LIMIT + 5):
        _pin_git_rev(monkeypatch, f"commit_{index:03d}")
        emit_bench_result("unit_area", {"rate": float(index)}, directory=tmp_path)
    doc = load_bench_result(tmp_path / "BENCH_unit_area.json")
    history = doc["history"]
    assert len(history) == HISTORY_LIMIT
    # Oldest entries fell off the front; the newest survivors remain.
    assert history[-1]["git_rev"] == f"commit_{HISTORY_LIMIT + 3:03d}"
    validate_bench_result(doc)


def test_bench_v1_documents_still_load(tmp_path):
    from repro.obs.bench import SCHEMA_TAG_V1

    legacy = {
        "schema": SCHEMA_TAG_V1,
        "area": "unit_area",
        "created_unix": 1700000000,
        "git_rev": "old_rev",
        "quick_mode": {},
        "results": {"rate": 42.0},
    }
    target = tmp_path / "BENCH_unit_area.json"
    target.write_text(json.dumps(legacy), encoding="utf-8")
    assert load_bench_result(target)["schema"] == SCHEMA_TAG_V1
    # The next emission upgrades the file to v2 (archiving the v1 entry
    # when the commit changed).
    emit_bench_result("unit_area", {"rate": 50.0}, directory=tmp_path)
    doc = load_bench_result(target)
    assert doc["schema"] == SCHEMA_TAG
    if doc["git_rev"] != "old_rev":
        assert doc["history"][0]["git_rev"] == "old_rev"


def test_bench_validator_rejects_bad_history(tmp_path):
    from repro.obs.bench import HISTORY_LIMIT

    entry = {"created_unix": 0, "git_rev": "abc", "quick_mode": {}, "results": {"a": 1}}
    good = {
        "schema": SCHEMA_TAG,
        "area": "x",
        "created_unix": 0,
        "git_rev": "abc",
        "quick_mode": {},
        "results": {"a": 1},
        "history": [entry],
    }
    validate_bench_result(good)
    with pytest.raises(BenchSchemaError, match="history"):
        validate_bench_result({**good, "history": "not a list"})
    with pytest.raises(BenchSchemaError, match="history"):
        validate_bench_result({**good, "history": [entry] * (HISTORY_LIMIT + 1)})
    with pytest.raises(BenchSchemaError, match="git_rev"):
        validate_bench_result({**good, "history": [{**entry, "git_rev": ""}]})
    with pytest.raises(BenchSchemaError, match="missing"):
        validate_bench_result(
            {**good, "history": [{k: v for k, v in entry.items() if k != "results"}]}
        )


def test_bench_diff_flags_large_regressions(tmp_path, monkeypatch):
    from repro.obs.bench import diff_bench_result

    _pin_git_rev(monkeypatch, "before_rev")
    emit_bench_result(
        "unit_area",
        {"rate": 100.0, "steady": 10.0, "label": "text", "flag": True},
        directory=tmp_path,
    )
    _pin_git_rev(monkeypatch, "after_rev")
    path = emit_bench_result(
        "unit_area",
        {"rate": 60.0, "steady": 10.5, "label": "text2", "flag": False},
        directory=tmp_path,
    )
    report = diff_bench_result(load_bench_result(path))
    assert report["baseline_rev"] == "before_rev"
    assert report["quick_mode_matches"] is True
    by_key = {row["key"]: row for row in report["rows"]}
    # Numeric keys diff; strings and bools are skipped.
    assert set(by_key) == {"rate", "steady"}
    assert by_key["rate"]["change"] == pytest.approx(-0.4)
    assert report["flagged"] == ["rate"]
    # A tighter threshold flags the small move too.
    tight = diff_bench_result(load_bench_result(path), threshold=0.01)
    assert set(tight["flagged"]) == {"rate", "steady"}
    # No history -> nothing to diff.
    fresh = {
        "schema": SCHEMA_TAG, "area": "x", "created_unix": 0,
        "git_rev": "abc", "quick_mode": {}, "results": {"a": 1},
    }
    assert diff_bench_result(fresh)["baseline_rev"] is None


def test_bench_diff_cli(tmp_path, monkeypatch, capsys):
    from repro.obs.bench import _main

    _pin_git_rev(monkeypatch, "before_rev")
    emit_bench_result("unit_area", {"rate": 100.0}, directory=tmp_path)
    _pin_git_rev(monkeypatch, "after_rev")
    path = emit_bench_result("unit_area", {"rate": 10.0}, directory=tmp_path)
    # Informational by default: regressions are printed, exit code stays 0.
    assert _main(["diff", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rate: 100.0 -> 10.0" in out and "!!" in out
    # Opt-in tripwire.
    assert _main(["diff", "--fail-on-regression", str(path)]) == 1
    assert _main(["diff", "--threshold", "0.95", "--fail-on-regression", str(path)]) == 0
    assert _main(["validate", str(path)]) == 0
    assert _main([]) == 2
