"""Time-resolved observability (ISSUE 8) — windows, spans, alerts, report.

The battery locks down:

* tumbling-window geometry on the simulated ps clock: origin alignment,
  delta attribution, watermark monotonicity, activity-gated flush,
* the windowed JSONL round trip and the fleet-wide merge with the same
  fail-before-mutate guards as ``MetricsRegistry.merge``,
* engine integration: window closes are driven by *packet timestamps*
  (never the host wall clock) and window deltas reconcile exactly with
  the engine's own totals,
* hierarchical spans: parent/child causality on a fake ns clock, 1-in-N
  root sampling with wholesale subtree suppression, the emit API, the
  JSONL round trip (unique ids, resolvable parents), Chrome trace export,
* the full cluster span hierarchy ``ingest_batch -> steer -> node ->
  shard -> probe``,
* the alert engine: each rule kind on synthetic windows, onset/resolve/
  re-arm lifecycle, ``for_windows`` streaks, ``min_count`` gates,
* the shipped watchdogs scored against scenario ground truth: the
  imbalance rule fires inside ``hotspot_shift``'s scripted shift and
  never on steady-state ``zipf_mix``; ``failover_loss`` fires on a real
  failure,
* instrumentation neutrality: windows+spans+alerts change **no**
  simulated result,
* the ``python -m repro.obs.report`` renderer and CLI.
"""

import json

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.config import small_test_config
from repro.engine import ShardedFlowLUT
from repro.obs import (
    AlertEngine,
    AlertError,
    AlertRule,
    MetricsRegistry,
    Observability,
    SpanError,
    SpanRecorder,
    WindowError,
    WindowSnapshot,
    WindowedRegistry,
    default_cluster_rules,
    merge_window_series,
    spans_from_jsonl,
    to_chrome_trace,
    windows_from_jsonl,
    windows_to_jsonl,
)
from repro.obs.report import main as report_main, render_report
from repro.reporting import merged_top_k
from repro.traffic import scenario_descriptors

PS = 1_000_000_000_000  # one simulated second


class FakeClock:
    """A deterministic ns clock: every read advances by ``step``."""

    def __init__(self, step: int = 100) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


# --------------------------------------------------------------------- #
# Windowed registry geometry
# --------------------------------------------------------------------- #


def test_window_origin_aligns_and_deltas_attribute_to_first_close():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "").labels()
    windows = WindowedRegistry(registry, window_ps=1000)

    counter.inc(3)
    windows.advance(2500)  # first advance: aligns window 0 to [2000, 3000)
    assert windows.windows == []
    counter.inc(4)
    closed = windows.advance(3100)  # crosses one boundary
    assert [w.index for w in closed] == [0]
    window = closed[0]
    assert (window.start_ps, window.end_ps) == (2000, 3000)
    # Both increments (pre- and post-alignment) land in window 0.
    assert window.total("c_total") == 7.0
    assert window.values("c_total")[""] == 7.0
    # rate = delta / window seconds.
    sample = window.series["c_total"]["samples"][0]
    assert sample["rate_per_s"] == pytest.approx(7.0 * PS / 1000)


def test_window_advance_closes_later_crossed_windows_empty():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "").labels()
    windows = WindowedRegistry(registry, window_ps=100, start_ps=0)
    windows.advance(10)
    counter.inc(5)
    closed = windows.advance(350)  # crosses windows 0, 1, 2 at once
    assert [w.index for w in closed] == [0, 1, 2]
    assert closed[0].total("c_total") == 5.0
    assert closed[1].series == {} and closed[2].series == {}
    # The watermark never regresses: a stale timestamp is a no-op.
    assert windows.advance(200) == []
    assert windows.advance(349) == []


def test_window_flush_requires_activity_and_is_idempotent():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "").labels()
    gauge = registry.gauge("g", "")
    windows = WindowedRegistry(registry, window_ps=1000, start_ps=0)
    assert windows.flush() is None  # nothing ever advanced

    counter.inc(2)
    windows.advance(1500)  # closes window 0 with the delta
    partial = windows.flush()  # window 1 saw no counter activity
    assert partial is None
    assert len(windows.windows) == 1

    counter.inc(1)
    windows.advance(1600)
    # Gauges alone are not activity, but the counter delta is.
    gauge.set(9.0)
    assert windows.flush().total("c_total") == 1.0
    assert windows.flush() is None  # idempotent
    assert [w.index for w in windows.windows] == [0, 1]


def test_window_flush_preserves_watermark_for_stale_and_fresh_advances():
    """Regression (ISSUE 9): ``flush()`` used to forget the watermark.

    Simulated time does not run backwards because a window was finalised:
    after a flush, a stale ``advance()`` must still be dropped (no close,
    no mutation), a second flush must still see that time has moved (the
    old ``_watermark = None`` made it a silent no-op, losing the tail
    activity), and a genuinely fresh advance continues from where the
    flush left off.
    """
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "").labels()
    windows = WindowedRegistry(registry, window_ps=100, start_ps=0)
    counter.inc(3)
    windows.advance(250)  # closes 0 (delta 3) and 1 (empty)
    counter.inc(2)
    assert windows.flush().index == 2  # partial window 2, delta 2

    # flush -> flush: the watermark survived, so the straggler activity
    # below is flushable — with the watermark dropped this returned None
    # and window 3's activity silently vanished from the series.
    counter.inc(4)
    tail = windows.flush()
    assert tail is not None and tail.index == 3
    assert tail.total("c_total") == 4.0

    # flush -> stale advance: timestamps at or before the flushed
    # watermark are out-of-order samples — dropped exactly like the
    # pre-flush path, closing nothing and mutating nothing.
    assert windows.advance(180) == []
    assert windows.advance(250) == []
    assert len(windows.windows) == 4
    assert windows.flush() is None  # still no new activity to flush

    # flush -> fresh advance: closing resumes at the next window with the
    # delta accrued since the last close.
    counter.inc(1)
    closed = windows.advance(520)
    assert [w.index for w in closed] == [4]
    assert closed[0].start_ps == 400
    assert closed[0].total("c_total") == 1.0


def test_window_values_where_and_group_by():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "", labels=("node", "result"))
    counter.inc(3, node="a", result="hit")
    counter.inc(2, node="a", result="miss")
    counter.inc(5, node="b", result="hit")
    registry.histogram("h_ns", "", buckets=(10.0,)).observe(4)
    windows = WindowedRegistry(registry, window_ps=1000, start_ps=0)
    windows.advance(1)
    window = windows.advance(1001)[0]
    assert window.values("c_total", group_by="node") == {"a": 5.0, "b": 5.0}
    assert window.values("c_total", where={"result": "hit"}, group_by="node") == {
        "a": 3.0,
        "b": 5.0,
    }
    assert window.total("c_total", where={"node": "a"}) == 5.0
    # Histograms contribute their count delta; missing group label -> "".
    assert window.values("h_ns", group_by="node") == {"": 1.0}
    assert window.values("absent_metric") == {}


def test_window_rejects_bad_geometry():
    with pytest.raises(WindowError):
        WindowedRegistry(MetricsRegistry(), window_ps=0)
    with pytest.raises(WindowError):
        WindowedRegistry(MetricsRegistry(), window_ps=-5)


# --------------------------------------------------------------------- #
# Windowed JSONL round trip and fleet merge
# --------------------------------------------------------------------- #


def _drive_windows(increments):
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "", labels=("node",))
    hist = registry.histogram("h_ns", "", buckets=(10.0, 100.0))
    windows = WindowedRegistry(registry, window_ps=1000, start_ps=0)
    windows.advance(1)
    for index, (node, amount) in enumerate(increments, start=1):
        counter.inc(amount, node=node)
        hist.observe(amount)
        windows.advance(index * 1000 + 1)
    return windows


def test_windows_jsonl_round_trip(tmp_path):
    windows = _drive_windows([("a", 5), ("b", 50)])
    text = windows.to_jsonl()
    restored = windows_from_jsonl(text)
    assert [w.to_json() for w in restored] == [w.to_json() for w in windows.windows]
    path = tmp_path / "windows.jsonl"
    assert windows.write_jsonl(path) == len(windows.windows)
    from repro.obs import read_windows_jsonl

    assert [w.to_json() for w in read_windows_jsonl(path)] == [
        w.to_json() for w in windows.windows
    ]


def test_windows_jsonl_enforces_continuity():
    windows = _drive_windows([("a", 5), ("b", 50)])
    lines = windows.to_jsonl().splitlines()
    with pytest.raises(WindowError, match="expected window index 0"):
        windows_from_jsonl("\n".join(lines[1:]))
    with pytest.raises(WindowError, match="invalid JSON"):
        windows_from_jsonl("nope\n")
    with pytest.raises(WindowError, match="malformed"):
        windows_from_jsonl(json.dumps({"index": 0}) + "\n")


def test_merge_window_series_adds_and_stays_pure():
    left = _drive_windows([("a", 5), ("a", 7)]).windows
    right = _drive_windows([("a", 2), ("b", 200)]).windows
    before = windows_to_jsonl(left) + windows_to_jsonl(right)
    merged = merge_window_series(left, right)
    assert [w.index for w in merged] == [0, 1]
    assert merged[0].values("c_total", group_by="node") == {"a": 7.0}
    assert merged[1].values("c_total", group_by="node") == {"a": 7.0, "b": 200.0}
    # Histogram deltas add bucket-wise.
    entry = merged[0].series["h_ns"]["samples"][0]
    assert entry["count"] == 2 and entry["buckets"][0] == 2
    # Inputs were not mutated.
    assert windows_to_jsonl(left) + windows_to_jsonl(right) == before
    assert merge_window_series([]) == []


def test_merge_window_series_validates_everything_first():
    left = _drive_windows([("a", 5), ("a", 7)]).windows
    # Same indexes, different geometry in the SECOND window: the mismatch
    # must be caught before any output exists, not after window 0 merged.
    shifted = [
        left[0],
        WindowSnapshot(index=1, start_ps=999, end_ps=1999, series=left[1].series),
    ]
    with pytest.raises(WindowError, match="geometry"):
        merge_window_series(left, shifted)
    # Histogram bucket-bound mismatch is refused too.
    other = _drive_windows([("a", 5), ("a", 7)]).windows
    bad_series = json.loads(json.dumps(other[1].series))
    bad_series["h_ns"]["samples"][0]["bounds"] = [1.0, 2.0]
    bad = [
        other[0],
        WindowSnapshot(index=1, start_ps=1000, end_ps=2000, series=bad_series),
    ]
    with pytest.raises(WindowError, match="bounds"):
        merge_window_series(left, bad)


# --------------------------------------------------------------------- #
# Engine integration: simulated-time windows
# --------------------------------------------------------------------- #


def test_engine_windows_close_on_packet_timestamps():
    descriptors = scenario_descriptors("zipf_mix", 1200, seed=5)
    duration_ps = descriptors[-1].timestamp_ps - descriptors[0].timestamp_ps
    window_ps = duration_ps // 6
    obs = Observability(window_ps=window_ps)
    engine = ShardedFlowLUT(shards=2, config=small_test_config(), obs=obs)
    for offset in range(0, len(descriptors), 100):
        engine.process_batch(descriptors[offset : offset + 100])
    obs.flush_windows()
    windows = obs.windows.windows
    # The window count is set by the stream's simulated span, not by how
    # many batches or how much host time the run took.
    assert 6 <= len(windows) <= 8
    assert all(w.width_ps == window_ps for w in windows)
    # Window deltas reconcile exactly with the engine's own books.
    outcomes = {"hit": 0.0, "miss": 0.0, "new_flow": 0.0}
    for window in windows:
        for result, value in window.values(
            "repro_engine_outcomes_total", group_by="result"
        ).items():
            outcomes[result] += value
    assert outcomes == {
        "hit": float(engine.hits),
        "miss": float(engine.misses),
        "new_flow": float(engine.new_flows),
    }
    total = sum(w.total("repro_engine_shard_descriptors_total") for w in windows)
    assert total == float(engine.completed)


def test_engine_windows_false_suppresses_plane_windows():
    obs = Observability(window_ps=1000)
    engine = ShardedFlowLUT(
        shards=2, config=small_test_config(), obs=obs, windows=False
    )
    engine.process_batch(scenario_descriptors("zipf_mix", 200, seed=5))
    obs.flush_windows()
    assert obs.windows.windows == []


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


def test_span_tree_parent_child_on_fake_clock():
    recorder = SpanRecorder(clock=FakeClock(step=10), sample_every=1)
    with recorder.root("ingest_batch", packets=9):
        with recorder.span("steer"):
            pass
        with recorder.span("node", node="n0"):
            with recorder.span("shard"):
                pass
    by_name = {span.name: span for span in recorder.spans}
    root = by_name["ingest_batch"]
    assert root.parent_id is None
    assert root.attrs == {"packets": 9}
    assert by_name["steer"].parent_id == root.span_id
    assert by_name["node"].parent_id == root.span_id
    assert by_name["shard"].parent_id == by_name["node"].span_id
    # Children complete before the parent on the fake clock.
    assert by_name["shard"].end_ns < root.end_ns
    assert all(span.duration_ns > 0 for span in recorder.spans)
    summary = recorder.by_name()
    assert summary["ingest_batch"]["count"] == 1
    assert summary["ingest_batch"]["max_ns"] == root.duration_ns


def test_span_sampling_bounds_recorded_roots():
    recorder = SpanRecorder(clock=FakeClock(), sample_every=4)
    for _ in range(10):
        with recorder.root("ingest_batch"):
            with recorder.span("steer"):
                pass
    assert recorder.roots_seen == 10
    assert recorder.roots_sampled == 3  # roots 1, 5, 9
    roots = [s for s in recorder.spans if s.parent_id is None]
    assert len(roots) == 3
    # Suppression is wholesale: children of unsampled roots left nothing.
    assert len(recorder.spans) == 6
    # span() outside any root is inert.
    with recorder.span("orphan"):
        pass
    assert len(recorder.spans) == 6


def test_span_emit_and_batch_parent():
    recorder = SpanRecorder(clock=FakeClock(), sample_every=2)
    traced, parent = recorder.batch_parent()
    assert traced and parent is None
    root_id = recorder.emit("ingest_batch", 100, 900, parent_id=None, packets=4)
    recorder.emit("steer", 110, 200, parent_id=root_id)
    traced, parent = recorder.batch_parent()  # second root: sampled away
    assert not traced and parent is None
    # Under an open sampled span, a batch joins that trace.
    with recorder.root("outer"):
        traced, parent = recorder.batch_parent()
        assert traced and parent == recorder.current_id
    with pytest.raises(SpanError):
        recorder.emit("bad", 100, 50)
    with pytest.raises(SpanError):
        SpanRecorder(sample_every=0)


def test_span_jsonl_round_trip_and_validation():
    recorder = SpanRecorder(clock=FakeClock(), sample_every=1)
    with recorder.root("a", flag="x"):
        with recorder.span("b"):
            pass
    text = recorder.to_jsonl()
    restored = spans_from_jsonl(text)
    assert [s.to_json() for s in restored] == [s.to_json() for s in recorder.spans]
    with pytest.raises(SpanError, match="unknown parent"):
        spans_from_jsonl(
            json.dumps(
                {"span_id": 0, "parent_id": 99, "name": "x", "start_ns": 0, "end_ns": 1}
            )
        )
    duplicated = text + text.splitlines()[0] + "\n"
    with pytest.raises(SpanError, match="duplicate"):
        spans_from_jsonl(duplicated)
    assert spans_from_jsonl("") == []


def test_chrome_trace_export():
    recorder = SpanRecorder(clock=FakeClock(step=1000), sample_every=1)
    with recorder.root("ingest_batch", packets=3):
        with recorder.span("steer"):
            pass
    doc = to_chrome_trace(recorder.spans)
    events = doc["traceEvents"]
    assert len(events) == 2
    # Sorted by start time: the root opened first.
    assert [event["name"] for event in events] == ["ingest_batch", "steer"]
    root_event = events[0]
    assert root_event["ph"] == "X"
    assert root_event["args"]["packets"] == 3
    assert events[1]["args"]["parent_id"] == root_event["args"]["span_id"]
    # ts/dur are microseconds of the ns clock.
    assert root_event["dur"] == pytest.approx(
        (recorder.spans[-1].duration_ns) / 1e3
    )
    json.dumps(doc)  # loadable as-is


def test_cluster_span_hierarchy_is_complete():
    obs = Observability(span_sample_every=1)
    coordinator = ClusterCoordinator(nodes=3, config=small_test_config(), obs=obs)
    descriptors = scenario_descriptors("zipf_mix", 600, seed=9)
    coordinator.ingest(descriptors)
    spans = obs.spans.spans
    names = {span.name for span in spans}
    assert names == {
        "ingest_batch", "steer", "node", "hash", "shard", "probe", "pack", "telemetry"
    }
    by_id = {span.span_id: span for span in spans}
    # Every parent reference resolves, and the causal chain terminates at
    # a root named ingest_batch.
    for span in spans:
        assert span.parent_id is None or span.parent_id in by_id
        cursor = span
        while cursor.parent_id is not None:
            cursor = by_id[cursor.parent_id]
        assert cursor.name == "ingest_batch"
    # Engine batch roots were re-parented under the coordinator's node
    # spans: a "shard" span's chain passes through "node".
    shard = next(span for span in spans if span.name == "shard")
    chain = []
    cursor = shard
    while cursor.parent_id is not None:
        cursor = by_id[cursor.parent_id]
        chain.append(cursor.name)
    assert "node" in chain


def test_engine_batch_span_tree_tiles_the_stage_timings():
    """The one ingest body: a batch's span tree and its stage histograms are
    cut from the same clock reads, whatever the input representation."""
    from repro.telemetry import TelemetryPipeline

    descriptors = scenario_descriptors("zipf_mix", 120, seed=9)
    obs = Observability(clock=FakeClock(), span_sample_every=1)
    engine = ShardedFlowLUT(
        shards=4,
        config=small_test_config(),
        on_batch=TelemetryPipeline(seed=9).observe_outcomes,
        obs=obs,
    )
    engine.process_batch(descriptors)
    spans = obs.spans.spans
    (root,) = [span for span in spans if span.parent_id is None]
    assert (root.name, root.attrs) == ("ingest_batch", {"packets": 120})
    stages = sorted(
        (span for span in spans if span.parent_id == root.span_id),
        key=lambda span: span.start_ns,
    )
    shards = [span for span in stages if span.name == "shard"]
    assert [span.name for span in stages] == (
        ["hash", "steer"] + ["shard"] * len(shards) + ["pack", "telemetry"]
    )
    assert sum(span.attrs["packets"] for span in shards) == 120
    # Stage spans tile the root with no gap: one clock read closes a stage
    # and opens the next.
    assert stages[0].start_ns == root.start_ns and stages[-1].end_ns == root.end_ns
    assert all(a.end_ns == b.start_ns for a, b in zip(stages, stages[1:]))
    # Each shard span wraps exactly its bulk probe.
    for shard in shards:
        (probe,) = [span for span in spans if span.parent_id == shard.span_id]
        assert (probe.name, probe.start_ns, probe.end_ns) == (
            "probe", shard.start_ns, shard.end_ns
        )
    stage_hist = obs.metrics.get("repro_engine_stage_ns")
    sums = {labels["stage"]: child.sum for labels, child in stage_hist.samples()}
    assert sums == {
        "hash": 100.0,
        "steer": 100.0,
        "probe": 100.0 * len(shards),
        "pack": 100.0,
        "telemetry": 100.0,
    }


# --------------------------------------------------------------------- #
# Alert rules on synthetic windows
# --------------------------------------------------------------------- #


def _counter_window(index, series, window_ps=1000):
    """A synthetic closed window; ``series`` maps metric -> [(labels, delta)]."""
    seconds = window_ps / PS
    return WindowSnapshot(
        index=index,
        start_ps=index * window_ps,
        end_ps=(index + 1) * window_ps,
        series={
            metric: {
                "type": "counter",
                "samples": [
                    {"labels": labels, "delta": delta, "rate_per_s": delta / seconds}
                    for labels, delta in samples
                ],
            }
            for metric, samples in series.items()
        },
    )


def test_threshold_rule_fires_once_resolves_and_rearms():
    engine = AlertEngine(
        rules=[AlertRule(name="loss", kind="threshold", metric="lost_total")]
    )
    quiet = _counter_window(0, {"lost_total": [({}, 0)]})
    noisy = _counter_window(1, {"lost_total": [({}, 3)]})
    assert engine.observe_window(quiet) == []
    onsets = engine.observe_window(noisy)
    assert [f.rule for f in onsets] == ["loss"]
    assert onsets[0].value == 3.0 and onsets[0].window == 1
    # Still active: no second onset while the condition holds.
    assert engine.observe_window(_counter_window(2, {"lost_total": [({}, 1)]})) == []
    assert engine.is_active("loss")
    # Clears, then fires again on the next crossing.
    assert engine.observe_window(_counter_window(3, {"lost_total": [({}, 0)]})) == []
    assert not engine.is_active("loss")
    again = engine.observe_window(_counter_window(4, {"lost_total": [({}, 9)]}))
    assert [f.window for f in again] == [4]
    assert [f.window for f in engine.firings_for("loss")] == [1, 4]
    assert engine.first_onset("loss").window == 1


def test_ratio_group_by_rule_measures_windowed_imbalance():
    rule = AlertRule(
        name="imbalance",
        kind="ratio",
        metric="work_total",
        group_by="node",
        threshold=1.5,
        min_count=10,
    )
    engine = AlertEngine(rules=[rule])
    balanced = _counter_window(
        0, {"work_total": [({"node": "a"}, 50), ({"node": "b"}, 50)]}
    )
    skewed = _counter_window(
        1, {"work_total": [({"node": "a"}, 90), ({"node": "b"}, 10)]}
    )
    tiny = _counter_window(2, {"work_total": [({"node": "a"}, 4)]})
    assert engine.observe_window(balanced) == []  # ratio 1.0
    onsets = engine.observe_window(skewed)  # ratio 1.8
    assert onsets and onsets[0].value == pytest.approx(1.8)
    # Below min_count (and single-group) windows are skipped, which also
    # resolves the firing.
    assert engine.observe_window(tiny) == []
    assert not engine.is_active("imbalance")


def test_ratio_denominator_delta_and_absence_rules():
    rules = [
        AlertRule(
            name="miss_rate", kind="ratio", metric="out_total",
            where={"result": "miss"}, denominator="out_total",
            threshold=0.5, min_count=10,
        ),
        AlertRule(
            name="collapse", kind="delta", metric="in_total",
            op="<", threshold=-0.75, min_count=100,
        ),
        AlertRule(
            name="lag", kind="absence", metric="rep_total",
            guard_metric="in_total", min_count=10, for_windows=2,
        ),
    ]
    engine = AlertEngine(rules=rules)

    def window(index, in_count, miss, hit, rep):
        return _counter_window(
            index,
            {
                "in_total": [({}, in_count)],
                "out_total": [({"result": "miss"}, miss), ({"result": "hit"}, hit)],
                "rep_total": [({}, rep)],
            },
        )

    # Window 0: healthy. delta has no previous window yet.
    assert engine.observe_window(window(0, 400, 10, 90, 400)) == []
    # Window 1: miss rate 0.8 fires; ingest dropped but only to 50% (no
    # collapse); replication flowing, no lag.
    onsets = engine.observe_window(window(1, 200, 80, 20, 200))
    assert [f.rule for f in onsets] == ["miss_rate"]
    # Window 2: ingest collapses to 5% of window 1; replication stops —
    # absence streak 1 of 2, not fired yet.
    onsets = engine.observe_window(window(2, 10, 0, 10, 0))
    assert [f.rule for f in onsets] == ["collapse"]
    # Window 3: replication still absent while ingest continues -> lag
    # fires on the second consecutive window.
    onsets = engine.observe_window(window(3, 50, 0, 50, 0))
    assert [f.rule for f in onsets] == ["lag"]
    assert engine.windows_seen == 4


def test_alert_rule_validation():
    with pytest.raises(AlertError):
        AlertRule(name="x", kind="nonsense", metric="m")
    with pytest.raises(AlertError):
        AlertRule(name="x", kind="threshold", metric="m", op="!=")
    with pytest.raises(AlertError):
        AlertRule(name="x", kind="threshold", metric="m", for_windows=0)
    with pytest.raises(AlertError):
        AlertRule(name="x", kind="absence", metric="m")  # no guard_metric


def test_alert_engine_journals_onset_and_resolution():
    from repro.obs import EventJournal

    journal = EventJournal(clock=FakeClock())
    engine = AlertEngine(
        rules=[AlertRule(name="loss", kind="threshold", metric="lost_total")],
        journal=journal,
    )
    engine.set_context("loss", lambda: {"detail": "ok", "threshold": 1.25, "rows": [{}]})
    engine.observe_window(_counter_window(0, {"lost_total": [({}, 2)]}))
    engine.observe_window(_counter_window(1, {"lost_total": [({}, 0)]}))
    onset = journal.events("alert")[0]
    assert onset.fields["rule"] == "loss"
    assert onset.fields["window"] == 0
    assert onset.fields["value"] == 2.0
    # Context scalars ride along; colliding keys are namespaced; non-scalar
    # context (the rows list of dicts) is dropped, not serialised.
    assert onset.fields["detail"] == "ok"
    assert onset.fields["context_threshold"] == 1.25
    assert "rows" not in onset.fields
    resolved = journal.events("alert_resolved")[0]
    assert resolved.fields == {"rule": "loss", "window": 1}


def test_observability_alerts_require_windows():
    with pytest.raises(ValueError, match="alerts need windows"):
        Observability(alerts=True)
    plane = Observability(window_ps=1000, alerts=True)
    assert plane.alerts.auto_defaults and plane.alerts.journal is plane.journal
    ruled = Observability(
        window_ps=1000,
        alerts=[AlertRule(name="x", kind="threshold", metric="m_total")],
    )
    assert [rule.name for rule in ruled.alerts.rules] == ["x"]


# --------------------------------------------------------------------- #
# Shipped watchdogs against scenario ground truth
# --------------------------------------------------------------------- #


def _run_cluster(scenario, packets=4000, nodes=5, seed=42, segments=16):
    descriptors = scenario_descriptors(scenario, packets, seed=seed)
    duration = descriptors[-1].timestamp_ps - descriptors[0].timestamp_ps
    obs = Observability(window_ps=duration // 8, spans=True, alerts=True)
    cluster = ClusterCoordinator(nodes=nodes, config=small_test_config(), obs=obs)
    step = max(1, packets // segments)
    for offset in range(0, packets, step):
        cluster.ingest(descriptors[offset : offset + step])
    cluster.finalize_telemetry()
    return cluster, obs, descriptors


def test_default_rules_detect_hotspot_shift_at_onset():
    cluster, obs, descriptors = _run_cluster("hotspot_shift")
    onset = obs.alerts.first_onset("node_imbalance")
    assert onset is not None
    # The onset window sits at (or just after) the scripted mid-stream
    # shift — detection latency is bounded by the window size.
    shift_ps = descriptors[len(descriptors) // 2].timestamp_ps
    windows = obs.windows.windows
    shift_window = (shift_ps - windows[0].start_ps) // windows[0].width_ps
    assert shift_window <= onset.window <= shift_window + 2
    # The onset event carries the coordinator's point-of-onset diagnosis.
    assert onset.context["imbalance_detected"] is True
    assert onset.context["overloaded"]
    # No other watchdog cried wolf.
    assert {f.rule for f in obs.alerts.firings} == {"node_imbalance"}


def test_default_rules_stay_quiet_on_steady_state():
    _, obs, _ = _run_cluster("zipf_mix")
    assert obs.alerts.firings == []
    assert len(obs.windows.windows) >= 8


def test_failover_loss_watchdog_fires_on_real_failure():
    descriptors = scenario_descriptors("node_failover", 1500, seed=11)
    duration = descriptors[-1].timestamp_ps - descriptors[0].timestamp_ps
    obs = Observability(window_ps=duration // 4, alerts=True)
    cluster = ClusterCoordinator(nodes=3, config=small_test_config(), obs=obs)
    cluster.ingest(descriptors[:750])
    victim = max(cluster.nodes, key=lambda n: cluster.nodes[n].active_flows)
    cluster.fail_node(victim)
    cluster.ingest(descriptors[750:])
    cluster.finalize_telemetry()
    assert cluster.flows_lost > 0
    onset = obs.alerts.first_onset("failover_loss")
    assert onset is not None and onset.value == float(cluster.flows_lost)


def test_default_rules_shapes():
    rules = {rule.name: rule for rule in default_cluster_rules()}
    assert set(rules) == {
        "node_imbalance", "miss_rate_spike", "failover_loss", "ingest_collapse",
    }
    assert "replica_lag" in {r.name for r in default_cluster_rules(replication=2)}


# --------------------------------------------------------------------- #
# Instrumentation neutrality
# --------------------------------------------------------------------- #


def test_windows_spans_alerts_change_no_simulated_result():
    def run(obs):
        cluster = ClusterCoordinator(
            nodes=4, config=small_test_config(), telemetry_seed=7, obs=obs
        )
        descriptors = scenario_descriptors("hotspot_shift", 1600, seed=42)
        for offset in range(0, 1600, 200):
            cluster.ingest(descriptors[offset : offset + 200])
        cluster.finalize_telemetry()
        return cluster

    plain = run(obs=None)
    metered = run(
        obs=Observability(window_ps=2 * PS, spans=True, alerts=True)
    )
    assert metered.flow_books() == plain.flow_books()
    assert metered.cluster_totals() == plain.cluster_totals()
    assert metered.elapsed_ps == plain.elapsed_ps
    assert merged_top_k(metered, 10) == merged_top_k(plain, 10)


# --------------------------------------------------------------------- #
# The report renderer and CLI
# --------------------------------------------------------------------- #


def test_render_report_sections(tmp_path):
    _, obs, _ = _run_cluster("hotspot_shift", packets=2000, segments=8)
    text = render_report(
        windows=obs.windows.windows,
        spans=obs.spans.spans,
        events=obs.journal.events(),
    )
    assert "== Windows ==" in text and "== Spans ==" in text and "== Alerts ==" in text
    assert "node_imbalance" in text
    assert "ingest_batch" in text
    # The firing window's row names the rule in its alerts column.
    onset = obs.alerts.first_onset("node_imbalance")
    window_row = next(
        line for line in text.splitlines()
        if line.strip().startswith(f"{onset.window} ")
    )
    assert "node_imbalance" in window_row


def test_report_cli(tmp_path, capsys):
    _, obs, _ = _run_cluster("hotspot_shift", packets=2000, segments=8)
    windows_path = tmp_path / "windows.jsonl"
    spans_path = tmp_path / "spans.jsonl"
    journal_path = tmp_path / "journal.jsonl"
    obs.windows.write_jsonl(windows_path)
    obs.spans.write_jsonl(spans_path)
    obs.journal.write_jsonl(journal_path)

    code = report_main(
        [
            "--windows", str(windows_path),
            "--spans", str(spans_path),
            "--journal", str(journal_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "== Windows ==" in out and "node_imbalance" in out

    assert report_main([]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert report_main(["--windows", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
