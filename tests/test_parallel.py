"""True parallel cluster ingestion (ISSUE 9): exactness locked, not benched.

The battery asserts the design invariant of :mod:`repro.parallel` — every
executor is *bit-identical* to the sequential reference, because all
order-sensitive effects happen at the coordinator's per-segment barrier in
stable node order:

* the equivalence matrix: pool sizes {1, 2, 8} x thread/process modes x
  scenarios (including ``hotspot_shift`` with a mid-run join and
  ``node_failover`` with a mid-run failure under replication) x
  numpy/stdlib column backends, comparing ``flow_books()``, cluster
  totals, the merged heavy-hitter top-k, the membership event log, and
  the per-window ``repro_engine_outcomes_total`` series,
* span-stream equivalence: with 1-in-1 sampling the threaded run emits
  the same (id, parent, name, attrs) span sequence as sequential — the
  per-worker-recorder + barrier-graft scheme reproduces the sequential
  id assignment — and with 1-in-N sampling the same roots are sampled,
* the :class:`~repro.obs.EventJournal` concurrency stress (gapless seq
  under threaded ``record``, JSONL round trip),
* ``resolve_executor`` spec parsing and the ``REPRO_PARALLEL`` env hook,
* ``DescriptorBlock.slice_rows`` as an exact (and clamped) row window.

Process pools fork on Linux, so the stdlib-backend monkeypatch is
inherited by the workers and the backend axis applies to both modes.
"""

import threading

import pytest

from repro.cluster import ClusterCoordinator
from repro.columns import backend
from repro.core.config import small_test_config
from repro.obs import EventJournal, Observability
from repro.parallel import (
    IngestExecutor,
    ProcessExecutor,
    SequentialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.traffic import scenario_block, scenario_descriptors

CONFIG = small_test_config()
POOLS = (1, 2, 8)
SCENARIOS = ("hotspot_shift", "node_failover")
WINDOW_PS = 25_000_000  # a scenario stream spans ~7 windows
TOP_K = 8

# The process matrix runs a smaller stream than the thread matrix: every
# process-mode segment ships each touched node over a pickle boundary both
# ways, and the exactness argument is row-count independent.
PROFILES = {"thread": (1800, 6, 4), "process": (900, 3, 3)}


def _drive(scenario, executor, profile):
    """One full deterministic run: segmented ingest + a membership event.

    ``hotspot_shift`` takes a mid-run join (live flows migrate onto the
    joiner); ``node_failover`` runs with k=2 replication and a checkpoint
    trigger and fails a node mid-run (backup promotion + pipeline merge) —
    both exercise the barrier's replication/checkpoint ordering and the
    adopt-then-replicate two-pass on the process executor.
    """
    packets, segments, nodes = PROFILES[profile]
    failover = scenario == "node_failover"
    cluster = ClusterCoordinator(
        nodes=nodes,
        config=CONFIG,
        telemetry_seed=7,
        replication=2 if failover else 1,
        checkpoint_interval=packets // 4 if failover else None,
        obs=Observability(window_ps=WINDOW_PS),
        executor=executor,
    )
    block = scenario_block(scenario, packets, seed=7)
    step = packets // segments
    for index, offset in enumerate(range(0, packets, step)):
        cluster.ingest(block.slice_rows(offset, offset + step))
        if index == segments // 2 - 1:
            if failover:
                cluster.fail_node("node1")
            else:
                cluster.add_node("late-joiner")
    cluster.finalize_telemetry()
    cluster.close()
    return cluster


def _signature(cluster):
    """Everything the matrix compares, as one plain comparable structure."""
    merged = cluster.merged_telemetry()
    top_k = sorted(
        ((hitter.key, hitter.count) for hitter in merged.heavy_hitters.entries()),
        key=lambda entry: (-entry[1], entry[0]),
    )[:TOP_K]
    outcome_windows = [
        (
            window.index,
            window.start_ps,
            window.end_ps,
            window.values("repro_engine_outcomes_total"),
            window.values(
                "repro_engine_outcomes_total", group_by="result"
            ),
        )
        for window in cluster.obs.windows.windows
    ]
    return {
        "books": cluster.flow_books(),
        "totals": cluster.cluster_totals(),
        "top_k": top_k,
        "events": cluster.events,
        "checkpoints_taken": cluster.checkpoints_taken,
        "replicated_packets": cluster.replicated_packets,
        "outcome_windows": outcome_windows,
    }


# Sequential reference signatures, one per (scenario, backend, profile) —
# computed lazily under the same backend patch as the run they anchor.
_BASELINES = {}


def _baseline(scenario, backend_key, profile):
    key = (scenario, backend_key, profile)
    if key not in _BASELINES:
        _BASELINES[key] = _signature(_drive(scenario, SequentialExecutor(), profile))
    return _BASELINES[key]


@pytest.fixture(params=("numpy", "stdlib"))
def column_backend(request, monkeypatch):
    """Run the test under each column backend (stdlib via the np patch)."""
    if request.param == "stdlib":
        monkeypatch.setattr(backend, "np", None)
    elif backend.np is None:  # pragma: no cover - numpy-less environment
        pytest.skip("numpy backend unavailable")
    return request.param


# --------------------------------------------------------------------------- #
# The equivalence matrix
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_thread_matrix_matches_sequential(scenario, column_backend):
    expected = _baseline(scenario, column_backend, "thread")
    assert expected["books"]["balanced"]
    assert expected["totals"]["completed"] == PROFILES["thread"][0]
    for workers in POOLS:
        cluster = _drive(scenario, ThreadExecutor(workers), "thread")
        assert _signature(cluster) == expected, (scenario, column_backend, workers)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_process_matrix_matches_sequential(scenario, column_backend):
    expected = _baseline(scenario, column_backend, "process")
    assert expected["books"]["balanced"]
    for workers in POOLS:
        cluster = _drive(scenario, ProcessExecutor(workers), "process")
        assert _signature(cluster) == expected, (scenario, column_backend, workers)


def test_object_path_thread_matches_sequential():
    """Descriptor-sequence input (packed at the entrance) is
    executor-independent too."""

    def run(executor):
        cluster = ClusterCoordinator(
            nodes=4, config=CONFIG, telemetry_seed=3, executor=executor
        )
        descriptors = scenario_descriptors("zipf_mix", 1200, seed=3)
        for offset in range(0, 1200, 300):
            cluster.ingest(descriptors[offset : offset + 300])
        cluster.close()
        return cluster.flow_books(), cluster.cluster_totals()

    assert run(ThreadExecutor(8)) == run(SequentialExecutor())


# --------------------------------------------------------------------------- #
# Span streams: per-worker recorders grafted at the barrier
# --------------------------------------------------------------------------- #


def _span_stream(executor, sample_every):
    obs = Observability(span_sample_every=sample_every)
    cluster = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_seed=7, obs=obs, executor=executor
    )
    descriptors = scenario_descriptors("hotspot_shift", 800, seed=5)
    for offset in range(0, 800, 200):
        cluster.ingest(descriptors[offset : offset + 200])
    cluster.close()
    return [
        (span.span_id, span.parent_id, span.name, span.attrs)
        for span in obs.spans.spans
    ]


def test_thread_span_stream_is_bit_identical():
    sequential = _span_stream(SequentialExecutor(), sample_every=1)
    assert sequential  # the run actually traced something
    assert {name for _, _, name, _ in sequential} == {
        "ingest_batch",
        "steer",
        "node",
        "hash",
        "shard",
        "probe",
        "pack",
        "telemetry",
    }
    # The root carries the segment size and nothing path-specific.
    assert all(
        attrs == {"packets": 200}
        for _, parent, name, attrs in sequential
        if parent is None
    )
    assert _span_stream(ThreadExecutor(8), sample_every=1) == sequential


def test_thread_span_sampling_matches_sequential():
    # 1-in-2 sampling: the same segments are sampled (and the unsampled
    # segments' workers trace nothing at all).
    sequential = _span_stream(SequentialExecutor(), sample_every=2)
    threaded = _span_stream(ThreadExecutor(2), sample_every=2)
    assert threaded == sequential
    roots = [attrs for _, parent, _, attrs in sequential if parent is None]
    assert len(roots) == 2  # half of the 4 segments


# --------------------------------------------------------------------------- #
# Journal: thread-safe sequence assignment
# --------------------------------------------------------------------------- #


def test_journal_record_is_thread_safe_and_round_trips():
    journal = EventJournal()
    workers, per_worker = 8, 250
    barrier = threading.Barrier(workers)

    def hammer(worker):
        barrier.wait()  # maximise interleaving
        for index in range(per_worker):
            journal.record("stress", node=f"w{worker}", index=index)

    threads = [
        threading.Thread(target=hammer, args=(worker,)) for worker in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(journal) == workers * per_worker
    # Gapless monotone sequence — this is exactly what from_jsonl enforces,
    # and what racing unsynchronised record() calls used to violate.
    restored = EventJournal.from_jsonl(journal.to_jsonl())
    assert [event.seq for event in restored] == list(range(workers * per_worker))
    # No event was lost or duplicated per worker either.
    for worker in range(workers):
        mine = [e for e in restored if e.node == f"w{worker}"]
        assert [e.fields["index"] for e in mine] == list(range(per_worker))


# --------------------------------------------------------------------------- #
# resolve_executor and the env hook
# --------------------------------------------------------------------------- #


def test_resolve_executor_specs(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    assert isinstance(resolve_executor(None), SequentialExecutor)
    for spec in ("", "off", "none", "sequential", "SERIAL"):
        assert isinstance(resolve_executor(spec), SequentialExecutor)
    threads = resolve_executor("thread:3")
    assert isinstance(threads, ThreadExecutor) and threads.workers == 3
    assert isinstance(resolve_executor(2), ThreadExecutor)
    assert resolve_executor(2).workers == 2
    processes = resolve_executor("process:2")
    assert isinstance(processes, ProcessExecutor) and processes.ships_state
    shared = ThreadExecutor(2)
    assert resolve_executor(shared) is shared  # passthrough, pools shareable


def test_resolve_executor_reads_env(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "thread:2")
    executor = resolve_executor(None)
    assert isinstance(executor, ThreadExecutor) and executor.workers == 2
    cluster = ClusterCoordinator(nodes=2, config=CONFIG)
    assert cluster.executor.kind == "thread" and cluster.executor.workers == 2
    cluster.close()
    # An explicit spec beats the env var.
    monkeypatch.setenv("REPRO_PARALLEL", "process")
    assert isinstance(resolve_executor("off"), SequentialExecutor)


def test_resolve_executor_rejects_bad_specs():
    with pytest.raises(ValueError):
        resolve_executor("bogus")
    with pytest.raises(ValueError):
        resolve_executor("thread:x")
    with pytest.raises(ValueError):
        ThreadExecutor(0)
    with pytest.raises(TypeError):
        resolve_executor(True)  # a bool is not a worker count
    with pytest.raises(TypeError):
        resolve_executor(3.5)


def test_executor_close_is_idempotent():
    executor = ThreadExecutor(2)
    cluster = ClusterCoordinator(nodes=2, config=CONFIG, executor=executor)
    cluster.ingest(scenario_block("uniform_random", 200, seed=1))
    cluster.close()
    cluster.close()
    executor.close()
    report = cluster.parallel_report()
    assert report["mode"] == "thread" and report["workers"] == 2
    assert report["segments"] == 1 and report["ingested"] == 200
    assert set(report["per_node_busy_ns"]) <= {"node0", "node1"}


# --------------------------------------------------------------------------- #
# slice_rows: the segmentation primitive
# --------------------------------------------------------------------------- #


def test_slice_rows_matches_take_and_clamps():
    block = scenario_block("zipf_mix", 100, seed=5)
    window = block.slice_rows(10, 30)
    assert len(window) == 20
    assert window == block.take(list(range(10, 30)))
    # The full range is the block itself (no copy), and bounds clamp.
    assert block.slice_rows(0, 100) is block
    assert block.slice_rows(0, 10_000) is block
    assert len(block.slice_rows(90, 10_000)) == 10
    assert len(block.slice_rows(100, 200)) == 0
