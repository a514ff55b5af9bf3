"""True parallel cluster ingestion: per-node work fanned onto a pool.

:class:`~repro.cluster.ClusterCoordinator` steers a stream segment on the
caller thread, then hands one :class:`NodeWork` per owning node to an
:class:`IngestExecutor`.  Nodes are independent devices between membership
events — they share no flow state, their telemetry pipelines are per-node,
and their engine metrics are bound to per-``node=`` labelled children — so
the per-node calls can run concurrently.  Everything order-sensitive
(replication mirroring, checkpoint triggers, window ``advance``, span and
journal emission) is *not* done here: the coordinator applies it at a
deterministic per-segment barrier in stable node order, which is why the
parallel path's books, merged top-k and obs streams are bit-identical to
the sequential path (``tests/test_parallel.py`` locks this).

Three executors share the contract ``run(works) -> results``:

* :class:`SequentialExecutor` — the zero-thread reference; default.
* :class:`ThreadExecutor` — a ``ThreadPoolExecutor``.  Worker state stays
  in-process, so replication, checkpoints and span grafting all see the
  same node objects.  Wins when the numpy column kernels release the GIL
  into C-level loops and on multi-core hosts.
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor``; each node is
  shipped to the worker by pickle (the same object graph
  :mod:`repro.persist` snapshots) and the mutated node is shipped back and
  adopted at the barrier.  Wins for pure-Python (stdlib backend) hot paths
  where threads serialise on the GIL, at the cost of per-segment node
  transport.

``resolve_executor`` also reads ``REPRO_PARALLEL`` (``thread``,
``thread:8``, ``process:2``, ``off``) so a whole run — including the
tier-1 suite in CI — can be flipped to parallel ingestion without code
changes.

Per-worker spans: engines normally emit into the plane's shared
:class:`~repro.obs.spans.SpanRecorder`, whose id counter and 1-in-N
sampling counter are not thread-safe.  When a segment is traced, each
worker gets a *private* recorder (swapped in via
``ClusterNode.set_span_recorder``) and the coordinator merges the private
recorders into the plane at the barrier with
:meth:`~repro.obs.spans.SpanRecorder.graft` — node order, so ids and
parents come out exactly as the sequential path would have assigned them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.obs.spans import SpanRecorder

ENV_VAR = "REPRO_PARALLEL"


@dataclass
class NodeWork:
    """One node's share of a stream segment (everything a worker needs)."""

    node_id: str
    node: object  # ClusterNode (untyped to keep this module import-light)
    group: object  # this node's rows of the segment, a DescriptorBlock
    batch_size: int
    collect_outcomes: bool  # materialise outcomes for barrier replication
    trace: bool  # record this node's engine spans into a private recorder
    span_clock: Optional[Callable[[], int]] = None


@dataclass
class NodeSegmentResult:
    """What a worker hands back to the coordinator's barrier."""

    node_id: str
    node: object  # the (possibly round-tripped) node after processing
    outcomes: Optional[List[list]]  # per sub-batch, when collect_outcomes
    recorder: Optional[SpanRecorder]  # private span recorder, when traced
    busy_ns: int  # worker-thread CPU time this node's work cost the host


def execute_node_work(work: NodeWork) -> NodeSegmentResult:
    """Run one node's sub-batches; module-level so process pools can ship it.

    The loop is the exact per-node body of the sequential coordinator:
    sub-batches of ``batch_size`` through ``node.process_batch``, outcomes
    materialised per sub-batch when the barrier will replicate them.  Span
    emission goes to a private recorder (grafted at the barrier); with
    ``trace`` off the engine's recorder is parked so an unsampled parallel
    segment allocates nothing, like a suppressed sequential subtree.
    """
    node = work.node
    recorder = (
        SpanRecorder(clock=work.span_clock or time.perf_counter_ns, sample_every=1)
        if work.trace
        else None
    )
    previous = node.set_span_recorder(recorder)
    # busy_ns is this thread's CPU time, not wall time: under a contended
    # GIL a worker's wall clock counts the *other* workers' execution, so
    # wall-based busy would scale with pool pressure instead of with the
    # node's own work.  CPU time is what the node's work actually costs
    # the host — on a truly parallel host the two coincide.
    start_ns = time.thread_time_ns()
    try:
        group = work.group
        count = len(group)
        size = work.batch_size
        outcomes: Optional[List[list]] = [] if work.collect_outcomes else None
        with (
            recorder.root("node", node=work.node_id, packets=count)
            if recorder is not None
            else nullcontext()
        ):
            for offset in range(0, count, size):
                batch = node.process_batch(group.slice_rows(offset, offset + size))
                if outcomes is not None:
                    outcomes.append(batch.to_outcomes())
    finally:
        node.set_span_recorder(previous)
    busy_ns = time.thread_time_ns() - start_ns
    return NodeSegmentResult(
        node_id=work.node_id,
        node=node,
        outcomes=outcomes,
        recorder=recorder,
        busy_ns=busy_ns,
    )


class IngestExecutor:
    """Base executor: runs every :class:`NodeWork` on the caller thread."""

    kind = "sequential"
    workers = 1
    #: True when node objects cross a process boundary (pickle transport):
    #: the coordinator then builds obs-less nodes and reconciles outcome
    #: counters at the barrier instead of sharing the registry.
    ships_state = False

    def run(self, works: Sequence[NodeWork]) -> List[NodeSegmentResult]:
        return [execute_node_work(work) for work in works]

    def close(self) -> None:
        """Release pool resources (idempotent; a no-op here)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={self.workers})"


class SequentialExecutor(IngestExecutor):
    """The reference executor — bit-identical by construction."""


class _PoolExecutor(IngestExecutor):
    """Shared machinery for the thread/process pools (lazy construction)."""

    _pool_cls = None  # set by subclasses

    def __init__(self, workers: Optional[int] = None) -> None:
        workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._pool_cls(max_workers=self.workers)
        return self._pool

    def run(self, works: Sequence[NodeWork]) -> List[NodeSegmentResult]:
        if len(works) <= 1:
            # One node's segment has no parallelism to mine; skipping the
            # pool also skips process-mode transport for it.
            return [execute_node_work(work) for work in works]
        pool = self._ensure_pool()
        futures = [pool.submit(execute_node_work, work) for work in works]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Per-node fan-out on a thread pool (shared-memory node objects)."""

    kind = "thread"
    _pool_cls = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """Per-node fan-out on a process pool (pickled node transport)."""

    kind = "process"
    ships_state = True
    _pool_cls = ProcessPoolExecutor


ExecutorSpec = Union[None, int, str, IngestExecutor]


def resolve_executor(spec: ExecutorSpec = None) -> IngestExecutor:
    """Turn an executor spec into an :class:`IngestExecutor`.

    ``None`` falls back to the ``REPRO_PARALLEL`` environment variable and
    then to :class:`SequentialExecutor`.  An ``int`` means that many thread
    workers.  Strings are ``"off"``/``"sequential"``, ``"thread"``,
    ``"process"``, optionally suffixed ``:<workers>`` (default: the host's
    CPU count).  An :class:`IngestExecutor` passes through, so a pool can
    be shared between coordinators.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR) or None
        if spec is None:
            return SequentialExecutor()
    if isinstance(spec, IngestExecutor):
        return spec
    if isinstance(spec, bool):  # bool is an int; reject it explicitly
        raise TypeError("executor must be None, an int, a str or an IngestExecutor")
    if isinstance(spec, int):
        return ThreadExecutor(spec)
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "off", "none", "sequential", "serial"):
            return SequentialExecutor()
        mode, _, arg = text.partition(":")
        try:
            workers = int(arg) if arg else None
        except ValueError:
            raise ValueError(f"executor spec {spec!r} has a non-integer worker count")
        if mode in ("thread", "threads"):
            return ThreadExecutor(workers)
        if mode in ("process", "processes", "proc"):
            return ProcessExecutor(workers)
        raise ValueError(
            f"unknown executor spec {spec!r}; expected 'off', 'thread[:N]' "
            "or 'process[:N]'"
        )
    raise TypeError("executor must be None, an int, a str or an IngestExecutor")
