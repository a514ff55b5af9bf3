"""Spans recorded from outside the program, around calls into each layer.

The traced run wraps public callables *on the constructed objects* (an
instance attribute shadows the method, so calls the program makes through
``self.<name>(...)`` are traced too) and, for the ``__slots__`` block
classes, patches the class for the duration of one repetition.  Spans go
into a :class:`repro.obs.spans.SpanRecorder` with sampling off, each
stamped with the ingest segment that caused it; nothing inside ``src/`` is
edited.  Only calls made at most once per sub-batch are wrapped — per-row
functions are timed by standalone loops in :mod:`pipebench.layers`.

:class:`NullTracer` is the timed run's stand-in: the drivers call the same
methods either way and the timed run pays one ``nullcontext`` per phase.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Dict, List, Tuple

from repro.columns.block import DescriptorBlock, OutcomeBlock
from repro.obs.spans import Span, SpanRecorder

# (class, method, span name): patched for the traced repetition only.
_CLASS_PATCHES = (
    (DescriptorBlock, "take", "columns.take"),
    (DescriptorBlock, "slice_rows", "columns.slice_rows"),
    (OutcomeBlock, "to_outcomes", "columns.to_outcomes"),
)


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False
    segment = None

    def span(self, name: str):
        return nullcontext()

    def instrument_cluster(self, coordinator, control=None) -> None:
        pass

    def instrument_node(self, node) -> None:
        pass

    def instrument_flow_lut(self, lut) -> None:
        pass

    def patched_classes(self):
        return nullcontext()


class Tracer(NullTracer):
    """Tracing on: one recorder per traced repetition."""

    enabled = True

    def __init__(self) -> None:
        self.recorder = SpanRecorder(sample_every=1)
        self.segment = None

    def span(self, name: str):
        """Open a span from the driver's own code (a phase or a call)."""
        return self.recorder.root(name, segment=self.segment)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a version that records a span per call."""
        original = getattr(obj, attr)
        recorder = self.recorder

        def traced(*args, **kwargs):
            with recorder.root(name, segment=self.segment):
                return original(*args, **kwargs)

        setattr(obj, attr, traced)

    def instrument_cluster(self, coordinator, control=None) -> None:
        for attr in (
            "ingest",
            "checkpoint_node",
            "add_node",
            "fail_node",
            "finalize_telemetry",
            "merged_telemetry",
            "backups_of",
        ):
            self.wrap(coordinator, attr, f"cluster.coordinator.{attr}")
        self.wrap(coordinator.ring, "lookup_column", "cluster.ring.lookup_column")
        if coordinator.obs is not None and coordinator.obs.windows is not None:
            self.wrap(coordinator.obs.windows, "advance", "obs.windows_advance")
        if control is not None:
            self.wrap(control, "step", "cluster.control.step")
        for node in coordinator.nodes.values():
            self.instrument_node(node)

    def instrument_node(self, node) -> None:
        self.wrap(node, "process_batch", "cluster.node.process_batch")
        self.wrap(node, "replicate", "cluster.node.replicate")
        engine = node.engine
        self.wrap(engine, "process_batch", "engine.process_batch")
        if engine.on_batch is not None:
            # The public attribute that holds the primary observe_outcomes.
            self.wrap(engine, "on_batch", "telemetry.observe_outcomes")
        for shard in engine.shards:
            self.wrap(shard, "process_block", "core.process_block")
            self.wrap(shard.table, "column_hash_indices", "columns.hash")
        # Backup pipelines are created lazily (and rebuilt wholesale after a
        # membership change), so they are wrapped where they are handed out.
        hand_out = node.backup_pipeline

        def backup_pipeline(primary_id):
            pipeline = hand_out(primary_id)
            if "observe_outcomes" not in vars(pipeline):
                self.wrap(pipeline, "observe_outcomes", "telemetry.backup_observe")
            return pipeline

        node.backup_pipeline = backup_pipeline

    def instrument_flow_lut(self, lut) -> None:
        self.wrap(lut, "drain", "core.drain")
        self.wrap(lut.sim, "run", "sim.run")

    @contextmanager
    def patched_classes(self):
        originals = []
        recorder = self.recorder
        for cls, attr, name in _CLASS_PATCHES:
            original = getattr(cls, attr)
            originals.append((cls, attr, original))

            def traced(self_, *args, _original=original, _name=name, **kwargs):
                with recorder.root(_name, segment=self.segment):
                    return _original(self_, *args, **kwargs)

            setattr(cls, attr, traced)
        try:
            yield
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, int, int]]:
    """Per span name: ``(calls, total_ns, self_ns)``.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a tree sum to its root's duration — the
    identity the time books are closed against.
    """
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span.parent_id is not None:
            child_ns[span.parent_id] = child_ns.get(span.parent_id, 0) + span.duration_ns
    books: Dict[str, Tuple[int, int, int]] = {}
    for span in spans:
        calls, total, own = books.get(span.name, (0, 0, 0))
        books[span.name] = (
            calls + 1,
            total + span.duration_ns,
            own + span.duration_ns - child_ns.get(span.span_id, 0),
        )
    return books
