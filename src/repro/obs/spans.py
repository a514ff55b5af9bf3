"""Hierarchical span tracing with bounded-overhead sampling.

Spans record *host-side* durations (the injectable ns clock, same contract
as :class:`MetricsRegistry`) of the execution tiers:

    ingest_batch -> steer -> node -> hash/steer/shard/pack/telemetry -> probe

Two APIs share one recorder:

* **Context managers** for the control plane: :meth:`SpanRecorder.root`
  opens (or samples away) a top-level span, :meth:`SpanRecorder.span` opens
  a child of whatever is currently open.  The coordinator uses these around
  steering and per-node dispatch.
* **Emit** for the engine hot path: :meth:`SpanRecorder.batch_parent` makes
  the sampling decision with a single call, and :meth:`SpanRecorder.emit`
  turns the clock reads the instrumented engine already takes for its stage
  histograms into completed spans — tracing adds no clock reads of its own.

Sampling is ``sample_every=N``: one top-level trace in every N is recorded
in full (all descendants), the rest are suppressed wholesale, so the
recorder's overhead and memory stay bounded by ``batches / N`` regardless
of run length.  Suppression is hierarchical: children of an unsampled root
never allocate anything.

Spans round-trip through JSONL and export to the Chrome trace-event format
(``chrome://tracing`` / Perfetto) via :func:`repro.obs.export.to_chrome_trace`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

DEFAULT_SPAN_SAMPLE_EVERY = 16


class SpanError(ValueError):
    """Raised on malformed span JSONL or invalid recorder use."""


@dataclass(frozen=True)
class Span:
    """One completed span: a named host-time interval with a parent."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> dict:
        doc = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Span":
        try:
            parent = doc["parent_id"]
            return cls(
                span_id=int(doc["span_id"]),
                parent_id=int(parent) if parent is not None else None,
                name=str(doc["name"]),
                start_ns=int(doc["start_ns"]),
                end_ns=int(doc["end_ns"]),
                attrs=dict(doc.get("attrs", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpanError(f"malformed span document: {exc!r}")


class _LiveSpan:
    """Context manager for an open (recorded) span."""

    __slots__ = ("recorder", "name", "attrs", "span_id", "parent_id", "start_ns")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: Dict[str, object]):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        recorder = self.recorder
        self.span_id = recorder._next_id()
        self.parent_id = recorder._stack[-1] if recorder._stack else None
        recorder._stack.append(self.span_id)
        self.start_ns = recorder.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self.recorder
        end_ns = recorder.clock()
        recorder._stack.pop()
        recorder.spans.append(
            Span(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_ns=self.start_ns,
                end_ns=end_ns,
                attrs=self.attrs,
            )
        )


class _SuppressedSpan:
    """Context manager for an unsampled subtree: counts suppression depth."""

    __slots__ = ("recorder",)

    def __init__(self, recorder: "SpanRecorder"):
        self.recorder = recorder

    def __enter__(self) -> "_SuppressedSpan":
        self.recorder._suppress += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.recorder._suppress -= 1


class SpanRecorder:
    """Collects completed :class:`Span` rows with 1-in-N root sampling."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        sample_every: int = DEFAULT_SPAN_SAMPLE_EVERY,
    ):
        sample_every = int(sample_every)
        if sample_every < 1:
            raise SpanError(f"sample_every must be >= 1, got {sample_every}")
        self.clock = clock
        self.sample_every = sample_every
        self.spans: List[Span] = []
        self.roots_seen = 0
        self.roots_sampled = 0
        self._stack: List[int] = []
        self._suppress = 0
        self._ids = 0
        self._suppressed = _SuppressedSpan(self)

    def _next_id(self) -> int:
        span_id = self._ids
        self._ids += 1
        return span_id

    @property
    def current_id(self) -> Optional[int]:
        """Id of the innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- context-manager API (control plane) -------------------------------

    def root(self, name: str, **attrs):
        """Open a top-level span, or a child if one is already open.

        At the top level this is where the 1-in-``sample_every`` decision is
        made; an unsampled root suppresses its whole subtree.
        """
        if self._suppress:
            return self._suppressed
        if self._stack:
            return _LiveSpan(self, name, attrs)
        self.roots_seen += 1
        if (self.roots_seen - 1) % self.sample_every:
            return self._suppressed
        self.roots_sampled += 1
        return _LiveSpan(self, name, attrs)

    def span(self, name: str, **attrs):
        """Open a child of the current span; inert while suppressed."""
        if self._suppress or not self._stack:
            return self._suppressed
        return _LiveSpan(self, name, attrs)

    # -- emit API (engine hot path) -----------------------------------------

    def batch_parent(self) -> Tuple[bool, Optional[int]]:
        """Single-call sampling decision for an emit-based batch trace.

        Returns ``(traced, parent_id)``: under an open sampled span the
        batch joins that trace (``parent_id`` set); at the top level the
        root-sampling counter decides; inside a suppressed subtree nothing
        is traced.  When traced with ``parent_id is None`` the caller emits
        its own root (e.g. ``ingest_batch``) from clock reads it already
        takes.
        """
        if self._suppress:
            return False, None
        if self._stack:
            return True, self._stack[-1]
        self.roots_seen += 1
        if (self.roots_seen - 1) % self.sample_every:
            return False, None
        self.roots_sampled += 1
        return True, None

    def emit(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent_id: Optional[int] = None,
        **attrs,
    ) -> int:
        """Record an already-timed span; returns its id for use as a parent."""
        if end_ns < start_ns:
            raise SpanError(f"span {name!r} ends before it starts")
        span_id = self._next_id()
        self.spans.append(
            Span(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start_ns=start_ns,
                end_ns=end_ns,
                attrs=attrs,
            )
        )
        return span_id

    # -- merging (parallel ingestion) ---------------------------------------

    def graft(self, worker: "SpanRecorder", parent_id: Optional[int] = None) -> int:
        """Adopt a private worker recorder's spans under ``parent_id``.

        The parallel ingestion path (:mod:`repro.parallel`) gives each
        worker its own recorder — the id counter and the 1-in-N sampling
        counter here are deliberately lock-free, so concurrent engines must
        not share them — and the coordinator grafts the workers back in
        stable node order at the segment barrier.  Worker ids are rebased
        onto this recorder's counter and worker *roots* are re-parented to
        ``parent_id``, so grafting workers in the order the sequential path
        would have visited them reproduces the sequential id assignment
        exactly.  The workers' sampling counters are ignored: the sampling
        decision for the whole segment was made by this recorder's root.
        Returns the number of spans adopted.
        """
        base = self._ids
        adopted = worker.spans
        for span in adopted:
            self.spans.append(
                Span(
                    span_id=span.span_id + base,
                    parent_id=(
                        span.parent_id + base
                        if span.parent_id is not None
                        else parent_id
                    ),
                    name=span.name,
                    start_ns=span.start_ns,
                    end_ns=span.end_ns,
                    attrs=span.attrs,
                )
            )
        self._ids += worker._ids
        return len(adopted)

    # -- aggregation / JSONL -------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: count, total/mean/max duration (ns)."""
        return summarize_spans(self.spans)

    def to_jsonl(self) -> str:
        return spans_to_jsonl(self.spans)

    def write_jsonl(self, path) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self.spans)


def summarize_spans(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(
            span.name, {"count": 0, "total_ns": 0, "max_ns": 0}
        )
        row["count"] += 1
        row["total_ns"] += span.duration_ns
        row["max_ns"] = max(row["max_ns"], span.duration_ns)
    for row in out.values():
        row["mean_ns"] = row["total_ns"] / row["count"]
    return out


def spans_to_jsonl(spans: Sequence[Span]) -> str:
    lines = [json.dumps(span.to_json(), sort_keys=True) for span in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> List[Span]:
    """Parse spans, enforcing unique ids and resolvable parent references."""
    spans: List[Span] = []
    seen: set = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpanError(f"line {line_number}: invalid JSON: {exc}")
        span = Span.from_json(doc)
        if span.span_id in seen:
            raise SpanError(f"line {line_number}: duplicate span id {span.span_id}")
        seen.add(span.span_id)
        spans.append(span)
    for span in spans:
        if span.parent_id is not None and span.parent_id not in seen:
            raise SpanError(
                f"span {span.span_id} references unknown parent {span.parent_id}"
            )
    return spans


def read_spans_jsonl(path) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return spans_from_jsonl(handle.read())
