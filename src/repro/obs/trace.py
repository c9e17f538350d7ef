"""Distributed tracing: contexts on the wire, spans in a ring buffer.

One statement's journey through the stack — pooled client, sharding
coordinator, shard primary, read replica — becomes one *trace*: a tree of
*spans*, one per node that did work, each carrying phase timings
(parse/plan/execute/fetch/WAL-fsync/2PC...).  The pieces:

* :class:`TraceContext` — what travels: a 128-bit trace id, the sender's
  span id (the receiver's parent), and a sampled flag.  25 bytes on the
  wire (see :meth:`TraceContext.to_wire_bytes`), appended to EXECUTE /
  PREPARE / FETCH / 2PC frames as an optional trailing field so old
  peers interoperate unchanged.
* :class:`Span` — what is recorded: ids, a name, the recording node,
  wall-clock start, duration, a ``phases`` dict of per-phase milliseconds,
  an ``events`` dict of counts (conflict retries), and a status.
* :class:`TraceBuffer` — a bounded in-memory ring per node; spans are
  queryable by trace id through ``Database.traces()`` and the TRACES wire
  verb, and old spans fall off the end instead of growing the heap.
* :class:`TracingOptions` — the on/off switch.  Disabled (the default)
  the hot path pays exactly one attribute check and no allocation.

Assembling a cross-node trace is pull-based: each node buffers only its
own spans; ``traces(trace_id)`` on a coordinator or routed pool fans the
question out and merges (see :mod:`repro.sharding.coordinator` and
:mod:`repro.netclient.pool`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Wire size of an encoded context: 16-byte trace id + 8-byte span id +
#: 1 flag byte.
TRACE_CONTEXT_WIRE_BYTES = 25


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 hex characters."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 hex characters."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one traced request.

    ``span_id`` is always the *sender's* span: the node that decodes this
    context starts its own span with ``parent_span_id=ctx.span_id`` and
    forwards a context carrying its new span id.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def child_context(self, span_id: str) -> "TraceContext":
        """The context to forward once this node opened ``span_id``."""
        return TraceContext(self.trace_id, span_id, self.sampled)

    # -- wire form ------------------------------------------------------------

    def to_wire_bytes(self) -> bytes:
        return (
            bytes.fromhex(self.trace_id.rjust(32, "0"))
            + bytes.fromhex(self.span_id.rjust(16, "0"))
            + (b"\x01" if self.sampled else b"\x00")
        )

    @classmethod
    def from_wire_bytes(cls, payload: bytes) -> "TraceContext":
        if len(payload) != TRACE_CONTEXT_WIRE_BYTES:
            raise ValueError(
                f"trace context must be {TRACE_CONTEXT_WIRE_BYTES} bytes, "
                f"got {len(payload)}"
            )
        return cls(
            trace_id=payload[:16].hex(),
            span_id=payload[16:24].hex(),
            sampled=bool(payload[24] & 1),
        )


def new_root_context() -> TraceContext:
    """Start a new trace: no parent span yet — the first
    :class:`ActiveSpan` opened under this context becomes the root."""
    return TraceContext(new_trace_id(), "", True)


@dataclass
class Span:
    """One node's work on one traced request."""

    trace_id: str
    span_id: str
    parent_span_id: Optional[str]
    name: str
    node: str
    start_ts: float
    duration_ms: float = 0.0
    status: str = "ok"
    error: Optional[str] = None
    #: Per-phase wall milliseconds (parse, plan, execute, fetch,
    #: wal_fsync, 2pc_prepare, ...).
    phases: dict[str, float] = field(default_factory=dict)
    #: Event counts (conflict_retry, plan_cache_hit, ...).
    events: dict[str, int] = field(default_factory=dict)
    #: Free-form labels (sql, rows, route, shard, mode, ...).
    tags: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "node": self.node,
            "start_ts": self.start_ts,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "error": self.error,
            "phases": dict(self.phases),
            "events": dict(self.events),
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, document: dict) -> "Span":
        return cls(
            trace_id=document["trace_id"],
            span_id=document["span_id"],
            parent_span_id=document.get("parent_span_id"),
            name=document.get("name", ""),
            node=document.get("node", ""),
            start_ts=document.get("start_ts", 0.0),
            duration_ms=document.get("duration_ms", 0.0),
            status=document.get("status", "ok"),
            error=document.get("error"),
            phases=dict(document.get("phases", {})),
            events=dict(document.get("events", {})),
            tags=dict(document.get("tags", {})),
        )


class ActiveSpan:
    """A span being recorded: phase/event/tag accumulation plus finish.

    Not thread-safe — a span belongs to the statement's thread, like the
    session executing it.
    """

    __slots__ = ("span", "context", "_buffer", "_t0", "_finished")

    def __init__(
        self,
        buffer: "TraceBuffer",
        context: TraceContext,
        name: str,
        node: str,
    ) -> None:
        self.context = context.child_context(new_span_id())
        self.span = Span(
            trace_id=context.trace_id,
            span_id=self.context.span_id,
            parent_span_id=context.span_id or None,
            name=name,
            node=node,
            start_ts=time.time(),
        )
        self._buffer = buffer
        self._t0 = time.perf_counter()
        self._finished = False

    def phase(self, name: str, seconds: float) -> None:
        phases = self.span.phases
        phases[name] = phases.get(name, 0.0) + seconds * 1000.0

    def event(self, name: str, count: int = 1) -> None:
        events = self.span.events
        events[name] = events.get(name, 0) + count

    def tag(self, **tags: object) -> None:
        self.span.tags.update(tags)

    def finish(self, error: Optional[BaseException] = None) -> None:
        if self._finished:
            return
        self._finished = True
        self.span.duration_ms = (time.perf_counter() - self._t0) * 1000.0
        if error is not None:
            self.span.status = "error"
            self.span.error = f"{type(error).__name__}: {error}"
        self._buffer.append(self.span)

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, error, tb) -> None:
        self.finish(error)


class TraceBuffer:
    """A bounded ring of finished spans, newest evicting oldest."""

    def __init__(self, capacity: int = 512) -> None:
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=max(1, capacity))
        self._dropped = 0
        self._recorded = 0

    def append(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)
            self._recorded += 1

    def start_span(
        self, context: TraceContext, name: str, node: str
    ) -> ActiveSpan:
        return ActiveSpan(self, context, name, node)

    def spans(self, trace_id: Optional[str] = None) -> list[dict[str, object]]:
        """Buffered spans (as dicts), optionally filtered by trace id,
        oldest first."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [span for span in spans if span.trace_id == trace_id]
        return [span.as_dict() for span in spans]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids currently buffered, oldest first."""
        with self._lock:
            spans = list(self._spans)
        return list(dict.fromkeys(span.trace_id for span in spans))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "buffered": len(self._spans),
                "capacity": self._spans.maxlen or 0,
                "recorded": self._recorded,
                "dropped": self._dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


@dataclass(frozen=True)
class TracingOptions:
    """Whether (and how much) a node records and propagates traces.

    ``enabled=False`` — the default — is the hot-path contract: a
    statement with no inbound context pays one attribute check and
    allocates nothing.  An inbound context from a remote caller is always
    honoured (its ``sampled`` flag decides), so a cluster can trace from
    the edge without flipping every node's options.
    """

    enabled: bool = False
    #: Fraction of locally originated requests that start a trace
    #: (inbound contexts bypass this: their sampled bit already decided).
    sample_rate: float = 1.0
    buffer_size: int = 512

    def samples(self, counter: int) -> bool:
        """Deterministic sampling decision for the ``counter``-th local
        request (1-in-N spacing, no RNG on the hot path)."""
        if not self.enabled or self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            return True
        period = max(1, round(1.0 / self.sample_rate))
        return counter % period == 0


def span_tree(spans: Iterable[dict]) -> dict[Optional[str], list[dict]]:
    """Index spans by parent id: ``tree[None]`` are the roots; a span's
    children are ``tree[span["span_id"]]``.  Purely for assembling and
    asserting on traces — rendering stays the caller's business."""
    tree: dict[Optional[str], list[dict]] = {}
    known = {span["span_id"] for span in spans}
    for span in spans:
        parent = span.get("parent_span_id")
        if parent is not None and parent not in known:
            # The parent's node was not collected (or its buffer wrapped):
            # treat the span as a root rather than losing it.
            parent = None
        tree.setdefault(parent, []).append(span)
    for children in tree.values():
        children.sort(key=lambda span: span.get("start_ts", 0.0))
    return tree
