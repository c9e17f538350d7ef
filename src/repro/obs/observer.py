"""One observer per node: sampling, spans, statement latency, slow log.

Every node — an engine ``Database``, a sharding ``ShardedDatabase``, a
client-side ``RemoteDatabase`` — owns one :class:`NodeObserver` as
``.obs``.  Sessions cache it when they are built and test ``obs.active``
once per statement; with no inbound trace context and observability off
that attribute load is the whole cost.  Behind the gate the observer is
the one place a statement is sampled, spanned, timed and slow-logged:
:meth:`~NodeObserver.statement` (engine and coordinator statements),
:meth:`~NodeObserver.edge` (the client span), :meth:`~NodeObserver.call`
(a span whose wall time is its one phase) and :meth:`~NodeObserver.traced`
(a span whose caller records the phases, e.g. ``commit``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, TextIO, TypeVar

from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    ActiveSpan,
    TraceBuffer,
    TraceContext,
    TracingOptions,
    new_root_context,
)

T = TypeVar("T")


class NodeObserver:
    """Everything one node needs to observe its statements."""

    def __init__(
        self,
        node: str,
        *,
        tracing: Optional[TracingOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        latency_histogram: Optional[str] = None,
        slow_query_ms: Optional[float] = None,
        slow_query_sink: Optional[TextIO] = None,
    ) -> None:
        #: The name this node's spans and slow-log records carry.
        self.node = node
        self.tracing = tracing if tracing is not None else TracingOptions()
        #: Ring buffer of finished spans recorded by this node.
        self.trace_buffer = TraceBuffer(self.tracing.buffer_size)
        #: Structured slow-query log (disabled unless ``slow_query_ms``).
        self.slow_log = SlowQueryLog(slow_query_ms, sink=slow_query_sink, node=node)
        #: The hot-path flag: statements without an inbound trace context
        #: take the observed path only while it is set.
        self.active = self.tracing.enabled or self.slow_log.enabled
        self._lock = threading.Lock()
        self._count = 0
        self._latency = None
        if metrics is not None:
            if latency_histogram is not None:
                self._latency = metrics.histogram(latency_histogram)
            # Read through ``self`` on every scrape: set_tracing may
            # replace the buffer.
            metrics.collect("trace_buffer", lambda: self.trace_buffer.stats())
            metrics.collect("slow_query_log", self.slow_log.stats)

    # -- runtime switches ------------------------------------------------------

    def set_tracing(self, options: TracingOptions) -> None:
        """Switch tracing on or off at runtime.  Already-buffered spans are
        kept; the buffer is resized only if the new size differs."""
        self.tracing = options
        if options.buffer_size != self.trace_buffer.stats()["capacity"]:
            self.trace_buffer = TraceBuffer(options.buffer_size)
        self.active = options.enabled or self.slow_log.enabled

    def set_slow_query_threshold(self, threshold_ms: Optional[float]) -> None:
        """Change (or with None, disable) the slow-query threshold."""
        self.slow_log.threshold_ms = threshold_ms
        self.active = self.tracing.enabled or self.slow_log.enabled

    def rename(self, node: str) -> None:
        """Attribute future spans and slow-log records to ``node``."""
        self.node = node
        self.slow_log.node = node

    # -- read side ---------------------------------------------------------------

    def slow_queries(self, limit: Optional[int] = None) -> list[dict]:
        """The most recent slow-query records, oldest first."""
        return self.slow_log.recent(limit)

    def stats(self) -> dict[str, object]:
        """The ``tracing`` and ``slow_query_log`` blocks of a node's
        ``stats()`` document."""
        tracing: dict[str, object] = dict(self.trace_buffer.stats())
        tracing["enabled"] = self.tracing.enabled
        return {"tracing": tracing, "slow_query_log": self.slow_log.stats()}

    # -- recording ---------------------------------------------------------------

    def _sampled_root(self) -> Optional[TraceContext]:
        """A fresh root context for the next locally originated request if
        this node's options sample it (one counter per node, so the 1-in-N
        spacing holds however many sessions share the node)."""
        with self._lock:
            self._count += 1
            count = self._count
        return new_root_context() if self.tracing.samples(count) else None

    def span(
        self, trace: Optional[TraceContext], name: str
    ) -> Optional[ActiveSpan]:
        """A span opened under ``trace``, or None unless it is sampled."""
        if trace is None or not trace.sampled:
            return None
        return self.trace_buffer.start_span(trace, name, self.node)

    def traced(
        self,
        trace: Optional[TraceContext],
        name: str,
        fn: Callable[[Optional[ActiveSpan]], T],
    ) -> T:
        """Run ``fn(span)`` under a span named ``name`` when ``trace`` is
        sampled, else ``fn(None)``; ``fn`` records its own phases."""
        span = self.span(trace, name)
        if span is None:
            return fn(None)
        with span:
            return fn(span)

    def call(
        self,
        trace: Optional[TraceContext],
        name: str,
        fn: Callable[[], T],
        **tags: object,
    ) -> T:
        """Run ``fn`` under a span named ``name`` when ``trace`` is sampled;
        its wall time becomes a phase of the same name."""
        span = self.span(trace, name)
        if span is None:
            return fn()
        if tags:
            span.tag(**tags)
        t0 = time.perf_counter()
        with span:
            try:
                return fn()
            finally:
                span.phase(name, time.perf_counter() - t0)

    def edge(
        self, sql: str, request: Callable[[Optional[TraceContext]], T]
    ) -> T:
        """One client-edge request: when sampled, a root ``client`` span
        wraps ``request``, which receives the context to put on the wire
        (None when this request is not sampled)."""
        span = self.span(self._sampled_root(), "client")
        if span is None:
            return request(None)
        span.tag(sql=sql)
        t0 = time.perf_counter()
        with span:
            result = request(span.context)
            span.phase("request", time.perf_counter() - t0)
            span.tag(rows=result.rowcount)
        return result

    def statement(
        self, name: str, sql: str, trace: Optional[TraceContext]
    ) -> "ObservedStatement":
        """Open the observation of one statement (a context manager).

        An inbound ``trace`` is honoured as sent; without one the node's
        sampling decides whether a new trace starts here."""
        context = trace if trace is not None else self._sampled_root()
        return ObservedStatement(self, name, sql, context)


class ObservedStatement:
    """One statement on a node's observed path.

    ``span`` is the statement's span (None when unsampled) and
    ``forward`` the context to propagate downstream.  The caller fills in
    ``rows`` and its own tag — ``mode`` on the engine, ``route`` on the
    coordinator — before the ``with`` block exits; the exit records the
    latency, finishes the span and writes the slow-log line.
    """

    __slots__ = (
        "span", "forward", "rows", "mode", "route",
        "_observer", "_sql", "_trace_id", "_t0",
    )

    def __init__(
        self, observer: NodeObserver, name: str, sql: str, context: Optional[TraceContext]
    ) -> None:
        self.span = observer.span(context, name)
        if self.span is not None:
            self.span.tag(sql=sql)
            self.forward: Optional[TraceContext] = self.span.context
        else:
            # Unsampled inbound context: no local span, but keep
            # propagating the id so downstream nodes agree.
            self.forward = context
        self.rows: Optional[int] = None
        self.mode: Optional[str] = None
        self.route: Optional[str] = None
        self._observer = observer
        self._sql = sql
        self._trace_id = context.trace_id if context is not None else None
        self._t0 = time.perf_counter()

    def __enter__(self) -> "ObservedStatement":
        return self

    def __exit__(self, exc_type, error, tb) -> None:
        observer = self._observer
        duration_s = time.perf_counter() - self._t0
        if observer._latency is not None:
            observer._latency.observe(duration_s)
        span = self.span
        if span is not None:
            if self.mode is not None:
                span.tag(mode=self.mode)
            if self.route is not None:
                span.tag(route=self.route)
            span.finish(error)
        observer.slow_log.record(
            self._sql,
            duration_s * 1000.0,
            rows=self.rows,
            mode=self.mode,
            route=self.route,
            trace_id=self._trace_id,
            error=f"{type(error).__name__}: {error}" if error is not None else None,
        )
