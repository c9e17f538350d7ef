"""Cross-cutting observability: tracing, metrics, slow-query logging.

The one modular layer the middleware paper's AOP argument calls for:
every subsystem (engine, server, pools, coordinator, replication) records
into these primitives instead of growing its own, and every export
surface (``Database.stats()``, SERVER_STATS, the METRICS and TRACES wire
verbs, ``serve.py --metrics-port``) reads back out of them.

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram + MetricsRegistry
  with Prometheus text rendering and collector bridging.
* :mod:`repro.obs.trace` — TraceContext on the wire, Span records in a
  bounded TraceBuffer, TracingOptions with a zero-cost disabled path.
* :mod:`repro.obs.slowlog` — structured JSON-lines slow-query log.
* :mod:`repro.obs.observer` — NodeObserver: one per node, the only code
  that samples, opens statement spans, times statements and writes the
  slow log.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    start_metrics_http_server,
)
from repro.obs.observer import NodeObserver
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    ActiveSpan,
    Span,
    TraceBuffer,
    TraceContext,
    TracingOptions,
    new_root_context,
    new_span_id,
    new_trace_id,
    span_tree,
)

__all__ = [
    "ActiveSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeObserver",
    "SlowQueryLog",
    "Span",
    "TraceBuffer",
    "TraceContext",
    "TracingOptions",
    "new_root_context",
    "new_span_id",
    "new_trace_id",
    "span_tree",
    "start_metrics_http_server",
]
