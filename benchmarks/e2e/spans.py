"""Outside-in spans: recorded by the benchmark around calls into each layer.

The program's own tracing stays off.  The benchmark wraps the object the
upper layers take their sessions from (the engine ``Database`` or the
client-side ``RemoteDatabase``) in a :class:`TracedDatabase`; the ORM, the
dbapi ``Connection`` and the remote driver accept any object with a
``session()`` factory, so every ``execute``/``commit``/``close`` they issue
becomes a child span of the interaction that caused it, carrying the SQL
text.  Spans stay in memory until :meth:`Tracer.write_jsonl`.

A span's *self time* is its duration minus the part of its interval that its
child spans cover (overlapping children are not counted twice).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence


class Span:
    """One timed interval: name, start, end, parent and interaction ids."""

    __slots__ = ("span_id", "parent_id", "interaction", "name", "start", "end", "tags", "result")

    def __init__(self, span_id: int, parent_id: Optional[int], interaction: int, name: str, start: float, tags: dict) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.interaction = interaction
        self.name = name
        self.start = start
        self.end = start
        self.tags = tags
        #: The statement's result object (execute spans; not written out).
        self.result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "interaction": self.interaction,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **self.tags,
        }


class Tracer:
    """Collects the spans of one client's traced pass (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._interactions = 0

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._interactions += 1
        span = Span(
            len(self.spans),
            parent.span_id if parent else None,
            parent.interaction if parent else self._interactions,
            name,
            time.perf_counter(),
            tags,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def children(self) -> dict[Optional[int], list[Span]]:
        """Spans grouped by parent id (roots under ``None``)."""
        grouped: dict[Optional[int], list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.parent_id, []).append(span)
        return grouped

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        begin = max(child.start, reach)
        end = min(child.end, span.end)
        if end > begin:
            covered += end - begin
            reach = end
    return span.duration - covered


# -- the Database-shaped proxy --------------------------------------------------


class TracedSession:
    """A session that records a span around every call the upper layers
    make, and otherwise behaves exactly like the session it wraps."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._prepared: dict[int, str] = {}

    def execute(self, sql: str, params: Sequence[object] = (), **kwargs):
        name = "commit" if sql.strip().upper() == "COMMIT" else "execute"
        with self._tracer.span(name, sql=sql, params=list(params)) as span:
            span.result = self._inner.execute(sql, params, **kwargs)
            return span.result

    def prepare(self, sql: str) -> int:
        with self._tracer.span("prepare", sql=sql):
            statement_id = self._inner.prepare(sql)
        self._prepared[statement_id] = sql
        return statement_id

    def execute_prepared(self, stmt_id: int, params: Sequence[object] = (), **kwargs):
        sql = self._prepared.get(stmt_id, "")
        with self._tracer.span("execute", sql=sql, params=list(params), prepared=True) as span:
            span.result = self._inner.execute_prepared(stmt_id, params, **kwargs)
            return span.result

    def begin(self) -> None:
        with self._tracer.span("begin"):
            self._inner.begin()

    def commit(self, **kwargs) -> None:
        with self._tracer.span("commit"):
            self._inner.commit(**kwargs)

    def rollback(self) -> None:
        with self._tracer.span("rollback"):
            self._inner.rollback()

    def close(self) -> None:
        with self._tracer.span("close"):
            self._inner.close()

    @property
    def in_transaction(self) -> bool:
        return self._inner.in_transaction

    @property
    def autocommit(self) -> bool:
        return self._inner.autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        self._inner.autocommit = value

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TracedDatabase:
    """Wraps anything with a ``session()`` factory; checking a session out
    (a pool checkout, for a pooled ``RemoteDatabase``) is its own span."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def session(self, autocommit: bool = True) -> TracedSession:
        with self._tracer.span("checkout"):
            inner = self._inner.session(autocommit=autocommit)
        return TracedSession(inner, self._tracer)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
