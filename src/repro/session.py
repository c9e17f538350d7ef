"""The one session contract every SQL session implements.

The engine ``Session``, the network ``RemoteSession``, the replica-aware
``RoutedSession`` and the coordinator's ``ShardedSession`` all satisfy
:class:`SqlSession`, so the wire server fronts any node and the
coordinator drives any shard backend through these verbs alone.  Every
verb that does work on a node takes a keyword-only ``trace`` (the inbound
trace context, or None); the receiving session opens its span through its
node's :class:`~repro.obs.observer.NodeObserver`.  The coordinator drives
two-phase commit and never joins one: its participant verbs raise
:class:`~repro.sqlengine.errors.ShardError`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.obs.trace import TraceContext


@runtime_checkable
class SqlSession(Protocol):
    """Statements, transaction control and the 2PC participant verbs."""

    @property
    def in_transaction(self) -> bool: ...

    def execute(
        self, sql: str, params: Sequence[object] = (), *, trace: Optional[TraceContext] = None
    ): ...

    def begin(self) -> None: ...

    def commit(self, *, trace: Optional[TraceContext] = None) -> None: ...

    def rollback(self) -> None: ...

    def close(self) -> None: ...

    def prepare_txn(self, gid: str, *, trace: Optional[TraceContext] = None) -> None: ...

    def commit_prepared(self, gid: str, *, trace: Optional[TraceContext] = None) -> None: ...

    def abort_prepared(self, gid: str, *, trace: Optional[TraceContext] = None) -> None: ...

    def list_prepared(self) -> list[str]: ...
