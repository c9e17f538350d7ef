"""Thread-safe client-side connection pooling for the remote driver.

A :class:`ConnectionPool` keeps a bounded set of handshaken wire
connections to one server and hands them out per unit of work — the
middleware pattern the paper's application tier assumes: many request
handlers, few database connections.

Contract (each piece is tested):

* **min/max size** — ``min_size`` connections are opened eagerly; the pool
  grows on demand up to ``max_size`` and never beyond.
* **checkout timeout** — when every connection is busy, ``acquire`` waits
  up to ``checkout_timeout`` seconds and then raises
  :class:`PoolTimeoutError` instead of blocking forever.
* **liveness check on checkout** — an idle connection that has not been
  used for ``liveness_check_after`` seconds is PINGed before being handed
  out; a dead one (server restarted, socket reset) is discarded and
  replaced transparently.
* **return-to-pool rollback** — a connection released with a transaction
  still open is rolled back (and its auto-commit flag restored) before it
  becomes available again, so one caller's abandoned transaction can never
  leak into the next checkout.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import SqlError
from repro.netclient.client import (
    DEFAULT_BATCH_ROWS,
    RemoteSession,
    WireClient,
)
from repro.obs.observer import NodeObserver
from repro.sqlengine.errors import SqlExecutionError


class PoolTimeoutError(SqlError):
    """No pooled connection became available within the checkout timeout."""


#: The documented :meth:`ConnectionPool.stats` schema.  Every key is an
#: integer counter/gauge; the contract test in ``tests/obs`` pins this
#: tuple, so additions here must update it (removals are breaking).
POOL_STATS_KEYS = (
    "size", "idle", "in_use", "max_size",
    "checkouts", "created", "discarded",
    "liveness_failures", "ping_failures", "replacements",
    "checkout_timeouts",
    "round_trips", "bytes_sent", "bytes_received",
)

#: The documented :meth:`ReplicatedConnectionPool.stats` schema: routing
#: and failover counters, plus ``primary`` (one :data:`POOL_STATS_KEYS`
#: document with an ``address``) and ``replicas`` (a list of the same).
ROUTED_POOL_STATS_KEYS = (
    "reads_on_replicas", "reads_on_primary", "writes_on_primary",
    "read_your_writes_waits", "watermark_wait_timeouts", "lag_fallbacks",
    "replicas_evicted", "replicas_detached", "failovers",
    "generation", "last_write_lsn",
    "primary", "replicas",
)


class ConnectionPool:
    """A bounded pool of wire connections to one SQL server."""

    def __init__(
        self,
        host: str,
        port: Optional[int] = None,
        *,
        min_size: int = 0,
        max_size: int = 8,
        checkout_timeout: float = 5.0,
        liveness_check_after: float = 1.0,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        timeout: Optional[float] = None,
        client_name: str = "repro-pool",
    ) -> None:
        if port is None:
            host, port = host  # an (host, port) address tuple
        if max_size < 1:
            raise SqlExecutionError("max_size must be at least 1")
        if min_size > max_size:
            raise SqlExecutionError("min_size cannot exceed max_size")
        self.host = host
        self.port = port
        self.min_size = min_size
        self.max_size = max_size
        self.checkout_timeout = checkout_timeout
        self.liveness_check_after = liveness_check_after
        self.batch_rows = batch_rows
        self.timeout = timeout
        self.client_name = client_name
        self._cond = threading.Condition()
        self._idle: list[WireClient] = []
        self._size = 0
        self._closed = False
        #: Live clients (for aggregate wire counters); a retired client's
        #: counters are folded into the running totals and its reference
        #: dropped, so churn cannot grow this list without bound.
        self._clients: list[WireClient] = []
        self._retired_round_trips = 0
        self._retired_bytes_sent = 0
        self._retired_bytes_received = 0
        self.checkouts = 0
        self.created = 0
        self.discarded = 0
        self.liveness_failures = 0
        self.checkout_timeouts = 0
        #: Checkout PINGs that found a dead connection (== liveness_failures,
        #: under the name the ops docs use), and the transparent replacements
        #: those triggered — the checkout continues with another connection.
        self.ping_failures = 0
        self.replacements = 0
        for _ in range(min_size):
            with self._cond:
                self._size += 1
            try:
                client = self._open()
            except BaseException:
                with self._cond:
                    self._size -= 1
                raise
            with self._cond:
                self._idle.append(client)

    # -- checkout / release --------------------------------------------------

    def acquire(self) -> WireClient:
        """Check a live connection out of the pool.

        Prefers the most recently returned idle connection (its statement
        cache and liveness are warmest), grows the pool when allowed, and
        otherwise waits — up to ``checkout_timeout`` — for a release.
        """
        deadline = time.monotonic() + self.checkout_timeout
        while True:
            client: Optional[WireClient] = None
            grow = False
            with self._cond:
                if self._closed:
                    raise SqlExecutionError("connection pool is closed")
                if self._idle:
                    client = self._idle.pop()
                elif self._size < self.max_size:
                    self._size += 1
                    grow = True
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.checkout_timeouts += 1
                        raise PoolTimeoutError(
                            f"no connection became available within "
                            f"{self.checkout_timeout}s (max_size={self.max_size})"
                        )
                    self._cond.wait(remaining)
                    continue
            if grow:
                try:
                    client = self._open()
                except BaseException:
                    with self._cond:
                        self._size -= 1
                        self._cond.notify()
                    raise
                with self._cond:
                    self.checkouts += 1
                return client
            assert client is not None
            if (
                self.liveness_check_after is not None
                and time.monotonic() - client.last_used > self.liveness_check_after
                and not client.ping()
            ):
                with self._cond:
                    self.liveness_failures += 1
                    self.ping_failures += 1
                    self.replacements += 1
                self._discard(client)
                continue
            with self._cond:
                self.checkouts += 1
            return client

    def release(self, client: WireClient) -> None:
        """Return a connection, rolling back any abandoned transaction."""
        if client.closed:
            self._discard(client)
            return
        try:
            if client.in_transaction:
                client.rollback()
            if not client.autocommit:
                client.set_autocommit(True)
        except (SqlError, OSError):
            # The reset itself failed: the connection state is unknown, so
            # it must not be reused.
            self._discard(client)
            return
        with self._cond:
            if self._closed:
                pass  # fall through to retire outside the lock
            else:
                self._idle.append(client)
                self._cond.notify()
                return
        client.close()
        with self._cond:
            self._size -= 1
            self._retire(client)

    # -- session/connection factories ---------------------------------------

    def session(
        self,
        autocommit: bool = True,
        batch_rows: Optional[int] = None,
        observer: Optional[NodeObserver] = None,
    ) -> RemoteSession:
        """Check out a connection wrapped as a :class:`RemoteSession`;
        closing the session returns the connection to this pool."""
        client = self.acquire()
        try:
            return RemoteSession(
                client,
                autocommit=autocommit,
                pool=self,
                batch_rows=self.batch_rows if batch_rows is None else batch_rows,
                observer=observer,
            )
        except BaseException:
            self.release(client)
            raise

    def connection(self, auto_commit: bool = True):
        """Check out a connection wrapped in the remote dbapi surface;
        ``close()`` (or leaving its ``with`` block) returns it here."""
        from repro.netclient.connection import Connection

        session = self.session(autocommit=auto_commit)
        try:
            return Connection(None, session=session)
        except BaseException:
            session.close()
            raise

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Pool counters plus aggregate wire counters over every
        connection this pool ever opened."""
        with self._cond:
            return {
                "size": self._size,
                "idle": len(self._idle),
                "in_use": self._size - len(self._idle),
                "max_size": self.max_size,
                "checkouts": self.checkouts,
                "created": self.created,
                "discarded": self.discarded,
                "liveness_failures": self.liveness_failures,
                "ping_failures": self.ping_failures,
                "replacements": self.replacements,
                "checkout_timeouts": self.checkout_timeouts,
                "round_trips": self._retired_round_trips
                + sum(c.round_trips for c in self._clients),
                "bytes_sent": self._retired_bytes_sent
                + sum(c.bytes_sent for c in self._clients),
                "bytes_received": self._retired_bytes_received
                + sum(c.bytes_received for c in self._clients),
            }

    def round_trips(self) -> int:
        """Total request/response round trips across every connection this
        pool ever opened (retired ones included)."""
        with self._cond:
            return self._retired_round_trips + sum(
                client.round_trips for client in self._clients
            )

    def traces(self, trace_id: Optional[str] = None) -> list[dict]:
        """Spans buffered on the server this pool fronts."""
        session = self.session()
        try:
            return session.traces(trace_id)["spans"]
        finally:
            session.close()

    def metrics(self) -> str:
        """The fronted server's metrics in Prometheus text format."""
        session = self.session()
        try:
            return session.metrics()
        finally:
            session.close()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every idle connection and refuse further checkouts.

        Connections currently checked out are closed as they come back.
        """
        with self._cond:
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._size -= len(idle)
            self._cond.notify_all()
        for client in idle:
            client.close()
        with self._cond:
            for client in idle:
                self._retire(client)

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _open(self) -> WireClient:
        client = WireClient(
            self.host, self.port, timeout=self.timeout, client_name=self.client_name
        )
        with self._cond:
            self._clients.append(client)
            self.created += 1
        return client

    def _discard(self, client: WireClient) -> None:
        client.close()
        with self._cond:
            self.discarded += 1
            self._size -= 1
            self._retire(client)
            self._cond.notify()

    def _retire(self, client: WireClient) -> None:
        """Fold a dead client's counters into the totals and drop it.
        Caller holds the condition lock."""
        try:
            self._clients.remove(client)
        except ValueError:  # pragma: no cover - retired twice
            return
        self._retired_round_trips += client.round_trips
        self._retired_bytes_sent += client.bytes_sent
        self._retired_bytes_received += client.bytes_received


# ---------------------------------------------------------------------------
# Replica-aware routing
# ---------------------------------------------------------------------------

_READ_ONLY_KEYWORDS = frozenset({"select", "explain"})


def _read_only_sql(sql: str) -> bool:
    """Lexical read-only test: does this statement only read?

    The router cannot ask the engine without a round trip, so it keys off
    the first keyword — exactly the set of statements a read-only server
    accepts (SELECT, EXPLAIN).  Anything unrecognised routes to the
    primary, which is always correct, just not load-balanced.
    """
    head = sql.lstrip()[:16].split(None, 1)
    return bool(head) and head[0].lower() in _READ_ONLY_KEYWORDS


def _transport_dead(session: Optional[RemoteSession], error: BaseException) -> bool:
    """Did ``error`` mean the node (not the statement) failed?

    A broken transport always tears the wire client down before raising,
    so "the client is now closed" separates dead-node errors from ordinary
    SQL errors on a healthy connection.  Pool saturation
    (:class:`PoolTimeoutError`) is neither.
    """
    if isinstance(error, PoolTimeoutError):
        return False
    if isinstance(error, (OSError, EOFError)):
        return True
    return (
        isinstance(error, SqlError)
        and session is not None
        and session.client.closed
    )


class _Node:
    """One server endpoint and its connection pool."""

    def __init__(self, address: tuple[str, int], pool: ConnectionPool) -> None:
        self.address = (address[0], int(address[1]))
        self.pool = pool
        self.healthy = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "healthy" if self.healthy else "evicted"
        return f"<_Node {self.address[0]}:{self.address[1]} {state}>"


class RoutedSession:
    """A RemoteSession-shaped facade that routes statements across nodes.

    Reads (auto-commit SELECT/EXPLAIN, or everything when ``read_only``)
    go to a replica; writes and explicit read-write transactions go to the
    primary.  Underlying per-node sessions are checked out lazily from the
    routed pool's node pools and held for this session's lifetime, so a
    transaction stays pinned to one connection.
    """

    def __init__(
        self,
        pool: "ReplicatedConnectionPool",
        *,
        autocommit: bool = True,
        batch_rows: Optional[int] = None,
        read_only: bool = False,
        observer: Optional[NodeObserver] = None,
    ) -> None:
        self._routed = pool
        self._autocommit = autocommit
        self._read_only = read_only
        self.batch_rows = pool.batch_rows if batch_rows is None else batch_rows
        self._closed = False
        #: Client-edge tracing (see RemoteSession); ``_stmt_trace`` holds
        #: the context of the statement currently being routed so the
        #: read-your-writes barrier can record its wait against it.
        self._obs = observer
        self._stmt_trace = None
        self._primary: Optional[RemoteSession] = None
        #: Pool generation the pinned primary session was checked out
        #: under; a mismatch means a failover happened elsewhere and the
        #: session points at a demoted (dead) node.
        self._primary_generation = 0
        #: The replica this session reads from, pinned once chosen so a
        #: read-only transaction sees one snapshot-consistent node.
        self._replica: Optional[tuple[_Node, RemoteSession]] = None
        #: Synthetic prepared-statement ids -> SQL text.  Execution routes
        #: the text like any statement; the per-connection statement cache
        #: underneath keeps the server-side PREPARE amortised.
        self._prepared: dict[int, str] = {}
        self._prepared_seq = 0

    # -- properties ----------------------------------------------------------

    @property
    def client(self):
        """The wire client of whichever node this session last pinned
        (for counter-reading tests; per-node counters live on the pools)."""
        if self._primary is not None:
            return self._primary.client
        if self._replica is not None:
            return self._replica[1].client
        return _NULL_CLIENT

    @property
    def in_transaction(self) -> bool:
        if self._read_only:
            return self._replica is not None and self._replica[1].in_transaction
        return self._primary is not None and self._primary.in_transaction

    @property
    def autocommit(self) -> bool:
        return self._autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        self._autocommit = value
        if self._primary is not None:
            self._primary.autocommit = value
        if self._read_only and self._replica is not None:
            self._replica[1].autocommit = value

    # -- SQL interface -------------------------------------------------------

    def execute(self, sql: str, params=(), *, trace=None):
        self._check_open()
        obs = self._obs
        if trace is None and obs is not None and obs.active:
            return obs.edge(sql, lambda context: self._execute_routed(sql, params, context))
        return self._execute_routed(sql, params, trace)

    def _execute_routed(self, sql: str, params, trace):
        pool = self._routed
        if self._read_only or self._routes_to_replica(sql):
            self._stmt_trace = trace
            try:
                return self._with_replica(lambda s: s.execute(sql, params, trace=trace))
            finally:
                self._stmt_trace = None
        write = not _read_only_sql(sql)
        retryable = write and not self.in_transaction and pool.retry_writes_on_failover
        result = self._with_primary(
            lambda s: s.execute(sql, params, trace=trace), retryable=retryable
        )
        if write:
            pool._count("writes_on_primary")
            if not self.in_transaction:
                pool._note_write(self._primary.client.last_lsn)
        else:
            pool._count("reads_on_primary")
        return result

    def prepare(self, sql: str) -> int:
        """A synthetic statement id valid for this session; execution
        re-routes the SQL text, so a prepared read can run on a replica
        while a prepared write runs on the primary — and survives a
        failover in between."""
        self._check_open()
        self._prepared_seq += 1
        self._prepared[self._prepared_seq] = sql
        return self._prepared_seq

    def execute_prepared(self, stmt_id: int, params=()):
        self._check_open()
        sql = self._prepared.get(stmt_id)
        if sql is None:
            raise SqlExecutionError(f"unknown prepared statement id {stmt_id}")
        return self.execute(sql, params)

    def close_statement(self, stmt_id: int) -> None:
        self._prepared.pop(stmt_id, None)

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        self._check_open()
        if self._read_only:
            self._with_replica(lambda s: s.begin(), statement=False)
        else:
            self._with_primary(lambda s: s.begin(), retryable=True)

    def commit(self, *, trace=None) -> None:
        self._check_open()
        if self._read_only:
            if self._replica is not None:
                self._replica[1].commit()
            return
        if self._primary is not None:
            # A commit must never be retried on a new primary: if the old
            # one died mid-COMMIT the outcome is unknown.
            self._with_primary(lambda s: s.commit(trace=trace), retryable=False)
            self._routed._note_write(self._primary.client.last_lsn)

    def rollback(self) -> None:
        self._check_open()
        if self._read_only:
            if self._replica is not None:
                self._replica[1].rollback()
            return
        if self._primary is not None:
            self._with_primary(lambda s: s.rollback(), retryable=False)

    # -- two-phase commit (the sharding coordinator's verbs) ------------------

    def prepare_txn(self, gid: str, *, trace=None) -> None:
        """Phase one against the primary.  Never retried across a
        failover: the transaction's server state died with the old
        primary, so the coordinator must treat the failure as a veto."""
        self._check_open()
        self._with_primary(lambda s: s.prepare_txn(gid, trace=trace), retryable=False)

    def commit_prepared(self, gid: str, *, trace=None) -> None:
        """Apply a prepared transaction.  Retryable: the decision is
        idempotent, and a promoted replica adopted the prepared batch."""
        self._check_open()
        self._with_primary(
            lambda s: s.commit_prepared(gid, trace=trace), retryable=True
        )
        self._routed._note_write(self._primary.client.last_lsn)

    def abort_prepared(self, gid: str, *, trace=None) -> None:
        """Discard a prepared transaction (presumed abort; retryable)."""
        self._check_open()
        self._with_primary(
            lambda s: s.abort_prepared(gid, trace=trace), retryable=True
        )

    def list_prepared(self) -> list:
        """Gids in doubt on the current primary."""
        self._check_open()
        return self._with_primary(lambda s: s.list_prepared(), retryable=True)

    # -- server-side extras --------------------------------------------------

    def explain(self, sql: str) -> str:
        self._check_open()
        if self._read_only:
            return self._with_replica(lambda s: s.explain(sql), statement=False)
        return self._with_primary(lambda s: s.explain(sql), retryable=True)

    def checkpoint(self) -> None:
        self._check_open()
        self._with_primary(lambda s: s.checkpoint(), retryable=False)

    def server_stats(self) -> dict:
        self._check_open()
        if self._read_only:
            return self._with_replica(lambda s: s.server_stats(), statement=False)
        return self._with_primary(lambda s: s.server_stats(), retryable=True)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._prepared.clear()
        replica = self._replica
        self._replica = None
        if replica is not None:
            replica[1].close()
        primary = self._primary
        self._primary = None
        if primary is not None:
            primary.close()

    def __enter__(self) -> "RoutedSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if not self._closed and exc_type is None:
                self.commit()
            elif not self._closed:
                try:
                    self.rollback()
                except (SqlError, OSError):
                    pass
        finally:
            self.close()

    # -- routing internals ---------------------------------------------------

    def _routes_to_replica(self, sql: str) -> bool:
        if not self._autocommit or self.in_transaction:
            return False
        return _read_only_sql(sql)

    def _ensure_primary(self) -> RemoteSession:
        pool_generation = self._routed.generation
        session = self._primary
        if session is not None:
            if (
                not session.client.closed
                and self._primary_generation == pool_generation
            ):
                return session
            self._drop_primary()
        session = self._routed._primary_node().pool.session(
            autocommit=self._autocommit, batch_rows=self.batch_rows
        )
        self._primary = session
        self._primary_generation = pool_generation
        return session

    def _drop_primary(self) -> None:
        session = self._primary
        self._primary = None
        if session is not None:
            session.close()

    def _with_primary(self, fn, *, retryable: bool):
        """Run ``fn`` against the primary's session, failing over once.

        On a dead-node error the routed pool promotes a replica; the
        statement is retried on the new primary only when ``retryable``
        (an auto-commit statement outside any transaction) — an explicit
        transaction lost its server state, so its caller must restart it.
        """
        pool = self._routed
        failed_over = False
        while True:
            session = None
            try:
                session = self._ensure_primary()
                return fn(session)
            except PoolTimeoutError:
                raise
            except (SqlError, OSError) as error:
                if (
                    failed_over
                    or not pool.failover
                    or not _transport_dead(session, error)
                ):
                    raise
                had_txn = session is not None and session.in_transaction
                # The generation the dead session was routed under: the
                # pool only runs a new promotion if no one else already
                # moved the generation past it.
                session_generation = self._primary_generation
                self._drop_primary()
                if not pool._failover(session_generation):
                    raise
                failed_over = True
                if had_txn or not retryable:
                    raise

    def _ensure_replica(self) -> Optional[tuple[_Node, RemoteSession]]:
        pinned = self._replica
        if pinned is not None:
            node, session = pinned
            if (
                node.healthy
                and not session.client.closed
                and self._routed._is_replica(node)
            ):
                return pinned
            self._drop_replica()
        checkout = self._routed._checkout_replica(
            autocommit=True if not self._read_only else self._autocommit,
            batch_rows=self.batch_rows,
        )
        if checkout is not None:
            self._replica = checkout
        return checkout

    def _drop_replica(self) -> None:
        pinned = self._replica
        self._replica = None
        if pinned is not None:
            pinned[1].close()

    def _with_replica(self, fn, *, statement: bool = True):
        """Run ``fn`` on a replica, evicting dead ones and falling back.

        A dead replica is evicted from the routed pool and the work moves
        to the next one (or the primary) — unless a read-only transaction
        was open on it, in which case its snapshot is gone and the error
        must surface.  A read-your-writes wait that times out falls back
        to the primary without evicting: the replica is lagging, not dead.
        """
        pool = self._routed
        while True:
            pinned = self._ensure_replica()
            if pinned is None:
                if self._read_only:
                    raise SqlExecutionError(
                        "no healthy replica available for a read-only session"
                    )
                result = self._with_primary(fn, retryable=True)
                pool._count("reads_on_primary")
                return result
            node, session = pinned
            try:
                if statement:
                    self._read_your_writes_barrier(session)
                result = fn(session)
            except _LagTimeout:
                # Fall back for this read; keep the replica pinned.
                pool._count("lag_fallbacks")
                if self._read_only:
                    raise SqlExecutionError(
                        "replica did not catch up to the last write in time"
                    )
                result = self._with_primary(fn, retryable=True)
                pool._count("reads_on_primary")
                return result
            except PoolTimeoutError:
                raise
            except (SqlError, OSError) as error:
                if not _transport_dead(session, error):
                    raise
                in_txn = session.in_transaction
                self._drop_replica()
                pool._evict(node)
                if in_txn:
                    raise
                continue
            pool._count("reads_on_replicas")
            return result

    def _read_your_writes_barrier(self, session: RemoteSession) -> None:
        """Make a replica read see this pool's last acknowledged write.

        Every response from a replica carries its replayed watermark, so
        the wait round trip is skipped whenever this connection has
        already observed a watermark past the last write's LSN.
        """
        pool = self._routed
        if not pool.read_your_writes:
            return
        target = pool.last_write_lsn
        if target == (0, 0):
            return
        client = session.client
        if client.last_lsn >= target:
            return
        pool._count("read_your_writes_waits")

        def wait():
            return client.wait_lsn(target, pool.read_your_writes_timeout)

        try:
            if self._obs is None:
                reached = wait()
            else:
                reached = self._obs.call(self._stmt_trace, "wait_lsn", wait)
        except SqlError as error:
            if client.closed:
                raise  # transport death, not a lag timeout
            pool._count("watermark_wait_timeouts")
            raise _LagTimeout() from error
        if reached < target:
            pool._count("watermark_wait_timeouts")
            raise _LagTimeout()

    def _check_open(self) -> None:
        if self._closed:
            raise SqlExecutionError("session is closed")


class _LagTimeout(Exception):
    """Internal: a read-your-writes wait timed out (replica lagging)."""


class _NullClient:
    """Counter stub for a routed session that has not pinned a node yet."""

    round_trips = 0
    bytes_sent = 0
    bytes_received = 0
    closed = False
    in_transaction = False
    last_lsn = (0, 0)


_NULL_CLIENT = _NullClient()


class ReplicatedConnectionPool:
    """Replica-aware routing over one primary and N read replicas.

    Owns one :class:`ConnectionPool` per node.  Sessions from
    :meth:`session` route auto-commit reads round-robin across healthy
    replicas and everything else to the primary; with ``read_your_writes``
    (the default) a replica read first waits for the replica to replay the
    pool's last acknowledged write, so a client never reads its own write's
    absence.  When the primary dies mid-statement the pool promotes the
    first healthy replica (draining its stream) and re-points writes at
    it — ``failovers`` in :meth:`stats` counts these.
    """

    def __init__(
        self,
        primary: tuple[str, int],
        replicas=(),
        *,
        read_your_writes: bool = True,
        read_your_writes_timeout: float = 5.0,
        failover: bool = True,
        retry_writes_on_failover: bool = True,
        promote_data_dir: Optional[str] = None,
        min_size: int = 0,
        max_size: int = 8,
        checkout_timeout: float = 5.0,
        liveness_check_after: float = 1.0,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        timeout: Optional[float] = None,
        client_name: str = "repro-routed",
    ) -> None:
        self.read_your_writes = read_your_writes
        self.read_your_writes_timeout = read_your_writes_timeout
        self.failover = failover
        self.retry_writes_on_failover = retry_writes_on_failover
        #: When set, a failover promotion asks the replica to become
        #: durable at this path (PROMOTE's optional data_dir), so the new
        #: primary's committed prefix survives its own crashes too.
        self.promote_data_dir = promote_data_dir
        self.batch_rows = batch_rows
        self._pool_options = dict(
            min_size=min_size,
            max_size=max_size,
            checkout_timeout=checkout_timeout,
            liveness_check_after=liveness_check_after,
            batch_rows=batch_rows,
            timeout=timeout,
        )
        self.client_name = client_name
        self._lock = threading.Lock()
        self._primary = self._make_node(primary, f"{client_name}-primary")
        self._replicas: list[_Node] = [
            self._make_node(address, f"{client_name}-replica{index}")
            for index, address in enumerate(replicas)
        ]
        self._rr = 0
        self._generation = 0
        self._last_write_lsn = (0, 0)
        self._closed = False
        self.reads_on_replicas = 0
        self.reads_on_primary = 0
        self.writes_on_primary = 0
        self.read_your_writes_waits = 0
        #: Read-your-writes waits that timed out (the replica was lagging
        #: past ``read_your_writes_timeout``)...
        self.watermark_wait_timeouts = 0
        #: ...and the reads that consequently fell back to the primary
        #: (every timeout becomes a fallback; read-only sessions surface
        #: the error instead, so the two can differ).
        self.lag_fallbacks = 0
        self.replicas_evicted = 0
        self.replicas_detached = 0
        self.failovers = 0

    def _make_node(self, address, client_name: str) -> _Node:
        return _Node(
            address, ConnectionPool(address, client_name=client_name, **self._pool_options)
        )

    # -- session factories ---------------------------------------------------

    def session(
        self,
        autocommit: bool = True,
        batch_rows: Optional[int] = None,
        read_only: bool = False,
        observer: Optional[NodeObserver] = None,
    ) -> RoutedSession:
        """A routed session; ``read_only=True`` pins every statement —
        explicit transactions included — to one replica."""
        with self._lock:
            if self._closed:
                raise SqlExecutionError("connection pool is closed")
        return RoutedSession(
            self,
            autocommit=autocommit,
            batch_rows=batch_rows,
            read_only=read_only,
            observer=observer,
        )

    def connection(self, auto_commit: bool = True, read_only: bool = False):
        """The remote dbapi surface over a routed session."""
        from repro.netclient.connection import Connection

        session = self.session(autocommit=auto_commit, read_only=read_only)
        try:
            return Connection(None, session=session)
        except BaseException:
            session.close()
            raise

    # -- topology ------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Bumped by every failover; routed sessions use it to detect a
        promotion that raced their own error handling."""
        with self._lock:
            return self._generation

    @property
    def primary_address(self) -> tuple[str, int]:
        with self._lock:
            return self._primary.address

    @property
    def replica_addresses(self) -> list[tuple[str, int]]:
        with self._lock:
            return [node.address for node in self._replicas if node.healthy]

    @property
    def last_write_lsn(self) -> tuple[int, int]:
        """The primary LSN of the last write acknowledged via this pool."""
        with self._lock:
            return self._last_write_lsn

    def _note_write(self, lsn: tuple[int, int]) -> None:
        with self._lock:
            if lsn > self._last_write_lsn:
                self._last_write_lsn = lsn

    def _primary_node(self) -> _Node:
        with self._lock:
            return self._primary

    def _is_replica(self, node: _Node) -> bool:
        with self._lock:
            return node in self._replicas

    def _checkout_replica(self, *, autocommit: bool, batch_rows: Optional[int]):
        """(node, session) from the next healthy replica, or None.

        Walks the ring at most once; a replica whose pool cannot produce a
        connection (node down) is evicted on the spot.  Saturation
        (:class:`PoolTimeoutError`) propagates — the node is alive, the
        caller is just over-driving it.
        """
        while True:
            with self._lock:
                candidates = [node for node in self._replicas if node.healthy]
                if not candidates:
                    return None
                node = candidates[self._rr % len(candidates)]
                self._rr += 1
            try:
                session = node.pool.session(
                    autocommit=autocommit, batch_rows=batch_rows
                )
            except PoolTimeoutError:
                raise
            except (SqlError, OSError):
                self._evict(node)
                continue
            return node, session

    def _evict(self, node: _Node) -> None:
        """Drop a dead replica from rotation and close its pool."""
        with self._lock:
            if not node.healthy or node not in self._replicas:
                return
            node.healthy = False
            self._replicas.remove(node)
            self.replicas_evicted += 1
        node.pool.close()

    # -- failover ------------------------------------------------------------

    def _failover(self, observed_generation: int) -> bool:
        """Promote a replica to primary; True when a (possibly concurrent)
        failover produced a new primary to retry against.

        Serialised: the first session to notice the dead primary runs the
        promotion; racers block on the lock, see the generation moved on,
        and simply retry.  ``observed_generation`` is the generation the
        caller routed its failed statement under.
        """
        if not self.failover:
            return False
        with self._lock:
            if self._closed:
                return False
            if self._generation != observed_generation:
                return True  # someone else already failed over
            candidates = list(self._replicas)
            old_primary = self._primary
        for node in candidates:
            if not node.healthy:
                continue
            try:
                with node.pool.session() as session:
                    session.client.promote(self.promote_data_dir)
            except (SqlError, OSError):
                self._evict(node)
                continue
            with self._lock:
                if self._generation != observed_generation:
                    return True
                self._replicas.remove(node)
                # The surviving replicas still follow the dead primary:
                # they will never see writes acknowledged by the new one,
                # so serving reads from them would break read-your-writes.
                # Detach them; reads fall back to the new primary.
                detached = list(self._replicas)
                self._replicas = []
                self.replicas_detached += len(detached)
                self._primary = node
                self._generation += 1
                self.failovers += 1
            for stale in detached:
                stale.healthy = False
                stale.pool.close()
            old_primary.healthy = False
            old_primary.pool.close()
            return True
        return False

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Routing and failover counters plus per-node pool stats."""
        with self._lock:
            primary = self._primary
            replicas = list(self._replicas)
            counters = {
                "reads_on_replicas": self.reads_on_replicas,
                "reads_on_primary": self.reads_on_primary,
                "writes_on_primary": self.writes_on_primary,
                "read_your_writes_waits": self.read_your_writes_waits,
                "watermark_wait_timeouts": self.watermark_wait_timeouts,
                "lag_fallbacks": self.lag_fallbacks,
                "replicas_evicted": self.replicas_evicted,
                "replicas_detached": self.replicas_detached,
                "failovers": self.failovers,
                "generation": self._generation,
                "last_write_lsn": list(self._last_write_lsn),
            }
        counters["primary"] = {
            "address": list(primary.address),
            **primary.pool.stats(),
        }
        counters["replicas"] = [
            {"address": list(node.address), **node.pool.stats()} for node in replicas
        ]
        return counters

    def round_trips(self) -> int:
        """Aggregate wire round trips across every node pool."""
        with self._lock:
            pools = [self._primary.pool] + [node.pool for node in self._replicas]
        return sum(pool.round_trips() for pool in pools)

    def traces(self, trace_id: Optional[str] = None) -> list[dict]:
        """Server-side spans gathered from the primary and every healthy
        replica.  Unreachable nodes are skipped: traces are a diagnostic
        surface and must not fail when the cluster is degraded."""
        with self._lock:
            pools = [self._primary.pool] + [
                node.pool for node in self._replicas if node.healthy
            ]
        spans: list[dict] = []
        for pool in pools:
            try:
                spans.extend(pool.traces(trace_id))
            except (SqlError, OSError):
                continue
        return spans

    def metrics(self) -> str:
        """Prometheus text from the primary and every healthy replica,
        concatenated with per-node comment headers."""
        with self._lock:
            nodes = [self._primary] + [n for n in self._replicas if n.healthy]
        chunks: list[str] = []
        for node in nodes:
            try:
                text = node.pool.metrics()
            except (SqlError, OSError):
                continue
            chunks.append(f"# node {node.address[0]}:{node.address[1]}\n{text}")
        return "\n".join(chunks)

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pools = [self._primary.pool] + [node.pool for node in self._replicas]
        for pool in pools:
            pool.close()

    def __enter__(self) -> "ReplicatedConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
