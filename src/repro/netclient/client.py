"""Low-level wire client, remote sessions and the remote Database facade.

Three layers, bottom up:

* :class:`WireClient` — one TCP connection speaking the protocol of
  :mod:`repro.server.protocol`: framing, handshake, request/response,
  structured-error raising, and per-connection counters (round trips,
  bytes).  It mirrors the server session's transaction state from the
  flags byte every response carries, so ``in_transaction`` is always
  authoritative without extra round trips.
* :class:`RemoteSession` — the client-side counterpart of the engine's
  :class:`~repro.sqlengine.engine.Session`: ``execute``/``begin``/
  ``commit``/``rollback``/``close`` with the same semantics, plus the
  server-only verbs (prepare, server_stats, explain, checkpoint).  Its
  results stream: a SELECT larger than ``batch_rows`` comes back as a
  first batch plus a server-side cursor drained with FETCH.
* :class:`RemoteDatabase` — a Database-shaped session factory, so the
  embedded dbapi :class:`~repro.dbapi.connection.Connection` and the ORM's
  :class:`~repro.orm.entity_manager.EntityManager` run unmodified against
  a remote server.
"""

from __future__ import annotations

import json
import socket
import time
from collections import OrderedDict
from typing import Optional, Sequence

from repro.errors import SqlError
from repro.obs.observer import NodeObserver
from repro.obs.trace import TraceContext, TracingOptions
from repro.server import protocol
from repro.sqlengine.engine import build_column_map
from repro.sqlengine.errors import SqlExecutionError

#: Default FETCH batch size: large enough that typical OLTP results ship in
#: one round trip, small enough to bound a frame for wide scans.
DEFAULT_BATCH_ROWS = 256


class WireClient:
    """One client socket speaking the binary wire protocol."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = None,
        connect_timeout: float = 10.0,
        client_name: str = "repro-netclient",
    ) -> None:
        self.host = host
        self.port = port
        sock = socket.create_connection((host, port), timeout=connect_timeout)
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._closed = False
        #: Mirrors the server session's transaction state (updated from the
        #: flags byte of every response frame).
        self.in_transaction = False
        #: Mirrors the server session's auto-commit flag (server default on).
        self.autocommit = True
        self.round_trips = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_used = time.monotonic()
        #: The server's log position from the most recent response that
        #: carried one — on a primary its end of WAL (a read-your-writes
        #: token after a write), on a replica its replayed watermark.
        self.last_lsn: tuple[int, int] = (0, 0)
        # Client-side cache of server-side prepared-statement ids, keyed by
        # SQL text.  The server's registration lives as long as this
        # connection, so pooled reuse across many short-lived
        # PreparedStatement objects pays PREPARE once per distinct SQL.
        self._statement_ids: "OrderedDict[str, int]" = OrderedDict()
        try:
            reply = self.request(protocol.encode_hello(client_name=client_name))
            if reply.op != protocol.HELLO_OK:
                raise protocol.ProtocolError(
                    f"expected HELLO_OK, got {reply.op_name}"
                )
        except BaseException:
            # A rejected handshake (version mismatch, server at capacity)
            # arrives as a structured ERROR: make sure the socket does not
            # outlive the failed constructor.
            self._teardown()
            raise
        self.server_banner = reply.text

    # -- request/response ----------------------------------------------------

    def request(self, payload: bytes) -> protocol.ServerMessage:
        """Send one request frame and decode the one response frame.

        A transport failure (reset, timeout, torn frame) closes the client
        — there is no way to resynchronise a request/response stream — and
        raises :class:`SqlExecutionError`.  A structured ERROR response is
        re-raised under its original engine error class; the connection
        stays usable, exactly like a failed statement on a local session.
        """
        if self._closed:
            raise SqlExecutionError("connection to server is closed")
        framed = protocol.frame(payload)
        try:
            self._sock.sendall(framed)
            response = protocol.read_frame(self._rfile)
        except protocol.ProtocolError:
            self._teardown()
            raise
        except OSError as error:
            self._teardown()
            raise SqlExecutionError(f"lost connection to server: {error}") from error
        if response is None:
            self._teardown()
            raise SqlExecutionError("server closed the connection")
        self.round_trips += 1
        self.bytes_sent += len(framed)
        self.bytes_received += len(response) + 8
        self.last_used = time.monotonic()
        message = protocol.decode_server_message(response)
        self.in_transaction = message.in_transaction
        if message.lsn != (0, 0) and message.lsn > self.last_lsn:
            self.last_lsn = message.lsn
        if message.op == protocol.ERROR:
            protocol.raise_remote_error(message.error_class, message.message)
        return message

    # -- protocol verbs ------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[object] = (),
        max_rows: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> protocol.ServerMessage:
        """EXECUTE one statement; returns the RESULT message."""
        return self.request(
            protocol.encode_execute(sql, tuple(params), max_rows, trace)
        )

    #: Bound on cached prepared-statement registrations per connection.
    STATEMENT_CACHE_SIZE = 256

    def prepare(self, sql: str) -> int:
        """PREPARE a server-side statement; returns its id."""
        return self.request(protocol.encode_prepare(sql)).stmt_id

    def prepared_statement_id(self, sql: str) -> int:
        """The server-side statement id for ``sql``, PREPAREing on a cache
        miss.  Evicted entries are CLOSE_STATEMENTed (best effort)."""
        stmt_id = self._statement_ids.get(sql)
        if stmt_id is not None:
            self._statement_ids.move_to_end(sql)
            return stmt_id
        stmt_id = self.prepare(sql)
        self._statement_ids[sql] = stmt_id
        while len(self._statement_ids) > self.STATEMENT_CACHE_SIZE:
            _, evicted = self._statement_ids.popitem(last=False)
            try:
                self.close_statement(evicted)
            except (SqlError, OSError):  # pragma: no cover - best effort
                break
        return stmt_id

    def execute_prepared(
        self,
        stmt_id: int,
        params: Sequence[object] = (),
        max_rows: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> protocol.ServerMessage:
        """EXECUTE_PREPARED with fresh parameters; returns the RESULT."""
        return self.request(
            protocol.encode_execute_prepared(stmt_id, tuple(params), max_rows, trace)
        )

    def fetch(
        self, cursor_id: int, max_rows: int, trace: Optional[TraceContext] = None
    ) -> protocol.ServerMessage:
        """FETCH the next batch of an open cursor."""
        return self.request(protocol.encode_fetch(cursor_id, max_rows, trace))

    def close_cursor(self, cursor_id: int) -> None:
        """Drop a server-side cursor without draining it."""
        self.request(protocol.encode_close_cursor(cursor_id))

    def close_statement(self, stmt_id: int) -> None:
        """Drop a server-side prepared statement."""
        self.request(protocol.encode_close_statement(stmt_id))

    def begin(self) -> None:
        """Open an explicit transaction on the server session."""
        self.request(protocol.encode_simple(protocol.BEGIN))

    def commit(self, trace: Optional[TraceContext] = None) -> None:
        """Commit the server session's open transaction."""
        self.request(protocol.encode_simple(protocol.COMMIT, trace))

    def rollback(self) -> None:
        """Roll back the server session's open transaction."""
        self.request(protocol.encode_simple(protocol.ROLLBACK))

    def set_autocommit(self, value: bool) -> None:
        """Flip the server session's auto-commit flag (no-op round trip is
        skipped when the cached flag already matches)."""
        if value == self.autocommit:
            return
        self.request(protocol.encode_set_autocommit(value))
        self.autocommit = value

    def explain(self, sql: str) -> str:
        """The engine's cost-annotated plan for ``sql``."""
        return self.request(protocol.encode_explain(sql)).text

    def checkpoint(self) -> None:
        """Checkpoint the server's database."""
        self.request(protocol.encode_simple(protocol.CHECKPOINT))

    def server_stats(self) -> dict:
        """The SERVER_STATS document (server counters + engine stats)."""
        return json.loads(self.request(protocol.encode_simple(protocol.SERVER_STATS)).text)

    def wal_position(self) -> tuple[int, int]:
        """The server's current log position (primary: end of WAL;
        replica: replayed watermark)."""
        return self.request(protocol.encode_simple(protocol.WAL_POSITION)).lsn

    def wait_lsn(self, lsn: tuple[int, int], timeout: float = 5.0) -> tuple[int, int]:
        """Block until the server's applied position reaches ``lsn``; the
        reached position is returned.  Raises on timeout."""
        message = self.request(
            protocol.encode_wait_lsn(lsn[0], lsn[1], int(timeout * 1000))
        )
        return message.lsn

    def promote(self, data_dir: Optional[str] = None) -> None:
        """PROMOTE a replica server into a writable primary; with
        ``data_dir`` the promoted server becomes durable there first."""
        self.request(protocol.encode_promote(data_dir or ""))

    # -- two-phase commit (the sharding coordinator's verbs) ------------------

    def prepare_txn(self, gid: str, trace: Optional[TraceContext] = None) -> None:
        """PREPARE_TXN: make the open transaction durable under ``gid``
        without committing it (phase one of two-phase commit)."""
        self.request(protocol.encode_prepare_txn(gid, trace))

    def commit_prepared(self, gid: str, trace: Optional[TraceContext] = None) -> None:
        """COMMIT_PREPARED: apply a prepared transaction (idempotent)."""
        self.request(protocol.encode_commit_prepared(gid, trace))

    def abort_prepared(self, gid: str, trace: Optional[TraceContext] = None) -> None:
        """ABORT_PREPARED: discard a prepared transaction (presumed abort:
        unknown gids succeed silently)."""
        self.request(protocol.encode_abort_prepared(gid, trace))

    def list_prepared(self) -> list[str]:
        """LIST_PREPARED: gids of every in-doubt transaction on the server."""
        return json.loads(
            self.request(protocol.encode_simple(protocol.LIST_PREPARED)).text
        )

    def traces(self, trace_id: Optional[str] = None) -> dict:
        """TRACES: the server's buffered spans — ``{"node": ..., "spans":
        [...]}`` — optionally filtered to one trace id."""
        return json.loads(
            self.request(protocol.encode_traces(trace_id or "")).text
        )

    def metrics(self) -> str:
        """METRICS: the server's registry in Prometheus text format."""
        return self.request(protocol.encode_metrics()).text

    def ping(self) -> bool:
        """Round-trip liveness probe; False (never an exception) when the
        server is gone.  A failed ping closes the client."""
        if self._closed:
            return False
        try:
            self.request(protocol.encode_simple(protocol.PING))
            return True
        except (SqlError, OSError):
            return False

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the transport is gone."""
        return self._closed

    def close(self) -> None:
        """Say GOODBYE (best effort) and close the socket."""
        if self._closed:
            return
        try:
            self._sock.sendall(protocol.frame(protocol.encode_simple(protocol.GOODBYE)))
        except OSError:
            pass
        self._teardown()

    def _teardown(self) -> None:
        self._closed = True
        try:
            self._rfile.close()
        except OSError:  # pragma: no cover - close is best effort
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best effort
            pass


class RemoteResult:
    """A query result that streams row batches from a server-side cursor.

    Shaped like the engine's :class:`~repro.sqlengine.engine.ResultSet`
    (``columns``/``rows``/``rowcount``/``column_index``/``value``) so the
    ORM and the dbapi layer consume it unchanged; ``rows`` drains the
    cursor, while :meth:`available` lets streaming consumers pull batches
    lazily.
    """

    def __init__(
        self,
        session: "RemoteSession",
        message: protocol.ServerMessage,
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.columns = list(message.columns)
        self.rowcount = message.rowcount
        self._buffer: list[tuple[object, ...]] = list(message.rows)
        self._cursor_id = message.cursor_id
        self._exhausted = message.exhausted
        self._session = session
        #: Context FETCHes ride under, so server-side fetch spans parent to
        #: the span that executed the statement.
        self._trace = trace
        self._column_map: Optional[dict[str, int]] = None
        if self._cursor_id:
            # Track the server-side cursor so an abandoned (never fully
            # drained) result is closed when the session is.
            session._open_cursors.add(self._cursor_id)

    def available(self, index: int) -> bool:
        """Whether row ``index`` exists, fetching batches as needed."""
        while index >= len(self._buffer) and not self._exhausted:
            self._fetch_more()
        return index < len(self._buffer)

    @property
    def rows(self) -> list[tuple[object, ...]]:
        """Every row (drains the server-side cursor)."""
        while not self._exhausted:
            self._fetch_more()
        return self._buffer

    @property
    def fetched_rows(self) -> int:
        """Rows received so far (observability for the streaming tests)."""
        return len(self._buffer)

    def column_index(self, name: str) -> int:
        """Index of a column by case-insensitive name (same contract as
        the engine ResultSet — the map builder is shared)."""
        if self._column_map is None:
            self._column_map = build_column_map(self.columns)
        try:
            return self._column_map[name.lower()]
        except KeyError as exc:
            raise KeyError(f"no column named {name!r}") from exc

    def value(self, row: int, column: str) -> object:
        """Value at (row, column-name)."""
        return self.rows[row][self.column_index(column)]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def _fetch_more(self) -> None:
        message = self._session._fetch(self._cursor_id, trace=self._trace)
        self._buffer.extend(message.rows)
        if message.exhausted:
            self._exhausted = True
            self._session._open_cursors.discard(self._cursor_id)
            self._cursor_id = 0


class RemoteSession:
    """A Session over the network: one checked-out server connection.

    Matches the engine Session's client-facing surface (``execute``,
    ``begin``/``commit``/``rollback``, ``in_transaction``, ``autocommit``,
    ``close``) so the dbapi Connection and the ORM EntityManager work
    against it unmodified.  ``close`` rolls back any open transaction
    explicitly — never commits — and either returns the underlying
    connection to its pool or closes the socket.
    """

    def __init__(
        self,
        client: WireClient,
        *,
        autocommit: bool = True,
        pool=None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        observer: Optional[NodeObserver] = None,
    ) -> None:
        self._client = client
        self._pool = pool
        self.batch_rows = batch_rows
        self._closed = False
        #: Client-edge tracing: while ``observer.active`` this session
        #: starts root spans for sampled statements and propagates the
        #: context on the wire.
        self._obs = observer
        #: Server-side cursor ids of results not yet drained; closed with
        #: the session so abandoned result sets do not pile up server-side.
        self._open_cursors: set[int] = set()
        client.set_autocommit(autocommit)

    # -- properties ----------------------------------------------------------

    @property
    def client(self) -> WireClient:
        """The underlying wire connection (for counters and tests)."""
        return self._client

    @property
    def in_transaction(self) -> bool:
        """Whether the server session has an open transaction."""
        return self._client.in_transaction

    @property
    def autocommit(self) -> bool:
        """The server session's auto-commit flag."""
        return self._client.autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        self._client.set_autocommit(value)

    # -- SQL interface -------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[object] = (),
        *,
        trace: Optional[TraceContext] = None,
    ) -> RemoteResult:
        """Execute one statement; large results stream in FETCH batches.

        An explicit inbound ``trace`` (a coordinator fanning out) is
        forwarded verbatim — the remote node records the span.  Otherwise,
        when the node's observer samples the statement, a fresh root trace
        starts here: a ``client`` span wraps the round trip and the
        propagated context makes the server's span its child.
        """
        self._check_open()
        obs = self._obs
        if trace is None and obs is not None and obs.active:
            return obs.edge(sql, lambda context: self._execute(sql, params, context))
        return self._execute(sql, params, trace)

    def _execute(
        self, sql: str, params: Sequence[object], trace: Optional[TraceContext]
    ) -> RemoteResult:
        return RemoteResult(
            self,
            self._client.execute(sql, params, self.batch_rows, trace),
            trace=trace,
        )

    def prepare(self, sql: str) -> int:
        """The server-side prepared-statement id for ``sql``.

        Cached per wire connection, so short-lived PreparedStatement
        objects over a pooled connection pay the PREPARE round trip once
        per distinct SQL text — the client-side twin of the engine's
        SQL-text-keyed plan cache.
        """
        self._check_open()
        return self._client.prepared_statement_id(sql)

    def execute_prepared(
        self,
        stmt_id: int,
        params: Sequence[object] = (),
        *,
        trace: Optional[TraceContext] = None,
    ) -> RemoteResult:
        """Execute a server-side prepared statement."""
        self._check_open()
        return RemoteResult(
            self,
            self._client.execute_prepared(stmt_id, params, self.batch_rows, trace),
            trace=trace,
        )

    def close_statement(self, stmt_id: int) -> None:
        """Drop a server-side prepared statement (best effort)."""
        if not self._closed and not self._client.closed:
            try:
                self._client.close_statement(stmt_id)
            except (SqlError, OSError):
                pass

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        """Open an explicit transaction."""
        self._check_open()
        self._client.begin()

    def commit(self, *, trace: Optional[TraceContext] = None) -> None:
        """Commit the open transaction (no-op when none is open).  A
        ``trace`` context lets the server attribute the WAL fsync."""
        self._check_open()
        self._client.commit(trace)

    def rollback(self) -> None:
        """Roll back the open transaction (no-op when none is open)."""
        self._check_open()
        self._client.rollback()

    def prepare_txn(self, gid: str, *, trace: Optional[TraceContext] = None) -> None:
        """Two-phase commit phase one: park the open transaction under
        ``gid``; a later :meth:`commit_prepared`/:meth:`abort_prepared`
        (from any connection) decides it."""
        self._check_open()
        self._client.prepare_txn(gid, trace)

    def commit_prepared(self, gid: str, *, trace: Optional[TraceContext] = None) -> None:
        """Apply a prepared transaction (idempotent)."""
        self._check_open()
        self._client.commit_prepared(gid, trace)

    def abort_prepared(self, gid: str, *, trace: Optional[TraceContext] = None) -> None:
        """Discard a prepared transaction (presumed abort)."""
        self._check_open()
        self._client.abort_prepared(gid, trace)

    def list_prepared(self) -> list[str]:
        """Gids of every in-doubt transaction on the server."""
        self._check_open()
        return self._client.list_prepared()

    # -- server-side extras --------------------------------------------------

    def explain(self, sql: str) -> str:
        """The engine's plan text for ``sql``."""
        self._check_open()
        return self._client.explain(sql)

    def checkpoint(self) -> None:
        """Checkpoint the server's database."""
        self._check_open()
        self._client.checkpoint()

    def server_stats(self) -> dict:
        """The server's SERVER_STATS document."""
        self._check_open()
        return self._client.server_stats()

    def traces(self, trace_id: Optional[str] = None) -> dict:
        """The server's buffered spans document."""
        self._check_open()
        return self._client.traces(trace_id)

    def metrics(self) -> str:
        """The server's metrics in Prometheus text format."""
        self._check_open()
        return self._client.metrics()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction, then release the connection.

        The rollback is an explicit round trip (not just a socket close):
        that keeps "close rolls back" deterministic — the transaction is
        gone before ``close()`` returns, on the pooled and the direct path
        alike.
        """
        if self._closed:
            return
        self._closed = True
        client = self._client
        if not client.closed:
            # Abandoned (undrained) result sets: free their server-side
            # cursors before the connection outlives this session in a
            # pool.  Best effort — a dead transport skips them and the
            # server's per-connection cursor cap bounds the damage anyway.
            for cursor_id in list(self._open_cursors):
                try:
                    client.close_cursor(cursor_id)
                except (SqlError, OSError):
                    break
        self._open_cursors.clear()
        if self._pool is not None:
            self._pool.release(client)
            return
        if not client.closed and client.in_transaction:
            try:
                client.rollback()
            except (SqlError, OSError):
                pass
        client.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if not self._closed and not self._client.closed:
                if exc_type is None:
                    self.commit()
                else:
                    self.rollback()
        finally:
            self.close()

    def _fetch(
        self, cursor_id: int, trace: Optional[TraceContext] = None
    ) -> protocol.ServerMessage:
        self._check_open()
        return self._client.fetch(cursor_id, self.batch_rows, trace)

    def _check_open(self) -> None:
        if self._closed:
            raise SqlExecutionError("session is closed")


class RemoteDatabase:
    """A Database-shaped facade over a server address.

    Provides the ``session(autocommit=...)`` factory the embedded
    :class:`~repro.sqlengine.engine.Database` exposes, so every consumer
    written against that surface — the dbapi ``Connection``, the ORM's
    ``EntityManager``, the rewritten ``@query`` pipeline — runs unmodified
    against a remote server.  With a :class:`~repro.netclient.pool.
    ConnectionPool` the sessions check their wire connection out of the
    pool; without one each session opens its own socket.
    """

    def __init__(
        self,
        host: str,
        port: Optional[int] = None,
        *,
        pool=None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        timeout: Optional[float] = None,
        client_name: str = "repro-netclient",
        tracing: Optional[TracingOptions] = None,
        node_name: str = "client",
    ) -> None:
        if port is None:
            host, port = host  # an (host, port) address tuple
        self.host = host
        self.port = port
        self.pool = pool
        self.batch_rows = batch_rows
        self.timeout = timeout
        self.client_name = client_name
        #: Client-edge tracing: sessions start root traces when enabled,
        #: and their ``client`` spans land in this one observer's buffer.
        self.obs = NodeObserver(node_name, tracing=tracing)

    def session(self, autocommit: bool = True) -> RemoteSession:
        """Open a remote session (pooled when a pool was configured)."""
        if self.pool is not None:
            return self.pool.session(
                autocommit=autocommit,
                batch_rows=self.batch_rows,
                observer=self.obs,
            )
        client = WireClient(
            self.host, self.port, timeout=self.timeout, client_name=self.client_name
        )
        return RemoteSession(
            client,
            autocommit=autocommit,
            batch_rows=self.batch_rows,
            observer=self.obs,
        )

    def connect(self, auto_commit: bool = True):
        """Open a remote dbapi :class:`~repro.netclient.connection.Connection`."""
        from repro.netclient.connection import Connection

        return Connection(self, auto_commit=auto_commit)

    def server_stats(self) -> dict:
        """One-shot SERVER_STATS request."""
        session = self.session()
        try:
            return session.server_stats()
        finally:
            session.close()

    def traces(self, trace_id: Optional[str] = None) -> list[dict]:
        """Client-side spans merged with the server's buffered spans —
        the assembled trace for a single-server deployment."""
        spans = self.obs.trace_buffer.spans(trace_id)
        session = self.session()
        try:
            spans.extend(session.traces(trace_id)["spans"])
        finally:
            session.close()
        return spans

    def metrics(self) -> str:
        """One-shot METRICS request (Prometheus text)."""
        session = self.session()
        try:
            return session.metrics()
        finally:
            session.close()
