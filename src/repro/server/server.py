"""Threaded socket server exposing one :class:`Database` over the wire protocol.

The server owns a single engine — in-memory or durable (``data_dir=``) —
and gives every client connection its own engine :class:`Session`, so the
transaction semantics over the network are exactly the embedded ones: an
explicit transaction belongs to one connection, a dropped connection rolls
its open transaction back, and concurrent SELECTs from different clients
run in parallel under the engine's MVCC snapshot isolation (readers never
block, write-write conflicts abort the later writer with a typed error the
client re-raises).

Concurrency model: one handler thread per connection, bounded by
``max_connections`` (admission control — a connection over the limit is
answered with a structured ERROR frame and closed, while the TCP
``backlog`` absorbs short accept bursts).  An ``idle_timeout`` reclaims
connections that stop talking.

Shutdown: :meth:`SqlServer.shutdown` stops accepting, shuts the read side
of every client socket (a handler blocked waiting for the next request
sees EOF; a handler mid-statement finishes the statement and sends its
response first), joins the handlers and then closes the database cleanly —
on a durable engine that makes the write-ahead log durable, so a graceful
shutdown and a crash recover identically.  :meth:`SqlServer.kill` is the
crash: sockets are torn down and the database is *not* closed, which the
recovery tests use to prove the WAL preserves the committed prefix.
"""

from __future__ import annotations

import json
import os
import select
import socket
import threading
import time
from typing import Optional

from repro.errors import SqlError
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.sqlengine.durability import DurabilityOptions
from repro.sqlengine.durability.snapshot import SNAPSHOT_NAME, snapshot_epoch
from repro.session import SqlSession
from repro.sqlengine.engine import Database, ResultSet
from repro.sqlengine.errors import ReadOnlyError, SqlExecutionError


class ServerStats:
    """Thread-safe per-server counters, surfaced via SERVER_STATS.

    Backed by the engine's shared :class:`MetricsRegistry`, so the same
    numbers appear in the SERVER_STATS document, the METRICS verb and a
    Prometheus scrape.  ``connections_active`` and
    ``replication_streams`` are gauges (they take negative deltas); the
    rest are monotonic counters.
    """

    _SPEC = (
        ("connections_accepted", "counter"),
        ("connections_active", "gauge"),
        ("connections_rejected", "counter"),
        ("statements", "counter"),
        ("rows_shipped", "counter"),
        ("bytes_in", "counter"),
        ("bytes_out", "counter"),
        ("replication_streams", "gauge"),
        ("wal_chunks_shipped", "counter"),
        ("wal_bytes_shipped", "counter"),
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self._instruments = {
            name: (registry.counter if kind == "counter" else registry.gauge)(
                f"server_{name}"
            )
            for name, kind in self._SPEC
        }

    def add(self, **deltas: int) -> None:
        """Add ``deltas`` to the named counters (gauges take negatives)."""
        instruments = self._instruments
        for name, delta in deltas.items():
            instruments[name].inc(delta)

    def snapshot(self) -> dict[str, int]:
        """A copy of every counter, in the historical flat-dict shape."""
        return {name: int(i.value) for name, i in self._instruments.items()}


class _Cursor:
    """Rows of one statement awaiting FETCH, plus the read position."""

    __slots__ = ("rows", "position")

    def __init__(self, rows: list[tuple[object, ...]], position: int) -> None:
        self.rows = rows
        self.position = position


class _ClientHandler(threading.Thread):
    """One connection: handshake, then a request/response loop."""

    #: Bound on open cursors per connection: a client that abandons result
    #: sets without draining (or closing) them must not grow server memory
    #: without limit, so the oldest cursor is dropped once the cap is hit.
    MAX_CURSORS = 64
    #: Bound on prepared-statement registrations per connection, for the
    #: same reason.  Deliberately larger than the netclient's 256-entry
    #: client-side cache (which CLOSE_STATEMENTs its own evictions), so a
    #: well-behaved client never has a registration dropped under it.
    MAX_STATEMENTS = 1024

    def __init__(self, server: "SqlServer", sock: socket.socket, peer) -> None:
        super().__init__(name=f"sql-server-client-{peer}", daemon=True)
        self._server = server
        self._sock = sock
        self._session: Optional[SqlSession] = None
        self._cursors: dict[int, _Cursor] = {}
        self._statements: dict[int, str] = {}
        self._next_cursor_id = 1
        self._next_stmt_id = 1
        self._read_side_open = True

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> None:
        stats = self._server.stats
        try:
            self._sock.settimeout(self._server.idle_timeout)
            rfile = self._sock.makefile("rb")
            if not self._handshake(rfile):
                return
            self._session = self._server.database.session(autocommit=True)
            while not self._server.stopping:
                try:
                    payload = protocol.read_frame(rfile)
                    if payload is None:
                        return  # clean disconnect
                    stats.add(bytes_in=len(payload) + 8)
                    message = protocol.decode_client_message(payload)
                except SqlError as error:
                    # Torn/corrupt framing or an undecodable payload (a
                    # CRC-valid frame can still fail field decoding): the
                    # stream cannot be resynchronised, so tell the client
                    # why (best effort) and drop the connection.
                    self._try_send(protocol.encode_error(
                        "ProtocolError", str(error), self._in_transaction
                    ))
                    return
                if message.op == protocol.GOODBYE:
                    self._try_send(protocol.encode_ok(self._in_transaction))
                    return
                if message.op == protocol.REPLICATE:
                    # The connection becomes a one-way WAL stream and never
                    # returns to request/response.
                    self._stream_wal(message)
                    return
                if message.op == protocol.BOOTSTRAP:
                    # Multi-frame response (snapshot chunks + a terminating
                    # LSN), then back to request/response — the replica
                    # follows up with REPLICATE on the same connection.
                    self._stream_snapshot()
                    continue
                self._send(self._dispatch(message))
        except (OSError, ValueError):
            # Timeout, reset, or a socket torn down by shutdown()/kill():
            # treated as a disconnect.
            pass
        finally:
            if self._session is not None:
                # Rolls back any transaction the client abandoned.
                self._session.close()
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self._server._unregister(self)
            stats.add(connections_active=-1)

    def shutdown_read(self) -> None:
        """Interrupt a blocked ``recv`` without cutting off a response.

        Shutting down only the read side lets a handler that is mid-
        statement finish and send its RESULT before it notices the EOF —
        this is what "drain in-flight statements" means.
        """
        if self._read_side_open:
            self._read_side_open = False
            try:
                self._sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass

    def kill(self) -> None:
        """Tear the socket down hard (simulated crash)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # -- protocol steps -----------------------------------------------------

    def _handshake(self, rfile) -> bool:
        try:
            payload = protocol.read_frame(rfile)
            if payload is None:
                return False
            self._server.stats.add(bytes_in=len(payload) + 8)
            message = protocol.decode_client_message(payload)
        except SqlError as error:
            # Anything that is not a protocol frame — an HTTP probe, a
            # port scanner, line noise — gets a structured rejection.
            self._try_send(protocol.encode_error("ProtocolError", str(error), False))
            return False
        if message.op != protocol.HELLO:
            self._try_send(protocol.encode_error(
                "ProtocolError",
                f"expected HELLO, got {message.op_name}",
                False,
            ))
            return False
        if message.version not in protocol.SUPPORTED_VERSIONS:
            self._try_send(protocol.encode_error(
                "ProtocolError",
                f"protocol version mismatch: client speaks "
                f"{message.version}, server speaks "
                f"{', '.join(str(v) for v in protocol.SUPPORTED_VERSIONS)}",
                False,
            ))
            return False
        # Echo the client's (accepted) version so a v1 client sees v1.
        self._send(protocol.encode_hello_ok(
            version=message.version, banner=self._server.banner
        ))
        return True

    def _dispatch(self, message: protocol.ClientMessage) -> bytes:
        t0 = time.perf_counter()
        try:
            return self._handle(message)
        except Exception as error:  # noqa: BLE001 - every engine error maps
            # Statement-level atomicity is the engine's: a failed statement
            # has already been undone, an open transaction stays open.  The
            # connection survives the error.
            return protocol.encode_error(
                protocol.error_class_name(error), str(error), self._in_transaction
            )
        finally:
            self._server._request_latency.observe(time.perf_counter() - t0)

    def _handle(self, message: protocol.ClientMessage) -> bytes:
        op = message.op
        session = self._session
        assert session is not None
        if op == protocol.EXECUTE:
            self._check_writable(message.sql)
            self._server.stats.add(statements=1)
            return self._result_frame(
                session.execute(message.sql, message.params, trace=message.trace),
                message.max_rows,
            )
        if op == protocol.EXECUTE_PREPARED:
            sql = self._statements.get(message.stmt_id)
            if sql is None:
                raise SqlExecutionError(
                    f"unknown prepared statement id {message.stmt_id}"
                )
            self._check_writable(sql)
            self._server.stats.add(statements=1)
            return self._result_frame(
                session.execute(sql, message.params, trace=message.trace),
                message.max_rows,
            )
        if op == protocol.PREPARE:
            # A server-side prepared statement is the registered SQL text:
            # the engine's shared statement/plan cache (keyed by that text)
            # does the real work, so repeated executions reuse one plan.
            stmt_id = self._next_stmt_id
            self._next_stmt_id += 1
            self._statements[stmt_id] = message.sql
            while len(self._statements) > self.MAX_STATEMENTS:
                # dict preserves insertion order: drop the oldest one.
                self._statements.pop(next(iter(self._statements)))
            return protocol.encode_prepared(stmt_id, self._in_transaction)
        if op == protocol.FETCH:
            return self._server.database.obs.call(
                message.trace, "fetch",
                lambda: self._fetch_frame(message.cursor_id, message.max_rows),
            )
        if op == protocol.CLOSE_CURSOR:
            self._cursors.pop(message.cursor_id, None)
            return protocol.encode_ok(self._in_transaction)
        if op == protocol.CLOSE_STATEMENT:
            self._statements.pop(message.stmt_id, None)
            return protocol.encode_ok(self._in_transaction)
        if op == protocol.BEGIN:
            session.begin()
            return protocol.encode_ok(self._in_transaction)
        if op == protocol.COMMIT:
            # A traced COMMIT records its span on this node (with the WAL
            # fsync or the 2PC phases), opened by the session itself.
            session.commit(trace=message.trace)
            # The commit's LSN rides on the acknowledgement so clients get
            # read-your-writes tokens without an extra round trip.
            return protocol.encode_ok(
                self._in_transaction, lsn=self._server.wal_position()
            )
        if op == protocol.ROLLBACK:
            session.rollback()
            return protocol.encode_ok(self._in_transaction)
        if op == protocol.SET_AUTOCOMMIT:
            # JDBC semantics, as in the embedded driver: enabling
            # auto-commit while a transaction is open commits it.
            if message.flag and session.in_transaction:
                session.commit()
            session.autocommit = message.flag
            return protocol.encode_ok(self._in_transaction)
        if op == protocol.EXPLAIN:
            return protocol.encode_explained(
                self._server.database.explain(message.sql), self._in_transaction
            )
        if op == protocol.CHECKPOINT:
            if self._server.read_only:
                raise ReadOnlyError(
                    "CHECKPOINT rejected: this server is a read-only replica"
                )
            if session.in_transaction:
                raise SqlExecutionError(
                    "CHECKPOINT cannot run inside an open transaction"
                )
            self._server.database.checkpoint()
            return protocol.encode_ok(self._in_transaction)
        if op == protocol.SERVER_STATS:
            return protocol.encode_stats(
                json.dumps(self._server.server_stats()), self._in_transaction
            )
        if op == protocol.PING:
            return protocol.encode_ok(self._in_transaction)
        if op == protocol.WAL_POSITION:
            epoch, offset = self._server.wal_position()
            return protocol.encode_lsn(epoch, offset, self._in_transaction)
        if op == protocol.WAIT_LSN:
            return self._wait_lsn_frame(message)
        if op == protocol.PROMOTE:
            replica = self._server.replica
            if replica is None:
                raise SqlExecutionError(
                    "PROMOTE rejected: this server is not a replica"
                )
            replica.promote(data_dir=message.data_dir or None)
            return protocol.encode_ok(
                self._in_transaction, lsn=self._server.wal_position()
            )
        if op in (
            protocol.PREPARE_TXN, protocol.COMMIT_PREPARED, protocol.ABORT_PREPARED
        ):
            if self._server.read_only:
                raise ReadOnlyError(
                    f"{message.op_name} rejected: this server is a read-only replica"
                )
            verb = {
                protocol.PREPARE_TXN: session.prepare_txn,
                protocol.COMMIT_PREPARED: session.commit_prepared,
                protocol.ABORT_PREPARED: session.abort_prepared,
            }[op]
            verb(message.gid, trace=message.trace)
            return protocol.encode_ok(
                self._in_transaction, lsn=self._server.wal_position()
            )
        if op == protocol.TRACES:
            database = self._server.database
            document = {
                "node": database.obs.node,
                "spans": database.traces(message.trace_id or None),
            }
            return protocol.encode_stats(
                json.dumps(document), self._in_transaction
            )
        if op == protocol.METRICS:
            return protocol.encode_stats(
                self._server.database.metrics.render_prometheus(),
                self._in_transaction,
            )
        if op == protocol.LIST_PREPARED:
            # Works on replicas too: a coordinator resolving in-doubt
            # transactions may reach a node in either role.
            return protocol.encode_stats(
                json.dumps(session.list_prepared()), self._in_transaction
            )
        raise protocol.ProtocolError(f"unexpected opcode {message.op_name}")

    def _check_writable(self, sql: str) -> None:
        """Reject write statements on a read-only (replica) server."""
        server = self._server
        if server.read_only and not server.database.statement_is_read_only(sql):
            raise ReadOnlyError(
                "statement rejected: this server is a read-only replica; "
                "send writes to the primary"
            )

    def _wait_lsn_frame(self, message: protocol.ClientMessage) -> bytes:
        """Block until the applied position reaches the requested LSN.

        On a replica this waits on the replayed watermark (the read-your-
        writes barrier); on a primary the end of the log is already at or
        past any LSN it ever handed out, so it answers immediately.
        """
        target = (message.epoch, message.offset)
        replica = self._server.replica
        if replica is not None:
            timeout = message.timeout_ms / 1000.0
            if not replica.wait_for(target, timeout):
                raise SqlExecutionError(
                    f"WAIT_LSN timed out after {message.timeout_ms}ms: "
                    f"watermark {replica.watermark} has not reached {target}"
                )
        epoch, offset = self._server.wal_position()
        return protocol.encode_lsn(epoch, offset, self._in_transaction)

    # -- the replication stream ----------------------------------------------

    #: Seconds a caught-up stream waits for an append signal before
    #: re-checking the stop flag and the peer's liveness.
    _STREAM_TICK = 0.05

    def _stream_wal(self, message: protocol.ClientMessage) -> None:
        """Ship raw WAL frames to a replica until it disconnects.

        The tailer reads complete frames from the log chain (following
        epoch rollover); an Event registered with the durability manager
        wakes the loop as soon as a commit appends, so replication lag is
        bounded by fsync latency rather than a polling interval.
        """
        from repro.replication.tailer import WalTailer

        server = self._server
        database = server.database
        manager = database.durability_manager
        if manager is None:
            self._try_send(protocol.encode_error(
                "SqlExecutionError",
                "REPLICATE requires a durable primary (data_dir=...)", False,
            ))
            return
        if message.epoch == 0 and not manager.replication_bootstrappable():
            self._try_send(protocol.encode_error(
                "ReplicationError",
                "a checkpoint already truncated the log; a new replica "
                "cannot bootstrap from the log alone — attach replicas "
                "before the first checkpoint", False,
            ))
            return
        stats = server.stats
        tailer = WalTailer(manager.data_dir, message.epoch, message.offset)
        event = manager.watch_appends()
        stats.add(replication_streams=1)
        try:
            # Greeting: the primary's current end of log, so the replica
            # knows how far behind it starts.
            epoch, offset = manager.wal_position()
            self._send(protocol.encode_lsn(epoch, offset))
            while not server.stopping:
                chunk = tailer.next_chunk(server.replication_chunk_bytes)
                if chunk is None:
                    if self._peer_gone():
                        return
                    event.wait(self._STREAM_TICK)
                    event.clear()
                    continue
                chunk_epoch, start, end, data = chunk
                self._send(protocol.encode_wal_chunk(chunk_epoch, start, end, data))
                stats.add(wal_chunks_shipped=1, wal_bytes_shipped=len(data))
        except SqlError as error:
            # A tailer failure (epoch gone, corrupt chain) is fatal for the
            # stream but reportable: the replica decides whether to re-seed.
            self._try_send(protocol.encode_error(
                protocol.error_class_name(error), str(error), False
            ))
        finally:
            manager.unwatch_appends(event)
            tailer.close()
            stats.add(replication_streams=-1)

    #: Snapshot bytes per SNAPSHOT_CHUNK frame — comfortably under the
    #: frame limit while keeping per-frame overhead negligible.
    _SNAPSHOT_CHUNK_BYTES = 1 << 18

    def _stream_snapshot(self) -> None:
        """Answer BOOTSTRAP: ship ``snapshot.db`` then the LSN it covers.

        A bare ``LSN (0, 0)`` (no chunks) means no snapshot exists yet and
        the replica should replicate from the start of the log.  The file
        is read in one go — checkpoints replace it atomically via rename,
        so the image is always internally consistent.
        """
        manager = self._server.database.durability_manager
        path = None if manager is None else os.path.join(manager.data_dir, SNAPSHOT_NAME)
        if path is None or not os.path.exists(path):
            self._send(protocol.encode_lsn(0, 0))
            return
        with open(path, "rb") as handle:
            data = handle.read()
        epoch = snapshot_epoch(data, source=path)
        for start in range(0, len(data), self._SNAPSHOT_CHUNK_BYTES):
            chunk = data[start:start + self._SNAPSHOT_CHUNK_BYTES]
            self._send(protocol.encode_snapshot_chunk(start, chunk))
        self._send(protocol.encode_lsn(epoch, 0))

    def _peer_gone(self) -> bool:
        """Whether the replica hung up (it never writes after REPLICATE,
        so a readable stream socket means EOF or reset)."""
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return True
        return bool(readable)

    # -- response builders --------------------------------------------------

    @property
    def _in_transaction(self) -> bool:
        return self._session is not None and self._session.in_transaction

    #: Headroom under MAX_MESSAGE left for frame/field overhead when
    #: deciding whether an encoded batch fits on the wire.
    _FRAME_SLACK = 1 << 10

    def _result_frame(self, result: ResultSet, max_rows: int) -> bytes:
        rows = result.rows
        batch_end = len(rows) if not max_rows else min(max_rows, len(rows))
        while True:
            exhausted = batch_end >= len(rows)
            # The id is only *reserved* here; committed below once the
            # batch is known to fit (halving must not burn cursor ids).
            cursor_id = 0 if exhausted else self._next_cursor_id
            payload = protocol.encode_result(
                result.columns, rows[:batch_end], result.rowcount, cursor_id,
                self._in_transaction, exhausted,
                lsn=self._server.wal_position(),
            )
            # A batch of very wide rows can exceed the frame limit even
            # under the row-count cap; halve until it fits (a single row
            # beyond MAX_MESSAGE is a genuine protocol limit and is left
            # to the peer to reject).
            if len(payload) <= protocol.MAX_MESSAGE - self._FRAME_SLACK or batch_end <= 1:
                break
            batch_end = max(1, batch_end // 2)
        if not exhausted:
            self._next_cursor_id += 1
            self._cursors[cursor_id] = _Cursor(rows, batch_end)
            while len(self._cursors) > self.MAX_CURSORS:
                # LRU by last use (FETCH re-inserts): drop the stalest.
                self._cursors.pop(next(iter(self._cursors)))
        self._server.stats.add(rows_shipped=batch_end)
        return payload

    def _fetch_frame(self, cursor_id: int, max_rows: int) -> bytes:
        cursor = self._cursors.get(cursor_id)
        if cursor is None:
            raise SqlExecutionError(f"unknown cursor id {cursor_id}")
        # Re-insert so dict order is last-use order: MAX_CURSORS eviction
        # then drops abandoned cursors, never one being actively fetched.
        self._cursors[cursor_id] = self._cursors.pop(cursor_id)
        position = cursor.position
        end = len(cursor.rows) if not max_rows else min(
            position + max_rows, len(cursor.rows)
        )
        while True:
            batch = cursor.rows[position:end]
            exhausted = end >= len(cursor.rows)
            payload = protocol.encode_rows(
                batch, 0 if exhausted else cursor_id, self._in_transaction, exhausted
            )
            if len(payload) <= protocol.MAX_MESSAGE - self._FRAME_SLACK or len(batch) <= 1:
                break
            end = position + max(1, len(batch) // 2)
        cursor.position = end
        if exhausted:
            del self._cursors[cursor_id]
        self._server.stats.add(rows_shipped=len(batch))
        return payload

    # -- socket helpers ------------------------------------------------------

    def _send(self, payload: bytes) -> None:
        framed = protocol.frame(payload)
        self._sock.sendall(framed)
        self._server.stats.add(bytes_out=len(framed))

    def _try_send(self, payload: bytes) -> None:
        try:
            self._send(payload)
        except OSError:
            pass


class SqlServer:
    """A concurrent SQL server around one engine instance.

    Usage::

        with SqlServer(database=my_database) as server:
            host, port = server.address
            ...

    or durable and self-owned::

        server = SqlServer(data_dir="/var/lib/repro")
        server.start()
        ...
        server.shutdown()
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        data_dir: Optional[str] = None,
        durability: Optional[DurabilityOptions] = None,
        max_connections: int = 64,
        backlog: int = 16,
        idle_timeout: Optional[float] = None,
        close_database: Optional[bool] = None,
        banner: str = "repro-sql-server",
        read_only: bool = False,
        replication_chunk_bytes: Optional[int] = None,
    ) -> None:
        if database is not None and data_dir is not None:
            raise SqlExecutionError("pass either a database or a data_dir, not both")
        owns_database = database is None
        if database is None:
            database = Database(data_dir=data_dir, durability=durability)
        self.database = database
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.backlog = backlog
        self.idle_timeout = idle_timeout
        self.banner = banner
        #: Whether shutdown() also closes the engine.  Defaults to closing
        #: only a database this server created; a caller-owned engine stays
        #: open unless explicitly requested otherwise.
        self.close_database = owns_database if close_database is None else close_database
        #: Reject write statements (replica mode); promotion clears it.
        self.read_only = read_only
        #: Back-reference set by :class:`repro.replication.ReplicaServer`
        #: so WAIT_LSN/PROMOTE and SERVER_STATS reach the applier.
        self.replica = None
        #: Max WAL bytes per shipped chunk (None = the tailer's default).
        #: Fault-injection tests shrink this to cut streams between small
        #: chunks at byte-exact offsets.
        self.replication_chunk_bytes = replication_chunk_bytes
        if database.obs.node == "engine":
            # Attribute this node's spans and slow-query lines to the
            # server's banner ("primary", "shard0", ...) instead of the
            # engine default.
            database.obs.rename(banner)
        #: Server counters live on the engine's registry, so SERVER_STATS,
        #: the METRICS verb and a Prometheus scrape all agree.
        self.stats = ServerStats(registry=database.metrics)
        self._request_latency = database.metrics.histogram(
            "server_request_latency_seconds",
            help="Wall time handling one client request frame",
        )
        self.stopping = False
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: set[_ClientHandler] = set()
        self._handlers_lock = threading.Lock()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SqlServer":
        """Bind, listen and start accepting connections in the background."""
        if self._started:
            raise SqlExecutionError("server is already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.backlog)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._started = True
        self.stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="sql-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the server is listening on."""
        return (self.host, self.port)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: drain in-flight statements, then close the engine.

        New connections are refused immediately; handlers waiting for a
        request see EOF; handlers executing a statement finish it and send
        the response before closing.  The database is closed last (when
        this server owns it, or ``close_database=True``), which makes the
        write-ahead log durable on a durable engine.
        """
        self._stop_listening()
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.shutdown_read()
        for handler in handlers:
            handler.join(timeout)
        if self.close_database:
            self.database.close()

    def kill(self) -> None:
        """Simulated crash: sockets torn down, the database NOT closed.

        Exists for the recovery tests — after ``kill()`` the data directory
        must recover exactly the committed prefix of the write-ahead log,
        the same contract as a process crash.
        """
        self._stop_listening()
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.kill()
        for handler in handlers:
            handler.join(5.0)

    def __enter__(self) -> "SqlServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- observability -------------------------------------------------------

    def wal_position(self) -> tuple[int, int]:
        """The LSN this node stamps on responses: a primary's end of log,
        or a replica's replayed watermark (its in-memory engine has no log,
        so the watermark *is* its position in the primary's history)."""
        if self.replica is not None:
            return self.replica.watermark
        return self.database.wal_position()

    def server_stats(self) -> dict[str, object]:
        """The SERVER_STATS document: server counters + engine statistics."""
        return {
            "server": self.stats.snapshot(),
            "max_connections": self.max_connections,
            "engine": self.database.stats(),
            "replication": self.replication_stats(),
        }

    def replication_stats(self) -> dict[str, object]:
        """The ``replication`` section: node role, position and stream
        counters (a replica's applier stats ride along via its back-ref)."""
        snapshot = self.stats.snapshot()
        stats: dict[str, object] = {
            "role": "replica" if self.read_only else "primary",
            "wal_position": list(self.wal_position()),
            "streams": snapshot["replication_streams"],
            "wal_chunks_shipped": snapshot["wal_chunks_shipped"],
            "wal_bytes_shipped": snapshot["wal_bytes_shipped"],
        }
        if self.replica is not None:
            stats.update(self.replica.stats())
        return stats

    # -- internals -----------------------------------------------------------

    def _stop_listening(self) -> None:
        self.stopping = True
        listener = self._listener
        if listener is not None:
            self._listener = None
            # Closing a socket does not wake a thread blocked in accept()
            # on Linux; shutdown() does (and the close makes it final).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
            self._accept_thread = None
        self._started = False

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self.stopping and listener is not None:
            try:
                sock, peer = listener.accept()
            except OSError:
                return  # listener closed by shutdown()/kill()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._handlers_lock:
                active = len(self._handlers)
                admitted = active < self.max_connections and not self.stopping
                if admitted:
                    handler = _ClientHandler(self, sock, peer)
                    self._handlers.add(handler)
            if not admitted:
                # Admission control: answer with a structured error so the
                # client can tell "server full" from a network failure.
                self.stats.add(connections_rejected=1)
                try:
                    sock.sendall(protocol.frame(protocol.encode_error(
                        "SqlExecutionError",
                        f"server at capacity (max_connections={self.max_connections})",
                        False,
                    )))
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            self.stats.add(connections_accepted=1, connections_active=1)
            handler.start()

    def _unregister(self, handler: _ClientHandler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)
