"""The ``Database`` facade: parse, plan (with caching) and execute SQL.

This is the component standing in for PostgreSQL in the reproduction.  It is
synchronous and single-process — the paper's benchmark runs the database and
the query code on the same machine — and safe for concurrent use from
several threads through multi-version concurrency control: readers resolve
row visibility against a snapshot taken at statement (or transaction) start
and **never block**, writers take short per-table latches and detect
write-write conflicts eagerly (first updater wins, the loser aborts with
:class:`~repro.sqlengine.errors.TransactionConflictError`), and only DDL,
checkpoints and bulk loads briefly drain in-flight statements through the
controller's exclusive gate.  See :mod:`repro.sqlengine.transactions` and
``docs/transactions.md`` for the full design.

Clients interact through :class:`Session` objects (one per connection, from
:meth:`Database.session`).  Each session owns its own transaction context:
statements run in auto-commit mode wrap themselves in an implicit
transaction (transparently retried on conflict), ``BEGIN`` opens an
explicit one, and COMMIT/ROLLBACK (plus SAVEPOINT / ROLLBACK TO) behave
like the real thing — rolling back restores rows and indexes exactly via
the undo log.  The :class:`Database` methods ``execute``/``execute_many``/
... remain as a convenience facade over a default auto-commit session.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NodeObserver
from repro.obs.trace import ActiveSpan, TraceContext, TracingOptions
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog, TableSchema
from repro.sqlengine.columnar import ColumnarMetrics
from repro.sqlengine.durability import DurabilityManager, DurabilityOptions
from repro.sqlengine.errors import SqlExecutionError, TransactionConflictError
from repro.sqlengine.executor import Executor, StatementResult
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.planner import DmlPlan, PlannerOptions, SelectPlan
from repro.sqlengine.storage import TableData
from repro.sqlengine.transactions import MvccController, Transaction

#: Auto-commit statements that lose a write-write conflict are retried with
#: a fresh snapshot up to this many times before the conflict surfaces.
CONFLICT_RETRY_LIMIT = 100


def _conflict_backoff(attempt: int) -> None:
    """Yield to the conflicting owner before retrying: an immediate retry
    for the first attempts (the owner usually just needs the GIL), then an
    exponential pause capped at 10 ms."""
    if attempt <= 3:
        time.sleep(0)
    else:
        time.sleep(min(0.0002 * (2 ** min(attempt - 3, 6)), 0.01))


def build_column_map(columns: Sequence[str]) -> dict[str, int]:
    """Name→index map over a select list (first occurrence wins, the JDBC
    rule for duplicated column names).  Shared by every result-set flavour
    — the engine's, and the network driver's streaming one — so the lookup
    contract lives in exactly one place."""
    column_map: dict[str, int] = {}
    for position, column in enumerate(columns):
        column_map.setdefault(column, position)
    return column_map


@dataclass
class ResultSet:
    """Materialised result of a query: column names plus row tuples.

    Column names are lower case; :meth:`column_index` resolves names
    case-insensitively, mirroring JDBC's ``ResultSet.getString(name)``.
    """

    columns: list[str]
    rows: list[tuple[object, ...]]
    #: Affected-row count for DML statements (for SELECTs, the row count).
    rowcount: int = 0
    _column_map: Optional[dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def column_index(self, name: str) -> int:
        """Index of a column by (case-insensitive) name.

        The name→index map is built once per result set, so per-value
        access by name is O(1) instead of an O(n) list search."""
        column_map = self._column_map
        if column_map is None:
            column_map = self._column_map = build_column_map(self.columns)
        try:
            return column_map[name.lower()]
        except KeyError as exc:
            raise KeyError(f"no column named {name!r}") from exc

    def value(self, row: int, column: str) -> object:
        """Value at (row, column-name)."""
        return self.rows[row][self.column_index(column)]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass
class _CachedStatement:
    statement: ast.Statement
    plan: Optional[SelectPlan | DmlPlan]


#: Statements that change the catalog; executing one invalidates every
#: cached statement and plan.
_DDL_STATEMENTS = (
    ast.CreateTableStatement,
    ast.CreateIndexStatement,
    ast.DropTableStatement,
)


class Session:
    """One client's view of the database, with its own transaction context.

    A session executes statements against the shared storage but keeps
    private transaction state: the undo log, savepoints and the auto-commit
    flag.  Sessions are cheap — the dbapi layer creates one per connection
    and the ORM one per EntityManager.

    Concurrency protocol: every statement registers a snapshot with the
    MVCC controller and runs without blocking other statements.  A
    transaction's writes stay invisible to other sessions until COMMIT
    installs their commit stamp; a write-write conflict aborts the later
    writer with :class:`TransactionConflictError` (auto-commit statements
    retry transparently with a fresh snapshot).

    A session is not itself thread-safe: use one session per thread.
    """

    def __init__(self, database: "Database", autocommit: bool = True) -> None:
        self._database = database
        self._obs = database.obs
        self.autocommit = autocommit
        self._transaction: Optional[Transaction] = None
        # The executed plan mode of the statement on the observed path, for
        # its span and slow-log record (sessions are single-threaded, so a
        # plain attribute works).
        self._stmt_mode: Optional[str] = None

    # -- properties ----------------------------------------------------------

    @property
    def database(self) -> "Database":
        """The shared engine this session talks to."""
        return self._database

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit (or held-open implicit) transaction is open."""
        return self._transaction is not None

    # -- transaction API (usable directly, without SQL round trips) ----------

    def begin(self) -> None:
        """Open an explicit transaction (snapshot taken now)."""
        if self._transaction is not None:
            raise SqlExecutionError("a transaction is already in progress")
        transaction = Transaction(implicit=False)
        self._database._mvcc.begin_transaction(transaction)
        self._transaction = transaction

    def commit(self, *, trace: Optional[TraceContext] = None) -> None:
        """Commit the open transaction (no-op when none is open).

        On a durable database the transaction's redo batch is appended to
        the write-ahead log under the commit lock (so log order is commit
        order), and the commit then waits for the log to reach disk per
        the fsync policy *after* releasing it (so a slow fsync never
        blocks other sessions — that wait is where group commit batches
        concurrent committers into one fsync).  A sampled ``trace``
        records a ``commit`` span carrying that wait as ``wal_fsync``.
        """
        self._obs.traced(trace, "commit", self._commit)

    def _commit(self, obs: Optional[ActiveSpan]) -> None:
        transaction = self._transaction
        if transaction is None:
            return
        transaction.savepoints.clear()
        self._commit_and_release(transaction, obs)

    def rollback(self) -> None:
        """Roll back the open transaction (no-op when none is open)."""
        transaction = self._transaction
        if transaction is None:
            return
        self._abort_transaction(transaction)

    def _abort_transaction(self, transaction: Transaction) -> None:
        """Replay the undo journal, release row ownerships and unregister
        the transaction."""
        try:
            self._database._rollback_transaction(transaction)
        finally:
            self._transaction = None

    def prepare_txn(self, gid: str, *, trace: Optional[TraceContext] = None) -> None:
        """Two-phase commit, phase one: detach the open transaction into
        the database's prepared registry under global id ``gid``.

        The transaction's redo batch (terminated by a PREPARE frame) is
        made durable, its row ownerships stay held, and the session is left
        with no open transaction — closing the connection can no longer
        roll it back.  Only :meth:`commit_prepared` or
        :meth:`abort_prepared` (normally driven by the distributed
        coordinator's decision, from any session) finishes it.
        """
        transaction = self._transaction
        if transaction is None:
            raise SqlExecutionError(
                "PREPARE TRANSACTION requires an open transaction"
            )
        transaction.savepoints.clear()
        # Detach before handing over: on failure the database rolls the
        # transaction back itself, so the session must not own it anymore.
        self._transaction = None
        self._obs.call(
            trace, "2pc_prepare",
            lambda: self._database._prepare_transaction(gid, transaction),
            gid=gid,
        )

    def commit_prepared(self, gid: str, *, trace: Optional[TraceContext] = None) -> None:
        """Phase two, COMMIT (see :meth:`Database.commit_prepared`)."""
        self._obs.call(
            trace, "2pc_commit",
            lambda: self._database.commit_prepared(gid), gid=gid,
        )

    def abort_prepared(self, gid: str, *, trace: Optional[TraceContext] = None) -> None:
        """Phase two, ABORT (see :meth:`Database.rollback_prepared`)."""
        self._obs.call(
            trace, "2pc_abort",
            lambda: self._database.rollback_prepared(gid), gid=gid,
        )

    def list_prepared(self) -> list[str]:
        """Gids of every prepared transaction awaiting a decision."""
        return self._database.prepared_gids()

    def savepoint(self, name: str) -> None:
        """Define a savepoint inside the open transaction."""
        transaction = self._require_transaction("SAVEPOINT")
        transaction.set_savepoint(name)

    def rollback_to_savepoint(self, name: str) -> None:
        """Undo everything executed after savepoint ``name`` (which stays
        defined, as in standard SQL)."""
        transaction = self._require_transaction("ROLLBACK TO")
        position = transaction.find_savepoint(name)
        if position < 0:
            raise SqlExecutionError(f"no savepoint named {name!r}")
        transaction.undo.rollback_to(transaction.savepoints[position][1])
        del transaction.savepoints[position + 1:]

    def release_savepoint(self, name: str) -> None:
        """Drop savepoint ``name`` (and any defined after it), keeping the
        changes made since."""
        transaction = self._require_transaction("RELEASE")
        position = transaction.find_savepoint(name)
        if position < 0:
            raise SqlExecutionError(f"no savepoint named {name!r}")
        del transaction.savepoints[position:]

    def close(self) -> None:
        """Roll back any open transaction and release held locks."""
        self.rollback()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        # No lock can remain held past this point.

    # -- SQL interface -------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[object] = (),
        *,
        trace: Optional[TraceContext] = None,
    ) -> ResultSet:
        """Parse (with caching), plan and execute one SQL statement.

        ``trace`` carries an inbound distributed-trace context (decoded
        from the wire protocol's optional trailing field); locally
        originated statements get one when the database's tracing is
        enabled.  With no context and observability off this adds exactly
        one attribute check to the plain execution path; otherwise the
        node's observer records the statement, with per-phase timings and
        the executed plan mode.
        """
        if trace is None and not self._obs.active:
            return self._execute_statement(sql, params, None)
        with self._obs.statement("statement", sql, trace) as observed:
            self._stmt_mode = None
            try:
                result = self._execute_statement(sql, params, observed.span)
            finally:
                observed.mode = self._stmt_mode
            observed.rows = result.rowcount
            return result

    def _execute_statement(
        self,
        sql: str,
        params: Sequence[object],
        obs: Optional[ActiveSpan],
    ) -> ResultSet:
        database = self._database
        if obs is None:
            cached, generation, _hit = database._cached_statement(sql)
        else:
            t0 = time.perf_counter()
            cached, generation, hit = database._cached_statement(sql)
            obs.phase("parse", time.perf_counter() - t0)
            if hit:
                obs.event("plan_cache_hit")
        statement = cached.statement
        if isinstance(statement, ast.TransactionStatement):
            database._count_statement()
            self._apply_transaction_statement(statement, obs)
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, ast.CheckpointStatement):
            database._count_statement()
            self._execute_checkpoint()
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, (ast.SelectStatement, ast.ExplainStatement)):
            return self._execute_select(sql, params, cached, generation, obs)
        return self._execute_write(sql, params, cached, generation, obs)

    def execute_many(self, sql: str, param_rows: Iterable[Sequence[object]]) -> int:
        """Execute the same DML statement for every parameter row inside one
        transaction; returns the total affected-row count.

        If any row fails, the whole batch is rolled back (when the session
        had no transaction open) or undone back to the batch start (when
        one was already open).  Like single statements, a batch that opened
        its own transaction is retried on a write-write conflict.
        """
        database = self._database
        controller = database._mvcc
        cached, generation, _ = database._cached_statement(sql)
        param_rows = list(param_rows)
        attempt = 0
        while True:
            token = controller.begin_statement(self._transaction)
            transaction = self._transaction
            opened_here = transaction is None
            if opened_here:
                transaction = self._transaction = Transaction(
                    implicit=self.autocommit
                )
                controller.adopt_transaction(transaction)
            mark = transaction.undo.mark()
            total = 0
            try:
                if database._cache_generation != generation:
                    cached, generation, _ = database._cached_statement(sql)
                plan = database._ensure_plan(cached)
                for params in param_rows:
                    result = database._executor.execute(
                        cached.statement, params, plan=plan, txn=transaction
                    )
                    database._count_statement()
                    total += result.rowcount
            except TransactionConflictError:
                transaction.undo.rollback_to(mark)
                if opened_here:
                    self._abort_transaction(transaction)
                    controller.end_statement(token)
                    attempt += 1
                    if attempt <= CONFLICT_RETRY_LIMIT:
                        controller.count_retry()
                        _conflict_backoff(attempt)
                        continue
                else:
                    controller.end_statement(token)
                raise
            except BaseException:
                transaction.undo.rollback_to(mark)
                if opened_here:
                    self._abort_transaction(transaction)
                controller.end_statement(token)
                raise
            # The gate is left before the auto-commit epilogue: the open
            # write transaction itself keeps the exclusive side out (DDL
            # and checkpoints drain write transactions too), and the
            # checkpoint trigger inside the epilogue must be able to drain
            # *this* statement.
            controller.end_statement(token)
            self._finish_write(transaction)
            controller.collect_garbage()
            return total

    # -- internals -----------------------------------------------------------

    def _execute_select(
        self,
        sql: str,
        params: Sequence[object],
        cached: _CachedStatement,
        generation: int,
        obs: Optional[ActiveSpan] = None,
    ) -> ResultSet:
        database = self._database
        controller = database._mvcc
        token = controller.begin_statement(self._transaction)
        try:
            # Concurrent DDL may have invalidated the entry fetched during
            # dispatch, and a stale plan would read a dropped table's
            # detached storage.  Invalidations bump the cache generation, so
            # an unchanged generation proves the entry is still current; on
            # a mismatch re-fetch inside the statement gate (DDL runs on
            # the exclusive side, so from here the entry is stable).
            if database._cache_generation != generation:
                cached, _, _ = database._cached_statement(sql)
            if obs is None:
                plan = database._ensure_plan(cached)
                result = database._executor.execute(
                    cached.statement, params, plan=plan
                )
            else:
                t0 = time.perf_counter()
                plan = database._ensure_plan(cached)
                obs.phase("plan", time.perf_counter() - t0)
                t0 = time.perf_counter()
                result = database._executor.execute(
                    cached.statement, params, plan=plan
                )
                obs.phase("execute", time.perf_counter() - t0)
            if plan is not None:
                self._stmt_mode = plan.mode
            database._count_statement()
            return ResultSet(
                columns=result.columns, rows=result.rows, rowcount=result.rowcount
            )
        finally:
            controller.end_statement(token)

    def _execute_write(
        self,
        sql: str,
        params: Sequence[object],
        cached: _CachedStatement,
        generation: int,
        obs: Optional[ActiveSpan] = None,
    ) -> ResultSet:
        database = self._database
        if isinstance(cached.statement, _DDL_STATEMENTS):
            return self._execute_ddl(cached)
        controller = database._mvcc
        attempt = 0
        while True:
            token = controller.begin_statement(self._transaction)
            transaction = self._transaction
            opened_here = transaction is None
            if opened_here:
                # Auto-commit wraps the statement in an implicit
                # transaction; a session with auto-commit off starts a
                # transaction that stays open until COMMIT/ROLLBACK (JDBC
                # semantics, no BEGIN round trip).
                transaction = self._transaction = Transaction(
                    implicit=self.autocommit
                )
                controller.adopt_transaction(transaction)
            mark = transaction.undo.mark()
            try:
                # A stale entry's plan would write a dropped table's
                # detached storage: re-fetch after concurrent DDL, as
                # _execute_select does.
                if database._cache_generation != generation:
                    cached, generation, _ = database._cached_statement(sql)
                if obs is None:
                    plan = database._ensure_plan(cached)
                    result = database._executor.execute(
                        cached.statement, params, plan=plan, txn=transaction
                    )
                else:
                    t0 = time.perf_counter()
                    plan = database._ensure_plan(cached)
                    obs.phase("plan", time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    result = database._executor.execute(
                        cached.statement, params, plan=plan, txn=transaction
                    )
                    obs.phase("execute", time.perf_counter() - t0)
                database._count_statement()
            except TransactionConflictError:
                # Statement-level atomicity, then first-updater-wins: when
                # this statement opened its own transaction nothing of it
                # survives, so it can safely retry against a fresh
                # snapshot; inside an explicit transaction the conflict
                # propagates for the client to roll back and retry.
                transaction.undo.rollback_to(mark)
                if opened_here:
                    self._abort_transaction(transaction)
                    controller.end_statement(token)
                    attempt += 1
                    if attempt <= CONFLICT_RETRY_LIMIT:
                        controller.count_retry()
                        if obs is not None:
                            obs.event("conflict_retry")
                        _conflict_backoff(attempt)
                        continue
                else:
                    controller.end_statement(token)
                raise
            except BaseException:
                # Statement-level atomicity: undo this statement's changes
                # but keep an already-open transaction alive.
                transaction.undo.rollback_to(mark)
                if opened_here:
                    self._abort_transaction(transaction)
                controller.end_statement(token)
                raise
            # The gate is left before the auto-commit epilogue: the open
            # write transaction itself keeps the exclusive side out (DDL
            # and checkpoints drain write transactions too), and the
            # checkpoint trigger inside the epilogue must be able to drain
            # *this* statement.
            controller.end_statement(token)
            self._finish_write(transaction, obs)
            controller.collect_garbage()
            return ResultSet(
                columns=result.columns, rows=result.rows, rowcount=result.rowcount
            )

    def _execute_ddl(self, cached: _CachedStatement) -> ResultSet:
        """DDL runs on the exclusive side of the statement gate: in-flight
        statements drain first, and no statement starts until it finishes.
        DDL is not transactional — it auto-commits at execution."""
        database = self._database
        if (
            database._durability is not None
            and self._transaction is not None
            and self._transaction.undo
        ):
            # DDL is logged at execution position but the transaction's row
            # operations only at COMMIT; letting DDL run after pending row
            # ops would make the log replay in a different order than live
            # execution (e.g. a unique index backfilled before the DELETE
            # that made it satisfiable), wedging recovery.  DDL on a
            # durable database therefore requires the transaction to have
            # no uncommitted row changes.
            raise SqlExecutionError(
                "DDL on a durable database cannot follow uncommitted row "
                "changes in the same transaction; COMMIT first"
            )
        with database._mvcc.exclusive(self._transaction):
            result = database._executor.execute(cached.statement, ())
            database._count_statement()
            # The catalog just changed: drop (again, after the change —
            # parsing already dropped once) every cached statement that
            # may have been planned between parse and execution.
            database._invalidate_cache()
            database._log_ddl(cached.statement)
        return ResultSet(
            columns=result.columns, rows=result.rows, rowcount=result.rowcount
        )

    def _finish_write(
        self, transaction: Transaction, obs: Optional[ActiveSpan] = None
    ) -> None:
        if transaction.implicit:
            self._commit_and_release(transaction, obs)

    def _commit_and_release(
        self, transaction: Transaction, obs: Optional[ActiveSpan] = None
    ) -> None:
        """The commit epilogue shared by explicit COMMIT and implicit
        (auto-commit) transactions.

        Commit installation runs under the controller's commit lock: the
        WAL append (on a durable database) and the commit-stamp
        installation happen atomically with respect to other commits, so
        log order is commit-stamp order and no snapshot can observe a
        half-installed commit.  The wait for the disk happens *after*
        releasing the lock, so a slow fsync never blocks other sessions —
        that wait is where group commit batches concurrent committers into
        one fsync — recorded as ``wal_fsync`` on the span ``obs``, if any.
        """
        database = self._database
        controller = database._mvcc
        durability = database._durability
        ticket = None
        if transaction.write_set:
            with controller.commit_lock:
                if durability is not None and transaction.undo:
                    try:
                        ticket = durability.log_commit(transaction.undo.entries())
                    except BaseException:
                        # The commit record never reached the log, so the
                        # transaction cannot be durable: roll it back
                        # (restoring the in-memory state to match).
                        self._abort_transaction(transaction)
                        raise
                stamp = controller.allocate_commit_stamp()
                for table, row_id in transaction.write_set:
                    table.install_commit(row_id, transaction, stamp)
                controller.publish_commit(stamp)
            transaction.write_set.clear()
        transaction.undo.clear()
        self._transaction = None
        controller.end_transaction(transaction, committed=True)
        controller.collect_garbage()
        if ticket is not None:
            if obs is None:
                durability.sync(ticket)
            else:
                t0 = time.perf_counter()
                durability.sync(ticket)
                obs.phase("wal_fsync", time.perf_counter() - t0)
            database._maybe_checkpoint()

    def _execute_checkpoint(self) -> None:
        """Run a CHECKPOINT statement issued on this session.

        Disallowed inside an explicit transaction: the session would hold
        uncommitted (in-place) changes that the snapshot must not contain.
        """
        if self.in_transaction:
            raise SqlExecutionError(
                "CHECKPOINT cannot run inside an open transaction"
            )
        self._database.checkpoint()

    def _apply_transaction_statement(
        self, statement: ast.TransactionStatement, obs: Optional[ActiveSpan]
    ) -> None:
        action = statement.action
        if action == "BEGIN":
            self.begin()
        elif action == "COMMIT":
            self._commit(obs)
        elif action == "ROLLBACK":
            self.rollback()
        elif action == "SAVEPOINT":
            self.savepoint(statement.savepoint or "")
        elif action == "ROLLBACK TO":
            self.rollback_to_savepoint(statement.savepoint or "")
        elif action == "RELEASE":
            self.release_savepoint(statement.savepoint or "")
        else:  # pragma: no cover - parser emits only the actions above
            raise SqlExecutionError(f"unknown transaction action {action!r}")

    def _require_transaction(self, action: str) -> Transaction:
        if self._transaction is None:
            raise SqlExecutionError(f"{action} requires an open transaction")
        return self._transaction

class Database:
    """An in-memory SQL database.

    Thread safety: multi-version concurrency control.  Statements from any
    number of sessions run concurrently — readers resolve row visibility
    against their snapshot and never block — while the MVCC controller's
    exclusive gate briefly drains in-flight statements for DDL, checkpoints
    and bulk loads.  Use :meth:`session` to get a per-connection
    :class:`Session` with its own transaction context; the ``execute``
    family on the Database itself runs through a shared default auto-commit
    session for convenience.
    """

    def __init__(
        self,
        planner_options: PlannerOptions | None = None,
        statement_cache_size: int = 256,
        data_dir: str | None = None,
        durability: DurabilityOptions | None = None,
        *,
        node_name: str = "engine",
        tracing: TracingOptions | None = None,
        metrics: MetricsRegistry | None = None,
        slow_query_ms: float | None = None,
        slow_query_sink=None,
    ) -> None:
        # Observability first: the metrics registry must exist before the
        # subsystems that record into it (columnar metrics, durability).
        #: The unified metrics registry every counter of this engine lives
        #: in (or is bridged into via collectors); shareable so a server
        #: can merge engine and wire metrics into one scrape.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: This node's tracing, statement latency and slow-query log;
        #: servers rename it to their node name so cross-node traces
        #: attribute correctly.
        self.obs = NodeObserver(
            node_name,
            tracing=tracing,
            metrics=self.metrics,
            latency_histogram="statement_latency_seconds",
            slow_query_ms=slow_query_ms,
            slow_query_sink=slow_query_sink,
        )
        self._catalog = Catalog()
        self._tables: dict[str, TableData] = {}
        self._mvcc = MvccController()
        # Two-phase commit: live prepared transactions (detached from their
        # sessions), redo batches recovered in doubt from the log, and the
        # decisions already applied (for idempotent coordinator retries).
        self._prepared: dict[str, Transaction] = {}
        self._recovered_prepared: dict[str, list] = {}
        self._decided_gids: dict[str, str] = {}
        self._prepared_lock = threading.Lock()
        # Durability: with a data_dir the manager recovers the previous
        # state into the (still empty) catalog/tables — latest snapshot
        # plus write-ahead-log replay — and opens the live log.  Without
        # one the database is purely in-memory and the durable code paths
        # reduce to a None check.
        self._durability: Optional[DurabilityManager] = None
        if data_dir is not None:
            self._durability = DurabilityManager(
                data_dir,
                durability or DurabilityOptions(),
                self._catalog,
                self._tables,
            )
            # Recovery built raw tables (no versioning — everything it
            # loads is committed); attach the controller now so live
            # statements run them through the MVCC read/write paths.
            for data in self._tables.values():
                data.attach_mvcc(self._mvcc)
            # Transactions prepared before a crash come back in doubt; the
            # coordinator resolves them through commit/rollback_prepared.
            info = self._durability.recovery_info
            self._recovered_prepared.update(info.in_doubt)
            self._decided_gids.update(info.decided_gids)
        elif durability is not None:
            raise SqlExecutionError(
                "durability options require a data_dir"
            )
        self._planner_options = planner_options or PlannerOptions()
        # Engine-wide columnar execution counters; shared by every Executor
        # this database builds so stats() survives option changes.  Backed
        # by the unified registry so they appear in the scrape too.
        self._columnar_metrics = ColumnarMetrics(registry=self.metrics)
        self._executor = Executor(
            self._catalog,
            self._tables,
            self._planner_options,
            mvcc=self._mvcc,
            columnar_metrics=self._columnar_metrics,
        )
        # LRU statement cache: parsed statement + plan, keyed by
        # (SQL text, planner-options identity).  Invalidated wholesale on
        # DDL and per-entry when table statistics drift (see _ensure_plan).
        self._statement_cache: OrderedDict[
            tuple[str, tuple], _CachedStatement
        ] = OrderedDict()
        self._statement_cache_size = max(0, statement_cache_size)
        # Bumped on every cache invalidation (DDL, option changes) so
        # readers can prove a dispatched entry is still current without
        # re-fetching it (see Session._execute_select).
        self._cache_generation = 0
        self._options_key: tuple = self._planner_options.cache_key()
        self._cache_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        #: Number of statements executed; used by tests and benchmarks to
        #: verify how many round-trips a code path performs.
        self.statements_executed = 0
        #: Statement-cache hit/miss counters and the number of times a
        #: SELECT was (re)planned; benchmarks and tests read these to
        #: observe plan reuse and invalidation.
        self.statement_cache_hits = 0
        self.statement_cache_misses = 0
        self.plans_computed = 0
        # One default session per thread: Session objects are not
        # thread-safe, so the Database.execute facade must not share one
        # session's transaction/lock state across threads.
        self._default_sessions = threading.local()
        # Bridge the engine's pre-existing counters into the registry as
        # pull-based collectors: nothing on the hot path changes, but one
        # scrape sees everything.
        self.metrics.collect("engine", self._engine_counters)
        self.metrics.collect("mvcc", self._mvcc.stats)
        self.metrics.collect("durability", self.durability_info)

    # -- properties ----------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The table catalog."""
        return self._catalog

    @property
    def planner_options(self) -> PlannerOptions:
        """Planner switches (mutable; the plan cache is cleared on change via
        :meth:`set_planner_options`)."""
        return self._planner_options

    def set_planner_options(self, options: PlannerOptions) -> None:
        """Replace the planner options and invalidate cached plans."""
        with self._mvcc.exclusive():
            self._planner_options = options
            self._options_key = options.cache_key()
            self._executor = Executor(
                self._catalog,
                self._tables,
                options,
                mvcc=self._mvcc,
                columnar_metrics=self._columnar_metrics,
            )
            self._invalidate_cache()

    def set_statement_cache_size(self, size: int) -> None:
        """Resize (or, with 0, disable) the statement/plan cache."""
        size = max(0, size)
        with self._cache_lock:
            self._statement_cache_size = size
            while len(self._statement_cache) > size:
                self._statement_cache.popitem(last=False)

    def statement_cache_info(self) -> dict[str, int]:
        """Cache observability: hits, misses, plans computed, entries."""
        with self._cache_lock:
            return {
                "hits": self.statement_cache_hits,
                "misses": self.statement_cache_misses,
                "plans_computed": self.plans_computed,
                "entries": len(self._statement_cache),
                "size": self._statement_cache_size,
            }

    def stats(self) -> dict[str, object]:
        """One engine-wide statistics document.

        Aggregates the counters the network server's SERVER_STATS frame
        ships to remote clients: statements executed, statement-cache
        behaviour, per-table row counts, the MVCC concurrency counters
        (active transactions, conflicts, retries, snapshot ages, garbage
        collection) and (on a durable engine) the durability counters.
        """
        token = self._mvcc.begin_statement()
        try:
            tables = {
                name: len(data) for name, data in self._tables.items()
            }
            columnar: dict[str, object] = dict(self._columnar_metrics.snapshot())
            columnar["column_rebuilds"] = sum(
                data.column_rebuilds for data in self._tables.values()
            )
            columnar["column_patches"] = sum(
                data.column_patches for data in self._tables.values()
            )
        finally:
            self._mvcc.end_statement(token)
        return {
            "statements_executed": self.statements_executed,
            "statement_cache": self.statement_cache_info(),
            "tables": tables,
            "mvcc": self._mvcc.stats(),
            "columnar": columnar,
            "durable": self.durable,
            "durability": self.durability_info(),
            "prepared_transactions": len(self.prepared_gids()),
            **self.obs.stats(),
        }

    # -- observability --------------------------------------------------------

    def traces(self, trace_id: str | None = None) -> list[dict]:
        """Spans recorded by **this node** (as dicts, oldest first),
        optionally filtered by trace id.  Distributed front ends
        (the sharding coordinator, the replicated pool) override/extend
        this by merging the buffers of every node they talk to."""
        return self.obs.trace_buffer.spans(trace_id)

    def _engine_counters(self) -> dict[str, object]:
        info = self.statement_cache_info()
        return {
            "statements_executed": self.statements_executed,
            "statement_cache_hits": info["hits"],
            "statement_cache_misses": info["misses"],
            "statement_cache_entries": info["entries"],
            "plans_computed": info["plans_computed"],
        }

    # -- durability ----------------------------------------------------------

    @property
    def data_dir(self) -> str | None:
        """Directory backing this database, or None when purely in-memory."""
        return self._durability.data_dir if self._durability is not None else None

    @property
    def durable(self) -> bool:
        """Whether this database persists through a write-ahead log."""
        return self._durability is not None

    def durability_info(self) -> dict[str, object]:
        """Durability counters (epoch, log bytes, syncs, recovery stats);
        empty for an in-memory database."""
        return self._durability.info() if self._durability is not None else {}

    @property
    def durability_manager(self):
        """The :class:`DurabilityManager`, or None when in-memory (the
        replication streamer tails its log files directly)."""
        return self._durability

    def wal_position(self) -> tuple[int, int]:
        """The end-of-log ``(epoch, offset)`` LSN; ``(0, 0)`` in-memory."""
        if self._durability is None:
            return (0, 0)
        return self._durability.wal_position()

    def statement_is_read_only(self, sql: str) -> bool:
        """Whether ``sql`` cannot modify data (SELECT/EXPLAIN, or pure
        transaction control).  Read-only replica servers gate writes on
        this; it reuses the parse cache so the check costs a dict hit."""
        cached, _generation, _hit = self._cached_statement(sql)
        return isinstance(
            cached.statement,
            (ast.SelectStatement, ast.ExplainStatement, ast.TransactionStatement),
        )

    def checkpoint(self) -> bool:
        """Snapshot all tables and truncate the write-ahead log.

        Returns False (a no-op) on an in-memory database.  Takes the
        exclusive side of the statement gate (draining in-flight statements
        and other threads' write transactions), so the snapshot sees only
        committed state.  Raises when a write transaction remains open
        after the drain: the gate exempts same-thread transactions (the
        historical reentrancy), so a sibling session's uncommitted
        (in-place) changes could otherwise reach the snapshot — and a
        later rollback would then be resurrected by recovery.

        Also refused while any prepared (in-doubt) transaction exists: its
        uncommitted state must not reach the snapshot, and the checkpoint
        would delete the log epoch holding its PREPARE batch.  The check
        runs *before* the exclusive gate because a live prepared
        transaction stays registered as an open write transaction — the
        gate would wait on it forever instead of failing fast.
        """
        durability = self._durability
        if durability is None:
            return False
        if self.prepared_gids():
            raise SqlExecutionError(
                "CHECKPOINT requires no prepared (in-doubt) transaction"
            )
        with self._mvcc.exclusive():
            if self._mvcc.has_open_write_transactions():
                raise SqlExecutionError(
                    "CHECKPOINT requires no open write transaction"
                )
            if self.prepared_gids():
                raise SqlExecutionError(
                    "CHECKPOINT requires no prepared (in-doubt) transaction"
                )
            durability.checkpoint()
        return True

    # -- two-phase commit ------------------------------------------------------

    def prepared_gids(self) -> list[str]:
        """Global ids of every prepared transaction awaiting a decision —
        live ones plus batches recovered in doubt from the log.  The
        coordinator's LIST_PREPARED verb serves exactly this."""
        with self._prepared_lock:
            return sorted(set(self._prepared) | set(self._recovered_prepared))

    def _prepare_transaction(self, gid: str, transaction: Transaction) -> None:
        """Phase one: register ``transaction`` under ``gid`` and make its
        redo batch durable, terminated by a PREPARE frame.

        The transaction keeps its row ownerships (so conflicting writers
        still lose to it) but no longer belongs to any session.  On any
        failure it is rolled back completely — a coordinator that never
        hears PREPARE-ok presumes abort.
        """
        with self._prepared_lock:
            duplicate = (
                gid in self._prepared
                or gid in self._recovered_prepared
                or gid in self._decided_gids
            )
            if not duplicate:
                self._prepared[gid] = transaction
        if duplicate:
            self._rollback_transaction(transaction)
            raise SqlExecutionError(
                f"global transaction {gid!r} already exists"
            )
        durability = self._durability
        ticket = None
        if durability is not None:
            try:
                # Under the commit lock so the batch lands in commit order
                # relative to concurrent commits (the replication stream
                # replays log order).  Logged even when the write set is
                # empty: a read-only participant's PREPARE must survive a
                # crash, or the coordinator's commit retry would see an
                # unknown gid and report a lost transaction.
                with self._mvcc.commit_lock:
                    ticket = durability.log_prepare(
                        gid, transaction.undo.entries()
                    )
            except BaseException:
                with self._prepared_lock:
                    self._prepared.pop(gid, None)
                self._rollback_transaction(transaction)
                raise
        if ticket is not None:
            durability.sync(ticket)

    def commit_prepared(self, gid: str) -> None:
        """Phase two, COMMIT: install a prepared transaction.

        Idempotent for gids already committed (a coordinator retries its
        decision after failures); raises for unknown or already-aborted
        gids.  Works both for live prepared transactions and for batches
        recovered in doubt after a restart.
        """
        with self._prepared_lock:
            transaction = self._prepared.pop(gid, None)
            recovered = None
            if transaction is None:
                recovered = self._recovered_prepared.pop(gid, None)
                if recovered is None:
                    decision = self._decided_gids.get(gid)
                    if decision == "commit":
                        return
                    if decision == "abort":
                        raise SqlExecutionError(
                            f"prepared transaction {gid!r} was already aborted"
                        )
                    raise SqlExecutionError(
                        f"unknown prepared transaction {gid!r}"
                    )
            self._decided_gids[gid] = "commit"
        controller = self._mvcc
        durability = self._durability
        ticket = None
        if transaction is not None:
            with controller.commit_lock:
                if durability is not None:
                    ticket = durability.log_commit_prepared(gid)
                stamp = controller.allocate_commit_stamp()
                for table, row_id in transaction.write_set:
                    table.install_commit(row_id, transaction, stamp)
                controller.publish_commit(stamp)
            transaction.write_set.clear()
            transaction.undo.clear()
            controller.end_transaction(transaction, committed=True)
            controller.collect_garbage()
        else:
            # A recovered batch holds raw redo records, not live row
            # ownerships: replay it like recovery would, under the
            # exclusive gate so the rows appear atomically.
            from repro.sqlengine.durability.recovery import _apply

            with controller.exclusive():
                for record in recovered:
                    _apply(record, self._tables)
            if durability is not None:
                ticket = durability.log_commit_prepared(gid)
        if ticket is not None:
            durability.sync(ticket)

    def rollback_prepared(self, gid: str) -> None:
        """Phase two, ABORT: discard a prepared transaction.

        Presumed abort makes this liberal: unknown and already-aborted gids
        succeed silently (the coordinator aborts anything it has no commit
        record for); only a gid that already *committed* raises.
        """
        with self._prepared_lock:
            transaction = self._prepared.pop(gid, None)
            recovered = None
            if transaction is None:
                recovered = self._recovered_prepared.pop(gid, None)
                if recovered is None:
                    if self._decided_gids.get(gid) == "commit":
                        raise SqlExecutionError(
                            f"prepared transaction {gid!r} was already committed"
                        )
                    return
            self._decided_gids[gid] = "abort"
        if transaction is not None:
            self._rollback_transaction(transaction)
        durability = self._durability
        if durability is not None:
            durability.sync(durability.log_abort_prepared(gid))

    def adopt_recovered_prepared(self, gid: str, records: list) -> None:
        """Register a redo batch as an in-doubt prepared transaction.

        Used by a promoted replica: prepared batches it saw over the
        replication stream become resolvable through
        :meth:`commit_prepared` / :meth:`rollback_prepared`, so a
        coordinator's decision survives the primary it was prepared on.
        """
        with self._prepared_lock:
            if gid in self._decided_gids or gid in self._prepared:
                return
            self._recovered_prepared[gid] = list(records)
        if self._durability is not None:
            # Re-log the batch so the adopted in-doubt state survives a
            # crash of *this* node too (the batch was only durable on the
            # node it was originally prepared on).
            with self._mvcc.commit_lock:
                ticket = self._durability.log_adopted_prepare(gid, records)
            self._durability.sync(ticket)

    def _rollback_transaction(self, transaction: Transaction) -> None:
        """Replay the undo journal, release row ownerships and unregister
        ``transaction`` (shared by session rollback and 2PC abort)."""
        controller = self._mvcc
        try:
            transaction.undo.rollback_to(0)
            for table, row_id in reversed(transaction.write_set):
                table.release_ownership(row_id, transaction)
        finally:
            transaction.write_set.clear()
            controller.end_transaction(transaction, committed=False)
            controller.collect_garbage()

    def make_durable(
        self, data_dir: str, durability: DurabilityOptions | None = None
    ) -> None:
        """Attach a write-ahead log to a previously in-memory database.

        The promotion path: a replica's engine is in-memory while it
        follows the primary, and promotion hands it a fresh ``data_dir`` so
        it can survive its own crash and be followed in turn.  The current
        state is checkpointed immediately (snapshot + fresh log epoch), so
        from this call on the database recovers like any other durable one.
        ``data_dir`` must be empty or absent — recovering somebody else's
        files into a populated engine would interleave two histories.
        """
        if self._durability is not None:
            raise SqlExecutionError("database is already durable")
        if os.path.isdir(data_dir) and os.listdir(data_dir):
            raise SqlExecutionError(
                f"make_durable requires an empty data_dir, {data_dir!r} is not"
            )
        with self._mvcc.exclusive():
            if self._mvcc.has_open_write_transactions():
                raise SqlExecutionError(
                    "make_durable requires no open write transaction"
                )
            # The dir was verified empty, so the manager's recovery pass
            # finds nothing and leaves the live catalog/tables untouched.
            manager = DurabilityManager(
                data_dir,
                durability or DurabilityOptions(),
                self._catalog,
                self._tables,
            )
            manager.checkpoint()
            self._durability = manager

    def close(self) -> None:
        """Flush and close the durability layer (no-op when in-memory).

        Deliberately does not checkpoint: a clean close and a crash must
        recover identically, so closing only makes the log durable.
        """
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _maybe_checkpoint(self) -> None:
        """Cut an automatic checkpoint when the log-size trigger fires.

        Silently deferred while any session holds an open write
        transaction (see :meth:`checkpoint`); the next qualifying commit
        re-fires the trigger.
        """
        durability = self._durability
        if durability is None or not durability.should_checkpoint():
            return
        if self.prepared_gids():
            # An in-doubt transaction pins its PREPARE batch's log epoch;
            # defer until the coordinator decides it.
            return
        hold = self._mvcc.try_exclusive_idle()
        if hold is None:
            return
        with hold:
            # Re-check under the gate: a concurrent committer may have cut
            # the checkpoint while this one waited, and snapshotting the
            # whole database again microseconds later would be pure waste.
            if durability.should_checkpoint():
                durability.checkpoint()

    def _log_ddl(self, statement: ast.Statement) -> None:
        """Append (and sync) the log record for an executed DDL statement.

        Called under the MVCC exclusive gate right after execution.  DDL is
        rare and auto-committed, so the sync happening before the gate is
        released is an acceptable simplification.
        """
        durability = self._durability
        if durability is None:
            return
        try:
            if isinstance(statement, ast.CreateTableStatement):
                ticket = durability.log_create_table(
                    self._catalog.table(statement.table)
                )
            elif isinstance(statement, ast.CreateIndexStatement):
                ticket = durability.log_create_index(
                    statement.table,
                    statement.name,
                    tuple(statement.columns),
                    statement.unique,
                    ordered=False,
                )
            elif isinstance(statement, ast.DropTableStatement):
                ticket = durability.log_drop_table(statement.table)
            else:  # pragma: no cover - _DDL_STATEMENTS lists exactly the above
                return
        except BaseException:
            # Compensate where possible so memory and the recovered state
            # cannot diverge.  An unlogged DROP TABLE cannot restore the
            # dropped data, so it is left asymmetric: recovery conservatively
            # resurrects the table.
            if isinstance(statement, ast.CreateTableStatement):
                self._catalog.drop_table(statement.table)
                self._tables.pop(statement.table.lower(), None)
            elif isinstance(statement, ast.CreateIndexStatement):
                data = self._tables.get(statement.table.lower())
                if data is not None:
                    data.drop_index(statement.name)
            raise
        durability.sync(ticket)

    # -- sessions ------------------------------------------------------------

    def session(self, autocommit: bool = True) -> Session:
        """Open a new session with its own transaction context."""
        return Session(self, autocommit=autocommit)

    @property
    def _default_session(self) -> Session:
        session = getattr(self._default_sessions, "session", None)
        if session is None:
            session = self._default_sessions.session = Session(self, autocommit=True)
        return session

    # -- SQL interface (default-session facade) ------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[object] = (),
        *,
        trace: Optional[TraceContext] = None,
    ) -> ResultSet:
        """Parse (with caching), plan and execute one SQL statement on the
        shared default auto-commit session."""
        return self._default_session.execute(sql, params, trace=trace)

    def execute_many(
        self, sql: str, param_rows: Iterable[Sequence[object]]
    ) -> int:
        """Execute the same statement for every parameter row; returns the
        total affected-row count."""
        return self._default_session.execute_many(sql, param_rows)

    def explain(self, sql: str) -> str:
        """Return the textual plan for a SELECT, UPDATE or DELETE."""
        token = self._mvcc.begin_statement()
        try:
            cached, _, _ = self._cached_statement(sql)
            plan = self._ensure_plan(cached)
            if plan is None:
                return type(cached.statement).__name__
            return plan.explain()
        finally:
            self._mvcc.end_statement(token)

    def plan(self, sql: str) -> SelectPlan:
        """Parse and plan a SELECT **bypassing the statement cache**.

        Always replans, so benchmarks can time the parse+plan half of a
        round trip in isolation (the half the plan cache amortises away).
        """
        statement = parse_statement(sql)
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement
        if not isinstance(statement, ast.SelectStatement):
            raise SqlExecutionError("only SELECT statements can be planned")
        token = self._mvcc.begin_statement()
        try:
            return self._executor.plan(statement)
        finally:
            self._mvcc.end_statement(token)

    def executescript(self, script: str) -> None:
        """Execute several semicolon-separated statements (DDL helper)."""
        for statement_text in _split_script(script):
            self.execute(statement_text)

    # -- bulk/native helpers -------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        """Register a table directly from a :class:`TableSchema`."""
        durability = self._durability
        with self._mvcc.exclusive():
            self._catalog.create_table(schema)
            data = TableData(schema)
            data.attach_mvcc(self._mvcc)
            self._tables[schema.name.lower()] = data
            self._invalidate_cache()
            try:
                ticket = (
                    durability.log_create_table(schema)
                    if durability is not None
                    else None
                )
            except BaseException:
                # The table never reached the log; unregister it so memory
                # and the recovered state cannot diverge.
                self._catalog.drop_table(schema.name)
                self._tables.pop(schema.name.lower(), None)
                raise
        if ticket is not None:
            durability.sync(ticket)

    def create_index(
        self,
        table: str,
        columns: Sequence[str],
        name: str | None = None,
        unique: bool = False,
        ordered: bool = False,
    ) -> None:
        """Create an index without going through SQL."""
        durability = self._durability
        with self._mvcc.exclusive():
            data = self.table_data(table)
            index_name = name or f"idx_{table.lower()}_{'_'.join(columns).lower()}"
            data.create_index(index_name, tuple(columns), unique=unique, ordered=ordered)
            self._invalidate_cache()
            try:
                ticket = (
                    durability.log_create_index(
                        data.schema.name, index_name, tuple(columns), unique, ordered
                    )
                    if durability is not None
                    else None
                )
            except BaseException:
                # The index never reached the log; drop it again so memory
                # and the recovered state cannot diverge.
                data.drop_index(index_name)
                raise
        if ticket is not None:
            durability.sync(ticket)

    def insert_rows(self, table: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-load rows (used by the TPC-W population generator).

        Rows must list a value for every column in schema order.  The load
        is non-transactional for the in-memory undo machinery (it bypasses
        the undo log), but on a durable database it is journalled as one
        committed transaction so a bulk-loaded population survives restart.
        """
        durability = self._durability
        ticket = None
        try:
            with self._mvcc.exclusive():
                schema = self._catalog.table(table)
                data = self._tables[schema.name.lower()]
                count = 0
                logged: list[tuple[int, tuple[object, ...]]] | None = (
                    [] if durability is not None else None
                )
                try:
                    for row in rows:
                        coerced = schema.coerce_row(row)
                        row_id = data.insert(coerced)
                        if logged is not None:
                            logged.append((row_id, coerced))
                        count += 1
                    if logged:
                        ticket = durability.log_bulk_insert(schema.name, logged)
                except BaseException:
                    if logged:
                        # Keep memory and log consistent on a durable
                        # engine: a failed load (bad row mid-stream, or the
                        # log append itself) must not leave rows visible
                        # that recovery would never reproduce.  Undone
                        # newest-first, exactly like transaction rollback.
                        for row_id, coerced in reversed(logged):
                            data.undo_insert(row_id, coerced)
                    raise
                return count
        finally:
            if ticket is not None:
                durability.sync(ticket)
                self._maybe_checkpoint()

    def table_data(self, table: str) -> TableData:
        """Direct access to a table's storage (tests and the ORM use this)."""
        schema = self._catalog.table(table)
        return self._tables[schema.name.lower()]

    def row_count(self, table: str) -> int:
        """Number of live rows in ``table``."""
        return len(self.table_data(table))

    # -- internals -----------------------------------------------------------

    def _count_statement(self) -> None:
        with self._counter_lock:
            self.statements_executed += 1

    def _invalidate_cache(self) -> None:
        with self._cache_lock:
            self._statement_cache.clear()
            self._cache_generation += 1

    def _cached_statement(
        self, sql: str
    ) -> tuple[_CachedStatement, int, bool]:
        """Parse ``sql`` with LRU caching keyed by (SQL text, planner
        options); returns the entry, the cache generation it belongs to,
        and whether it was a cache hit (tracing records the hit as a span
        event).  Plans are attached lazily by :meth:`_ensure_plan` under
        the appropriate lock."""
        with self._cache_lock:
            key = (sql, self._options_key)
            cached = self._statement_cache.get(key)
            if cached is not None:
                self._statement_cache.move_to_end(key)
                self.statement_cache_hits += 1
                return cached, self._cache_generation, True
            self.statement_cache_misses += 1
            statement = parse_statement(sql)
            cached = _CachedStatement(statement=statement, plan=None)
            if isinstance(statement, _DDL_STATEMENTS):
                # DDL changes the catalog: every cached statement and plan
                # may be stale, so the whole cache is dropped.
                self._statement_cache.clear()
                self._cache_generation += 1
            elif self._statement_cache_size > 0:
                self._statement_cache[key] = cached
                while len(self._statement_cache) > self._statement_cache_size:
                    self._statement_cache.popitem(last=False)
            return cached, self._cache_generation, False

    def _ensure_plan(
        self, cached: _CachedStatement
    ) -> Optional[SelectPlan | DmlPlan]:
        """Plan a cached SELECT, UPDATE or DELETE (or the statement an
        EXPLAIN shows) on first execution, and replan on statistics drift;
        None for statements that are not planned.

        Called inside the statement gate so planning sees a stable catalog.
        Two racing statements may both plan; the plans are equivalent and
        the attribute write is atomic, so the race is benign.
        """
        plan = cached.plan
        if plan is not None and not self._plan_is_stale(plan):
            return plan
        statement = cached.statement
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement
        if not isinstance(statement, ast.PlannedStatement):
            return None
        plan = cached.plan = self._executor.plan(statement)
        with self._counter_lock:
            self.plans_computed += 1
        return plan

    def _plan_is_stale(self, plan: SelectPlan | DmlPlan) -> bool:
        """True when a referenced table's row count has drifted roughly 2x
        from the value the plan was costed with (small tables are damped so
        a handful of inserts does not thrash the cache)."""
        for table, planned in plan.stats_snapshot.items():
            data = self._tables.get(table)
            if data is None:
                return True
            current = len(data)
            low, high = (planned, current) if planned <= current else (current, planned)
            if high + 8 > 2 * (low + 8):
                return True
        return False


def _split_script(script: str) -> list[str]:
    """Split a script into statements on semicolons outside string literals."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in script:
        if ch == "'":
            in_string = not in_string
            current.append(ch)
        elif ch == ";" and not in_string:
            text = "".join(current).strip()
            if text:
                statements.append(text)
            current = []
        else:
            current.append(ch)
    text = "".join(current).strip()
    if text:
        statements.append(text)
    return statements
