"""The shard coordinator: one Database-shaped facade over N shard nodes.

:class:`ShardedDatabase` speaks the engine's ``Database`` surface
(``session()`` / ``explain()`` / ``checkpoint()`` / ``stats()`` ...), so
the unchanged wire server, dbapi driver and ORM run against a fleet of
shards exactly as they run against one engine.  Each shard backend is
anything with a ``session(autocommit=...)`` factory: an embedded
:class:`~repro.sqlengine.engine.Database`, a
:class:`~repro.netclient.pool.ConnectionPool` over a remote server, or a
:class:`~repro.netclient.pool.ReplicatedConnectionPool` over a primary
plus replicas (shard-level failover composes transparently).

Execution model, by route (see :mod:`repro.sharding.router`):

* ``single`` / ``any`` — the original statement text and parameters are
  forwarded untouched to one shard.
* ``fanout`` — the statement is rewritten per shard and merged:
  ungrouped aggregates push partial aggregates (``AVG`` becomes
  ``SUM``+``COUNT``) and re-aggregate on the coordinator; ordered scans
  push ``ORDER BY`` plus ``LIMIT limit+offset`` and k-way merge on the
  coordinator using the engine's own sort-key semantics; plain scans
  union.
* ``gather`` — multi-shard joins pull the referenced table slices into a
  scratch in-memory engine and execute the original statement locally
  (correctness backstop; per-table single-binding conjuncts are pushed
  into the slice fetches).
* ``broadcast`` / ``split`` — multi-shard writes.  Outside an explicit
  transaction they run as an internal distributed transaction; inside
  one they enlist shard sessions that commit together.

Distributed commit is two-phase: every enlisted shard session prepares
under a coordinator-chosen gid, the decision is fsynced into the
coordinator's :class:`~repro.sharding.journal.DecisionJournal`, and only
then does COMMIT PREPARED go out.  A coordinator crash between those
steps is resolved by :meth:`ShardedDatabase.resolve_in_doubt` on
restart: journaled-commit gids are committed, everything else is
presumed aborted.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from typing import Callable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NodeObserver
from repro.obs.trace import ActiveSpan, TraceContext, TracingOptions
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database, ResultSet, _split_script
from repro.sqlengine.errors import (
    ShardError,
    SqlCatalogError,
    SqlExecutionError,
    SqlParseError,
    SqlTypeError,
    StaleShardMapError,
    TransactionConflictError,
    UniqueViolationError,
)
from repro.sqlengine.expressions import collect_column_refs, split_conjuncts
from repro.sqlengine.operators import _sort_key
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.planner import AGGREGATE_FUNCTIONS
from repro.sharding import sqlgen
from repro.sharding.journal import DecisionJournal
from repro.sharding.router import (
    ANY,
    BROADCAST,
    FANOUT,
    GATHER,
    SINGLE,
    SPLIT,
    Route,
    Router,
)
from repro.session import SqlSession
from repro.sharding.shardmap import ShardMap

_DDL_STATEMENTS = (
    ast.CreateTableStatement,
    ast.CreateIndexStatement,
    ast.DropTableStatement,
)


#: Errors that describe the statement, not the shard that ran it: every
#: shard would raise the same, so a multi-shard step surfaces them
#: unchanged, exactly as a single-shard route does.
_STATEMENT_ERRORS = (
    SqlParseError,
    SqlCatalogError,
    SqlTypeError,
    UniqueViolationError,
    TransactionConflictError,
)


def _raise_first_failure(step: str, errors: list[tuple[int, Exception]]) -> None:
    """Raise the lowest-numbered failing shard's error: a statement error
    as it is, anything else (a dead node, a refused connection) as a
    :class:`ShardError` naming the shard."""
    shard, error = min(errors, key=lambda pair: pair[0])
    if isinstance(error, _STATEMENT_ERRORS):
        raise error
    raise ShardError(f"{step} failed on shard {shard}: {error}") from error


def _close_quietly(session: SqlSession) -> None:
    try:
        session.close()
    except Exception:
        pass


# -- merge helpers ------------------------------------------------------------


class _Desc:
    """Inverts comparison for DESC merge keys (the engine sorts with
    ``reverse=`` per key; a k-way merge needs the inversion in the key)."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.key == self.key


def _order_key(value: object, descending: bool):
    key = _sort_key(value)
    return _Desc(key) if descending else key


class _AggregatePlan:
    """The per-shard rewrite of an ungrouped-aggregate select list."""

    __slots__ = ("names", "push_items", "specs")

    def __init__(self, names, push_items, specs) -> None:
        #: Output column names, matching the engine's naming rule
        #: (alias or ``func{position}``).
        self.names = names
        #: Rendered per-shard select items (partial aggregates).
        self.push_items = push_items
        #: Per output column: ("COUNT"|"SUM"|"MIN"|"MAX", pos) or
        #: ("AVG", sum_pos, count_pos) into the pushed row.
        self.specs = specs


def _aggregate_plan(
    statement: ast.SelectStatement, params: Sequence[object]
) -> Optional[_AggregatePlan]:
    """The partial-aggregate pushdown plan, or None for non-aggregates.

    Mirrors the planner's ungrouped-aggregate validation so a sharded
    query raises the same errors a single-node one would.
    """
    has_aggregate = any(
        isinstance(item.expression, ast.FunctionCall)
        and item.expression.name.upper() in AGGREGATE_FUNCTIONS
        for item in statement.items
    )
    if not has_aggregate:
        return None
    names: list[str] = []
    push_items: list[str] = []
    specs: list[tuple] = []
    for position, item in enumerate(statement.items):
        expression = item.expression
        if not isinstance(expression, ast.FunctionCall) or (
            expression.name.upper() not in AGGREGATE_FUNCTIONS
        ):
            raise SqlExecutionError(
                "mixing aggregate and non-aggregate select items "
                "requires GROUP BY, which is not supported"
            )
        function = expression.name.upper()
        names.append((item.alias or f"{function.lower()}{position}").lower())
        if expression.star or not expression.args:
            if function != "COUNT":
                if expression.star:
                    raise SqlExecutionError(f"{function}(*) is not valid SQL")
                raise SqlExecutionError(f"{function} requires an argument")
            push_items.append(f"COUNT(*) AS __p{len(push_items)}")
            specs.append(("COUNT", len(push_items) - 1))
            continue
        if len(expression.args) != 1:
            raise SqlExecutionError(f"{function} takes exactly one argument")
        argument = sqlgen.render_expression(expression.args[0], params)
        if function == "AVG":
            push_items.append(f"SUM({argument}) AS __p{len(push_items)}")
            sum_position = len(push_items) - 1
            push_items.append(f"COUNT({argument}) AS __p{len(push_items)}")
            specs.append(("AVG", sum_position, len(push_items) - 1))
        else:
            push_items.append(
                f"{function}({argument}) AS __p{len(push_items)}"
            )
            specs.append((function, len(push_items) - 1))
    return _AggregatePlan(names, push_items, specs)


def _merge_aggregates(
    plan: _AggregatePlan, shard_rows: list[tuple]
) -> tuple:
    """Combine per-shard partial-aggregate rows into the final row,
    following the engine's NULL semantics (SUM/MIN/MAX/AVG over zero
    non-NULL inputs yield NULL, COUNT yields 0)."""
    out: list[object] = []
    for spec in plan.specs:
        function = spec[0]
        if function == "COUNT":
            out.append(sum(row[spec[1]] for row in shard_rows))
        elif function == "SUM":
            total: object = None
            for row in shard_rows:
                value = row[spec[1]]
                if value is None:
                    continue
                total = value if total is None else total + value
            out.append(total)
        elif function in ("MIN", "MAX"):
            best: object = None
            for row in shard_rows:
                value = row[spec[1]]
                if value is None:
                    continue
                if best is None:
                    best = value
                elif function == "MIN" and value < best:
                    best = value
                elif function == "MAX" and value > best:
                    best = value
            out.append(best)
        else:  # AVG
            total = None
            count = 0
            for row in shard_rows:
                value = row[spec[1]]
                if value is not None:
                    total = value if total is None else total + value
                count += row[spec[2]]
            out.append(None if count == 0 else total / count)
    return tuple(out)


def _only_references(conjunct: ast.Expression, binding: str) -> bool:
    """True when every column reference in ``conjunct`` is qualified with
    ``binding`` (safe to push into that table's gather slice)."""
    return all(
        ref.table is not None and ref.table.lower() == binding
        for ref in collect_column_refs(conjunct)
    )


class _Unmergeable(Exception):
    """Internal: this fan-out shape needs the gather fallback."""


def _constant_int(
    expression: Optional[ast.Expression], params: Sequence[object]
) -> Optional[int]:
    """Evaluate a LIMIT/OFFSET expression; _Unmergeable when it is not a
    literal or parameter (the gather path handles those)."""
    if expression is None:
        return None
    if isinstance(expression, ast.Literal):
        value = expression.value
    elif isinstance(expression, ast.Parameter):
        if expression.index >= len(params):
            raise ShardError(
                f"statement references parameter {expression.index + 1} but "
                f"only {len(params)} values were bound"
            )
        value = params[expression.index]
    else:
        raise _Unmergeable()
    if not isinstance(value, int) or isinstance(value, bool):
        raise _Unmergeable()
    return value


# -- the session --------------------------------------------------------------


class ShardedSession:
    """One client's transactional view over the shard fleet.

    Mirrors the engine :class:`~repro.sqlengine.engine.Session` contract
    the wire server depends on: ``execute``/``begin``/``commit``/
    ``rollback``, an ``autocommit`` flag (off opens an implicit
    transaction on the first statement), and an ``in_transaction``
    property.  Shard sessions are enlisted lazily as a transaction's
    statements touch shards; commit runs direct (one participant) or
    two-phase (several).

    Not thread-safe — one sharded session per thread, like the engine's.
    """

    def __init__(self, database: "ShardedDatabase", autocommit: bool = True):
        self._db = database
        self._obs = database.obs
        self.autocommit = autocommit
        self._closed = False
        self._active = False
        self._enlisted: dict[int, SqlSession] = {}
        self._map_version: Optional[int] = None
        #: The span of the traced statement currently executing; a commit
        #: it runs (COMMIT, autocommit multi-shard write) times its 2PC
        #: phases on it.
        self._span: Optional[ActiveSpan] = None
        #: The child trace context re-propagated to every shard call made
        #: on behalf of the current traced statement.
        self._fanout_trace: Optional[TraceContext] = None
        #: The routing decision of the current statement, for span tags
        #: and slow-log records.
        self._stmt_route: Optional[str] = None
        #: The shard answering ``any``-routed reads inside this
        #: transaction (pinned so repeated global-table reads see one
        #: snapshot and the transaction's own broadcast writes).
        self._anchor: Optional[int] = None

    # -- transaction control -------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._active

    def begin(self) -> None:
        self._check_open()
        if self._active:
            raise SqlExecutionError("a transaction is already in progress")
        self._open_transaction()

    def _open_transaction(self) -> None:
        self._active = True
        self._map_version = self._db.shard_map.version

    def commit(self, *, trace: Optional[TraceContext] = None) -> None:
        """Commit the enlisted shards: directly for one participant,
        two-phase for several.  A sampled ``trace`` records a ``commit``
        span carrying the 2PC phases and the gid."""
        self._obs.traced(trace, "commit", self._commit)

    def _commit(self, span: Optional[ActiveSpan]) -> None:
        self._check_open()
        if not self._active:
            return
        participants = [
            (shard, session)
            for shard, session in sorted(self._enlisted.items())
            if session.in_transaction
        ]
        try:
            self._commit_participants(
                participants, self._map_version, span or self._span
            )
        finally:
            self._release()

    def rollback(self) -> None:
        self._check_open()
        if not self._active:
            return
        try:
            for session in self._enlisted.values():
                try:
                    session.rollback()
                except Exception:
                    # Best effort: a dead shard's transaction dies with
                    # its connection (presumed abort).
                    pass
        finally:
            self._release()

    def close(self) -> None:
        if self._closed:
            return
        if self._active:
            try:
                self.rollback()
            finally:
                self._closed = True
            return
        self._closed = True

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()

    def prepare_txn(self, gid: str, *, trace: Optional[TraceContext] = None) -> None:
        """The coordinator is the 2PC *driver*, never a participant: a
        prepared coordinator transaction would need its own coordinator.
        The participant verbs all refuse."""
        raise ShardError(
            "two-phase commit participant verbs are not supported on a "
            "sharding coordinator; it drives two-phase commit, it does not "
            "join one"
        )

    commit_prepared = abort_prepared = prepare_txn

    def list_prepared(self) -> list[str]:
        """Gids prepared anywhere in the fleet (see
        :meth:`ShardedDatabase.prepared_gids`)."""
        return self._db.prepared_gids()

    def _release(self) -> None:
        for session in self._enlisted.values():
            _close_quietly(session)
        self._enlisted = {}
        self._active = False
        self._map_version = None
        self._anchor = None

    def _check_open(self) -> None:
        if self._closed:
            raise SqlExecutionError("session is closed")

    # -- two-phase commit ----------------------------------------------------

    def _commit_participants(
        self,
        participants: list[tuple[int, SqlSession]],
        map_version: Optional[int],
        span: Optional[ActiveSpan],
    ) -> None:
        """Commit directly or in two phases; the 2PC phases and the gid
        land on ``span`` — the traced statement's (a COMMIT or an
        autocommit write) or the traced commit() call's."""
        db = self._db
        if not participants:
            return
        trace = span.context if span is not None else self._fanout_trace
        if map_version is not None and db.shard_map.version != map_version:
            for _, session in participants:
                try:
                    session.rollback()
                except Exception:
                    pass
            raise StaleShardMapError(
                f"shard map changed (version {map_version} -> "
                f"{db.shard_map.version}) while this transaction was open; "
                "aborted to avoid committing stale row placements"
            )
        if len(participants) == 1:
            participants[0][1].commit(trace=trace)
            return
        gid = db._new_gid()
        if span is not None:
            span.tag(gid=gid)
        t0 = time.perf_counter()
        prepared: list[tuple[int, SqlSession]] = []
        for shard, session in participants:
            try:
                session.prepare_txn(gid, trace=trace)
                prepared.append((shard, session))
            except Exception as error:
                # Phase one veto: abort the already-prepared batches and
                # roll back everyone still holding an open transaction.
                for _, done in prepared:
                    try:
                        done.abort_prepared(gid, trace=trace)
                    except Exception:
                        pass
                prepared_ids = {id(done) for _, done in prepared}
                for _, other in participants:
                    if id(other) in prepared_ids or other is session:
                        continue
                    try:
                        other.rollback()
                    except Exception:
                        pass
                try:
                    session.rollback()
                except Exception:
                    pass
                raise ShardError(
                    f"2PC prepare failed on shard {shard}: {error}"
                ) from error
        if span is not None:
            t1 = time.perf_counter()
            span.phase("2pc_prepare", t1 - t0)
            t0 = t1
        # The decision point: once this record is on disk the
        # transaction IS committed, whatever happens to the processes.
        db.journal.record(gid, "commit")
        db._count_2pc()
        if span is not None:
            t1 = time.perf_counter()
            span.phase("2pc_decision", t1 - t0)
            t0 = t1
        failures: list[int] = []
        for shard, session in participants:
            try:
                session.commit_prepared(gid, trace=trace)
            except Exception:
                failures.append(shard)
        if span is not None:
            span.phase("2pc_commit", time.perf_counter() - t0)
        if failures:
            raise ShardError(
                f"transaction {gid} is committed but shard(s) "
                f"{sorted(failures)} did not acknowledge COMMIT PREPARED; "
                "in-doubt recovery will complete it"
            )

    # -- statement execution -------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[object] = (),
        *,
        trace: Optional[TraceContext] = None,
    ) -> ResultSet:
        """Route and execute one statement.

        Mirrors the engine session's hot-path contract: with no inbound
        trace context and observability off, this adds exactly one
        attribute check before the plain routing path.  Otherwise the
        node's observer records a ``coordinator`` span whose context is
        re-propagated to every shard call, tagged with the route.
        """
        if trace is None and not self._obs.active:
            return self._execute_statement(sql, params)
        with self._obs.statement("coordinator", sql, trace) as observed:
            self._span = observed.span
            self._fanout_trace = observed.forward
            self._stmt_route = None
            try:
                result = self._execute_statement(sql, params)
            finally:
                observed.route = self._stmt_route
                self._span = None
                self._fanout_trace = None
                self._stmt_route = None
            observed.rows = result.rowcount
            return result

    def _execute_statement(
        self, sql: str, params: Sequence[object] = ()
    ) -> ResultSet:
        self._check_open()
        db = self._db
        statement = db._parse(sql)
        db._count_statement()
        if isinstance(statement, ast.TransactionStatement):
            action = statement.action
            if action == "BEGIN":
                self.begin()
            elif action == "COMMIT":
                self.commit()
            elif action == "ROLLBACK":
                self.rollback()
            else:
                raise ShardError(
                    "savepoints are not supported in sharded sessions (a "
                    "partial rollback cannot span two-phase participants)"
                )
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, ast.CheckpointStatement):
            if self._active:
                raise SqlExecutionError(
                    "CHECKPOINT cannot run inside an open transaction"
                )
            db.checkpoint()
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, ast.ExplainStatement):
            lines = db.explain(sql).splitlines()
            return ResultSet(
                columns=["query plan"],
                rows=[(line,) for line in lines],
                rowcount=len(lines),
            )
        if isinstance(statement, _DDL_STATEMENTS):
            return self._execute_ddl(statement, sql, params)
        if not self.autocommit and not self._active:
            self._open_transaction()
        if isinstance(statement, ast.SelectStatement):
            return self._execute_select(statement, sql, params)
        return self._execute_write(statement, sql, params)

    def execute_many(
        self, sql: str, param_rows: Sequence[Sequence[object]]
    ) -> int:
        """The engine's batched-DML helper, transactional per batch."""
        opened_here = not self._active
        if opened_here:
            self.begin()
        total = 0
        try:
            for params in param_rows:
                total += self.execute(sql, params).rowcount
        except BaseException:
            if opened_here:
                self.rollback()
            raise
        if opened_here:
            self.commit()
        return total

    # -- shard session plumbing ----------------------------------------------

    def _session_for(self, shard: int):
        session = self._enlisted.get(shard)
        if session is None:
            session = self._db._backend_session(shard, autocommit=False)
            self._enlisted[shard] = session
        return session

    def _checkout(self, shard: int) -> tuple[object, bool]:
        """(session, is_temporary): enlisted inside a transaction, a
        fresh autocommit session otherwise."""
        if self._active:
            return self._session_for(shard), False
        return self._db._backend_session(shard, autocommit=True), True

    def _shard_execute(self, session: SqlSession, sql: str, params: Sequence[object]):
        """Forward one statement to a shard session, re-propagating the
        coordinator's trace context when the statement is traced."""
        return session.execute(sql, params, trace=self._fanout_trace)

    def _pick_any(self) -> int:
        if self._active:
            if self._anchor is None:
                if self._enlisted:
                    self._anchor = min(self._enlisted)
                else:
                    self._anchor = self._db._next_any_shard()
            return self._anchor
        return self._db._next_any_shard()

    def _run_on_shards(
        self,
        shards: Sequence[int],
        per_shard_sql: Callable[[int], str],
        params: Sequence[object],
    ) -> list[ResultSet]:
        """Execute on every listed shard in parallel; any failure raises
        a typed :class:`ShardError` and no partial result escapes."""
        checkouts = [(shard, *self._checkout(shard)) for shard in shards]
        results: list[Optional[ResultSet]] = [None] * len(checkouts)
        errors: list[tuple[int, Exception]] = []

        def run(index: int, shard: int, session) -> None:
            try:
                result = self._shard_execute(session, per_shard_sql(shard), params)
                results[index] = ResultSet(
                    columns=list(result.columns),
                    rows=list(result.rows),
                    rowcount=result.rowcount,
                )
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append((shard, error))

        try:
            if len(checkouts) == 1:
                run(0, checkouts[0][0], checkouts[0][1])
            else:
                threads = [
                    threading.Thread(
                        target=run,
                        args=(index, shard, session),
                        name=f"shard-fanout-{shard}",
                        daemon=True,
                    )
                    for index, (shard, session, _) in enumerate(checkouts)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            for _, session, temporary in checkouts:
                if temporary:
                    _close_quietly(session)
        if errors:
            _raise_first_failure("fan-out", errors)
        return [result for result in results if result is not None]

    # -- SELECT --------------------------------------------------------------

    def _execute_select(
        self,
        statement: ast.SelectStatement,
        sql: str,
        params: Sequence[object],
    ) -> ResultSet:
        db = self._db
        route = db._router().route_select(statement, params)
        db._count_route(route.kind)
        self._stmt_route = route.kind
        if route.kind == SINGLE:
            return self._run_single(route.shards[0], sql, params)
        if route.kind == ANY:
            return self._run_single(self._pick_any(), sql, params)
        if route.kind == FANOUT:
            try:
                return self._execute_fanout(statement, params, route)
            except _Unmergeable:
                db._count_route(GATHER)
                self._stmt_route = GATHER
                return self._execute_gather(statement, sql, params)
        return self._execute_gather(statement, sql, params)

    def _run_single(
        self, shard: int, sql: str, params: Sequence[object]
    ) -> ResultSet:
        session, temporary = self._checkout(shard)
        try:
            result = self._shard_execute(session, sql, params)
            return ResultSet(
                columns=list(result.columns),
                rows=list(result.rows),
                rowcount=result.rowcount,
            )
        finally:
            if temporary:
                session.close()

    def _execute_fanout(
        self,
        statement: ast.SelectStatement,
        params: Sequence[object],
        route: Route,
    ) -> ResultSet:
        plan = _aggregate_plan(statement, params)
        limit = _constant_int(statement.limit, params)
        offset = _constant_int(statement.offset, params) or 0
        if plan is not None:
            push_sql = sqlgen.render_select(
                statement,
                params,
                items=plan.push_items,
                drop_order=True,
                drop_limit=True,
            )
            shard_results = self._run_on_shards(
                route.shards, lambda _shard: push_sql, ()
            )
            rows = [_merge_aggregates(plan, [r.rows[0] for r in shard_results])]
            rows = rows[offset:]
            if limit is not None:
                rows = rows[:limit]
            return ResultSet(
                columns=list(plan.names), rows=rows, rowcount=len(rows)
            )
        if statement.distinct and statement.order_by:
            # Hidden merge keys would change what DISTINCT deduplicates.
            raise _Unmergeable()
        hidden = [
            f"{sqlgen.render_expression(item.expression, params)} AS __ord{i}"
            for i, item in enumerate(statement.order_by)
        ]
        push_items = None
        if hidden:
            push_items = [
                sqlgen.render_select_item(item, params)
                for item in statement.items
            ] + hidden
        push_limit = limit + offset if limit is not None else None
        push_sql = sqlgen.render_select(
            statement, params, items=push_items, limit=push_limit, offset=0
        )
        shard_results = self._run_on_shards(
            route.shards, lambda _shard: push_sql, ()
        )
        columns = list(shard_results[0].columns)
        if statement.order_by:
            base = len(columns) - len(hidden)
            order_specs = [
                (base + i, item.descending)
                for i, item in enumerate(statement.order_by)
            ]

            def merge_key(row: tuple) -> tuple:
                return tuple(
                    _order_key(row[position], descending)
                    for position, descending in order_specs
                )

            merged = list(
                heapq.merge(*[r.rows for r in shard_results], key=merge_key)
            )
            merged = [row[:base] for row in merged]
            columns = columns[:base]
        else:
            merged = [row for result in shard_results for row in result.rows]
        if statement.distinct:
            merged = list(dict.fromkeys(merged))
        if offset:
            merged = merged[offset:]
        if limit is not None:
            merged = merged[:limit]
        return ResultSet(columns=columns, rows=merged, rowcount=len(merged))

    def _execute_gather(
        self,
        statement: ast.SelectStatement,
        sql: str,
        params: Sequence[object],
    ) -> ResultSet:
        db = self._db
        scratch = Database()
        for _table, ddl in db._ddl_snapshot():
            scratch.execute(ddl)
        for table in sorted({ref.table.lower() for ref in statement.tables}):
            rows = self._fetch_slice(table, statement, params)
            if rows:
                scratch.insert_rows(table, rows)
        result = scratch.execute(sql, params)
        return ResultSet(
            columns=list(result.columns),
            rows=list(result.rows),
            rowcount=result.rowcount,
        )

    def _fetch_slice(
        self,
        table: str,
        statement: ast.SelectStatement,
        params: Sequence[object],
    ) -> list[tuple]:
        db = self._db
        refs = [
            ref for ref in statement.tables if ref.table.lower() == table
        ]
        slice_sql = f"SELECT * FROM {table}"
        if len(refs) == 1:
            # A single binding lets us push its conjuncts into the slice
            # fetch; with several (a self-join) the slices would need a
            # union anyway, so fetch the whole table once.
            ref = refs[0]
            if ref.alias:
                slice_sql += f" AS {ref.alias}"
            pushable = [
                conjunct
                for conjunct in split_conjuncts(statement.where)
                if _only_references(conjunct, ref.binding.lower())
            ]
            if pushable:
                slice_sql += " WHERE " + " AND ".join(
                    f"({sqlgen.render_expression(conjunct, params)})"
                    for conjunct in pushable
                )
        if db.shard_map.is_sharded(table):
            results = self._run_on_shards(
                tuple(range(db.num_shards)), lambda _shard: slice_sql, ()
            )
            return [row for result in results for row in result.rows]
        session, temporary = self._checkout(self._pick_any())
        try:
            return list(self._shard_execute(session, slice_sql, ()).rows)
        finally:
            if temporary:
                session.close()

    # -- writes --------------------------------------------------------------

    def _execute_write(
        self, statement, sql: str, params: Sequence[object]
    ) -> ResultSet:
        db = self._db
        router = db._router()
        if isinstance(statement, ast.InsertStatement):
            route = router.route_insert(statement, params)
        elif isinstance(statement, ast.UpdateStatement):
            route = router.route_update(statement, params)
        else:
            route = router.route_delete(statement, params)
        db._count_route(route.kind)
        self._stmt_route = route.kind
        if route.kind == SINGLE:
            return self._run_single(route.shards[0], sql, params)
        if self._active:
            sessions = [
                (shard, self._session_for(shard)) for shard in route.shards
            ]
            rowcount = self._run_write(sessions, statement, sql, params, route)
            return ResultSet(columns=[], rows=[], rowcount=rowcount)
        # Autocommit multi-shard write: an internal distributed
        # transaction so a broadcast or split insert is all-or-nothing.
        map_version = db.shard_map.version
        sessions = [
            (shard, db._backend_session(shard, autocommit=False))
            for shard in route.shards
        ]
        try:
            rowcount = self._run_write(sessions, statement, sql, params, route)
            participants = [
                (shard, session)
                for shard, session in sessions
                if session.in_transaction
            ]
            self._commit_participants(participants, map_version, self._span)
        except BaseException:
            for _, session in sessions:
                try:
                    session.rollback()
                except Exception:
                    pass
            raise
        finally:
            for _, session in sessions:
                _close_quietly(session)
        return ResultSet(columns=[], rows=[], rowcount=rowcount)

    def _run_write(
        self,
        sessions: list[tuple[int, object]],
        statement,
        sql: str,
        params: Sequence[object],
        route: Route,
    ) -> int:
        if route.kind == SPLIT:
            jobs = [
                (
                    shard,
                    session,
                    sqlgen.render_insert(
                        statement,
                        params,
                        rows=[
                            statement.rows[index]
                            for index in route.insert_groups[shard]
                        ],
                    ),
                    (),
                )
                for shard, session in sessions
            ]
        else:
            jobs = [(shard, session, sql, params) for shard, session in sessions]
        rowcounts: list[Optional[int]] = [None] * len(jobs)
        errors: list[tuple[int, Exception]] = []

        def run(index: int, shard: int, session, job_sql, job_params) -> None:
            try:
                rowcounts[index] = self._shard_execute(
                    session, job_sql, job_params
                ).rowcount
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append((shard, error))

        if len(jobs) == 1:
            run(0, *jobs[0])
        else:
            threads = [
                threading.Thread(
                    target=run,
                    args=(index, shard, session, job_sql, job_params),
                    name=f"shard-write-{shard}",
                    daemon=True,
                )
                for index, (shard, session, job_sql, job_params) in enumerate(jobs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            _raise_first_failure("distributed write", errors)
        counts = [count for count in rowcounts if count is not None]
        if route.kind == SPLIT or self._db.shard_map.is_sharded(
            statement.table
        ):
            # Each shard changed its own rows: the fleet total.
            return sum(counts)
        # A global-table broadcast applies the same change everywhere;
        # report one copy's count, not num_shards times it.
        return max(counts) if counts else 0

    # -- DDL -----------------------------------------------------------------

    def _execute_ddl(self, statement, sql: str, params: Sequence[object]) -> ResultSet:
        db = self._db
        db._count_route(BROADCAST)
        self._stmt_route = BROADCAST
        for shard in range(db.num_shards):
            session, temporary = self._checkout(shard)
            try:
                self._shard_execute(session, sql, params)
            finally:
                if temporary:
                    session.close()
        if isinstance(statement, ast.CreateTableStatement):
            db._register_table(
                statement.table,
                tuple(column.name for column in statement.columns),
                sql,
            )
        elif isinstance(statement, ast.CreateIndexStatement):
            db._register_ddl(statement.table, sql)
        else:
            db._drop_table(statement.table)
        return ResultSet(columns=[], rows=[], rowcount=0)


# -- the facade ---------------------------------------------------------------


class ShardedDatabase:
    """Database-shaped coordinator over ``num_shards`` shard backends."""

    def __init__(
        self,
        shard_map: ShardMap,
        shards: Sequence[object],
        data_dir: Optional[str] = None,
        name: str = "coordinator",
        resolve: bool = True,
        *,
        tracing: Optional[TracingOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_query_ms: Optional[float] = None,
        slow_query_sink=None,
    ) -> None:
        if shard_map.num_shards != len(shards):
            raise ShardError(
                f"shard map declares {shard_map.num_shards} shards but "
                f"{len(shards)} backends were supplied"
            )
        self.name = name
        # Observability mirrors the engine Database surface (metrics / obs
        # / traces()), so the unchanged wire server fronts a coordinator
        # like any other node.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.obs = NodeObserver(
            name,
            tracing=tracing,
            metrics=self.metrics,
            latency_histogram="coordinator_statement_latency_seconds",
            slow_query_ms=slow_query_ms,
            slow_query_sink=slow_query_sink,
        )
        self._shards = list(shards)
        self._map = shard_map
        self._lock = threading.Lock()
        self._schemas: dict[str, tuple[str, ...]] = {}
        #: Ordered (table, sql) DDL as broadcast through this
        #: coordinator; replayed to build gather scratch engines.
        self._ddl: list[tuple[str, str]] = []
        self._statement_cache: dict[str, ast.Statement] = {}
        #: The 2PC decision log; file-backed when ``data_dir`` is given.
        self.journal = DecisionJournal(data_dir)
        self._any_counter = itertools.count()
        self.statements_executed = 0
        self.transactions_2pc = 0
        self._route_counts = {
            kind: 0
            for kind in (ANY, SINGLE, FANOUT, GATHER, BROADCAST, SPLIT)
        }
        self.in_doubt_committed = 0
        self.in_doubt_aborted = 0
        self._closed = False
        # Bridge the coordinator's counters into the registry as pull
        # collectors (nothing on the routing hot path changes).
        self.metrics.collect("coordinator", self._coordinator_counters)
        if resolve:
            self.resolve_in_doubt()

    # -- topology ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_map(self) -> ShardMap:
        with self._lock:
            return self._map

    def install_map(self, shard_map: ShardMap) -> None:
        """Swap in a newer shard map; stale versions are rejected."""
        with self._lock:
            if shard_map.version <= self._map.version:
                raise StaleShardMapError(
                    f"shard map version {shard_map.version} is stale "
                    f"(installed version is {self._map.version})"
                )
            if shard_map.num_shards != len(self._shards):
                raise ShardError(
                    "cannot change the shard count with install_map (data "
                    "would need rebalancing); build a new coordinator"
                )
            self._map = shard_map

    def register_table(
        self,
        table: str,
        columns: Sequence[str],
        ddl: Optional[Sequence[str]] = None,
    ) -> None:
        """Declare an existing table's column order (for coordinators
        started against an already-populated fleet, where no CREATE TABLE
        flowed through :meth:`ShardedSession.execute`).  ``ddl`` optionally
        supplies the table's CREATE statements so gather scratch engines
        can rebuild it."""
        with self._lock:
            self._schemas[table.lower()] = tuple(
                column.lower() for column in columns
            )
            for sql in ddl or ():
                self._ddl.append((table.lower(), sql))

    def _register_table(
        self, table: str, columns: Sequence[str], sql: str
    ) -> None:
        with self._lock:
            self._schemas[table.lower()] = tuple(
                column.lower() for column in columns
            )
            self._ddl.append((table.lower(), sql))

    def _register_ddl(self, table: str, sql: str) -> None:
        with self._lock:
            self._ddl.append((table.lower(), sql))

    def _drop_table(self, table: str) -> None:
        with self._lock:
            self._schemas.pop(table.lower(), None)
            self._ddl = [
                entry for entry in self._ddl if entry[0] != table.lower()
            ]

    def _ddl_snapshot(self) -> list[tuple[str, str]]:
        with self._lock:
            return list(self._ddl)

    def _router(self) -> Router:
        with self._lock:
            return Router(self._map, dict(self._schemas))

    # -- plumbing ------------------------------------------------------------

    def _backend_session(self, shard: int, autocommit: bool = True):
        return self._shards[shard].session(autocommit=autocommit)

    def _parse(self, sql: str) -> ast.Statement:
        with self._lock:
            statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse_statement(sql)
            with self._lock:
                if len(self._statement_cache) >= 512:
                    self._statement_cache.clear()
                self._statement_cache[sql] = statement
        return statement

    def _new_gid(self) -> str:
        return f"{self.name}-{uuid.uuid4().hex[:16]}"

    def _next_any_shard(self) -> int:
        return next(self._any_counter) % len(self._shards)

    def _count_statement(self) -> None:
        with self._lock:
            self.statements_executed += 1

    def _count_route(self, kind: str) -> None:
        with self._lock:
            self._route_counts[kind] += 1

    def _count_2pc(self) -> None:
        with self._lock:
            self.transactions_2pc += 1

    # -- Database surface ----------------------------------------------------

    def session(self, autocommit: bool = True) -> ShardedSession:
        if self._closed:
            raise SqlExecutionError("sharded database is closed")
        return ShardedSession(self, autocommit=autocommit)

    def execute(self, sql: str, params: Sequence[object] = ()) -> ResultSet:
        """One-shot statement on a throwaway autocommit session."""
        session = self.session(autocommit=True)
        try:
            return session.execute(sql, params)
        finally:
            session.close()

    def executescript(self, script: str) -> None:
        for statement_text in _split_script(script):
            self.execute(statement_text)

    def statement_is_read_only(self, sql: str) -> bool:
        return isinstance(
            self._parse(sql),
            (
                ast.SelectStatement,
                ast.ExplainStatement,
                ast.TransactionStatement,
            ),
        )

    def explain(self, sql: str) -> str:
        """The routing decision plus the shard-local plan.

        The first line is the coordinator's: ``shards=1 (key=...)`` for a
        routed statement, ``shards=N (fanout+merge...)`` for a fan-out.
        The remaining lines are the plan of the statement each shard
        actually executes (for fan-outs, the rewritten pushdown query).
        """
        statement = self._parse(sql)
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement
        if not isinstance(statement, ast.SelectStatement):
            raise SqlExecutionError("only SELECT statements can be planned")
        route = self._router().route_select(statement, None)
        n = self.num_shards
        shard_sql = sqlgen.render_select(statement, None)
        if route.kind == SINGLE:
            header = f"shards=1 ({route.description})"
            target = route.shards[0]
        elif route.kind == ANY:
            header = "shards=1 (global tables; round-robin)"
            target = 0
        elif route.kind == FANOUT:
            header = f"shards={n} (fanout+merge; {route.description})"
            target = 0
            plan = _aggregate_plan(statement, None)
            if plan is not None:
                shard_sql = sqlgen.render_select(
                    statement,
                    None,
                    items=plan.push_items,
                    drop_order=True,
                    drop_limit=True,
                )
                header += "\nmerge: re-aggregate partials on coordinator"
            elif statement.order_by:
                header += "\nmerge: ordered k-way merge on coordinator"
            else:
                header += "\nmerge: union on coordinator"
        else:
            header = f"shards={n} (gather; {route.description})"
            target = 0
        try:
            shard_plan = self._shard_explain(target, shard_sql)
        except Exception as error:  # pragma: no cover - depends on backend
            shard_plan = f"(shard plan unavailable: {error})"
        indented = "\n".join(
            f"  {line}" for line in shard_plan.splitlines()
        )
        return f"{header}\nshard {target} plan:\n{indented}"

    def _shard_explain(self, shard: int, sql: str) -> str:
        backend = self._shards[shard]
        if isinstance(backend, Database):
            return backend.explain(sql)
        session = backend.session(autocommit=True)
        try:
            return session.explain(sql)
        finally:
            session.close()

    def checkpoint(self) -> bool:
        for shard in range(len(self._shards)):
            session = self._backend_session(shard, autocommit=True)
            try:
                session.execute("CHECKPOINT")
            finally:
                session.close()
        return True

    def wal_position(self) -> tuple[int, int]:
        """The coordinator has no log of row changes; only the decision
        journal.  Matches the in-memory engine's (0, 0)."""
        return (0, 0)

    @property
    def durability_manager(self):
        return None

    def prepared_gids(self) -> list[str]:
        """Best-effort union of prepared gids across the fleet."""
        gids: set[str] = set()
        for shard in range(len(self._shards)):
            try:
                session = self._backend_session(shard)
            except Exception:
                continue
            try:
                gids.update(session.list_prepared())
            except Exception:
                pass
            finally:
                _close_quietly(session)
        return sorted(gids)

    def resolve_in_doubt(self) -> dict[str, int]:
        """Finish transactions a crash left prepared on the shards.

        Journaled-commit gids are committed; every other prepared gid is
        aborted (presumed abort: no journal record means the decision
        point was never reached).  Unreachable shards are skipped — they
        are resolved on the next call once they return.
        """
        decisions = self.journal.decisions()
        outcome = {"committed": 0, "aborted": 0, "unreachable_shards": 0}
        for shard in range(len(self._shards)):
            try:
                session = self._backend_session(shard)
            except Exception:
                outcome["unreachable_shards"] += 1
                continue
            try:
                for gid in session.list_prepared():
                    if decisions.get(gid) == "commit":
                        session.commit_prepared(gid)
                        outcome["committed"] += 1
                    else:
                        session.abort_prepared(gid)
                        outcome["aborted"] += 1
            except Exception:
                outcome["unreachable_shards"] += 1
            finally:
                _close_quietly(session)
        with self._lock:
            self.in_doubt_committed += outcome["committed"]
            self.in_doubt_aborted += outcome["aborted"]
        return outcome

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "statements_executed": self.statements_executed,
                "transactions_2pc": self.transactions_2pc,
                "routes": dict(self._route_counts),
                "shard_map_version": self._map.version,
                "num_shards": len(self._shards),
                "in_doubt_committed": self.in_doubt_committed,
                "in_doubt_aborted": self.in_doubt_aborted,
                "tables": len(self._schemas),
                **self.obs.stats(),
            }

    # -- observability --------------------------------------------------------

    def traces(self, trace_id: Optional[str] = None) -> list[dict]:
        """The coordinator's own spans plus every span its shard backends
        buffered, optionally filtered by trace id.  Works across backend
        shapes (embedded engines, connection pools, replicated pools);
        unreachable backends are skipped — traces are a diagnostic
        surface and must not fail while the fleet is degraded."""
        spans = self.obs.trace_buffer.spans(trace_id)
        for backend in self._shards:
            fetch = getattr(backend, "traces", None)
            if fetch is None:
                continue
            try:
                spans.extend(fetch(trace_id))
            except Exception:
                continue
        return spans

    def _coordinator_counters(self) -> dict[str, object]:
        with self._lock:
            counters: dict[str, object] = {
                "statements_executed": self.statements_executed,
                "transactions_2pc": self.transactions_2pc,
                "in_doubt_committed": self.in_doubt_committed,
                "in_doubt_aborted": self.in_doubt_aborted,
                "shard_map_version": self._map.version,
                "num_shards": len(self._shards),
            }
            for kind, count in self._route_counts.items():
                counters[f"route_{kind}"] = count
        return counters

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for backend in self._shards:
            close = getattr(backend, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass
        self.journal.close()
