"""Statement execution for the in-memory SQL engine.

The executor owns the table data dictionary and knows how to run every
statement kind produced by the parser.  SELECT, UPDATE and DELETE are
planned by the :class:`~repro.sqlengine.planner.Planner`; UPDATE and DELETE
then write the rows their plan's access path yields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog, ColumnSchema, SqlType, TableSchema
from repro.sqlengine.columnar import BatchOperator, ColumnarMetrics
from repro.sqlengine.errors import SqlExecutionError
from repro.sqlengine.expressions import ExpressionCompiler
from repro.sqlengine.operators import materialise
from repro.sqlengine.planner import DmlPlan, Planner, PlannerOptions, SelectPlan
from repro.sqlengine.storage import TableData
from repro.sqlengine.transactions import MvccController, Transaction, UndoLog


@dataclass
class StatementResult:
    """Result of executing one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[object, ...]] = field(default_factory=list)
    rowcount: int = 0


def _instrument_plan(root) -> dict[int, dict[str, float]]:
    """Patch every operator in a plan tree (in place, via instance
    attributes) so executing it records per-operator actual row counts and
    wall time, keyed by ``id(operator)``.

    Time is *inclusive*: while an operator waits on ``next()`` from its
    child, both clocks run — the same convention PostgreSQL's EXPLAIN
    ANALYZE uses.  Row operators count yielded tuples; batch operators are
    wrapped around ``batches()`` and count ``Batch.n``, so both execution
    modes report true row cardinalities.  Only ever applied to a freshly
    planned tree: the patches would otherwise leak into cached plans.
    """
    stats: dict[int, dict[str, float]] = {}

    def patch(op) -> None:
        record = stats[id(op)] = {"rows": 0, "time_s": 0.0, "loops": 0}
        batch = isinstance(op, BatchOperator)
        inner = op.batches if batch else op.execute

        def wrapped(params, _inner=inner, _record=record, _batch=batch):
            _record["loops"] += 1
            t0 = time.perf_counter()
            iterator = _inner(params)
            _record["time_s"] += time.perf_counter() - t0
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    _record["time_s"] += time.perf_counter() - t0
                    return
                _record["time_s"] += time.perf_counter() - t0
                _record["rows"] += item.n if _batch else 1
                yield item

        if batch:
            op.batches = wrapped
        else:
            op.execute = wrapped
        for child in op.children():
            patch(child)

    patch(root)
    return stats


class Executor:
    """Executes parsed statements against catalog + storage."""

    def __init__(
        self,
        catalog: Catalog,
        tables: dict[str, TableData],
        planner_options: PlannerOptions | None = None,
        mvcc: MvccController | None = None,
        columnar_metrics: "ColumnarMetrics | None" = None,
    ) -> None:
        self._catalog = catalog
        self._tables = tables
        self._planner_options = planner_options or PlannerOptions()
        self._mvcc = mvcc
        self._columnar_metrics = columnar_metrics

    # -- planning ------------------------------------------------------------

    def plan(self, statement: ast.PlannedStatement) -> SelectPlan | DmlPlan:
        """Plan a SELECT, UPDATE or DELETE (exposed for plan caching and
        EXPLAIN)."""
        planner = Planner(
            self._catalog,
            self._tables,
            self._planner_options,
            metrics=self._columnar_metrics,
        )
        if isinstance(statement, ast.SelectStatement):
            return planner.plan_select(statement)
        return planner.plan_dml(statement)

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        statement: ast.Statement,
        params: Sequence[object] = (),
        plan: SelectPlan | DmlPlan | None = None,
        undo: Optional[UndoLog] = None,
        txn: Optional[Transaction] = None,
    ) -> StatementResult:
        """Execute ``statement`` with positional ``params``.

        ``plan`` is the statement's cached plan (SELECT, UPDATE, DELETE and
        EXPLAIN); without one the statement is planned here.

        ``txn``, when given, routes DML through the MVCC write path: rows
        are locked (first-updater-wins), inverse operations land in the
        transaction's undo log, and write-write conflicts raise
        :class:`~repro.sqlengine.errors.TransactionConflictError`.  The
        legacy ``undo`` parameter keeps the unversioned path for callers
        without a transaction (recovery tooling, standalone tests).  DDL is
        not transactional and records nothing either way.
        """
        if txn is not None:
            undo = txn.undo
        if isinstance(statement, ast.SelectStatement):
            select_plan = plan if plan is not None else self.plan(statement)
            rows = materialise(select_plan.root, params)
            return StatementResult(
                columns=list(select_plan.column_names),
                rows=rows,
                rowcount=len(rows),
            )
        if isinstance(statement, ast.ExplainStatement):
            if statement.analyze:
                return self._execute_explain_analyze(statement, params)
            if plan is None:
                plan = self.plan(statement.statement)
            lines = plan.explain().splitlines()
            return StatementResult(
                columns=["query plan"],
                rows=[(line,) for line in lines],
                rowcount=len(lines),
            )
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(statement, params, undo, txn)
        if isinstance(statement, ast.UpdateStatement):
            if plan is None:
                plan = self.plan(statement)
            return self._execute_update(plan, params, undo, txn)
        if isinstance(statement, ast.DeleteStatement):
            if plan is None:
                plan = self.plan(statement)
            return self._execute_delete(plan, params, undo, txn)
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndexStatement):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.DropTableStatement):
            self._catalog.drop_table(statement.table)
            self._tables.pop(statement.table.lower(), None)
            return StatementResult()
        if isinstance(statement, ast.TransactionStatement):
            # Transaction control is interpreted by the Session owning the
            # statement; a bare Executor has no transaction context, so the
            # statement is accepted as a no-op here.
            return StatementResult()
        raise SqlExecutionError(f"cannot execute statement {statement!r}")

    # -- EXPLAIN ANALYZE -----------------------------------------------------

    def _execute_explain_analyze(
        self, statement: ast.ExplainStatement, params: Sequence[object]
    ) -> StatementResult:
        """Plan afresh (instance-level instrumentation must never touch a
        plan shared through the statement cache), execute for real, and
        annotate every operator line with the rows it actually produced
        and its inclusive wall time."""
        select_plan = self.plan(statement.statement)
        stats = _instrument_plan(select_plan.root)
        started = time.perf_counter()
        rows = materialise(select_plan.root, params)
        total_ms = (time.perf_counter() - started) * 1000.0

        def annotate(op) -> str:
            record = stats.get(id(op))
            if record is None:
                return ""
            return (
                f"[actual rows={record['rows']} "
                f"time={record['time_s'] * 1000.0:.3f}ms "
                f"loops={record['loops']}]"
            )

        lines = select_plan.explain(annotate=annotate).splitlines()
        lines.append(f"Execution: rows={len(rows)} time={total_ms:.3f}ms")
        return StatementResult(
            columns=["query plan"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
        )

    # -- DML -----------------------------------------------------------------

    def _execute_insert(
        self,
        statement: ast.InsertStatement,
        params: Sequence[object],
        undo: Optional[UndoLog] = None,
        txn: Optional[Transaction] = None,
    ) -> StatementResult:
        schema = self._catalog.table(statement.table)
        data = self._tables[schema.name.lower()]
        versioned = txn is not None and data._controller is not None
        compiler = ExpressionCompiler()
        count = 0
        for value_row in statement.rows:
            columns = statement.columns or tuple(schema.column_names)
            if len(columns) != len(value_row):
                raise SqlExecutionError(
                    f"INSERT into {schema.name!r}: {len(columns)} columns "
                    f"but {len(value_row)} values"
                )
            values: list[object] = [None] * len(schema.columns)
            for column, expression in zip(columns, value_row):
                position = schema.column_index(column)
                values[position] = compiler.compile(expression)({}, params)
            row = schema.coerce_row(values)
            if versioned:
                row_id = data.mvcc_insert(row, txn)
            else:
                row_id = data.insert(row)
            if undo is not None:
                undo.record_insert(data, row_id, row)
            count += 1
        return StatementResult(rowcount=count)

    def _execute_update(
        self,
        plan: DmlPlan,
        params: Sequence[object],
        undo: Optional[UndoLog] = None,
        txn: Optional[Transaction] = None,
    ) -> StatementResult:
        data = plan.data
        schema = data.schema
        versioned = txn is not None and data._controller is not None
        updated = 0
        for row_id, row in plan.matching_rows(params):
            if versioned:
                # Lock first: a conflicting writer aborts us before any
                # mutation; on success the matched row is re-read in case a
                # commit landed between the match and the lock (the lock's
                # snapshot check ensures any such commit predates ours).
                data.mvcc_lock_row(row_id, txn)
                row = data._rows[row_id]
            new_row = list(row)
            for position, evaluate in plan.assignments:
                new_row[position] = evaluate(row, params)
            coerced = schema.coerce_row(new_row)
            if versioned:
                undo.record_versioned_update(data, row_id, row, coerced)
                data.mvcc_update(row_id, coerced, txn)
            else:
                if undo is not None:
                    # Recorded before the update so a failure partway
                    # through re-indexing is still restorable.
                    undo.record_update(data, row_id, row, coerced)
                data.update(row_id, coerced)
            updated += 1
        return StatementResult(rowcount=updated)

    def _execute_delete(
        self,
        plan: DmlPlan,
        params: Sequence[object],
        undo: Optional[UndoLog] = None,
        txn: Optional[Transaction] = None,
    ) -> StatementResult:
        data = plan.data
        versioned = txn is not None and data._controller is not None
        to_delete = plan.matching_rows(params)
        for row_id, row in to_delete:
            if versioned:
                data.mvcc_lock_row(row_id, txn)
                row = data._rows[row_id]
                if row is None:
                    continue
                undo.record_versioned_delete(data, row_id, row)
                data.mvcc_delete(row_id, txn)
            else:
                if undo is not None:
                    undo.record_delete(data, row_id, row)
                data.delete(row_id)
        return StatementResult(rowcount=len(to_delete))

    # -- DDL -----------------------------------------------------------------

    def _execute_create_table(
        self, statement: ast.CreateTableStatement
    ) -> StatementResult:
        columns = tuple(
            ColumnSchema(
                name=definition.name,
                sql_type=SqlType.from_name(definition.type_name),
                primary_key=definition.primary_key,
                unique=definition.unique,
                nullable=definition.nullable,
                length=definition.length,
            )
            for definition in statement.columns
        )
        schema = TableSchema(name=statement.table, columns=columns)
        self._catalog.create_table(schema)
        data = TableData(schema)
        if self._mvcc is not None:
            data.attach_mvcc(self._mvcc)
        self._tables[schema.name.lower()] = data
        return StatementResult()

    def _execute_create_index(
        self, statement: ast.CreateIndexStatement
    ) -> StatementResult:
        schema = self._catalog.table(statement.table)
        data = self._tables[schema.name.lower()]
        data.create_index(
            statement.name, tuple(statement.columns), unique=statement.unique
        )
        return StatementResult()
